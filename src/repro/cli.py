"""Command-line interface.

Four subcommands::

    repro run [--population N] [--seed S] [--save-store FILE] [--full]
              [--weeks N] [<run options>]
        Build a scenario, crawl the study weeks (optionally sharded
        across workers, optionally under an injected fault plan,
        optionally journaled to a durable checkpoint directory), print
        the study report.  The run-option flags (``--workers``,
        ``--backend``, ``--fault-plan``, ``--checkpoint-dir``,
        ``--metrics-out``, ...) are *derived* from the
        :mod:`repro.options` dataclasses — see ``repro run --help`` for
        the grouped listing; the CLI cannot drift from the ``Study``
        API because both read the same declaration.

    repro scan FILE [--url URL]
        Fingerprint a local HTML file and print prioritized findings
        (the Section 9 recommendations as a scanner).

    repro validate
        Run the PoC lab sweep over every advisory and print the Table 2
        verdicts.

    repro serve --store FILE [--crawl-metrics FILE] [--port N] [...]
        Load a persisted binary store and serve the analysis surface as
        canonical-JSON endpoints (see :mod:`repro.serve`); the flag
        group is derived from the ``ServeOptions`` dataclass.

    repro orchestrate {run,status} --queue-dir DIR [--ticks N] [...]
        Drive (or inspect) a durable multi-run fleet: a leased job
        queue of crawl -> analyses -> report -> serve-refresh DAGs with
        retries, dead-lettering, and crash recovery (see
        :mod:`repro.orchestrator`); the flag group is derived from the
        ``OrchestratorOptions`` dataclass.

    repro sweep {run,status,report} --queue-dir DIR [--grid SPEC] [...]
        Expand a scenario-pack grid (``--grid
        'baseline;bundled-deps:share=0.1|0.3'``) into per-point
        crawl+analyses jobs plus one fold, all on the orchestrator's
        durable queue, and print the cross-scenario comparison (see
        :mod:`repro.sweep`); flags derive from ``SweepOptions``.

``repro run`` also accepts ``--scenario-pack NAME`` (with repeatable
``--pack-param name=value``) to run a single pack-transformed scenario
— pack selection is dataset identity, so the stamped config flows into
the store bytes and the run ledger's scenario digest.

Also usable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .options import (
    add_option_arguments,
    add_orchestrate_arguments,
    add_serve_arguments,
    add_sweep_arguments,
)


def _path_error(
    files: Dict[str, Optional[str]], dirs: Dict[str, Optional[str]]
) -> Optional[str]:
    """Why the CLI could not write one of its output paths, or None.

    ``files`` and ``dirs`` map each flag to its value (None when
    unset).  An output file needs an existing directory to land in; a
    checkpoint or queue directory must be a directory or be creatable
    under its nearest existing ancestor.  Checked before any work
    starts, so a bad path costs no crawl.
    """
    for flag, value in files.items():
        if not value:
            continue
        path = Path(value)
        if path.is_dir():
            return f"{flag} {value}: is a directory"
        if not path.parent.is_dir():
            return f"{flag} {value}: directory {path.parent} does not exist"
    for flag, value in dirs.items():
        if not value:
            continue
        existing = Path(value)
        while not existing.exists() and existing != existing.parent:
            existing = existing.parent
        if not existing.is_dir():
            return f"{flag} {value}: {existing} is not a directory"
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    import time

    from . import ScenarioConfig, Study
    from .errors import ConfigError
    from .options import options_from_namespace
    from .reporting import StudyReport

    if args.weeks is not None and args.weeks < 1:
        print("error: --weeks must be >= 1", file=sys.stderr)
        return 2
    try:
        # One conversion validates every group (backend names, retry
        # budgets, fault-plan specs, resume-without-checkpoint...) with
        # the same ConfigError messages the Study API raises.
        options = options_from_namespace(args)
        config = ScenarioConfig(population=args.population, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    error = _path_error(
        files={
            "--save-store": args.save_store,
            "--metrics-out": options.observability.metrics_out,
        },
        dirs={"--checkpoint-dir": options.durability.checkpoint_dir},
    )
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    fault_plan = options.resilience.fault_plan

    if args.scenario_pack or args.pack_param:
        from .scenarios import apply_pack

        params = {}
        for raw in args.pack_param or []:
            name, eq, value = raw.partition("=")
            if not eq or not name:
                print(
                    f"error: bad --pack-param {raw!r}; expected name=value",
                    file=sys.stderr,
                )
                return 2
            params[name] = value
        try:
            config = apply_pack(
                config, args.scenario_pack or "baseline", params
            )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    study = Study(
        config,
        mode="full" if args.full else "manifest",
        options=options,
    )
    weeks = None
    if args.weeks is not None:
        weeks = study.config.calendar.weeks[: args.weeks]
    started = time.perf_counter()
    from .errors import CheckpointError

    try:
        report = study.run(weeks=weeks)
    except (CheckpointError, ConfigError) as exc:
        # ConfigError here means a run-time configuration input went
        # bad — e.g. an unreadable/mismatched --plan-from document.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    execution = study.options.execution
    lookups = report.cache_hits + report.cache_misses
    cache_note = (
        f", profile cache {report.cache_hits:,}/{lookups:,} hits "
        f"({report.cache_hit_rate:.0%})"
        if lookups
        else ", profile cache off"
    )
    print(
        f"crawled {report.domains_crawled:,} domains x "
        f"{report.weeks_crawled} weeks -> {report.pages_collected:,} pages "
        f"in {elapsed:.2f}s "
        f"({execution.resolved_backend} backend, "
        f"{execution.workers} worker{'s' if execution.workers != 1 else ''}"
        f"{cache_note})",
        file=sys.stderr,
    )
    metrics = report.metrics
    # Phase breakdown: plan/dispatch are the coordinator's phases;
    # fetch/fingerprint/journal accumulate inside the workers (they
    # overlap the dispatch wall time, not add to it); fold is the
    # coordinator-side merge of shard payloads.
    phases = ", ".join(
        f"{name} {metrics.wall_seconds(name):.2f}s"
        for name in (
            "plan",
            "dispatch",
            "fetch",
            "fingerprint",
            "journal",
            "fold",
        )
    )
    print(f"phases: {phases}", file=sys.stderr)
    if getattr(args, "plan_from", None):
        planner = metrics.snapshot().get("planner")
        if planner:
            print(
                f"adaptive plan [{args.plan_from}]: "
                f"{len(planner['shards'])} shards, "
                f"imbalance {planner['imbalance_permille'] / 10:.1f}% "
                f"(max {planner['max_cost_units']:,} of "
                f"{planner['total_cost_units']:,} cost units)",
                file=sys.stderr,
            )
    if args.checkpoint_dir:
        print(
            f"ledger [{args.checkpoint_dir}]: "
            f"{report.shards_replayed} shard"
            f"{'s' if report.shards_replayed != 1 else ''} replayed, "
            f"{report.shards_reexecuted} executed, "
            f"{report.entries_quarantined} quarantined, "
            f"{report.bytes_journaled:,} bytes journaled",
            file=sys.stderr,
        )
    if fault_plan is not None:
        print(
            f"fault plan [{fault_plan.describe()}]: "
            f"{report.dropped_shards} shard"
            f"{'s' if report.dropped_shards != 1 else ''} dropped "
            f"({report.dropped_cells:,} cells), "
            f"{report.shard_retries} retr"
            f"{'ies' if report.shard_retries != 1 else 'y'}, "
            f"{report.backoff_seconds:.1f}s simulated backoff",
            file=sys.stderr,
        )
        for line in report.shard_errors:
            print(f"  dropped {line}", file=sys.stderr)
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    print(StudyReport(study).render())
    if args.save_store:
        from .crawler.persistence import save_store

        save_store(study.store, args.save_store)
        print(f"store saved to {args.save_store}", file=sys.stderr)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .advisor import SiteScanner

    path = Path(args.file)
    if not path.exists():
        print(f"error: no such file: {path}", file=sys.stderr)
        return 2
    html = path.read_text(errors="replace")
    url = args.url or f"https://{path.stem}.example/"
    report = SiteScanner().scan_html(html, url)
    print(report.summary_line())
    for finding in report.findings:
        flags = ""
        if finding.exploitable:
            flags += " [EXPLOITABLE]"
        if finding.undisclosed:
            flags += " [UNDISCLOSED-BY-CVE]"
        print(f"{finding.severity.name:8s} {finding.rule:22s} {finding.title}{flags}")
        print(f"{'':8s} -> {finding.remediation}")
    return 1 if report.findings else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .errors import ConfigError
    from .options import serve_options_from_namespace
    from .serve import run_server

    try:
        options = serve_options_from_namespace(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_server(options)


def _cmd_orchestrate(args: argparse.Namespace) -> int:
    from .errors import ConfigError, OrchestratorError
    from .options import orchestrate_options_from_namespace

    try:
        options = orchestrate_options_from_namespace(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not options.queue_dir:
        print("error: --queue-dir is required", file=sys.stderr)
        return 2

    # The queue and its status view load no crawl engine; only the run
    # branch imports the Orchestrator, and with it the generator.
    from .orchestrator import DEAD_LETTER, status_lines

    if args.action == "status":
        try:
            for line in status_lines(options.queue_dir):
                print(line)
        except OrchestratorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    error = _path_error(files={}, dirs={"--queue-dir": options.queue_dir})
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from .orchestrator import Orchestrator

    try:
        plan = options.to_plan()
        orchestrator = Orchestrator(options.queue_dir, plan)
        records = orchestrator.run()
    except (ConfigError, OrchestratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Degraded-but-complete is still exit 0: every job reached a
    # terminal state and nothing was dropped — the dead-letter queue
    # and the stderr report carry the damage.
    done = sum(1 for r in records.values() if r.state == "done")
    counters = orchestrator.instruments.counters
    print(
        f"fleet [{options.queue_dir}]: {done}/{len(records)} jobs done, "
        f"{counters.get('orchestrator.job_retries', 0)} retr"
        f"{'ies' if counters.get('orchestrator.job_retries', 0) != 1 else 'y'}, "
        f"{counters.get('orchestrator.lease_expiries', 0)} lease expiries, "
        f"{counters.get('orchestrator.records_quarantined', 0)} records "
        f"quarantined",
        file=sys.stderr,
    )
    for record in records.values():
        if record.degraded:
            label = (
                "dead-letter" if record.state == DEAD_LETTER else record.state
            )
            print(
                f"  {label} {record.job_id}: {record.error}", file=sys.stderr
            )
    print(f"fleet metrics written to {orchestrator.write_fleet_metrics()}",
          file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .errors import ConfigError, OrchestratorError
    from .options import sweep_options_from_namespace

    try:
        options = sweep_options_from_namespace(args)
        spec = options.to_spec()  # surfaces grid errors before any I/O
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not options.queue_dir:
        print("error: --queue-dir is required", file=sys.stderr)
        return 2

    from .orchestrator import status_lines
    from .sweep import SWEEP_DOCUMENT_NAME, render_sweep_report

    if args.action == "status":
        try:
            for line in status_lines(options.queue_dir):
                print(line)
        except OrchestratorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    from .durable import parse_json

    document_path = Path(options.queue_dir) / SWEEP_DOCUMENT_NAME
    if args.action == "report":
        try:
            document = parse_json(document_path.read_bytes())
        except (OSError, ValueError) as exc:
            print(
                f"error: no folded sweep document at {document_path} "
                f"({type(exc).__name__}: {exc}); run 'repro sweep run' "
                f"first",
                file=sys.stderr,
            )
            return 2
        print(render_sweep_report(document))
        return 0

    error = _path_error(files={}, dirs={"--queue-dir": options.queue_dir})
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from .orchestrator import Orchestrator

    try:
        plan = options.to_plan()
        orchestrator = Orchestrator(options.queue_dir, plan)
        records = orchestrator.run()
    except (ConfigError, OrchestratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    done = sum(1 for r in records.values() if r.state == "done")
    print(
        f"sweep [{options.queue_dir}]: {len(spec.points)} point(s), "
        f"{done}/{len(records)} jobs done",
        file=sys.stderr,
    )
    for record in records.values():
        if record.degraded:
            print(
                f"  {record.state} {record.job_id}: {record.error}",
                file=sys.stderr,
            )
    try:
        document = parse_json(document_path.read_bytes())
    except (OSError, ValueError):
        print(
            f"error: sweep finished but no folded document at "
            f"{document_path}",
            file=sys.stderr,
        )
        return 2
    print(render_sweep_report(document))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .poclab import ValidationLab
    from .reporting import Table
    from .vulndb import default_database

    lab = ValidationLab(default_database())
    table = Table(
        ["advisory", "library", "stated", "verdict", "+revealed", "-exonerated"],
        title="PoC validation sweep",
    )
    for verdict in lab.classify_all():
        table.add_row(
            verdict.advisory.identifier,
            verdict.advisory.library,
            verdict.advisory.stated_range.describe(),
            verdict.verdict.value,
            len(verdict.newly_revealed),
            len(verdict.exonerated),
        )
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for the IMC'23 client-side "
        "resource study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a full study and print the report")
    run.add_argument("--population", type=int, default=2_000)
    run.add_argument("--seed", type=int, default=20230926)
    run.add_argument(
        "--save-store",
        metavar="FILE",
        default=None,
        help="persist the store as a canonical binary blob (format v2)",
    )
    run.add_argument(
        "--full",
        action="store_true",
        help="crawl over HTTP + fingerprint HTML instead of the fast path",
    )
    run.add_argument(
        "--weeks",
        type=int,
        default=None,
        metavar="N",
        help="crawl only the first N calendar weeks (default: all 201)",
    )
    run.add_argument(
        "--scenario-pack",
        metavar="NAME",
        default=None,
        help="apply a registered scenario pack before running (packs "
        "are dataset identity: the selection is stamped into the "
        "config and the run ledger's scenario digest)",
    )
    run.add_argument(
        "--pack-param",
        metavar="NAME=VALUE",
        action="append",
        default=None,
        help="override one declared pack parameter (repeatable; "
        "implies --scenario-pack, defaulting to 'baseline')",
    )
    # Every run-option flag (--workers, --backend, --fault-plan,
    # --checkpoint-dir, --metrics-out, ...) is derived from the
    # repro.options dataclasses' field metadata.
    add_option_arguments(run)
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve",
        help="serve a persisted store as JSON endpoints (repro.serve)",
    )
    # The serve flag surface is likewise derived from ServeOptions
    # field metadata; `python -m repro.serve` reads the same table.
    add_serve_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    orchestrate = sub.add_parser(
        "orchestrate",
        help="run or inspect a durable multi-run fleet (repro.orchestrator)",
    )
    orchestrate.add_argument(
        "action",
        choices=("run", "status"),
        help="'run' drives the fleet DAG to quiescence (resuming any "
        "prior progress in --queue-dir); 'status' prints the durable "
        "job records without touching them",
    )
    # The orchestrate flag surface is derived from OrchestratorOptions
    # field metadata, like run/serve above.
    add_orchestrate_arguments(orchestrate)
    orchestrate.set_defaults(func=_cmd_orchestrate)

    sweep = sub.add_parser(
        "sweep",
        help="run a scenario-pack grid and fold the cross-scenario "
        "comparison (repro.sweep)",
    )
    sweep.add_argument(
        "action",
        choices=("run", "status", "report"),
        help="'run' drives the grid to quiescence and prints the "
        "comparison; 'status' prints the durable job records; 'report' "
        "re-renders the folded document without running anything",
    )
    # The sweep flag surface is derived from SweepOptions field
    # metadata, like run/serve/orchestrate above.
    add_sweep_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    scan = sub.add_parser("scan", help="scan one HTML file for findings")
    scan.add_argument("file")
    scan.add_argument("--url", default=None, help="page URL for origin checks")
    scan.set_defaults(func=_cmd_scan)

    validate = sub.add_parser("validate", help="run the PoC lab sweep")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
