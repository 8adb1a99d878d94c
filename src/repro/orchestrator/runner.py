"""Job runners: what each fleet job actually executes.

Every runner is a deterministic, idempotent function of its inputs —
artifacts are written with :func:`~repro.durable.atomic_write_bytes`,
so re-running a job (after a retry, a lease loss, or a whole-process
kill) converges on byte-identical outputs:

* ``crawl`` — a checkpointed :class:`~repro.core.Study` run that
  extends the freshest earlier crawl it can trust (its *base*) to the
  tick's week window: the base's ``store.bin`` is decoded into the
  Study and only the weeks after it are crawled, each week once across
  the fleet (with no base, the crawl starts at week 0).  Crawled
  windows are independent, so the store is byte-identical to one crawl
  of the whole window.  The run ledger lives in the queue's
  ``checkpoints/<job>/`` directory with ``resume=True``, so a killed
  attempt replays its journal instead of restarting; built profiles
  flow through the cross-run
  :class:`~repro.crawler.profilestore.ProfileStore` (read: every
  predecessor tick's generation, write: this tick's, with the profiles
  none of them had).  Artifacts: ``store.bin``
  (canonical binary store of the whole window) + ``metrics.json``
  (canonical metrics document of the weeks this job crawled).
* ``analyses`` — loads the tick's store artifact and derives the
  paper's headline aggregates (collection series, resource usage,
  vulnerable-share prevalence, vulnerability CDF) into one canonical
  JSON document, ``analyses.json``.
* ``report`` — renders ``analyses.json`` into the human-readable
  ``report.txt``.
* ``serve`` — the serve-refresh hook: builds a
  :class:`~repro.serve.ServeApp` over the tick's store and snapshots a
  fixed endpoint set (body bytes + ETags) into ``serve/``, the exact
  bytes a running service would answer with after refresh.
* ``sweep-crawl`` / ``sweep-analyses`` / ``sweep-fold`` — the sweep
  engine's jobs: each grid point crawls its pack-transformed scenario
  over the same week window, derives the registered headline analyses
  under that point's (possibly drifted) vulnerability database, and the
  fold compares every point into the canonical ``fleet-sweep.json``
  plus a rendered comparison table.

The ``analyses`` document (beat and sweep alike) is built from the
:mod:`repro.analysis.api` registry — ``document["analyses"]`` maps
registered analysis names to canonical dicts — so the report job and
the sweep fold read analyses by name instead of hand-wired shapes.

Input resolution implements the ``run-stale`` degrade policy: when a
job's primary input tick has no valid ``DONE.json``, the runner walks
back to the freshest earlier tick that does (recording the substitution
in its own manifest), and raises a typed
:class:`~repro.errors.JobExecutionError` when none exists.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Tuple

from ..config import ScenarioConfig
from ..durable import atomic_write_bytes, quarantine
from ..errors import CheckpointMismatchError, JobExecutionError
from .jobs import (
    ANALYSES,
    CRAWL,
    REPORT,
    SERVE,
    SWEEP_ANALYSES,
    SWEEP_CRAWL,
    SWEEP_FOLD,
    FleetPlan,
    JobSpec,
    job_id,
)
from .queue import JobQueue

#: The serve endpoints snapshotted by a serve-refresh job.  Fixed and
#: ordered: the snapshot bytes are part of the fleet's convergence
#: contract.
SERVE_SNAPSHOT_PATHS = ("/report", "/weeks/0/overview", "/libraries/jquery/trend")


@dataclasses.dataclass
class JobResult:
    """What one runner produced.

    Attributes:
        artifacts: Artifact-name → path map, as recorded in
            ``DONE.json``.
        extra: Extra manifest fields (e.g. the resolved stale input).
    """

    artifacts: Dict[str, Path]
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)


class JobRunner:
    """Executes fleet jobs against one queue directory."""

    def __init__(self, queue: JobQueue, plan: FleetPlan) -> None:
        self.queue = queue
        self.plan = plan

    # ------------------------------------------------------------------
    def execute(self, spec: JobSpec) -> JobResult:
        """Run one job to completion (not including its ``DONE.json``).

        Raises:
            JobExecutionError: The job cannot produce its artifacts —
                missing inputs, no stale fallback, or an execution
                error from the underlying pipeline.
        """
        if spec.kind == CRAWL:
            return self._run_crawl(spec)
        if spec.kind == ANALYSES:
            return self._run_analyses(spec)
        if spec.kind == REPORT:
            return self._run_report(spec)
        if spec.kind == SERVE:
            return self._run_serve(spec)
        if spec.kind == SWEEP_CRAWL:
            return self._run_sweep_crawl(spec)
        if spec.kind == SWEEP_ANALYSES:
            return self._run_sweep_analyses(spec)
        if spec.kind == SWEEP_FOLD:
            return self._run_sweep_fold(spec)
        raise JobExecutionError(spec.job_id, f"unknown job kind {spec.kind!r}")

    # ------------------------------------------------------------------
    # Input resolution (run-stale walks backwards)
    # ------------------------------------------------------------------
    def _resolve_input(
        self, spec: JobSpec, kind: str, artifact: str
    ) -> Tuple[Path, str]:
        """``(path, producing job id)`` of the freshest valid input.

        Prefers the job's own tick; under the ``run-stale`` policy a
        missing/invalid input falls back to earlier ticks.  Validity
        means a checksum-verified ``DONE.json`` listing the artifact.
        """
        ticks = [spec.tick]
        if self.plan.degrade_policy == "run-stale":
            ticks.extend(range(spec.tick - 1, -1, -1))
        for tick in ticks:
            producer = job_id(kind, tick)
            manifest = self.queue.read_done_manifest(producer)
            if manifest is not None and artifact in manifest["artifacts"]:
                return self.queue.artifact_dir(producer) / artifact, producer
        raise JobExecutionError(
            spec.job_id,
            f"no valid {artifact} from any {kind} job at tick "
            f"<= {spec.tick} (policy: {self.plan.degrade_policy})",
        )

    # ------------------------------------------------------------------
    # crawl
    # ------------------------------------------------------------------
    def _run_crawl(self, spec: JobSpec) -> JobResult:
        from ..core.study import Study
        from ..crawler.persistence import store_to_bytes
        from ..options import (
            DurabilityOptions,
            ExecutionOptions,
            ObservabilityOptions,
            ResilienceOptions,
            RunOptions,
        )

        plan = self.plan
        config = ScenarioConfig(population=plan.population, seed=plan.seed)
        # Cross-run profile generations: read every predecessor tick's
        # (freshest first — those are immutable by the DAG order), write
        # this tick's own.
        config = dataclasses.replace(
            config,
            incremental=dataclasses.replace(
                config.incremental,
                profile_store_read=tuple(
                    str(self.queue.profile_generation(tick))
                    for tick in range(spec.tick - 1, -1, -1)
                ),
                profile_store_write=str(
                    self.queue.profile_generation(spec.tick)
                ),
            ),
        )
        options = RunOptions(
            execution=ExecutionOptions(
                workers=plan.workers, backend=plan.backend
            ),
            resilience=ResilienceOptions(fault_plan=self.queue.fault_plan),
            durability=DurabilityOptions(
                checkpoint_dir=str(self.queue.checkpoint_dir(spec.job_id)),
                resume=True,
            ),
            observability=ObservabilityOptions(metrics=True),
        )
        study = Study(config, mode=plan.mode, options=options)
        calendar = study.config.calendar
        start, base = 0, None
        found = self._crawl_base(spec, calendar, study.matcher)
        if found is not None:
            study.store, start, base = found
        weeks = calendar.weeks[start : plan.week_count(spec.tick)]
        try:
            report = study.run(weeks=weeks)
        except CheckpointMismatchError as exc:
            if [field for field, _, _ in exc.mismatches] != ["week_ordinals"]:
                raise
            # The checkpoint extends a base that no longer verifies (its
            # artifacts were damaged after this crawl began), so its
            # journal covers other weeks: set it aside and crawl afresh.
            quarantine(
                self.queue.checkpoint_dir(spec.job_id),
                self.queue.quarantine_dir,
            )
            report = study.run(weeks=weeks)

        art_dir = self.queue.artifact_dir(spec.job_id)
        art_dir.mkdir(parents=True, exist_ok=True)
        store_path = art_dir / "store.bin"
        metrics_path = art_dir / "metrics.json"
        atomic_write_bytes(store_path, store_to_bytes(study.store))
        atomic_write_bytes(
            metrics_path, report.metrics.canonical_json().encode("utf-8")
        )
        return JobResult(
            artifacts={"store.bin": store_path, "metrics.json": metrics_path},
            extra={
                "weeks": plan.week_count(spec.tick),
                "base": base,
                "degraded_run": report.degraded,
            },
        )

    def _crawl_base(self, spec: JobSpec, calendar, matcher):
        """``(store, weeks, job id)`` of the crawl ``spec`` extends, or
        ``None`` when it must start at week 0.

        The base is the freshest earlier crawl whose checksum-verified
        ``DONE.json`` lists ``store.bin``, records a run that dropped
        nothing, and whose decoded store holds pages of exactly its
        first ``weeks`` calendar weeks — so a store that lost a week or
        a manifest that misstates one is never extended.  Every earlier
        crawl is terminal before this one runs (soft edges order them),
        so a resumed attempt finds the same base unless that base's
        artifacts were damaged in between.
        """
        from ..crawler.persistence import load_store
        from ..errors import StoreError

        target = self.plan.week_count(spec.tick)
        for tick in range(spec.tick - 1, -1, -1):
            producer = job_id(CRAWL, tick)
            manifest = self.queue.read_done_manifest(producer)
            if (
                manifest is None
                or "store.bin" not in manifest["artifacts"]
                or manifest.get("degraded_run") is not False
            ):
                continue
            weeks = manifest.get("weeks")
            if type(weeks) is not int or not 0 < weeks < target:
                continue
            try:
                store = load_store(
                    self.queue.artifact_dir(producer) / "store.bin",
                    calendar,
                    matcher,
                )
            except StoreError:
                continue
            held = sorted(
                ordinal
                for ordinal, week in store.weeks.items()
                if week.collected
            )
            if held != list(range(weeks)):
                continue
            return store, weeks, producer
        return None

    # ------------------------------------------------------------------
    # analyses
    # ------------------------------------------------------------------
    def _scenario_config(self, tick: int) -> ScenarioConfig:
        """The scenario a tick's jobs derive from (pack-aware for sweeps)."""
        if self.plan.is_sweep:
            return self.plan.sweep_point(tick).config(
                self.plan.population, self.plan.seed
            )
        return ScenarioConfig(
            population=self.plan.population, seed=self.plan.seed
        )

    def _analysis_context(self, config: ScenarioConfig):
        """The registry context for ``config`` — including any pack-
        injected advisory drift, which is dataset identity and must be
        matched at load time exactly as the crawl matched it."""
        from ..analysis.api import AnalysisContext
        from ..vulndb import VersionMatcher, default_database

        database = default_database()
        if config.cve_drift.enabled:
            from ..vulndb.drift import drifted_database

            database = drifted_database(database, config.cve_drift)
        return AnalysisContext(
            config=config,
            database=database,
            matcher=VersionMatcher(database),
        )

    def _load_store(self, path: Path, job: str, context=None):
        from ..crawler.persistence import load_store
        from ..errors import ReproError

        if context is None:
            context = self._analysis_context(self._scenario_config(0))
        try:
            return load_store(
                path, context.config.calendar, context.matcher
            )
        except ReproError as exc:
            raise JobExecutionError(
                job, f"{type(exc).__name__}: {exc}"
            ) from exc

    def _analyses_document(self, spec: JobSpec, store, context) -> dict:
        """The canonical analyses payload: registered headline analyses.

        One shape for beat and sweep jobs — consumers (the report
        renderer, the sweep fold) read ``document["analyses"]`` by
        registry name instead of hand-wired keys.
        """
        from ..analysis.api import HEADLINE_ANALYSES, run_analyses

        return {
            "format": 2,
            "job_id": spec.job_id,
            "pack": context.config.pack.describe(),
            "analyses": run_analyses(store, context, HEADLINE_ANALYSES),
        }

    def _run_analyses(self, spec: JobSpec) -> JobResult:
        store_path, producer = self._resolve_input(spec, CRAWL, "store.bin")
        context = self._analysis_context(self._scenario_config(spec.tick))
        store = self._load_store(store_path, spec.job_id, context)
        document = self._analyses_document(spec, store, context)
        document["source"] = producer
        art_dir = self.queue.artifact_dir(spec.job_id)
        art_dir.mkdir(parents=True, exist_ok=True)
        path = art_dir / "analyses.json"
        atomic_write_bytes(
            path, json.dumps(document, sort_keys=True).encode("utf-8")
        )
        return JobResult(
            artifacts={"analyses.json": path}, extra={"source": producer}
        )

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def _run_report(self, spec: JobSpec) -> JobResult:
        path, producer = self._resolve_input(spec, ANALYSES, "analyses.json")
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise JobExecutionError(
                spec.job_id, f"{type(exc).__name__}: {exc}"
            ) from exc
        analyses = document["analyses"]
        collection = analyses["collection-series"]
        collected = collection["collected"]
        average = sum(collected) / len(collected) if collected else 0.0
        lines = [
            f"fleet report for {spec.job_id} (from {producer})",
            f"scenario pack: {document['pack']}",
            f"weeks observed: {len(collection['dates'])}",
            f"average weekly collected: {average:.1f}",
        ]
        for mode, share in sorted(analyses["prevalence"]["average_share"].items()):
            lines.append(f"vulnerable share [{mode}]: {share:.4f}")
        for mode, mean in sorted(analyses["vulnerability-cdf"]["mean"].items()):
            lines.append(f"mean vulns per site [{mode}]: {mean:.4f}")
        for resource, share in sorted(analyses["resource-usage"]["averages"].items()):
            lines.append(f"resource share [{resource}]: {share:.4f}")
        art_dir = self.queue.artifact_dir(spec.job_id)
        art_dir.mkdir(parents=True, exist_ok=True)
        out = art_dir / "report.txt"
        atomic_write_bytes(out, ("\n".join(lines) + "\n").encode("utf-8"))
        return JobResult(
            artifacts={"report.txt": out}, extra={"source": producer}
        )

    # ------------------------------------------------------------------
    # serve-refresh
    # ------------------------------------------------------------------
    def _run_serve(self, spec: JobSpec) -> JobResult:
        from ..serve.app import ServeApp

        store_path, producer = self._resolve_input(spec, CRAWL, "store.bin")
        store = self._load_store(store_path, spec.job_id)
        app = ServeApp(store, precompute=False)
        art_dir = self.queue.artifact_dir(spec.job_id) / "serve"
        art_dir.mkdir(parents=True, exist_ok=True)
        artifacts: Dict[str, Path] = {}
        index = {}
        for endpoint in SERVE_SNAPSHOT_PATHS:
            response = app.get(endpoint)
            if response.status != 200:
                raise JobExecutionError(
                    spec.job_id,
                    f"serve refresh got {response.status} for {endpoint}",
                )
            name = endpoint.strip("/").replace("/", "_") or "index"
            body_path = art_dir / f"{name}.json"
            atomic_write_bytes(body_path, response.body)
            artifacts[f"serve/{name}.json"] = body_path
            index[endpoint] = {
                "file": f"serve/{name}.json",
                "etag": response.header("ETag"),
            }
        index_path = art_dir / "index.json"
        atomic_write_bytes(
            index_path, json.dumps(index, sort_keys=True).encode("utf-8")
        )
        artifacts["serve/index.json"] = index_path
        return JobResult(artifacts=artifacts, extra={"source": producer})

    # ------------------------------------------------------------------
    # sweep: per-point crawl -> per-point analyses -> cross-point fold
    # ------------------------------------------------------------------
    def _run_sweep_crawl(self, spec: JobSpec) -> JobResult:
        from ..core.study import Study
        from ..crawler.persistence import store_to_bytes
        from ..options import (
            DurabilityOptions,
            ExecutionOptions,
            ObservabilityOptions,
            ResilienceOptions,
            RunOptions,
        )

        plan = self.plan
        point = plan.sweep_point(spec.tick)
        # The point's config *is* the dataset identity: the pack
        # selection rides the scenario digest, so this job's checkpoint
        # ledger refuses to resume under a different grid point.  No
        # cross-point profile generations — every point is a different
        # dataset, so there is no warmth to share.
        config = point.config(plan.population, plan.seed)
        options = RunOptions(
            execution=ExecutionOptions(
                workers=plan.workers, backend=plan.backend
            ),
            resilience=ResilienceOptions(fault_plan=self.queue.fault_plan),
            durability=DurabilityOptions(
                checkpoint_dir=str(self.queue.checkpoint_dir(spec.job_id)),
                resume=True,
            ),
            observability=ObservabilityOptions(metrics=True),
        )
        study = Study(config, mode=plan.mode, options=options)
        weeks = study.config.calendar.weeks[: plan.week_count(spec.tick)]
        report = study.run(weeks=weeks)

        art_dir = self.queue.artifact_dir(spec.job_id)
        art_dir.mkdir(parents=True, exist_ok=True)
        store_path = art_dir / "store.bin"
        metrics_path = art_dir / "metrics.json"
        atomic_write_bytes(store_path, store_to_bytes(study.store))
        atomic_write_bytes(
            metrics_path, report.metrics.canonical_json().encode("utf-8")
        )
        return JobResult(
            artifacts={"store.bin": store_path, "metrics.json": metrics_path},
            extra={
                "point": point.describe(),
                "scenario_digest": point.scenario_digest(
                    plan.population, plan.seed
                ),
                "weeks": plan.week_count(spec.tick),
                "degraded_run": report.degraded,
            },
        )

    def _run_sweep_analyses(self, spec: JobSpec) -> JobResult:
        plan = self.plan
        point = plan.sweep_point(spec.tick)
        # No stale walk-back here, whatever the degrade policy: an
        # earlier tick is a *different scenario*, so substituting its
        # store would silently compare the wrong dataset.
        producer = job_id(SWEEP_CRAWL, spec.tick)
        manifest = self.queue.read_done_manifest(producer)
        if manifest is None or "store.bin" not in manifest["artifacts"]:
            raise JobExecutionError(
                spec.job_id,
                f"no valid store.bin from {producer} (sweep points never "
                f"substitute another point's dataset)",
            )
        store_path = self.queue.artifact_dir(producer) / "store.bin"
        context = self._analysis_context(point.config(plan.population, plan.seed))
        store = self._load_store(store_path, spec.job_id, context)
        document = self._analyses_document(spec, store, context)
        document["source"] = producer
        document["point"] = point.describe()
        document["scenario_digest"] = point.scenario_digest(
            plan.population, plan.seed
        )
        art_dir = self.queue.artifact_dir(spec.job_id)
        art_dir.mkdir(parents=True, exist_ok=True)
        path = art_dir / "analyses.json"
        atomic_write_bytes(
            path, json.dumps(document, sort_keys=True).encode("utf-8")
        )
        return JobResult(
            artifacts={"analyses.json": path},
            extra={"source": producer, "point": point.describe()},
        )

    def _run_sweep_fold(self, spec: JobSpec) -> JobResult:
        from ..sweep.fold import (
            SWEEP_DOCUMENT_NAME,
            canonical_sweep_bytes,
            fold_documents,
            render_sweep_report,
        )

        plan = self.plan
        documents = []
        for tick in range(len(plan.sweep_points)):
            producer = job_id(SWEEP_ANALYSES, tick)
            manifest = self.queue.read_done_manifest(producer)
            if manifest is None or "analyses.json" not in manifest["artifacts"]:
                documents.append(None)
                continue
            path = self.queue.artifact_dir(producer) / "analyses.json"
            try:
                documents.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                documents.append(None)
        if not any(document is not None for document in documents):
            raise JobExecutionError(
                spec.job_id,
                "no sweep point produced a valid analyses.json; nothing "
                "to fold",
            )
        folded = fold_documents(
            plan.sweep_points,
            documents,
            population=plan.population,
            seed=plan.seed,
            weeks=plan.weeks_per_tick,
        )
        payload = canonical_sweep_bytes(folded)
        art_dir = self.queue.artifact_dir(spec.job_id)
        art_dir.mkdir(parents=True, exist_ok=True)
        document_path = art_dir / SWEEP_DOCUMENT_NAME
        report_path = art_dir / "sweep-report.txt"
        atomic_write_bytes(document_path, payload)
        atomic_write_bytes(
            report_path,
            (render_sweep_report(folded) + "\n").encode("utf-8"),
        )
        # Convenience copy at the queue root (next to fleet-metrics.json)
        # so tooling can diff sweeps without walking artifact dirs; the
        # bytes are canonical, so rewriting on resume is idempotent.
        atomic_write_bytes(self.queue.root / SWEEP_DOCUMENT_NAME, payload)
        return JobResult(
            artifacts={
                SWEEP_DOCUMENT_NAME: document_path,
                "sweep-report.txt": report_path,
            },
            extra={"missing": folded["missing"]},
        )
