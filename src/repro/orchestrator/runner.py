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
* ``analyses`` — reads the tick's store (see *Store hand-over* below)
  and derives the paper's headline aggregates (collection series,
  resource usage, vulnerable-share prevalence, vulnerability CDF) into
  one canonical JSON document, ``analyses.json``.
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
:class:`~repro.errors.JobExecutionError` when none exists.  Every
``analyses.json`` a job reads is untrusted input: it is parsed with
:func:`~repro.durable.parse_json` and shape-checked before use.

Store hand-over: one runner serves every job of one
:meth:`~repro.orchestrator.Orchestrator.run`, and keeps the in-memory
store of the last crawl (or sweep-crawl) it finished in a one-slot
hand-over, keyed by that job's id and the sha256 of the ``store.bin``
bytes it wrote.  A job that reads a store uses the slot only when the
producer's checksum-verified ``DONE.json`` records that same sha256 —
then the file holds exactly that store's encoding — and decodes the
file otherwise.  Readers borrow the slot store; the crawl that extends
it takes it, emptying the slot before it crawls, so a failed extension
never leaves a half-extended store behind.  A new process starts with
an empty slot.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..config import ScenarioConfig
from ..core.study import Study
from ..durable import atomic_write_bytes, parse_json, quarantine
from ..errors import (
    CheckpointMismatchError,
    JobExecutionError,
    ReproError,
    StoreError,
)
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

#: Version of the ``analyses.json`` document (beat and sweep alike).
ANALYSES_FORMAT = 2

#: The fields of ``document["analyses"]`` that the report job and the
#: sweep fold read: ``(analysis, field, container, numbers only)``.
_HEADLINE_FIELDS = (
    ("collection-series", "dates", list, False),
    ("collection-series", "collected", list, True),
    ("prevalence", "average_share", dict, True),
    ("vulnerability-cdf", "mean", dict, True),
    ("resource-usage", "averages", dict, True),
)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_analyses(path: Path) -> dict:
    """Parse an ``analyses.json`` and check the shape its readers need.

    Raises:
        OSError: The file cannot be read.
        ValueError: The bytes are not JSON (nesting too deep included),
            or the document is not a format-2 analyses document holding
            every :data:`_HEADLINE_FIELDS` entry with the right types.
    """
    document = parse_json(path.read_bytes())
    if (
        not isinstance(document, dict)
        or document.get("format") != ANALYSES_FORMAT
        or not isinstance(document.get("pack"), str)
        or not isinstance(document.get("analyses"), dict)
    ):
        raise ValueError(f"not a format-{ANALYSES_FORMAT} analyses document")
    analyses = document["analyses"]
    for name, field, container, numbers in _HEADLINE_FIELDS:
        entry = analyses.get(name)
        value = entry.get(field) if isinstance(entry, dict) else None
        if not isinstance(value, container):
            raise ValueError(
                f"analyses document has no {container.__name__} {name}.{field}"
            )
        values = value.values() if container is dict else value
        if numbers and not all(map(_is_number, values)):
            raise ValueError(f"analyses document's {name}.{field} is not numeric")
    return document


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
    """Executes fleet jobs against one queue directory.

    Holds the store hand-over slot (see the module docstring), so one
    runner should serve one orchestrator run; a fresh runner starts with
    an empty slot and reads every store from disk.
    """

    def __init__(self, queue: JobQueue, plan: FleetPlan) -> None:
        self.queue = queue
        self.plan = plan
        #: ``(job id, sha256 of its store.bin, ObservationStore)`` of
        #: the last crawl this runner finished, or ``None``.
        self._handover: Optional[Tuple[str, str, object]] = None

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
    ) -> Tuple[str, dict]:
        """``(producing job id, its DONE.json)`` of the freshest valid
        input.

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
                return producer, manifest
        raise JobExecutionError(
            spec.job_id,
            f"no valid {artifact} from any {kind} job at tick "
            f"<= {spec.tick} (policy: {self.plan.degrade_policy})",
        )

    # ------------------------------------------------------------------
    # Stores: the hand-over slot, else a decode from disk
    # ------------------------------------------------------------------
    def _store(self, producer: str, manifest: dict, calendar, matcher):
        """The store ``producer`` wrote, as its verified ``manifest``
        records it.

        The slot's store when the slot holds ``producer``'s store under
        the sha256 ``manifest`` records for ``store.bin``; otherwise the
        file decoded with ``calendar`` and ``matcher``.  A slot store is
        borrowed: only the crawl that extends it may change it, after
        emptying the slot.

        Raises:
            StoreError: The file does not decode.
        """
        from ..crawler.persistence import load_store

        slot = self._handover
        if slot is not None and slot[:2] == (
            producer,
            manifest["artifacts"]["store.bin"]["sha256"],
        ):
            return slot[2]
        return load_store(
            self.queue.artifact_dir(producer) / "store.bin", calendar, matcher
        )

    def _input_store(self, spec: JobSpec, producer: str, manifest: dict, context):
        """:meth:`_store` for a job that cannot run without it."""
        try:
            return self._store(
                producer, manifest, context.config.calendar, context.matcher
            )
        except ReproError as exc:
            raise JobExecutionError(
                spec.job_id, f"{type(exc).__name__}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # crawl
    # ------------------------------------------------------------------
    def _crawl_options(self, spec: JobSpec):
        """Run options of a crawl job: checkpointed, resumable, metered.

        A beat crawl also reads every predecessor tick's cross-run
        profile generation (freshest first — those are immutable by the
        DAG order) and writes this tick's own.  Sweep points share no
        generations: every point is a different dataset, so there is no
        warmth to share.
        """
        from ..options import (
            DurabilityOptions,
            ExecutionOptions,
            ResilienceOptions,
            RunOptions,
        )

        plan = self.plan
        execution = {}
        if plan.workers is not None:
            execution["workers"] = plan.workers
        if plan.backend is not None:
            execution["backend"] = plan.backend
        if spec.kind == CRAWL:
            execution["profile_store_read"] = tuple(
                str(self.queue.profile_generation(tick))
                for tick in range(spec.tick - 1, -1, -1)
            )
            execution["profile_store_write"] = str(
                self.queue.profile_generation(spec.tick)
            )
        return RunOptions(
            execution=ExecutionOptions(**execution),
            resilience=ResilienceOptions(fault_plan=self.queue.fault_plan),
            durability=DurabilityOptions(
                checkpoint_dir=str(self.queue.checkpoint_dir(spec.job_id)),
                resume=True,
            ),
        )

    def _write_crawl(self, spec: JobSpec, study, report) -> Dict[str, Path]:
        """Write a crawl's ``store.bin`` and ``metrics.json``, and hand
        its store over to the jobs that read it."""
        from ..crawler.persistence import store_to_bytes

        art_dir = self.queue.artifact_dir(spec.job_id)
        art_dir.mkdir(parents=True, exist_ok=True)
        store_path = art_dir / "store.bin"
        metrics_path = art_dir / "metrics.json"
        blob = store_to_bytes(study.store)
        atomic_write_bytes(store_path, blob)
        atomic_write_bytes(
            metrics_path, report.metrics.canonical_json().encode("utf-8")
        )
        self._handover = (
            spec.job_id,
            hashlib.sha256(blob).hexdigest(),
            study.store,
        )
        return {"store.bin": store_path, "metrics.json": metrics_path}

    def _run_crawl(self, spec: JobSpec) -> JobResult:
        plan = self.plan
        config = ScenarioConfig(population=plan.population, seed=plan.seed)
        study = Study(config, mode=plan.mode, options=self._crawl_options(spec))
        calendar = study.config.calendar
        start, base = 0, None
        found = self._crawl_base(spec, calendar, study.matcher)
        # The crawl extends its base in place: take it out of the slot,
        # so a run that fails leaves no half-extended store to borrow.
        self._handover = None
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
        return JobResult(
            artifacts=self._write_crawl(spec, study, report),
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
        nothing, and whose store (:meth:`_store`) holds pages of exactly
        its first ``weeks`` calendar weeks — so a store that lost a week
        or a manifest that misstates one is never extended.  Every
        earlier crawl is terminal before this one runs (soft edges order
        them), so a resumed attempt finds the same base unless that
        base's artifacts were damaged in between.
        """
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
                store = self._store(producer, manifest, calendar, matcher)
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

    def _analyses_document(self, spec: JobSpec, store, context) -> dict:
        """The canonical analyses payload: registered headline analyses.

        One shape for beat and sweep jobs — consumers (the report
        renderer, the sweep fold) read ``document["analyses"]`` by
        registry name instead of hand-wired keys.
        """
        from ..analysis.api import HEADLINE_ANALYSES, run_analyses

        return {
            "format": ANALYSES_FORMAT,
            "job_id": spec.job_id,
            "pack": context.config.pack.describe(),
            "analyses": run_analyses(store, context, HEADLINE_ANALYSES),
        }

    def _run_analyses(self, spec: JobSpec) -> JobResult:
        producer, manifest = self._resolve_input(spec, CRAWL, "store.bin")
        context = self._analysis_context(self._scenario_config(spec.tick))
        store = self._input_store(spec, producer, manifest, context)
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
        producer, _ = self._resolve_input(spec, ANALYSES, "analyses.json")
        try:
            document = _read_analyses(
                self.queue.artifact_dir(producer) / "analyses.json"
            )
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

        producer, manifest = self._resolve_input(spec, CRAWL, "store.bin")
        context = self._analysis_context(self._scenario_config(0))
        store = self._input_store(spec, producer, manifest, context)
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
        plan = self.plan
        point = plan.sweep_point(spec.tick)
        # The point's config *is* the dataset identity: the pack
        # selection rides the scenario digest, so this job's checkpoint
        # ledger refuses to resume under a different grid point.
        config = point.config(plan.population, plan.seed)
        study = Study(config, mode=plan.mode, options=self._crawl_options(spec))
        # The previous point's analyses ran before this crawl: free its
        # store rather than hold two while this one is crawled.
        self._handover = None
        weeks = study.config.calendar.weeks[: plan.week_count(spec.tick)]
        report = study.run(weeks=weeks)
        return JobResult(
            artifacts=self._write_crawl(spec, study, report),
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
        context = self._analysis_context(point.config(plan.population, plan.seed))
        store = self._input_store(spec, producer, manifest, context)
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
                documents.append(_read_analyses(path))
            except (OSError, ValueError):
                documents.append(None)  # a malformed point is missing
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
