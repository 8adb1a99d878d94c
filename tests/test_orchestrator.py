"""Durable multi-run orchestrator: queue, DAG, chaos convergence.

The contract under test (extending the single-run ledger guarantees to
fleets): a fleet of chained jobs killed at any point — including a hard
process abort — and resumed from its queue directory produces final
stores, canonical fleet metrics, and serve-refresh bytes identical to
the uninterrupted fleet, on every execution backend; exhausted-retry
jobs land in the dead-letter queue with their dependents degraded per
policy, never silently dropped.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.crawler import persistence
from repro.errors import ConfigError, CrawlError, JobExecutionError, QueueError
from repro.orchestrator import (
    DEAD_LETTER,
    DONE,
    FleetPlan,
    JobQueue,
    Orchestrator,
    status_lines,
)
from repro.orchestrator.queue import BLOCKED, LEASED, PENDING, RUNNING, SKIPPED
from repro.orchestrator.runner import JobRunner

from conftest import count_calls

_POPULATION = 24
_SEED = 7
_CHAOS = "seed=3,jobcrash=0.4,leasestorm=0.5,queuetear=0.5"


def _plan(**overrides) -> FleetPlan:
    defaults = dict(
        population=_POPULATION,
        seed=_SEED,
        ticks=2,
        weeks_per_tick=2,
        max_job_retries=2,
    )
    defaults.update(overrides)
    return FleetPlan.build(**defaults)


#: ``(profile_store.hits, profile_store.misses)`` of every crawl job.
#: Tick 0 has no predecessor generation, so it records no lookups;
#: tick 1 finds every profile in tick 0's generation.  Every fleet in
#: this module — clean, chaos, killed-and-resumed, sharded — records
#: exactly these counts.
_PROFILE_STORE_COUNTERS = {"crawl-000": (0, 0), "crawl-001": (21, 0)}


def _profile_store_counters(root: Path) -> dict:
    counters = {}
    for path in sorted((root / "artifacts").glob("crawl-*/metrics.json")):
        values = json.loads(path.read_text())["execution"]["counters"]
        counters[path.parent.name] = (
            values["profile_store.hits"],
            values["profile_store.misses"],
        )
    return counters


def _artifact_digests(root: Path, include_metrics: bool = True) -> dict:
    """sha256 per artifact file under the queue, keyed by relative path.

    ``include_metrics=False`` drops the crawl ``metrics.json``
    documents: those are byte-stable for a *fixed* execution config
    (including across kill/resume) but legitimately describe the
    execution — an unsharded serial crawl and a sharded one record
    different planner/dispatch telemetry.  The dataset artifacts
    (stores, analyses, reports, serve snapshots) must match across
    backends unconditionally.
    """
    digests = {}
    art_root = root / "artifacts"
    for path in sorted(art_root.rglob("*")):
        if not path.is_file() or path.name == "DONE.json":
            continue
        if not include_metrics and path.name == "metrics.json":
            continue
        digests[str(path.relative_to(art_root))] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return digests


# ----------------------------------------------------------------------
# FleetPlan
# ----------------------------------------------------------------------
class TestFleetPlan:
    def test_dag_layout_per_tick(self):
        plan = _plan(ticks=3)
        assert len(plan.jobs) == 12
        analyses = plan.job("analyses-001")
        assert analyses.hard_deps == ("crawl-001",)
        serve = plan.job("serve-002")
        assert serve.hard_deps == ("crawl-002", "report-002")
        # Ticks chain through soft edges only: a crawl extends the
        # freshest earlier store it can trust, and runs without one.
        assert plan.job("crawl-002").soft_deps == ("crawl-001",)
        assert plan.job("crawl-000").soft_deps == ()

    def test_round_trip_preserves_digest(self):
        plan = _plan(fault_spec=_CHAOS, degrade_policy="run-stale")
        clone = FleetPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.digest() == plan.digest()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(ticks=0),
            dict(weeks_per_tick=0),
            dict(degrade_policy="retry-forever"),
            dict(max_job_retries=-1),
            dict(lease_seconds=0.0),
            dict(population=0),
            dict(workers=0),
            dict(backend="bogus"),
            dict(mode="bogus"),
        ],
    )
    def test_invalid_plans_are_config_errors(self, overrides):
        with pytest.raises(ConfigError):
            _plan(**overrides)


# ----------------------------------------------------------------------
# JobQueue durability
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_fresh_open_initializes_pending_records(self, tmp_path):
        plan = _plan()
        queue = JobQueue(tmp_path / "q")
        scan = queue.open(plan)
        assert not scan.resumed
        assert set(scan.records) == {spec.job_id for spec in plan.jobs}
        assert all(r.state == PENDING for r in scan.records.values())

    def test_reopen_with_different_plan_is_refused(self, tmp_path):
        root = tmp_path / "q"
        JobQueue(root).open(_plan())
        with pytest.raises(QueueError, match="different fleet"):
            JobQueue(root).open(_plan(ticks=3))

    def test_dead_owner_lease_is_reclaimed_same_attempt(self, tmp_path):
        plan = _plan()
        queue = JobQueue(tmp_path / "q")
        scan = queue.open(plan)
        record = scan.records["crawl-000"]
        record.attempt = 2
        queue.lease(record, "orchestrator-99999", now=5.0)
        queue.mark_running(record, now=5.0)
        # A new orchestrator over the same directory: the old holder is
        # provably dead, the lease is reclaimed, the attempt survives.
        rescan = JobQueue(tmp_path / "q").open(plan, now=80.0)
        assert rescan.reclaimed == 1
        reclaimed = rescan.records["crawl-000"]
        assert reclaimed.state == PENDING
        assert reclaimed.attempt == 2
        assert reclaimed.lease_owner is None

    def test_torn_record_is_quarantined_and_rebuilt(self, tmp_path):
        plan = _plan()
        root = tmp_path / "q"
        queue = JobQueue(root)
        scan = queue.open(plan)
        record = scan.records["crawl-000"]
        record.attempt = 1
        queue.mark_failed(record, "CrawlError: boom", now=1.0)
        # Tear the body mid-write: header survives, body is truncated.
        path = queue.record_path("crawl-000")
        raw = path.read_bytes()
        head, _, body = raw.partition(b"\n")
        path.write_bytes(head + b"\n" + body[: len(body) // 2])

        rescan = JobQueue(root).open(plan)
        assert rescan.quarantined == 1
        rebuilt = rescan.records["crawl-000"]
        # State + attempt come from the surviving header line.
        assert rebuilt.state == "failed"
        assert rebuilt.attempt == 2
        assert rebuilt.error == "(recovered from torn record)"
        assert list((root / "quarantine").iterdir())

    def test_torn_done_record_recovers_from_done_manifest(self, tmp_path):
        plan = _plan()
        root = tmp_path / "q"
        queue = JobQueue(root)
        scan = queue.open(plan)
        record = scan.records["crawl-000"]
        artifact = queue.artifact_dir("crawl-000") / "out.bin"
        artifact.parent.mkdir(parents=True)
        artifact.write_bytes(b"payload")
        queue.write_done_manifest("crawl-000", 0, {"out.bin": artifact})
        queue.mark_done(record, now=3.0)
        path = queue.record_path("crawl-000")
        raw = path.read_bytes()
        head, _, body = raw.partition(b"\n")
        path.write_bytes(head + b"\n" + body[:4])

        rescan = JobQueue(root).open(plan)
        assert rescan.quarantined == 1
        assert rescan.records["crawl-000"].state == DONE

    def test_nested_record_header_is_quarantined_and_rebuilt(self, tmp_path):
        plan = _plan()
        root = tmp_path / "q"
        queue = JobQueue(root)
        queue.open(plan)
        path = queue.record_path("crawl-000")
        _, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(b"[" * 200_000 + b"\n" + body)

        rescan = JobQueue(root).open(plan)
        assert rescan.quarantined == 1
        assert rescan.records["crawl-000"].state == PENDING
        assert [p.name for p in (root / "quarantine").iterdir()] == [
            "crawl-000.rec"
        ]
        # The rebuilt record verifies on the next open.
        assert JobQueue(root).open(plan).quarantined == 0

    def test_nested_done_manifest_is_no_proof(self, tmp_path):
        plan = _plan()
        queue = JobQueue(tmp_path / "q")
        queue.open(plan)
        done = queue.done_path("crawl-000")
        done.parent.mkdir(parents=True)
        done.write_bytes(b"[" * 200_000)
        assert queue.read_done_manifest("crawl-000") is None

    def test_done_manifest_rejects_tampered_artifacts(self, tmp_path):
        plan = _plan()
        queue = JobQueue(tmp_path / "q")
        queue.open(plan)
        artifact = queue.artifact_dir("crawl-000") / "out.bin"
        artifact.parent.mkdir(parents=True)
        artifact.write_bytes(b"payload")
        queue.write_done_manifest("crawl-000", 0, {"out.bin": artifact})
        assert queue.read_done_manifest("crawl-000") is not None
        artifact.write_bytes(b"tampered!")
        assert queue.read_done_manifest("crawl-000") is None

    def test_dead_letter_writes_operator_copy(self, tmp_path):
        plan = _plan()
        queue = JobQueue(tmp_path / "q")
        scan = queue.open(plan)
        record = scan.records["crawl-000"]
        record.attempt = 3
        record.error = "JobExecutionError: job crawl-000 failed: boom"
        queue.dead_letter(record, now=9.0)
        copy = json.loads(
            (queue.dead_letter_dir / "crawl-000.json").read_text()
        )
        assert copy["attempts"] == 3
        assert "boom" in copy["error"]
        assert queue.read_done_manifest("crawl-000") is None


# ----------------------------------------------------------------------
# Fleet execution (shared fixtures: fleets are the expensive part)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def clean_fleet(tmp_path_factory):
    """An uninterrupted fault-free fleet: the reference artifacts."""
    root = tmp_path_factory.mktemp("clean") / "q"
    orchestrator = Orchestrator(root, _plan())
    records = orchestrator.run()
    return root, records, orchestrator


@pytest.fixture(scope="module")
def chaos_fleet(tmp_path_factory):
    """An uninterrupted fleet under the full chaos schedule."""
    root = tmp_path_factory.mktemp("chaos") / "q"
    orchestrator = Orchestrator(root, _plan(fault_spec=_CHAOS))
    records = orchestrator.run()
    return root, records, orchestrator


class TestFleetExecution:
    def test_all_jobs_done_with_artifacts(self, clean_fleet):
        root, records, _ = clean_fleet
        assert all(r.state == DONE for r in records.values())
        for tick in ("000", "001"):
            art = root / "artifacts"
            assert (art / f"crawl-{tick}" / "store.bin").exists()
            assert (art / f"crawl-{tick}" / "metrics.json").exists()
            assert (art / f"analyses-{tick}" / "analyses.json").exists()
            assert (art / f"report-{tick}" / "report.txt").exists()
            assert (art / f"serve-{tick}" / "serve" / "index.json").exists()

    def test_second_tick_reuses_first_ticks_profiles(self, clean_fleet):
        root, _, _ = clean_fleet
        metrics = json.loads(
            (root / "artifacts" / "crawl-001" / "metrics.json").read_text()
        )
        counters = metrics["execution"]["counters"]
        hits = counters.get("profile_store.hits", 0)
        misses = counters.get("profile_store.misses", 0)
        # Tick 1 crawls only the weeks after tick 0's: more than half
        # its profile renders must come from tick 0's generation.
        assert hits / (hits + misses) > 0.5
        assert _profile_store_counters(root) == _PROFILE_STORE_COUNTERS

    def test_rerun_over_finished_queue_is_idempotent(
        self, clean_fleet, monkeypatch
    ):
        root, _, _ = clean_fleet
        before = _artifact_digests(root)
        metrics_before = (root / "fleet-metrics.json").read_bytes()
        calls = count_calls(
            monkeypatch,
            (JobRunner, "execute"),
            (persistence, "load_store"),
            (persistence, "store_from_bytes"),
        )
        records = Orchestrator(root, _plan()).run()
        assert all(r.state == DONE for r in records.values())
        # Every job is proven done by its DONE.json: nothing executes,
        # and no store is decoded.
        assert calls == {"execute": 0, "load_store": 0, "store_from_bytes": 0}
        assert _artifact_digests(root) == before
        assert (root / "fleet-metrics.json").read_bytes() == metrics_before

    def test_status_lines_render_without_mutating(self, clean_fleet):
        root, _, _ = clean_fleet
        lines = status_lines(root)
        assert any("crawl-001" in line and "done" in line for line in lines)
        assert lines[-1].startswith("total: 8 jobs")

    def test_chaos_converges_to_clean_artifacts(
        self, clean_fleet, chaos_fleet
    ):
        clean_root, _, _ = clean_fleet
        chaos_root, records, orchestrator = chaos_fleet
        assert all(r.state == DONE for r in records.values())
        # Retries happened (the chaos schedule is not a no-op)...
        counters = orchestrator.instruments.counters
        assert counters.get("orchestrator.job_retries", 0) > 0
        assert counters.get("orchestrator.lease_expiries", 0) > 0
        # ...yet every artifact byte matches the fault-free fleet.
        assert _artifact_digests(chaos_root) == _artifact_digests(clean_root)
        assert _profile_store_counters(chaos_root) == _PROFILE_STORE_COUNTERS

    def test_orchestrator_counters_are_recorded(self, chaos_fleet):
        _, _, orchestrator = chaos_fleet
        counters = orchestrator.instruments.counters
        assert counters["orchestrator.jobs_done"] == 8
        assert counters["orchestrator.opens"] >= 1


# ----------------------------------------------------------------------
# Dead-letter + degrade policies
# ----------------------------------------------------------------------
def _failing_execute(*fail_job_ids):
    original = JobRunner.execute

    def execute(self, spec):
        if spec.job_id in fail_job_ids:
            raise JobExecutionError(spec.job_id, "induced permanent failure")
        return original(self, spec)

    return execute


class TestDegradePolicies:
    def _run_with_failure(self, tmp_path, monkeypatch, policy, fail_job):
        monkeypatch.setattr(JobRunner, "execute", _failing_execute(fail_job))
        plan = _plan(degrade_policy=policy, max_job_retries=1)
        orchestrator = Orchestrator(tmp_path / "q", plan)
        return orchestrator.run(), orchestrator

    def test_exhausted_job_dead_letters_with_typed_error(
        self, tmp_path, monkeypatch
    ):
        records, orchestrator = self._run_with_failure(
            tmp_path, monkeypatch, "skip", "crawl-001"
        )
        dead = records["crawl-001"]
        assert dead.state == DEAD_LETTER
        assert dead.attempt == 2  # initial try + 1 retry
        assert "JobExecutionError" in dead.error
        copy = orchestrator.queue.dead_letter_dir / "crawl-001.json"
        assert copy.exists()

    def test_skip_policy_skips_hard_dependents_transitively(
        self, tmp_path, monkeypatch
    ):
        records, _ = self._run_with_failure(
            tmp_path, monkeypatch, "skip", "crawl-001"
        )
        assert records["analyses-001"].state == SKIPPED
        assert records["report-001"].state == SKIPPED
        assert records["serve-001"].state == SKIPPED
        # Tick 0 is untouched; soft deps never degrade.
        assert all(
            records[f"{kind}-000"].state == DONE
            for kind in ("crawl", "analyses", "report", "serve")
        )

    def test_block_policy_blocks_dependents(self, tmp_path, monkeypatch):
        records, _ = self._run_with_failure(
            tmp_path, monkeypatch, "block", "analyses-001"
        )
        assert records["analyses-001"].state == DEAD_LETTER
        assert records["report-001"].state == BLOCKED
        assert records["serve-001"].state == BLOCKED
        assert records["crawl-001"].state == DONE

    def test_run_stale_policy_falls_back_to_earlier_tick(
        self, tmp_path, monkeypatch
    ):
        records, orchestrator = self._run_with_failure(
            tmp_path, monkeypatch, "run-stale", "crawl-001"
        )
        assert records["crawl-001"].state == DEAD_LETTER
        assert records["analyses-001"].state == DONE
        assert records["serve-001"].state == DONE
        # The stale substitution is recorded in the artifact manifests.
        manifest = orchestrator.queue.read_done_manifest("analyses-001")
        assert manifest["source"] == "crawl-000"
        analyses = json.loads(
            (
                orchestrator.queue.artifact_dir("analyses-001")
                / "analyses.json"
            ).read_text()
        )
        assert analyses["source"] == "crawl-000"

    def test_untyped_exception_dead_letters_the_job(
        self, tmp_path, monkeypatch
    ):
        """A bug inside one job fails that job like a typed error does;
        it does not escape the run and leave the job's record running."""
        original = JobRunner.execute

        def execute(self, spec):
            if spec.job_id == "analyses-000":
                raise ValueError("boom")
            return original(self, spec)

        monkeypatch.setattr(JobRunner, "execute", execute)
        orchestrator = Orchestrator(tmp_path / "q", FleetPlan.build(20, 7, 1, 1))
        records = orchestrator.run()
        dead = records["analyses-000"]
        assert (dead.state, dead.attempt) == (DEAD_LETTER, 3)
        copy = orchestrator.queue.dead_letter_dir / "analyses-000.json"
        assert json.loads(copy.read_text())["error"] == "ValueError: boom"
        assert records["report-000"].state == SKIPPED
        assert records["serve-000"].state == SKIPPED
        assert not [
            job for job, record in records.items()
            if record.state in (LEASED, RUNNING)
        ]

    def test_fleet_metrics_account_for_degraded_jobs(
        self, tmp_path, monkeypatch
    ):
        _, orchestrator = self._run_with_failure(
            tmp_path, monkeypatch, "skip", "crawl-001"
        )
        document = json.loads(
            (orchestrator.queue.root / "fleet-metrics.json").read_text()
        )
        assert document["states"]["dead-letter"] == 1
        assert document["states"]["skipped"] == 3
        assert document["states"]["done"] == 4
        assert document["jobs"]["crawl-001"]["attempts"] == 2


# ----------------------------------------------------------------------
# Kill mid-fleet, resume, byte-identical convergence
# ----------------------------------------------------------------------
_FLEET_KILL_SCRIPT = """
import os, sys

limit = int(sys.argv[1])
qdir = sys.argv[2]
backend = sys.argv[3]

import repro.orchestrator.queue as queue_mod

writes = 0
original = queue_mod.JobQueue._write_record

def aborting_write(self, record, allow_tear=True):
    global writes
    original(self, record, allow_tear)
    writes += 1
    if writes >= limit:
        os._exit(137)  # hard abort: no cleanup, no atexit, no flush

queue_mod.JobQueue._write_record = aborting_write

from repro.orchestrator import FleetPlan, Orchestrator

plan = FleetPlan.build(
    population=%d, seed=%d, ticks=2, weeks_per_tick=2,
    fault_spec=%r, backend=backend if backend != "none" else None,
    workers=2 if backend != "none" else None,
)
Orchestrator(qdir, plan).run()
os._exit(0)  # only reached if the abort never fired
""" % (_POPULATION, _SEED, _CHAOS)


def _run_killed(script: str, *args: str) -> None:
    """Run ``script`` in a fresh interpreter; it must hard-abort."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 137, proc.stderr


def _kill_fleet(root: Path, limit: int, backend: str = "none") -> None:
    _run_killed(_FLEET_KILL_SCRIPT, str(limit), str(root), backend)


def _strip_crawl_telemetry(jobs: dict) -> dict:
    """Fleet-metrics job entries minus the ``metrics.json`` checksums."""
    stripped = {}
    for job_id_, entry in jobs.items():
        entry = dict(entry)
        if "artifacts" in entry:
            artifacts = dict(entry["artifacts"])
            artifacts.pop("metrics.json", None)
            entry["artifacts"] = artifacts
        stripped[job_id_] = entry
    return stripped


class TestKillMidFleet:
    @pytest.mark.parametrize("limit", [12, 61])
    def test_resumed_fleet_matches_uninterrupted_bytes(
        self, chaos_fleet, tmp_path, limit
    ):
        chaos_root, _, _ = chaos_fleet
        root = tmp_path / f"killed-{limit}"
        _kill_fleet(root, limit)
        # Resume in-process with the identical plan: the queue scan
        # reclaims the dead process's leases and re-executes from the
        # per-job checkpoints.
        records = Orchestrator(root, _plan(fault_spec=_CHAOS)).run()
        assert all(r.state == DONE for r in records.values())
        assert _artifact_digests(root) == _artifact_digests(chaos_root)
        assert (root / "fleet-metrics.json").read_bytes() == (
            chaos_root / "fleet-metrics.json"
        ).read_bytes()
        assert _profile_store_counters(root) == _PROFILE_STORE_COUNTERS

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_convergence_holds_across_backends(
        self, chaos_fleet, tmp_path, backend
    ):
        """Kill a sharded-backend fleet mid-run; after resume its
        stores, analyses, reports, and serve-refresh bytes match the
        serial fleet's exactly."""
        chaos_root, _, _ = chaos_fleet
        root = tmp_path / f"killed-{backend}"
        _kill_fleet(root, 30, backend=backend)
        plan = _plan(fault_spec=_CHAOS, backend=backend, workers=2)
        records = Orchestrator(root, plan).run()
        assert all(r.state == DONE for r in records.values())
        assert _artifact_digests(
            root, include_metrics=False
        ) == _artifact_digests(chaos_root, include_metrics=False)
        # The fleet metrics share everything but the plan identity and
        # the crawl telemetry checksums (both cover the backend by
        # design).
        ours = json.loads((root / "fleet-metrics.json").read_text())
        serial = json.loads(
            (chaos_root / "fleet-metrics.json").read_text()
        )
        assert _strip_crawl_telemetry(ours["jobs"]) == (
            _strip_crawl_telemetry(serial["jobs"])
        )
        assert ours["states"] == serial["states"]
        assert ours["retries"] == serial["retries"]
        assert _profile_store_counters(root) == _PROFILE_STORE_COUNTERS


# ----------------------------------------------------------------------
# Each crawl extends its predecessor's store
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _one_shot_store(weeks: int) -> bytes:
    """The store of one direct crawl of the first ``weeks`` weeks."""
    from repro import ScenarioConfig, Study
    from repro.crawler.persistence import store_to_bytes

    study = Study(ScenarioConfig(population=_POPULATION, seed=_SEED))
    study.run(weeks=study.config.calendar.weeks[:weeks])
    return store_to_bytes(study.store)


def _crawled_weeks(queue: JobQueue, job: str) -> int:
    """Weeks the crawl job itself crawled (its metrics' planner grid)."""
    metrics = json.loads(
        (queue.artifact_dir(job) / "metrics.json").read_text()
    )
    return metrics["planner"]["grid"]["weeks"]


def _store_bytes(queue: JobQueue, job: str) -> bytes:
    return (queue.artifact_dir(job) / "store.bin").read_bytes()


_CRAWL_KILL_SCRIPT = """
import os, sys

from repro.runtime.ledger import RunLedger

original = RunLedger.journal

def journal(self, *args):
    size = original(self, *args)
    if self.root.name == "crawl-001":
        os._exit(137)  # hard abort after crawl-001's first shard
    return size

RunLedger.journal = journal

from repro.orchestrator import FleetPlan, Orchestrator

plan = FleetPlan.build(
    population=%d, seed=%d, ticks=2, weeks_per_tick=2,
    backend="serial", workers=2,
)
Orchestrator(sys.argv[1], plan).run()
os._exit(0)  # only reached if the abort never fired
""" % (_POPULATION, _SEED)


class TestCrawlExtension:
    """Tick ``t`` crawls only the weeks after its base's, and its store
    is byte-identical to one crawl of the whole window."""

    def test_each_tick_crawls_only_its_new_weeks(self, clean_fleet):
        _, _, orchestrator = clean_fleet
        queue = orchestrator.queue
        first = queue.read_done_manifest("crawl-000")
        second = queue.read_done_manifest("crawl-001")
        assert (first["base"], first["weeks"]) == (None, 2)
        assert (second["base"], second["weeks"]) == ("crawl-000", 4)
        assert _crawled_weeks(queue, "crawl-000") == 2
        assert _crawled_weeks(queue, "crawl-001") == 2
        assert _store_bytes(queue, "crawl-001") == _one_shot_store(4)

    @pytest.mark.parametrize(
        "failed, base, crawled",
        [
            (("crawl-001",), "crawl-000", 4),
            (("crawl-000", "crawl-001"), None, 6),
        ],
    )
    def test_dead_lettered_predecessor_is_passed_over(
        self, tmp_path, monkeypatch, failed, base, crawled
    ):
        monkeypatch.setattr(JobRunner, "execute", _failing_execute(*failed))
        orchestrator = Orchestrator(
            tmp_path / "q", _plan(ticks=3, max_job_retries=0)
        )
        records = orchestrator.run()
        assert all(records[job].state == DEAD_LETTER for job in failed)
        assert records["crawl-002"].state == DONE
        queue = orchestrator.queue
        assert queue.read_done_manifest("crawl-002")["base"] == base
        assert _crawled_weeks(queue, "crawl-002") == crawled
        assert _store_bytes(queue, "crawl-002") == _one_shot_store(6)

    @pytest.mark.parametrize("damage", ["degraded", "weeks", "store"])
    def test_untrusted_predecessor_is_never_a_base(self, tmp_path, damage):
        plan = _plan()
        queue = JobQueue(tmp_path / "q")
        queue.open(plan)
        runner = JobRunner(queue, plan)
        first = runner.execute(plan.job("crawl-000"))
        extra = dict(first.extra)
        if damage == "degraded":
            extra["degraded_run"] = True
        elif damage == "weeks":
            extra["weeks"] = 1  # the store holds pages of 2 weeks
        else:
            # A checksummed 1-week store under a manifest naming 2.
            first.artifacts["store.bin"].write_bytes(_one_shot_store(1))
        queue.write_done_manifest("crawl-000", 0, first.artifacts, extra)

        second = runner.execute(plan.job("crawl-001"))
        assert second.extra["base"] is None
        assert _crawled_weeks(queue, "crawl-001") == 4
        assert _store_bytes(queue, "crawl-001") == _one_shot_store(4)

    @pytest.mark.parametrize("damage_base", [False, True])
    def test_killed_extension_resumes_on_the_same_base(
        self, tmp_path, damage_base
    ):
        root = tmp_path / "q"
        _run_killed(_CRAWL_KILL_SCRIPT, str(root))
        checkpoint = root / "checkpoints" / "crawl-001"
        assert len(list((checkpoint / "journal").glob("shard-*.wal"))) == 1
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        assert manifest["week_ordinals"] == [2, 3]
        assert len(manifest["shard_plan"]) > 1
        if damage_base:
            # The base stops verifying before the resume: the journal
            # of weeks 2-3 cannot be replayed onto a crawl from week 0.
            store = root / "artifacts" / "crawl-000" / "store.bin"
            store.write_bytes(store.read_bytes()[:-1] + b"\0")

        records = Orchestrator(
            root, _plan(backend="serial", workers=2)
        ).run()
        assert records["crawl-001"].state == DONE
        # A different base would name other weeks than the journal's
        # manifest, and the ledger would refuse the resume.
        assert records["crawl-001"].attempt == 0
        queue = JobQueue(root)
        done = queue.read_done_manifest("crawl-001")
        quarantined = root / "quarantine" / "crawl-001" / "manifest.json"
        if damage_base:
            assert done["base"] is None
            assert _crawled_weeks(queue, "crawl-001") == 4
            assert json.loads(quarantined.read_text())["week_ordinals"] == [2, 3]
        else:
            assert all(r.state == DONE for r in records.values())
            assert done["base"] == "crawl-000"
            assert _crawled_weeks(queue, "crawl-001") == 2
            assert not quarantined.exists()
        assert _store_bytes(queue, "crawl-001") == _one_shot_store(4)

    @pytest.mark.parametrize("damage", ["foreign-digest", "unreadable"])
    def test_refused_checkpoint_is_set_aside(self, clean_fleet, tmp_path, damage):
        """A killed crawl whose checkpoint the resume refuses crawls
        afresh: the queue's plan pins its dataset, so the checkpoint is
        stale or damaged, never a reason to dead-letter the crawl."""
        root = tmp_path / "q"
        _run_killed(_CRAWL_KILL_SCRIPT, str(root))
        manifest_path = root / "checkpoints" / "crawl-001" / "manifest.json"
        if damage == "foreign-digest":
            manifest = json.loads(manifest_path.read_text())
            manifest["scenario_digest"] = "0" * 64
            manifest_path.write_text(json.dumps(manifest, sort_keys=True))
        else:
            manifest_path.write_bytes(b"{not json")
        refused = manifest_path.read_bytes()

        records = Orchestrator(
            root, _plan(backend="serial", workers=2)
        ).run()
        assert all(r.state == DONE for r in records.values())
        clean_root, _, _ = clean_fleet
        assert _store_bytes(JobQueue(root), "crawl-001") == _store_bytes(
            JobQueue(clean_root), "crawl-001"
        )
        quarantined = root / "quarantine" / "crawl-001" / "manifest.json"
        assert quarantined.read_bytes() == refused


# ----------------------------------------------------------------------
# One runner per run hands each crawl's store to the jobs that read it
# ----------------------------------------------------------------------
def _execute_done(runner: JobRunner, job: str) -> bytes:
    """Run ``job`` on ``runner``, record its ``DONE.json``, and return
    the bytes of its first artifact."""
    result = runner.execute(runner.plan.job(job))
    runner.queue.write_done_manifest(job, 0, result.artifacts, result.extra)
    return next(iter(result.artifacts.values())).read_bytes()


def _fresh_runner_execute(monkeypatch) -> None:
    """Make every job run on a new runner, whose slot is empty."""
    original = JobRunner.execute

    def execute(self, spec):
        return original(JobRunner(self.queue, self.plan), spec)

    monkeypatch.setattr(JobRunner, "execute", execute)


class TestStoreHandover:
    @pytest.fixture
    def runner(self, tmp_path):
        plan = _plan()
        queue = JobQueue(tmp_path / "q")
        queue.open(plan)
        return JobRunner(queue, plan)

    def test_one_process_beat_decodes_no_store_file(
        self, tmp_path, monkeypatch
    ):
        plan = _plan(ticks=3)
        calls = count_calls(
            monkeypatch,
            (persistence, "load_store"),
            (persistence, "store_from_bytes"),
        )
        records = Orchestrator(tmp_path / "shared", plan).run()
        assert all(r.state == DONE for r in records.values())
        # No store file is read, and each crawl's serial shards hand
        # their live stores to the fold: no store is decoded at all.
        assert calls == {"load_store": 0, "store_from_bytes": 0}
        # The same plan job by job, each on a fresh runner: every store
        # read decodes the file (3 analyses, 3 serve, 2 crawl bases),
        # and every artifact is byte-identical.
        _fresh_runner_execute(monkeypatch)
        records = Orchestrator(tmp_path / "fresh", plan).run()
        assert all(r.state == DONE for r in records.values())
        assert calls["load_store"] == 8
        assert _artifact_digests(tmp_path / "shared") == _artifact_digests(
            tmp_path / "fresh"
        )
        assert (tmp_path / "shared" / "fleet-metrics.json").read_bytes() == (
            tmp_path / "fresh" / "fleet-metrics.json"
        ).read_bytes()

    def test_extension_takes_the_store_out_of_the_slot(self, runner):
        _execute_done(runner, "crawl-000")
        _execute_done(runner, "crawl-001")
        # crawl-001 extended crawl-000's store in memory; analyses-000
        # must still see crawl-000's two weeks.
        shared = _execute_done(runner, "analyses-000")
        fresh = _execute_done(JobRunner(runner.queue, runner.plan), "analyses-000")
        assert shared == fresh

    def test_failed_extension_leaves_the_slot_empty(self, runner, monkeypatch):
        from repro.core.study import Study

        _execute_done(runner, "crawl-000")
        original = Study.run

        def extend_then_fail(self, weeks=None):
            original(self, weeks=weeks)  # the base store is extended
            raise CrawlError("induced failure after the extension")

        monkeypatch.setattr(Study, "run", extend_then_fail)
        with pytest.raises(CrawlError):
            runner.execute(runner.plan.job("crawl-001"))
        monkeypatch.undo()
        assert runner._handover is None
        shared = _execute_done(runner, "analyses-000")
        fresh = _execute_done(JobRunner(runner.queue, runner.plan), "analyses-000")
        assert shared == fresh

    def test_rewritten_store_is_read_from_disk(self, runner, monkeypatch):
        queue = runner.queue
        result = runner.execute(runner.plan.job("crawl-000"))
        queue.write_done_manifest("crawl-000", 0, result.artifacts, result.extra)
        from_slot = _execute_done(runner, "analyses-000")
        # Another valid store under the same job, with its DONE.json
        # re-recorded: the slot's sha256 no longer matches.
        result.artifacts["store.bin"].write_bytes(_one_shot_store(1))
        queue.write_done_manifest("crawl-000", 0, result.artifacts, result.extra)
        calls = count_calls(monkeypatch, (persistence, "load_store"))
        rewritten = _execute_done(runner, "analyses-000")
        assert calls["load_store"] == 1
        assert rewritten != from_slot
        fresh = _execute_done(JobRunner(runner.queue, runner.plan), "analyses-000")
        assert rewritten == fresh


# ----------------------------------------------------------------------
# Untrusted analyses.json: the report job
# ----------------------------------------------------------------------
#: Checksum-verified but malformed ``analyses.json`` bodies.
_MALFORMED_ANALYSES = {
    "empty-object": b"{}",
    "format-only": b'{"format": 2}',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


class TestMalformedAnalysesInput:
    @pytest.mark.parametrize(
        "body", _MALFORMED_ANALYSES.values(), ids=list(_MALFORMED_ANALYSES)
    )
    def test_report_input_dead_letters_and_degrades(
        self, tmp_path, monkeypatch, body
    ):
        original = JobRunner.execute

        def execute(self, spec):
            result = original(self, spec)
            if spec.kind == "analyses":
                result.artifacts["analyses.json"].write_bytes(body)
            return result

        monkeypatch.setattr(JobRunner, "execute", execute)
        records = Orchestrator(tmp_path / "q", _plan(ticks=1)).run()
        report = records["report-000"]
        assert report.state == DEAD_LETTER
        assert report.error.startswith("JobExecutionError")
        assert records["analyses-000"].state == DONE
        assert records["serve-000"].state == SKIPPED


class TestQueueFormat:
    def test_format_1_queue_is_refused(self, tmp_path):
        root = tmp_path / "q"
        plan = _plan()
        queue = JobQueue(root)
        queue.open(plan)
        queue.manifest_path.write_text(
            json.dumps(dict(plan.to_dict(), format=1), sort_keys=True)
        )
        with pytest.raises(QueueError, match="format 1") as excinfo:
            JobQueue(root).open(plan)
        assert "format 2" in str(excinfo.value)

    def test_invalid_plan_field_is_refused_at_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "q"
        plan = _plan()
        JobQueue(root).open(plan)
        JobQueue(root).manifest_path.write_text(
            json.dumps(dict(plan.to_dict(), workers=0), sort_keys=True)
        )
        capsys.readouterr()
        assert main(["orchestrate", "status", "--queue-dir", str(root)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "workers must be >= 1" in lines[0]
