"""Sweep engine: grid expansion, orchestration, fold convergence.

The tentpole contract: a sweep grid expands to one full scenario per
point (each with its own scenario digest), rides the orchestrator's
durable queue, and folds into a canonical ``fleet-sweep.json`` that is
byte-identical across independent runs and across a hard mid-sweep
kill followed by a resume.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigError
from repro.orchestrator import FleetPlan, JobQueue, Orchestrator
from repro.orchestrator.runner import JobRunner
from repro.sweep import (
    SWEEP_DOCUMENT_NAME,
    SweepPoint,
    SweepSpec,
    fold_documents,
    render_sweep_report,
)

from conftest import count_calls

_POPULATION = 20
_SEED = 6
_WEEKS = 2
_GRID = "baseline;bundled-deps:share=0.5"


# ----------------------------------------------------------------------
# Grid parsing and expansion
# ----------------------------------------------------------------------
class TestGridParsing:
    def test_cartesian_product_per_segment(self):
        spec = SweepSpec.parse(
            "baseline;bundled-deps:share=0.1|0.3,detection_rate=0.5|0.9"
        )
        labels = [point.describe() for point in spec.points]
        assert labels == [
            "baseline",
            "bundled-deps(detection_rate=0.5,share=0.1)",
            "bundled-deps(detection_rate=0.9,share=0.1)",
            "bundled-deps(detection_rate=0.5,share=0.3)",
            "bundled-deps(detection_rate=0.9,share=0.3)",
        ]

    def test_unknown_pack_is_refused_with_vocabulary(self):
        with pytest.raises(ConfigError, match="known packs"):
            SweepSpec.parse("baseline;no-such-pack")

    def test_undeclared_parameter_is_refused(self):
        with pytest.raises(ConfigError, match="no parameter"):
            SweepSpec.parse("baseline:share=0.5")

    def test_bad_value_is_refused_eagerly(self):
        with pytest.raises(ConfigError, match="expected float"):
            SweepSpec.parse("bundled-deps:share=lots")

    def test_malformed_segments_are_refused(self):
        with pytest.raises(ConfigError, match="empty pack segment"):
            SweepSpec.parse("baseline;;bundled-deps")
        with pytest.raises(ConfigError, match="bad sweep assignment"):
            SweepSpec.parse("bundled-deps:share")
        with pytest.raises(ConfigError, match="assigned twice"):
            SweepSpec.parse("bundled-deps:share=0.1,share=0.2")

    def test_duplicate_points_are_refused(self):
        with pytest.raises(ConfigError, match="duplicate sweep point"):
            SweepSpec.parse("baseline;baseline")

    def test_point_round_trip_and_param_order(self):
        point = SweepPoint("bundled-deps", (("a", "1"), ("b", "2")))
        assert SweepPoint.from_dict(point.to_dict()) == point
        with pytest.raises(ConfigError, match="sorted"):
            SweepPoint("bundled-deps", (("b", "2"), ("a", "1")))

    def test_each_point_is_a_distinct_scenario(self):
        spec = SweepSpec.parse("baseline;bundled-deps:share=0.2|0.4")
        digests = spec.scenario_digests(_POPULATION, _SEED)
        assert len(set(digests)) == len(digests) == 3


# ----------------------------------------------------------------------
# Plan layout
# ----------------------------------------------------------------------
class TestSweepPlan:
    def _plan(self):
        return FleetPlan.build_sweep(
            SweepSpec.parse(_GRID).points,
            population=_POPULATION,
            seed=_SEED,
            weeks=_WEEKS,
        )

    def test_job_layout(self):
        plan = self._plan()
        assert [job.job_id for job in plan.jobs] == [
            "sweep-crawl-000",
            "sweep-analyses-000",
            "sweep-crawl-001",
            "sweep-analyses-001",
            "sweep-fold-000",
        ]
        fold = plan.job("sweep-fold-000")
        assert fold.hard_deps == ()
        assert fold.soft_deps == ("sweep-analyses-000", "sweep-analyses-001")
        # Sweep crawls share nothing: no cross-point soft deps.
        assert plan.job("sweep-crawl-001").soft_deps == ()

    def test_fixed_week_window_per_point(self):
        plan = self._plan()
        assert plan.week_count(0) == plan.week_count(1) == _WEEKS

    def test_plan_round_trip_preserves_digest(self):
        plan = self._plan()
        clone = FleetPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.digest() == plan.digest()
        assert clone.sweep_points == plan.sweep_points

    def test_grid_is_plan_identity(self):
        other = FleetPlan.build_sweep(
            SweepSpec.parse("baseline;bundled-deps:share=0.6").points,
            population=_POPULATION,
            seed=_SEED,
            weeks=_WEEKS,
        )
        assert other.digest() != self._plan().digest()

    def test_beat_plan_manifest_is_unchanged_by_the_sweep_schema(self):
        beat = FleetPlan.build(
            population=_POPULATION, seed=_SEED, ticks=2, weeks_per_tick=2
        )
        assert "sweep_points" not in beat.to_dict()
        assert not beat.is_sweep

    def test_point_count_must_match_ticks(self):
        with pytest.raises(ConfigError, match="one tick per grid point"):
            FleetPlan(
                population=_POPULATION,
                seed=_SEED,
                ticks=3,
                weeks_per_tick=2,
                sweep_points=(SweepPoint("baseline"),),
            )


# ----------------------------------------------------------------------
# Fold logic (pure)
# ----------------------------------------------------------------------
class TestFold:
    def test_missing_points_are_recorded_not_fatal(self):
        points = SweepSpec.parse(_GRID).points
        document = {
            "analyses": {
                "collection-series": {"dates": ["d"], "collected": [4]},
                "prevalence": {"average_share": {"cve": 0.1, "tvv": 0.2}},
                "vulnerability-cdf": {"mean": {"cve": 1.5, "tvv": 2.0}},
            }
        }
        folded = fold_documents(
            points,
            [document, None],
            population=_POPULATION,
            seed=_SEED,
            weeks=_WEEKS,
        )
        assert folded["missing"] == ["bundled-deps(share=0.5)"]
        assert folded["comparison"]["vulnerable-share-cve"]["baseline"] == 0.1
        assert (
            folded["comparison"]["vulnerable-share-cve"][
                "bundled-deps(share=0.5)"
            ]
            is None
        )
        rendered = render_sweep_report(folded)
        assert "missing" in rendered
        assert "baseline" in rendered


# ----------------------------------------------------------------------
# End-to-end: run, convergence, kill/resume
# ----------------------------------------------------------------------
def _sweep_plan(**overrides) -> FleetPlan:
    return FleetPlan.build_sweep(
        SweepSpec.parse(_GRID).points,
        population=_POPULATION,
        seed=_SEED,
        weeks=_WEEKS,
        **overrides,
    )


def _run_sweep(root: Path) -> dict:
    records = Orchestrator(root, _sweep_plan()).run()
    assert all(record.state == "done" for record in records.values())
    return records


_SWEEP_KILL_SCRIPT = """
import os, sys

limit = int(sys.argv[1])
qdir = sys.argv[2]

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
from repro.sweep import SweepSpec

plan = FleetPlan.build_sweep(
    SweepSpec.parse(%r).points,
    population=%d, seed=%d, weeks=%d,
)
Orchestrator(qdir, plan).run()
os._exit(0)  # only reached if the abort never fired
""" % (_GRID, _POPULATION, _SEED, _WEEKS)


def _run_killed(*argv: str) -> None:
    """Run ``python argv...`` in a fresh interpreter; it must hard-abort."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 137, proc.stderr


def _kill_sweep(root: Path, limit: int) -> None:
    _run_killed("-c", _SWEEP_KILL_SCRIPT, str(limit), str(root))


class TestSweepEndToEnd:
    @pytest.fixture(scope="class")
    def clean_sweep(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sweep-clean")
        _run_sweep(root)
        return root

    def test_folded_document_shape(self, clean_sweep):
        document = json.loads(
            (clean_sweep / SWEEP_DOCUMENT_NAME).read_text()
        )
        labels = [entry["point"] for entry in document["points"]]
        assert labels == ["baseline", "bundled-deps(share=0.5)"]
        digests = {entry["scenario_digest"] for entry in document["points"]}
        assert len(digests) == 2
        assert document["missing"] == []
        for metric in (
            "collected-per-week",
            "vulnerable-share-cve",
            "vulnerable-share-tvv",
            "mean-vulns-per-site-cve",
        ):
            assert set(document["comparison"][metric]) == set(labels)

    def test_per_point_analyses_carry_identity(self, clean_sweep):
        from repro.orchestrator import JobQueue

        queue = JobQueue(clean_sweep)
        path = queue.artifact_dir("sweep-analyses-001") / "analyses.json"
        document = json.loads(path.read_text())
        assert document["point"] == "bundled-deps(share=0.5)"
        assert document["pack"].startswith("bundled-deps(")
        assert "prevalence" in document["analyses"]

    def test_independent_sweeps_converge_bytewise(self, clean_sweep, tmp_path):
        again = tmp_path / "again"
        _run_sweep(again)
        assert (again / SWEEP_DOCUMENT_NAME).read_bytes() == (
            clean_sweep / SWEEP_DOCUMENT_NAME
        ).read_bytes()

    @pytest.mark.parametrize("limit", [3, 8])
    def test_killed_and_resumed_sweep_matches_bytes(
        self, clean_sweep, tmp_path, limit
    ):
        root = tmp_path / f"killed-{limit}"
        _kill_sweep(root, limit)
        _run_sweep(root)  # resume with the identical plan
        assert (root / SWEEP_DOCUMENT_NAME).read_bytes() == (
            clean_sweep / SWEEP_DOCUMENT_NAME
        ).read_bytes()

    def test_refused_point_checkpoint_is_set_aside(self, clean_sweep, tmp_path):
        """A point crawl killed after its first journaled shard, whose
        checkpoint then records another scenario, crawls afresh: no
        point goes missing from the fold."""
        root = tmp_path / "q"
        _run_killed(
            str(Path(__file__).with_name("kill_at.py")),
            "journal", "1", "sweep", "run", "--queue-dir", str(root),
            "--grid", _GRID, "--population", str(_POPULATION),
            "--seed", str(_SEED), "--weeks", str(_WEEKS),
            "--workers", "2", "--backend", "serial",
        )
        manifest_path = root / "checkpoints" / "sweep-crawl-000" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["scenario_digest"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest, sort_keys=True))

        plan = _sweep_plan(backend="serial", workers=2)
        records = Orchestrator(root, plan).run()
        assert all(record.state == "done" for record in records.values())
        document = (root / SWEEP_DOCUMENT_NAME).read_bytes()
        assert json.loads(document)["missing"] == []
        assert document == (clean_sweep / SWEEP_DOCUMENT_NAME).read_bytes()
        quarantined = root / "quarantine" / "sweep-crawl-000" / "manifest.json"
        assert json.loads(quarantined.read_text()) == manifest

    def test_rerun_over_finished_sweep_executes_nothing(
        self, clean_sweep, monkeypatch
    ):
        before = (clean_sweep / SWEEP_DOCUMENT_NAME).read_bytes()
        executed = []
        original = JobRunner.execute

        def execute(self, spec):
            executed.append(spec.job_id)
            return original(self, spec)

        monkeypatch.setattr(JobRunner, "execute", execute)
        _run_sweep(clean_sweep)
        assert executed == []
        assert (clean_sweep / SWEEP_DOCUMENT_NAME).read_bytes() == before

    def test_fold_decodes_no_store_and_runs_no_analysis(
        self, clean_sweep, tmp_path, monkeypatch
    ):
        """The fold reads each point's small ``analyses.json`` and
        nothing else: over a finished sweep it loads and decodes no
        store, runs no registered analysis, and writes the same bytes."""
        from repro.analysis.api import RegisteredAnalysis
        from repro.crawler import persistence

        root = tmp_path / "q"
        shutil.copytree(clean_sweep, root)
        before = (root / SWEEP_DOCUMENT_NAME).read_bytes()
        calls = count_calls(
            monkeypatch,
            (persistence, "load_store"),
            (persistence, "store_from_bytes"),
            (RegisteredAnalysis, "run"),
        )
        plan = _sweep_plan()
        result = JobRunner(JobQueue(root), plan).execute(plan.job("sweep-fold-000"))
        assert calls == {"load_store": 0, "store_from_bytes": 0, "run": 0}
        assert result.extra["missing"] == []
        assert (root / SWEEP_DOCUMENT_NAME).read_bytes() == before

    @pytest.mark.parametrize(
        "body",
        [b"{}", b'{"format": 2}', b"[" * 100_000 + b"]" * 100_000],
        ids=["empty-object", "format-only", "deep-nesting"],
    )
    def test_malformed_point_analyses_count_as_missing(
        self, clean_sweep, tmp_path, body
    ):
        root = tmp_path / "q"
        shutil.copytree(clean_sweep, root)
        queue = JobQueue(root)
        # A checksum-verified but malformed analyses.json for point 1.
        path = queue.artifact_dir("sweep-analyses-001") / "analyses.json"
        path.write_bytes(body)
        queue.write_done_manifest("sweep-analyses-001", 0, {"analyses.json": path})
        plan = _sweep_plan()
        result = JobRunner(queue, plan).execute(plan.job("sweep-fold-000"))
        assert result.extra["missing"] == ["bundled-deps(share=0.5)"]

    def test_resume_with_a_different_grid_is_refused(self, clean_sweep):
        from repro.errors import QueueError

        other = FleetPlan.build_sweep(
            SweepSpec.parse("baseline;cve-range-drift:rate=0.4").points,
            population=_POPULATION,
            seed=_SEED,
            weeks=_WEEKS,
        )
        with pytest.raises(QueueError, match="digest"):
            Orchestrator(clean_sweep, other).run()
