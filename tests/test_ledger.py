"""Durable checkpointed crawls: run ledger, crash recovery, integrity.

The contract under test (extending the PR-1/PR-3 determinism
guarantees): a run killed at any point — including by a hard process
abort that skips every cleanup path — and resumed from its checkpoint
directory produces a persisted store *byte-identical* to the same run
executed uninterrupted, on every backend; and corrupt journal entries
are quarantined and re-executed, never silently trusted.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import repro
from repro import FaultPlan, ScenarioConfig, Study
from repro.crawler import Crawler
from repro.crawler.persistence import store_to_bytes
from repro.errors import CheckpointError, CheckpointMismatchError, ConfigError
from repro.options import (
    DurabilityOptions,
    ExecutionOptions,
    ResilienceOptions,
    RunOptions,
)
from repro.runtime.ledger import (
    LEDGER_FORMAT,
    RunLedger,
    RunManifest,
    scenario_digest,
)
from repro.webgen import WebEcosystem

from conftest import count_calls

_CONFIG = ScenarioConfig(population=40, seed=11)
_WEEKS = _CONFIG.calendar.weeks[:4]
_SHARD_SIZE = 30  # 40 domains x 4 weeks = 160 cells -> 6 shards


def _options(
    checkpoint=None, resume=False, backend="serial", workers=2, plan=None
):
    """Run options of a checkpointed crawl in shards of ``_SHARD_SIZE``."""
    return RunOptions(
        execution=ExecutionOptions(
            backend=backend, workers=workers, shard_size=_SHARD_SIZE
        ),
        resilience=ResilienceOptions(fault_plan=plan),
        durability=DurabilityOptions(
            checkpoint_dir=str(checkpoint) if checkpoint else None,
            resume=resume,
        ),
    )


def _run(
    checkpoint=None,
    resume=False,
    backend="serial",
    workers=2,
    plan=None,
    config=_CONFIG,
    weeks=_WEEKS,
):
    crawler = Crawler(
        WebEcosystem(config),
        mode="manifest",
        apply_filter=False,
        options=_options(checkpoint, resume, backend, workers, plan),
    )
    report = crawler.run(weeks=weeks)
    return report, store_to_bytes(crawler.store)


def _journal_entries(root: Path):
    return sorted((Path(root) / "journal").glob("shard-*.wal"))


def _read_entry(entry_file: Path):
    """Split one journal entry into (header dict, compressed body)."""
    head, _, body = entry_file.read_bytes().partition(b"\n")
    return json.loads(head.decode("utf-8")), body


def _write_entry(entry_file: Path, header: dict, body: bytes) -> None:
    entry_file.write_bytes(
        json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body
    )


def _split_body(body: bytes):
    """Unframe a format-3 body into (store blob, metadata dict)."""
    (store_len,) = struct.unpack_from("<I", body)
    store_blob = body[4 : 4 + store_len]
    meta = json.loads(zlib.decompress(body[4 + store_len :]).decode("utf-8"))
    return store_blob, meta


def _build_body(store_blob: bytes, meta: dict) -> bytes:
    """Frame a format-3 body from its parts (mirrors RunLedger.journal)."""
    return (
        struct.pack("<I", len(store_blob))
        + store_blob
        + zlib.compress(json.dumps(meta, sort_keys=True).encode("utf-8"), 1)
    )


class TestFreshCheckpointedRun:
    def test_journal_and_manifest_written(self, tmp_path):
        _, baseline = _run()
        report, store = _run(checkpoint=tmp_path / "run")
        assert store == baseline  # ledger never changes a byte
        assert (tmp_path / "run" / "manifest.json").exists()
        entries = _journal_entries(tmp_path / "run")
        assert len(entries) == report.shards_reexecuted > 1
        assert report.shards_replayed == 0
        assert report.entries_quarantined == 0
        assert report.bytes_journaled == sum(
            entry.stat().st_size for entry in entries
        )

    def test_entry_checksums_verify(self, tmp_path):
        _run(checkpoint=tmp_path / "run")
        import hashlib

        for entry_file in _journal_entries(tmp_path / "run"):
            header, body = _read_entry(entry_file)
            assert header["format"] == LEDGER_FORMAT
            # The checksum covers the body bytes exactly as they sit
            # on disk.
            assert hashlib.sha256(body).hexdigest() == header["sha256"]
            store_blob, meta = _split_body(body)
            assert meta["ok"]
            # The framed store is a canonical binary blob, verbatim.
            assert store_blob[:4] == b"RPS2"

    def test_existing_run_dir_requires_resume(self, tmp_path):
        _run(checkpoint=tmp_path / "run")
        with pytest.raises(CheckpointError, match="resume"):
            _run(checkpoint=tmp_path / "run")

    def test_single_shard_serial_run_still_journals(self, tmp_path):
        config = ScenarioConfig(population=10, seed=3)
        weeks = config.calendar.weeks[:2]
        crawler = Crawler(
            WebEcosystem(config),
            mode="manifest",
            apply_filter=False,
            options=RunOptions(
                durability=DurabilityOptions(
                    checkpoint_dir=str(tmp_path / "run")
                )
            ),
        )
        report = crawler.run(weeks=weeks)
        assert report.shards_reexecuted == 1
        assert len(_journal_entries(tmp_path / "run")) == 1


class TestResume:
    def test_full_resume_replays_everything(self, tmp_path):
        report1, baseline = _run(checkpoint=tmp_path / "run")
        report2, store = _run(checkpoint=tmp_path / "run", resume=True)
        assert store == baseline
        assert report2.shards_replayed == report1.shards_reexecuted
        assert report2.shards_reexecuted == 0
        # Replayed counters reproduce the original run's totals.
        assert report2.pages_collected == report1.pages_collected
        assert report2.fetch_failures == report1.fetch_failures

    def test_partial_resume_executes_only_missing_shards(self, tmp_path):
        _, baseline = _run(checkpoint=tmp_path / "run")
        entries = _journal_entries(tmp_path / "run")
        removed = entries[::2]
        for entry in removed:
            entry.unlink()
        report, store = _run(checkpoint=tmp_path / "run", resume=True)
        assert store == baseline
        assert report.shards_reexecuted == len(removed)
        assert report.shards_replayed == len(entries) - len(removed)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_resume_is_backend_independent(self, tmp_path, backend, monkeypatch):
        _, baseline = _run(checkpoint=tmp_path / "ref")
        work = tmp_path / f"work-{backend}"
        shutil.copytree(tmp_path / "ref", work)
        for entry in _journal_entries(work)[:3]:
            entry.unlink()
        workers = 2 if backend != "serial" else 1
        report, store = _run(
            checkpoint=work, resume=True, backend=backend, workers=workers
        )
        assert store == baseline
        assert report.shards_reexecuted == 3

    def test_resume_without_manifest_starts_fresh(self, tmp_path):
        _, baseline = _run(checkpoint=tmp_path / "run", resume=True)
        report, store = _run(checkpoint=tmp_path / "run", resume=True)
        assert store == baseline
        assert report.shards_reexecuted == 0

    def test_resume_requires_checkpoint_dir(self):
        # The crawler's options cannot even be built: resume=True with
        # no ledger directory is refused where the knob lives.
        with pytest.raises(ConfigError, match="checkpoint_dir"):
            Crawler(
                WebEcosystem(ScenarioConfig(population=10, seed=3)),
                mode="manifest",
                options=RunOptions(durability=DurabilityOptions(resume=True)),
            )


# ----------------------------------------------------------------------
# The ledger's durable work, counted
# ----------------------------------------------------------------------
_COUNTED_CONFIG = ScenarioConfig(population=150, seed=77)
_COUNTED_SHARDS = 7  # 150 domains x 10 weeks in shards of at most 200 cells


def _counted_run(checkpoint=None, resume=False):
    """A full-mode crawl of 150 domains x 10 weeks (two serial workers,
    shards of at most 200 cells, profile cache off), counting the
    ledger's durable writes, every ``os.fsync`` and each shard executed.

    Returns ``(report, store bytes, counts)``.
    """
    import repro.runtime.ledger as ledger_mod
    import repro.runtime.worker as worker_mod

    with pytest.MonkeyPatch.context() as patch:
        counts = count_calls(
            patch,
            (ledger_mod, "atomic_write_bytes"),
            (os, "fsync"),
            (worker_mod, "execute_shard"),
        )
        study = Study(
            _COUNTED_CONFIG,
            mode="full",
            options=RunOptions(
                execution=ExecutionOptions(
                    workers=2,
                    backend="serial",
                    shard_size=200,
                    profile_cache=False,
                ),
                durability=DurabilityOptions(
                    checkpoint_dir=str(checkpoint) if checkpoint else None,
                    resume=resume,
                ),
            ),
        )
        report = study.run(weeks=_COUNTED_CONFIG.calendar.weeks[:10])
    return report, store_to_bytes(study.store), counts


class TestDurableWorkCounts:
    """What the ledger costs, as counts that no host speed moves: one
    durable write per journaled shard plus the manifest, none without a
    checkpoint, and a resume that runs and journals only what it lacks."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("counted") / "run"
        report, store, counts = _counted_run(checkpoint=root)
        return root, report, store, counts

    def test_one_durable_write_per_journaled_shard(self, reference):
        root, report, store, counts = reference
        entries = _journal_entries(root)
        assert report.shards_reexecuted == len(entries) == _COUNTED_SHARDS
        # Each shard's entry, then the manifest: two fsyncs apiece (the
        # file, then its directory).
        assert counts == {
            "atomic_write_bytes": _COUNTED_SHARDS + 1,
            "fsync": 2 * (_COUNTED_SHARDS + 1),
            "execute_shard": _COUNTED_SHARDS,
        }
        assert report.bytes_journaled == sum(
            entry.stat().st_size for entry in entries
        )
        plain, plain_store, plain_counts = _counted_run()
        assert plain_counts == {
            "atomic_write_bytes": 0,
            "fsync": 0,
            "execute_shard": _COUNTED_SHARDS,
        }
        assert plain.bytes_journaled == 0
        assert plain_store == store

    @pytest.mark.parametrize("keep", [6, 3])
    def test_resume_runs_and_journals_only_missing_shards(
        self, reference, tmp_path, keep
    ):
        root, _, store, _ = reference
        work = tmp_path / "run"
        shutil.copytree(root, work)
        for entry in _journal_entries(work)[keep:]:
            entry.unlink()
        report, resumed, counts = _counted_run(checkpoint=work, resume=True)
        missing = _COUNTED_SHARDS - keep
        assert (report.shards_replayed, report.shards_reexecuted) == (
            keep,
            missing,
        )
        assert counts == {
            "atomic_write_bytes": missing,
            "fsync": 2 * missing,
            "execute_shard": missing,
        }
        assert resumed == store


class TestCorruptionPaths:
    """Damaged journals are quarantined and re-executed, never trusted."""

    def _damage_and_resume(self, tmp_path, damage):
        _, baseline = _run(checkpoint=tmp_path / "run")
        entries = _journal_entries(tmp_path / "run")
        damage(entries[1])
        report, store = _run(checkpoint=tmp_path / "run", resume=True)
        assert store == baseline
        assert report.entries_quarantined == 1
        assert report.shards_reexecuted == 1
        assert report.shards_replayed == len(entries) - 1
        quarantined = list((tmp_path / "run" / "quarantine").iterdir())
        assert [f.name for f in quarantined] == [entries[1].name]
        # The re-executed shard re-journaled a valid replacement.
        assert len(_journal_entries(tmp_path / "run")) == len(entries)

    def test_truncated_entry(self, tmp_path):
        def truncate(entry_file):
            raw = entry_file.read_bytes()
            entry_file.write_bytes(raw[: len(raw) // 2])

        self._damage_and_resume(tmp_path, truncate)

    def test_truncated_inside_header(self, tmp_path):
        def behead(entry_file):
            entry_file.write_bytes(entry_file.read_bytes()[:10])

        self._damage_and_resume(tmp_path, behead)

    def test_bit_flipped_payload_byte(self, tmp_path):
        def bitflip(entry_file):
            header, body = _read_entry(entry_file)
            flipped = bytes([body[0] ^ 0x01]) + body[1:]
            _write_entry(entry_file, header, flipped)

        self._damage_and_resume(tmp_path, bitflip)

    def test_bit_flipped_checksum(self, tmp_path):
        def bitflip(entry_file):
            header, body = _read_entry(entry_file)
            digest = header["sha256"]
            header["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
            _write_entry(entry_file, header, body)

        self._damage_and_resume(tmp_path, bitflip)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        def tamper(entry_file):
            header, body = _read_entry(entry_file)
            store_blob, meta = _split_body(body)
            meta["metrics"]["counters"]["crawl.pages"] += 1
            # Old checksum, new body bytes: must be rejected.
            _write_entry(entry_file, header, _build_body(store_blob, meta))

        self._damage_and_resume(tmp_path, tamper)

    def test_wrong_coverage_key(self, tmp_path):
        def rekey(entry_file):
            header, body = _read_entry(entry_file)
            header["shard_key"] = "weeks:0-0|domains:x..y|n=1"
            _write_entry(entry_file, header, body)

        self._damage_and_resume(tmp_path, rekey)

    def test_manifest_config_mismatch(self, tmp_path):
        _run(checkpoint=tmp_path / "run")
        other = ScenarioConfig(population=40, seed=12)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            _run(
                checkpoint=tmp_path / "run",
                resume=True,
                config=other,
                weeks=other.calendar.weeks[:4],
            )
        fields = {field for field, _, _ in excinfo.value.mismatches}
        assert "scenario_digest" in fields and "seed" in fields

    def test_manifest_fault_plan_mismatch(self, tmp_path):
        _run(checkpoint=tmp_path / "run")
        with pytest.raises(CheckpointMismatchError) as excinfo:
            _run(
                checkpoint=tmp_path / "run",
                resume=True,
                plan=FaultPlan(seed=1, crash_rate=0.5),
            )
        assert any(
            field == "fault_digest" for field, _, _ in excinfo.value.mismatches
        )

    def test_manifest_mode_mismatch(self, tmp_path):
        _run(checkpoint=tmp_path / "run")
        crawler = Crawler(
            WebEcosystem(_CONFIG),
            mode="full",
            apply_filter=False,
            options=_options(tmp_path / "run", resume=True),
        )
        with pytest.raises(CheckpointMismatchError):
            crawler.run(weeks=_WEEKS)

    def test_corrupt_manifest_is_a_typed_error(self, tmp_path):
        _run(checkpoint=tmp_path / "run")
        (tmp_path / "run" / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            _run(checkpoint=tmp_path / "run", resume=True)

    def test_nested_manifest_is_a_typed_error(self, tmp_path):
        _run(checkpoint=tmp_path / "run")
        (tmp_path / "run" / "manifest.json").write_bytes(b"[" * 200_000)
        with pytest.raises(CheckpointError, match="unreadable"):
            _run(checkpoint=tmp_path / "run", resume=True)

    def test_nested_entry_header_is_quarantined_and_reexecuted(self, tmp_path):
        # A header nested too deep for the JSON parser is a torn entry,
        # not a crash of the resumed run.
        def saved_run(resume):
            crawler = Crawler(
                WebEcosystem(_CONFIG),
                mode="manifest",
                apply_filter=False,
                options=_options(tmp_path / "run", resume=resume),
            )
            report = crawler.run(weeks=_WEEKS)
            return report, store_to_bytes(crawler.store)

        _, uninterrupted = saved_run(resume=False)
        entries = _journal_entries(tmp_path / "run")
        _, body = _read_entry(entries[1])
        entries[1].write_bytes(b"[" * 200_000 + b"\n" + body)
        report, resumed = saved_run(resume=True)
        assert resumed == uninterrupted
        assert report.entries_quarantined == 1
        assert report.shards_reexecuted == 1
        assert report.shards_replayed == len(entries) - 1
        quarantined = list((tmp_path / "run" / "quarantine").iterdir())
        assert [f.name for f in quarantined] == [entries[1].name]

    def test_checkpoint_of_an_older_format_is_refused(self, tmp_path):
        # Ledger format 5 digests identity as canonical JSON; a format-4
        # checkpoint's digests were pickle bytes and never match.
        _run(checkpoint=tmp_path / "run")
        manifest_path = tmp_path / "run" / "manifest.json"
        document = json.loads(manifest_path.read_text())
        document["format"] = 4
        manifest_path.write_text(json.dumps(document, sort_keys=True))
        with pytest.raises(CheckpointMismatchError, match="format") as excinfo:
            _run(checkpoint=tmp_path / "run", resume=True)
        assert ("format", 4, LEDGER_FORMAT) in excinfo.value.mismatches


class TestManifest:
    def test_scenario_digest_ignores_execution_shape(self, tmp_path):
        # Two runs of one dataset under other execution shapes record
        # the same scenario digest; another seed records another.
        def recorded(config, backend, workers):
            root = tmp_path / f"{config.seed}-{backend}-{workers}"
            crawler = Crawler(
                WebEcosystem(config),
                mode="manifest",
                apply_filter=False,
                options=_options(root, backend=backend, workers=workers),
            )
            crawler.run(weeks=config.calendar.weeks[:2])
            manifest = json.loads((root / "manifest.json").read_text())
            return manifest["scenario_digest"]

        base = ScenarioConfig(population=40, seed=11)
        serial = recorded(base, "serial", 1)
        assert serial == scenario_digest(base)
        assert recorded(base, "process", 3) == serial
        assert recorded(ScenarioConfig(population=40, seed=12), "serial", 1) != (
            serial
        )

    def test_roundtrip(self):
        from repro.runtime import plan_shards

        shards = plan_shards(4, 40, workers=2, shard_size=_SHARD_SIZE)
        manifest = RunManifest.build(
            config=_CONFIG,
            mode="manifest",
            fault_plan=None,
            week_ordinals=tuple(w.ordinal for w in _WEEKS),
            domain_names=tuple(f"d{i}.example" for i in range(40)),
            shards=shards,
            store_format=1,
        )
        restored = RunManifest.from_dict(
            json.loads(json.dumps(manifest.to_dict()))
        )
        assert restored == manifest
        assert not restored.mismatches(manifest)
        assert [s.index for s in restored.shards()] == [s.index for s in shards]

    @pytest.mark.parametrize(
        "weeks, domains, workers, shard_size, weighted",
        [
            (4, 40, 2, _SHARD_SIZE, False),
            (4, 40, 3, 0, True),
            (201, 7, 1, 50, True),
            (3, 2, 8, 0, False),
            (0, 40, 2, 0, False),
            (4, 0, 2, 0, False),
        ],
    )
    def test_every_planned_plan_partitions_its_grid(
        self, weeks, domains, workers, shard_size, weighted
    ):
        from repro.runtime import CostModel, plan_shards

        model = None
        if weighted:  # uneven costs reorder the plan longest-first
            model = CostModel(tuple(1 + d % 5 for d in range(domains)))
        manifest = RunManifest.build(
            config=_CONFIG,
            mode="manifest",
            fault_plan=None,
            week_ordinals=tuple(range(weeks)),
            domain_names=tuple(f"d{i}.example" for i in range(domains)),
            shards=plan_shards(weeks, domains, workers, shard_size, model),
            store_format=1,
        )
        assert manifest.plan_problem() is None


_KILL_SCRIPT = """
import os, sys

limit = int(sys.argv[1])
root = sys.argv[2]

import repro.runtime.ledger as ledger_mod

journaled = 0
original = ledger_mod.RunLedger.journal

def aborting_journal(self, shard_index, shard_key, payload):
    global journaled
    written = original(self, shard_index, shard_key, payload)
    journaled += 1
    if journaled >= limit:
        os._exit(137)  # hard abort: no cleanup, no atexit, no flush
    return written

ledger_mod.RunLedger.journal = aborting_journal

from repro import FaultPlan, ScenarioConfig
from repro.crawler import Crawler
from repro.options import (
    DurabilityOptions,
    ExecutionOptions,
    ResilienceOptions,
    RunOptions,
)
from repro.webgen import WebEcosystem

config = ScenarioConfig(population=40, seed=11)
crawler = Crawler(
    WebEcosystem(config),
    mode="manifest",
    apply_filter=False,
    options=RunOptions(
        execution=ExecutionOptions(backend="serial", workers=2, shard_size=30),
        resilience=ResilienceOptions(
            fault_plan=FaultPlan(seed=3, crash_rate=0.25)
        ),
        durability=DurabilityOptions(checkpoint_dir=root),
    ),
)
crawler.run(weeks=config.calendar.weeks[:4])
os._exit(0)  # only reached if the abort never fired
"""


class TestKillMidRun:
    """FaultPlan chaos + a hard process abort, then an exact resume."""

    @pytest.fixture(scope="class")
    def killed_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("killed")
        root = tmp / "run"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_SCRIPT, "2", str(root)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 137, proc.stderr
        return root

    @pytest.fixture(scope="class")
    def reference(self):
        plan = FaultPlan(seed=3, crash_rate=0.25)
        _, store = _run(plan=plan)
        return plan, store

    def test_abort_left_a_partial_journal(self, killed_run):
        entries = _journal_entries(killed_run)
        # The abort fired right after the 2nd journal write; serial
        # shards journal one at a time, so exactly 2 entries survive.
        assert len(entries) == 2
        assert (killed_run / "manifest.json").exists()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_resume_after_kill_is_byte_identical(
        self, killed_run, reference, tmp_path, backend
    ):
        plan, baseline = reference
        work = tmp_path / f"resume-{backend}"
        shutil.copytree(killed_run, work)
        replayable = len(_journal_entries(work))
        report, store = _run(
            checkpoint=work, resume=True, backend=backend, plan=plan
        )
        # The bytes save_store would persist, equal to the uninterrupted
        # run's.
        assert store == baseline
        assert report.shards_replayed == replayable
        assert report.shards_replayed + report.shards_reexecuted == 6


class TestCliCheckpointFlags:
    def test_run_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "ledger"
        ref = tmp_path / "ref.bin"
        resumed = tmp_path / "resumed.bin"
        args = [
            "run",
            "--population",
            "60",
            "--seed",
            "5",
            "--weeks",
            "4",
            "--workers",
            "2",
            "--backend",
            "serial",
        ]
        assert main(args + ["--save-store", str(ref)]) == 0
        capsys.readouterr()
        code = main(
            args + ["--checkpoint-dir", str(root), "--save-store", str(resumed)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "ledger [" in err and "bytes journaled" in err
        assert ref.read_bytes() == resumed.read_bytes()
        # Second invocation resumes: replays every shard, executes none.
        code = main(
            args
            + [
                "--checkpoint-dir",
                str(root),
                "--resume",
                "--save-store",
                str(resumed),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "0 executed" in err
        assert ref.read_bytes() == resumed.read_bytes()

    _PLAN_ARGS = [
        "run",
        "--population", "30",
        "--weeks", "2",
        "--workers", "2",
        "--backend", "serial",
    ]

    @pytest.mark.parametrize(
        "damage", ["truncated", "covered-twice", "string-index"]
    )
    def test_resume_refuses_a_plan_that_does_not_partition_the_grid(
        self, tmp_path, capsys, damage
    ):
        """A resume adopts the stored plan, so it must cover each
        (week, domain) cell of the live grid exactly once."""
        from repro.cli import main

        root = tmp_path / "ledger"
        assert main(self._PLAN_ARGS + ["--checkpoint-dir", str(root)]) == 0
        document = json.loads((root / "manifest.json").read_text())
        plan = document["shard_plan"]
        assert [row[:5] for row in plan] == [[0, 0, 2, 0, 10], [1, 0, 2, 10, 10]]
        if damage == "truncated":  # week 0 of the first 10 domains only
            plan[:] = [[0, 0, 1, 0, 10, plan[0][5].replace("0-1", "0-0")]]
        elif damage == "covered-twice":  # the first 10 domains twice
            plan.append([2] + plan[0][1:])
        else:
            plan[0][0] = "0"
        (root / "manifest.json").write_text(json.dumps(document))
        for entry in _journal_entries(root):
            entry.unlink()
        capsys.readouterr()
        saved = tmp_path / "resumed.bin"
        code = main(
            self._PLAN_ARGS
            + ["--checkpoint-dir", str(root), "--resume"]
            + ["--save-store", str(saved)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "shard_plan" in err
        assert not saved.exists()

    def test_resume_requires_checkpoint_dir(self, capsys):
        from repro.cli import main

        assert main(["run", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_reusing_dir_without_resume_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "run",
            "--population",
            "40",
            "--seed",
            "5",
            "--weeks",
            "2",
            "--checkpoint-dir",
            str(tmp_path / "ledger"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        assert "resume" in capsys.readouterr().err
