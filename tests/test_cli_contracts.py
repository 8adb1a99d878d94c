"""CLI exit-code contracts across ``repro``, ``repro serve``,
``repro orchestrate``.

The contract: bad flags and bad configuration exit 2 with a one-line
typed ``error:`` message on stderr — never a traceback; degraded but
*complete* work (dead-lettered jobs with dependents degraded per
policy) exits 0 with a stderr report, because nothing was dropped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.errors import ConfigError, JobExecutionError
from repro.runtime.faults import FaultPlan

from conftest import blob_with_id_past_its_table


def _cli(*argv: str) -> subprocess.CompletedProcess:
    """Run the real console entry in a subprocess (traceback checks
    need the interpreter's actual stderr, not capsys)."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _assert_clean_failure(proc, needle: str) -> None:
    assert proc.returncode == 2
    error_lines = [
        line for line in proc.stderr.splitlines()
        if line.startswith("error:")
    ]
    assert len(error_lines) == 1, proc.stderr
    assert needle in error_lines[0]
    assert "Traceback" not in proc.stderr
    assert "Traceback" not in proc.stdout


# ----------------------------------------------------------------------
# Bad flags: argparse's exit-2 surface
# ----------------------------------------------------------------------
class TestBadFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--no-such-flag"],
            ["run", "--backend", "quantum"],
            ["serve", "--port", "not-a-port"],
            ["orchestrate", "explode", "--queue-dir", "/tmp/x"],
            ["orchestrate", "run", "--degrade-policy", "shrug"],
            ["no-such-command"],
            # Every --backend accepts only auto, serial and process.
            ["run", "--backend", "thread"],
            ["orchestrate", "run", "--queue-dir", "queue", "--backend", "async"],
            ["sweep", "run", "--queue-dir", "queue", "--backend", "thread"],
            # Plans cut cells uniformly; there is no second planner.
            ["run", "--plan-from", "metrics.json"],
        ],
    )
    def test_unknown_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_out_of_range_serve_options_exit_2(self, capsys):
        assert main(["serve", "--store", "x.bin", "--port", "99999"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_orchestrate_requires_queue_dir(self, capsys):
        assert main(["orchestrate", "run"]) == 2
        assert "--queue-dir" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Satellite: FaultPlan.from_spec error paths are typed and name tokens
# ----------------------------------------------------------------------
class TestFaultPlanSpecErrors:
    @pytest.mark.parametrize(
        "spec, needle",
        [
            ("bogus=1", "unknown fault-plan key"),
            ("crash", "expected key=value"),
            ("crash=lots", "in token 'crash=lots'"),
            ("crash=2", "probability in 0..1"),
            ("seed=x", "token 'seed=x'"),
            ("weeks=5-2", "empty week range"),
            ("weeks=a-b", "in token 'weeks=a-b'"),
            ("crash=0.1,crash=0.2", "duplicate fault-plan key"),
            ("jobcrash=9", "probability in 0..1"),
            ("leasestorm=-1", "probability in 0..1"),
            ("queuetear=nope", "in token 'queuetear=nope'"),
        ],
    )
    def test_malformed_specs_raise_typed_config_errors(self, spec, needle):
        with pytest.raises(ConfigError, match="fault-plan") as excinfo:
            FaultPlan.from_spec(spec)
        assert needle in str(excinfo.value)

    def test_cli_reports_bad_spec_without_traceback(self):
        proc = _cli("run", "--fault-plan", "crash=lots")
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "crash=lots" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_round_trip_describe_to_from_spec(self):
        plan = FaultPlan(
            seed=3,
            job_crash_rate=0.4,
            lease_expiry_rate=0.5,
            queue_tear_rate=0.25,
        )
        assert FaultPlan.from_spec(plan.describe()) == plan


class TestResumeErrors:
    """A damaged or outdated checkpoint exits 2 with one error line."""

    def _checkpointed(self, root, *extra):
        return _cli(
            "run",
            "--population", "30",
            "--weeks", "2",
            "--checkpoint-dir", str(root),
            *extra,
        )

    def test_nested_manifest(self, tmp_path):
        root = tmp_path / "run"
        assert self._checkpointed(root).returncode == 0
        (root / "manifest.json").write_bytes(b"[" * 200_000)
        proc = self._checkpointed(root, "--resume")
        _assert_clean_failure(proc, "unreadable")

    def test_checkpoint_of_an_older_ledger_format(self, tmp_path):
        root = tmp_path / "run"
        assert self._checkpointed(root).returncode == 0
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["format"] = 4
        (root / "manifest.json").write_text(json.dumps(manifest))
        proc = self._checkpointed(root, "--resume")
        _assert_clean_failure(proc, "format: run recorded 4")


class TestSweepReportErrors:
    def test_nested_sweep_document(self, tmp_path):
        (tmp_path / "fleet-sweep.json").write_bytes(b"[" * 200_000)
        proc = _cli("sweep", "report", "--queue-dir", str(tmp_path))
        _assert_clean_failure(proc, "no folded sweep document")


class TestServeStoreErrors:
    def test_json_store_is_refused(self, tmp_path):
        store = tmp_path / "store.json"
        store.write_text(json.dumps({"checksum": "0" * 64, "store": {}}))
        proc = _cli("serve", "--store", str(store), "--port", "0")
        _assert_clean_failure(proc, "not a binary store blob")

    def test_symbol_id_past_its_table_is_refused(self, tmp_path):
        from repro import ScenarioConfig, Study

        study = Study(ScenarioConfig(population=20, seed=5))
        study.run(weeks=study.config.calendar.weeks[:2])
        store = tmp_path / "store.bin"
        store.write_bytes(
            blob_with_id_past_its_table(study.store, b"WEEK", "library")
        )
        proc = _cli("serve", "--store", str(store), "--port", "0")
        _assert_clean_failure(proc, "section WEEK refers to library id")


class TestUnwritableOutputPaths:
    """An output path the CLI cannot write exits 2 before any work.

    ``{missing}`` is a directory that does not exist and ``{file}`` a
    regular file, so neither can hold what the flag writes.
    """

    _RUN = ["run", "--population", "30", "--weeks", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            [*_RUN, "--save-store", "{missing}/x.bin"],
            [*_RUN, "--metrics-out", "{missing}/m.json"],
            [*_RUN, "--checkpoint-dir", "{file}/ck"],
            ["orchestrate", "run", "--queue-dir", "{file}/q"],
            ["sweep", "run", "--queue-dir", "{file}/q"],
        ],
        ids=["save-store", "metrics-out", "checkpoint-dir", "orchestrate", "sweep"],
    )
    def test_exits_2_before_any_work(self, tmp_path, argv):
        regular = tmp_path / "F"
        regular.write_text("")
        flag, value = argv[-2:]
        path = value.format(missing=tmp_path / "missing", file=regular)
        proc = _cli(*argv[:-1], path)
        _assert_clean_failure(proc, f"{flag} {path}")
        assert proc.stdout == ""  # no crawl ran, no report printed
        assert sorted(tmp_path.iterdir()) == [regular]


class TestBadSeed:
    """A seed that is not an int >= 0 exits 2 before any work.

    The generator seeds numpy with it, which raised an untyped
    ``ValueError`` from inside the crawl (and, in a fleet, inside the
    leased crawl job of a queue already on disk).
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--population", "30", "--weeks", "1"],
            ["orchestrate", "run", "--queue-dir", "{queue}", "--population",
             "20", "--ticks", "1", "--weeks-per-tick", "1"],
            ["sweep", "run", "--queue-dir", "{queue}", "--population", "20",
             "--weeks", "1"],
        ],
        ids=["run", "orchestrate", "sweep"],
    )
    def test_negative_seed_exits_2(self, tmp_path, argv):
        queue = tmp_path / "q"
        proc = _cli(*(arg.format(queue=queue) for arg in argv), "--seed", "-5")
        _assert_clean_failure(proc, "seed must be an integer >= 0, got -5")
        assert proc.stdout == ""
        assert not queue.exists()

    @pytest.mark.parametrize("seed", [-5, 1.5, True, "3"])
    def test_configs_refuse_the_seed(self, seed):
        from repro.config import ScenarioConfig
        from repro.orchestrator import FleetPlan

        with pytest.raises(ConfigError, match="seed must be an integer"):
            ScenarioConfig(population=20, seed=seed)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            FleetPlan.build(20, seed, 1, 1)


# ----------------------------------------------------------------------
# Orchestrate: run/status contract
# ----------------------------------------------------------------------
class TestOrchestrateContract:
    _FLAGS = [
        "--population", "24",
        "--ticks", "2",
        "--weeks-per-tick", "1",
        "--max-job-retries", "0",
    ]

    def test_status_on_missing_queue_exits_2(self, tmp_path, capsys):
        code = main(
            ["orchestrate", "status", "--queue-dir", str(tmp_path / "no")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_plan_mismatch_on_resume_exits_2(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "q")
        argv = ["orchestrate", "run", "--queue-dir", queue_dir, *self._FLAGS]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--seed", "99"]) == 2
        assert "different fleet" in capsys.readouterr().err

    def test_format_1_queue_exits_2(self, tmp_path):
        """A queue written when every tick re-crawled from week 0 is
        refused, not resumed."""
        from repro.orchestrator import FleetPlan

        queue_dir = tmp_path / "q"
        queue_dir.mkdir()
        plan = FleetPlan.build(population=24, seed=7, ticks=2, weeks_per_tick=1)
        (queue_dir / "queue.json").write_text(
            json.dumps(dict(plan.to_dict(), format=1), sort_keys=True)
        )
        proc = _cli(
            "orchestrate", "run", "--queue-dir", str(queue_dir), *self._FLAGS
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "format 1" in lines[0]

    @pytest.mark.parametrize(
        "job_id", [None, ["crawl-000"], {"id": "crawl-000"}],
        ids=["null", "list", "dict"],
    )
    def test_malformed_job_list_exits_2(self, tmp_path, capsys, job_id):
        queue_dir = tmp_path / "q"
        run = ["orchestrate", "run", "--queue-dir", str(queue_dir), *self._FLAGS]
        assert main(run) == 0
        manifest = queue_dir / "queue.json"
        document = json.loads(manifest.read_text())
        document["jobs"][0]["job_id"] = job_id
        manifest.write_text(json.dumps(document, sort_keys=True))
        capsys.readouterr()
        for argv in (["orchestrate", "status", "--queue-dir", str(queue_dir)], run):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "job_id must be a string" in err

    def test_degraded_but_complete_exits_0_with_stderr_report(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.orchestrator.runner import JobRunner

        original = JobRunner.execute

        def failing(self, spec):
            if spec.job_id == "crawl-001":
                raise JobExecutionError(spec.job_id, "induced failure")
            return original(self, spec)

        monkeypatch.setattr(JobRunner, "execute", failing)
        code = main(
            [
                "orchestrate", "run",
                "--queue-dir", str(tmp_path / "q"),
                *self._FLAGS,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0  # every job terminal, nothing dropped
        assert "dead-letter crawl-001" in captured.err
        assert "skipped" in captured.err

    def test_status_after_run_reports_every_job(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "q")
        assert main(
            ["orchestrate", "run", "--queue-dir", queue_dir, *self._FLAGS]
        ) == 0
        capsys.readouterr()
        assert main(["orchestrate", "status", "--queue-dir", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "crawl-000" in out and "serve-001" in out
        assert "8 done" in out


# ----------------------------------------------------------------------
# Serve: graceful shutdown contract
# ----------------------------------------------------------------------
class TestServeShutdown:
    def test_sigterm_drains_and_exits_0(self, tmp_path):
        import signal
        import time

        from repro import ScenarioConfig, Study
        from repro.crawler.persistence import save_store

        study = Study(ScenarioConfig(population=20, seed=5))
        study.run(weeks=study.config.calendar.weeks[:2])
        store_path = tmp_path / "store.bin"
        save_store(study.store, store_path)

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", str(store_path), "--port", "0",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Wait for the startup banner so the serve loop is live.
            deadline = time.monotonic() + 60
            banner = ""
            while "listening on" not in banner:
                assert time.monotonic() < deadline
                banner += proc.stderr.readline()
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
        assert code == 0
        remainder = proc.stderr.read()
        assert "SIGTERM received, draining" in remainder

    def test_sigterm_handler_is_installed_before_the_banner(
        self, tmp_path, monkeypatch
    ):
        """A manager that signals on reading "listening on" must hit the
        draining handler, never the default one that kills the server."""
        import signal

        from repro import ScenarioConfig, Study
        from repro.crawler.persistence import save_store
        from repro.options import ServeOptions
        from repro.serve import http as serve_http

        study = Study(ScenarioConfig(population=20, seed=5))
        study.run(weeks=study.config.calendar.weeks[:2])
        save_store(study.store, tmp_path / "store.bin")

        events = []

        class StubServer:
            server_address = ("127.0.0.1", 8737)

            def serve_forever(self):
                events.append("serve")

            def server_close(self):
                pass

        class Stderr:
            def write(self, text):
                if "listening on" in text:
                    events.append("banner")
                return len(text)

            def flush(self):
                pass

        real_signal = signal.signal

        def recording_signal(signum, handler):
            if signum == signal.SIGTERM:
                events.append("sigterm-handler")
            return real_signal(signum, handler)

        monkeypatch.setattr(serve_http, "make_server", lambda *args: StubServer())
        monkeypatch.setattr(signal, "signal", recording_signal)
        monkeypatch.setattr(sys, "stderr", Stderr())
        options = ServeOptions(store=str(tmp_path / "store.bin"))
        assert serve_http.run_server(options) == 0
        assert events == ["sigterm-handler", "banner", "serve", "sigterm-handler"]
