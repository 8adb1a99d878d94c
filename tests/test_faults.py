"""Unit tests for the chaos layer: fault plans, resilient dispatch,
failure isolation, and backend resolution.

The end-to-end contracts (store identity, fault-run determinism, cache
identity) live in ``test_invariants.py``; this file pins the building
blocks those properties stand on.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import ScenarioConfig, Study
from repro.errors import ConfigError, CrawlError, ShardExecutionError
from repro.netsim.network import FailureModel, HostCondition
from repro.runtime import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    DispatchResult,
    FaultPlan,
    ProcessBackend,
    SerialBackend,
    ShardTask,
    SimulatedClock,
    backoff_delay,
    dispatch_shards,
    get_backend,
)


class TestFaultPlan:
    def test_rates_must_be_probabilities(self):
        for field in (
            "crash_rate",
            "timeout_rate",
            "surge_connect_failure_rate",
            "surge_timeout_rate",
            "surge_server_error_rate",
        ):
            for bad in (-0.1, 1.5):
                with pytest.raises(ConfigError, match=field):
                    FaultPlan(**{field: bad})

    def test_surge_weeks_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="surge_weeks"):
            FaultPlan(surge_weeks=(3, -1))

    def test_shard_fault_is_pure(self):
        plan = FaultPlan(seed=9, crash_rate=0.5, timeout_rate=0.5)
        key = "weeks:0-3|domains:a.example..z.example|n=40"
        verdicts = [plan.shard_fault(key, attempt) for attempt in range(6)]
        assert verdicts == [plan.shard_fault(key, a) for a in range(6)]
        # A different attempt is a fresh draw; a different key is too.
        assert plan.shard_fault(key, 0) == plan.shard_fault(key, 0)
        assert any(v is not None for v in verdicts)

    def test_extreme_rates_pin_the_channels(self):
        assert FaultPlan(crash_rate=1.0).shard_fault("k", 0) == "crash"
        # The crash channel is drawn first; with it silent, a certain
        # timeout always fires.
        assert FaultPlan(timeout_rate=1.0).shard_fault("k", 0) == "timeout"
        assert FaultPlan().shard_fault("k", 0) is None

    def test_injects_shard_faults_flag(self):
        assert not FaultPlan().injects_shard_faults
        assert not FaultPlan(surge_weeks=(1,), surge_timeout_rate=0.5).injects_shard_faults
        assert FaultPlan(crash_rate=0.1).injects_shard_faults
        assert FaultPlan(timeout_rate=0.1).injects_shard_faults

    def test_surge_conditions_cover_exactly_the_surge_weeks(self):
        plan = FaultPlan(
            surge_weeks=(2, 3, 4),
            surge_connect_failure_rate=0.1,
            surge_timeout_rate=0.2,
            surge_server_error_rate=0.3,
        )
        conditions = plan.surge_conditions()
        assert sorted(conditions) == [2, 3, 4]
        assert conditions[3].server_error_rate == 0.3
        assert FaultPlan(crash_rate=0.5).surge_conditions() == {}

    def test_from_spec_round_trips_describe(self):
        plan = FaultPlan(
            seed=7,
            crash_rate=0.25,
            timeout_rate=0.1,
            surge_weeks=(0, 1, 2, 3, 4, 5),
            surge_server_error_rate=0.6,
        )
        assert FaultPlan.from_spec(plan.describe()) == plan

    def test_from_spec_parses_single_week_and_ranges(self):
        assert FaultPlan.from_spec("weeks=4").surge_weeks == (4,)
        assert FaultPlan.from_spec("weeks=2-5").surge_weeks == (2, 3, 4, 5)
        assert FaultPlan.from_spec("seed=3").seed == 3
        assert FaultPlan.from_spec("").crash_rate == 0.0

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("crash", "expected key=value"),
            ("bogus=1", "unknown fault-plan key"),
            ("crash=lots", "bad fault-plan value"),
            ("weeks=5-2", "bad fault-plan value"),
            ("crash=1.5", "must be a probability"),
        ],
    )
    def test_from_spec_rejects_bad_specs(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            FaultPlan.from_spec(spec)


class TestSurgedFailureModel:
    def test_surge_adds_to_base_rates_only_on_surge_clocks(self):
        failures = FailureModel(seed=1)
        failures.set_condition(
            "flaky.example", HostCondition(server_error_rate=0.5)
        )
        failures.surge = {7: HostCondition(server_error_rate=0.3, timeout_rate=0.2)}
        assert failures.effective_rates("flaky.example", 6) == (0.0, 0.0, 0.5)
        assert failures.effective_rates("flaky.example", 7) == (0.0, 0.2, 0.8)
        assert failures.effective_rates("steady.example", 7) == (0.0, 0.2, 0.3)

    def test_surge_rates_cap_at_one(self):
        failures = FailureModel()
        failures.set_condition("h.example", HostCondition(timeout_rate=0.9))
        failures.surge = {0: HostCondition(timeout_rate=0.9)}
        assert failures.effective_rates("h.example", 0)[1] == 1.0
        assert failures.outcome("h.example", 0, 0) == "timeout"


# ----------------------------------------------------------------------
# Dispatch: retries, backoff, degradation, wrapped errors
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FakeTask:
    """The slice of the ShardTask surface dispatch_shards touches."""

    shard_index: int
    attempt: int = 0

    def describe(self):
        return f"shard {self.shard_index} [fake]"


def _flaky_runner(failures_before_success):
    """A run_task stub that fails the first N attempts of each shard."""

    def run(task):
        if task.attempt < failures_before_success.get(task.shard_index, 0):
            return {
                "ok": False,
                "error": "RuntimeError: transient",
                "injected": False,
                "shard": task.describe(),
            }
        return {"ok": True, "shard_index": task.shard_index}

    return run


class TestBackoff:
    def test_backoff_doubles_from_base_and_caps(self):
        assert [backoff_delay(a) for a in range(6)] == [
            0.5,
            1.0,
            2.0,
            4.0,
            8.0,
            8.0,
        ]
        assert backoff_delay(0) == BACKOFF_BASE
        assert backoff_delay(50) == BACKOFF_CAP

    def test_simulated_clock_accumulates_without_sleeping(self):
        clock = SimulatedClock()
        clock.sleep(0.5)
        clock.sleep(1.0)
        assert clock.now == 1.5
        assert clock.sleeps == [0.5, 1.0]


class TestDispatchShards:
    def test_transient_failures_are_retried_to_success(self):
        tasks = [FakeTask(shard_index=i) for i in range(3)]
        clock = SimulatedClock()
        outcome = dispatch_shards(
            SerialBackend(),
            tasks,
            max_retries=2,
            clock=clock,
            run_task=_flaky_runner({1: 2}),  # shard 1 fails twice
        )
        assert isinstance(outcome, DispatchResult)
        assert [p and p["shard_index"] for p in outcome.payloads] == [0, 1, 2]
        assert outcome.dropped == []
        # attempts 0 and 1 failed: 0.5s + 1.0s of simulated backoff.
        assert clock.sleeps == [0.5, 1.0]
        assert clock.now == 1.5

    def test_exhausted_unexpected_failure_raises_wrapped_error(self):
        tasks = [FakeTask(shard_index=0)]
        with pytest.raises(ShardExecutionError) as excinfo:
            dispatch_shards(
                SerialBackend(),
                tasks,
                max_retries=1,
                run_task=_flaky_runner({0: 99}),
            )
        error = excinfo.value
        assert error.shard_index == 0
        assert error.attempts == 2
        assert "shard 0 [fake]" in str(error)
        assert "RuntimeError: transient" in str(error)

    def test_degrade_policy_drops_instead_of_raising(self):
        tasks = [FakeTask(shard_index=0), FakeTask(shard_index=1)]
        outcome = dispatch_shards(
            SerialBackend(),
            tasks,
            max_retries=0,
            on_failure="degrade",
            run_task=_flaky_runner({1: 99}),
        )
        assert outcome.payloads[0]["ok"]
        assert outcome.payloads[1] is None
        assert [f.shard_index for f in outcome.dropped] == [1]
        assert outcome.dropped[0].attempts == 1
        assert not outcome.dropped[0].injected

    def test_injected_failures_always_degrade_under_raise_policy(self):
        def injected_crash(task):
            return {
                "ok": False,
                "error": "InjectedWorkerCrash: injected worker crash",
                "injected": True,
                "shard": task.describe(),
            }

        clock = SimulatedClock()
        outcome = dispatch_shards(
            SerialBackend(),
            [FakeTask(shard_index=0)],
            max_retries=2,
            on_failure="raise",
            clock=clock,
            run_task=injected_crash,
        )
        assert [f.shard_index for f in outcome.dropped] == [0]
        assert outcome.dropped[0].injected
        assert len(clock.sleeps) == 2
        assert clock.now == 1.5


# ----------------------------------------------------------------------
# Failure isolation end-to-end: wrapped errors name the shard
# ----------------------------------------------------------------------
class TestShardErrorContext:
    def test_worker_exception_is_wrapped_with_shard_identity(self, monkeypatch):
        import repro.runtime.worker as worker_module

        def explode(task):
            raise ValueError("catastrophic fingerprint failure")

        monkeypatch.setattr(worker_module, "execute_shard", explode)
        from repro.options import ExecutionOptions, ResilienceOptions, RunOptions

        study = Study(
            ScenarioConfig(population=20, seed=5),
            options=RunOptions(
                execution=ExecutionOptions(workers=2, backend="serial"),
                resilience=ResilienceOptions(max_shard_retries=1),
            ),
        )
        weeks = study.config.calendar.weeks[:2]
        with pytest.raises(ShardExecutionError) as excinfo:
            study.run(weeks=weeks)
        message = str(excinfo.value)
        # The wrapped error names the shard: its week span, its domain
        # span, and the backend it ran on.
        assert "shard 0" in message
        assert "week" in message
        assert "domain" in message
        assert "backend serial" in message
        assert "failed after 2 attempts" in message
        assert "ValueError: catastrophic fingerprint failure" in message

    def test_degraded_study_completes_with_empty_store(self):
        from repro.options import ExecutionOptions, ResilienceOptions, RunOptions

        study = Study(
            ScenarioConfig(population=20, seed=5),
            options=RunOptions(
                execution=ExecutionOptions(workers=2, backend="serial"),
                resilience=ResilienceOptions(
                    max_shard_retries=1,
                    fault_plan=FaultPlan(seed=1, crash_rate=1.0),
                ),
            ),
        )
        weeks = study.config.calendar.weeks[:2]
        report = study.run(weeks=weeks)
        assert report.degraded
        assert report.dropped_shards > 0
        assert report.pages_collected == 0
        # The study path applies the paper's prefilter, so the dropped
        # grid is weeks x *retained* domains.
        assert report.dropped_cells == len(weeks) * report.domains_crawled
        assert all("injected worker crash" in line for line in report.shard_errors)
        # max_shard_retries=1: each shard backs off once (0.5 simulated
        # seconds) between its two doomed attempts.
        assert report.backoff_seconds == report.dropped_shards * 0.5
        assert report.shard_retries == report.dropped_shards
        assert study.store.average_collected() == 0.0


# ----------------------------------------------------------------------
# Backend resolution (the SerialBackend workers fix + auto on 1 CPU)
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_serial_backend_pins_workers_to_one(self):
        assert SerialBackend(workers=3).workers == 1

    def test_serial_backend_rejects_nonpositive_workers(self):
        # Worker validation is normalized across backends: every
        # constructor (and get_backend) raises the same typed
        # ConfigError, not a CrawlError.
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            SerialBackend(workers=0)

    def test_auto_resolution_by_worker_count(self):
        # The 1-CPU container case: auto with one worker stays serial.
        assert isinstance(get_backend("auto", workers=1), SerialBackend)
        assert isinstance(get_backend("auto", workers=2), ProcessBackend)

    def test_unknown_backend_is_a_config_error(self):
        for name in ("quantum", "thread", "async"):
            with pytest.raises(ConfigError, match="unknown execution backend"):
                get_backend(name)


class TestShardTaskIdentity:
    def _task(self, **overrides):
        fields = dict(
            config=ScenarioConfig(population=20, seed=5),
            mode="manifest",
            week_ordinals=(3, 4, 5),
            domain_names=("a.example", "b.example", "c.example"),
            shard_index=4,
            backend_name="process",
        )
        fields.update(overrides)
        return ShardTask(**fields)

    def test_shard_key_ignores_backend_and_attempt(self):
        base = self._task()
        assert (
            base.shard_key()
            == self._task(attempt=2, backend_name="serial").shard_key()
        )
        assert base.shard_key() == "weeks:3-5|domains:a.example..c.example|n=3"
        assert self._task(week_ordinals=()).shard_key() == "empty"

    def test_describe_names_spans_and_backend(self):
        text = self._task().describe()
        assert "shard 4" in text
        assert "weeks 3-5" in text
        assert "a.example..c.example (3)" in text
        assert "backend process" in text
        single = self._task(
            week_ordinals=(3,), domain_names=("a.example",)
        ).describe()
        assert "week 3" in single and "domain a.example" in single
