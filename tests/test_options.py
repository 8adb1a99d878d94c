"""The typed run-options API and its single-declaration CLI derivation.

Pins the redesign contracts:

* ``Study`` takes its run knobs only as ``options=RunOptions(...)``;
  the pre-options flat keywords are a :class:`TypeError`;
* the CLI flags are derived from the option dataclasses' field
  metadata, so the two surfaces cannot drift — asserted structurally
  (every declared flag exists on the parser) and behaviourally (parsed
  flags convert into the same ``RunOptions`` the API builds).
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro import (
    DurabilityOptions,
    ExecutionOptions,
    FaultPlan,
    ObservabilityOptions,
    ResilienceOptions,
    RunOptions,
    ScenarioConfig,
    Study,
)
from repro.errors import ConfigError
from repro.options import (
    OPTION_GROUPS,
    _flag_dest,
    options_from_namespace,
)


CONFIG = ScenarioConfig(population=30, seed=9)


class TestEquivalence:
    def test_options_form_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            Study(CONFIG, options=RunOptions())
            Study(CONFIG)
        assert caught == []

    def test_unknown_kwarg_is_a_type_error(self):
        # A typo and a pre-options flat keyword fail alike.
        for name in ("wrokers", "workers"):
            with pytest.raises(TypeError, match=name):
                Study(CONFIG, **{name: 2})


class TestValidation:
    def test_execution_validation_matches_config_layer(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            ExecutionOptions(workers=0)
        with pytest.raises(ConfigError, match="shard_size must be >= 0"):
            ExecutionOptions(shard_size=-1)
        for backend in ("quantum", "thread", "async"):
            with pytest.raises(ConfigError, match="unknown execution backend"):
                ExecutionOptions(backend=backend)

    def test_resilience_validation(self):
        with pytest.raises(ConfigError, match="max_shard_retries"):
            ResilienceOptions(max_shard_retries=-1)
        with pytest.raises(ConfigError):
            ResilienceOptions(fault_plan="bogus=1")

    def test_fault_plan_spec_string_is_parsed(self):
        options = ResilienceOptions(fault_plan="seed=5,crash=0.25")
        assert options.fault_plan == FaultPlan.from_spec("seed=5,crash=0.25")

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            DurabilityOptions(resume=True)


class TestCliDerivation:
    def _run_parser(self):
        from repro.cli import build_parser

        parser = build_parser()
        # The 'run' subparser is where the option groups are attached.
        subparsers = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
            and "run" in action.choices
        )
        return subparsers.choices["run"]

    def test_every_declared_flag_exists_on_the_run_parser(self):
        run = self._run_parser()
        flags = {
            flag for action in run._actions for flag in action.option_strings
        }
        for _, option_cls, _, _ in OPTION_GROUPS:
            for field in dataclasses.fields(option_cls):
                spec = field.metadata.get("cli")
                if spec is None:
                    continue
                assert spec["flag"] in flags, (
                    f"{option_cls.__name__}.{field.name} declares "
                    f"{spec['flag']} but the run parser lacks it"
                )

    def test_parsed_flags_convert_into_the_api_options(self, tmp_path):
        run = self._run_parser()
        namespace = run.parse_args(
            [
                "--workers", "3",
                "--backend", "process",
                "--shard-size", "40",
                "--no-profile-cache",
                "--fault-plan", "seed=3,crash=0.2",
                "--max-shard-retries", "1",
                "--on-shard-failure", "degrade",
                "--checkpoint-dir", str(tmp_path / "ledger"),
                "--metrics-out", str(tmp_path / "m.json"),
            ]
        )
        options = options_from_namespace(namespace)
        assert options == RunOptions(
            execution=ExecutionOptions(
                workers=3, backend="process", shard_size=40,
                profile_cache=False,
            ),
            resilience=ResilienceOptions(
                fault_plan=FaultPlan.from_spec("seed=3,crash=0.2"),
                max_shard_retries=1,
                on_shard_failure="degrade",
            ),
            durability=DurabilityOptions(
                checkpoint_dir=str(tmp_path / "ledger")
            ),
            observability=ObservabilityOptions(
                metrics_out=str(tmp_path / "m.json")
            ),
        )

    def test_defaults_convert_to_inherit_everything(self):
        run = self._run_parser()
        assert options_from_namespace(run.parse_args([])) == RunOptions()

    def test_flag_dest_matches_argparse(self):
        assert _flag_dest("--no-profile-cache") == "no_profile_cache"
        assert _flag_dest("--metrics-out") == "metrics_out"

    def test_grouped_help_lists_all_four_groups(self):
        help_text = self._run_parser().format_help()
        for _, _, title, _ in OPTION_GROUPS:
            assert title in help_text

    def test_bad_flag_values_exit_2_via_cli(self, capsys):
        from repro.cli import main

        assert main(["run", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err
        assert main(["run", "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
