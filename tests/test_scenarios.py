"""Scenario packs: registry semantics, dataset identity, pack effects.

The load-bearing guarantees:

* the ``baseline`` pack (and an unset pack) is byte-identical to the
  pre-pack seed dataset — pinned by a golden store digest;
* pack selection is *dataset identity*: applying a non-baseline pack
  changes the scenario digest (so ledgers/queues refuse mismatched
  resumes), while baseline-with-defaults equals unset;
* the ``bundled-deps`` vendored channel keeps full/manifest mode
  parity byte-exact;
* ``cve-range-drift`` perturbs the advisory database deterministically
  and flows into store bytes via ingest-time matching.
"""

import dataclasses
import hashlib

import pytest

from repro import ScenarioConfig, Study
from repro.config import BundlingConfig, CveDriftConfig, PackSelection
from repro.crawler.persistence import store_to_bytes
from repro.errors import AnalysisError, ConfigError
from repro.runtime.faults import FaultPlan
from repro.runtime.ledger import scenario_digest
from repro.scenarios import (
    PackParam,
    apply_pack,
    available_packs,
    get_pack,
    pack_digest,
    register_pack,
)

#: Pre-pack seed dataset digest for (population=120, seed=9, weeks=8),
#: recorded before the scenario-pack machinery existed.  The baseline
#: pack must keep producing these exact bytes.
_GOLDEN_120_9_8 = (
    "cb344a7e44a97bb2c573e076c5689bc4ef6708b9ce8092b9bb338d65e84594cd"
)


def _store_digest(config: ScenarioConfig, weeks: int, mode="manifest") -> str:
    study = Study(config, mode=mode)
    study.run(weeks=config.calendar.weeks[:weeks])
    return hashlib.sha256(store_to_bytes(study.store)).hexdigest()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestPackRegistry:
    def test_builtin_packs_are_registered(self):
        names = available_packs()
        for expected in (
            "baseline",
            "bundled-deps",
            "counterfactual",
            "cve-range-drift",
        ):
            assert expected in names

    def test_unknown_pack_lists_vocabulary(self):
        with pytest.raises(ConfigError) as excinfo:
            get_pack("no-such-pack")
        message = str(excinfo.value)
        assert "unknown scenario pack 'no-such-pack'" in message
        assert "baseline" in message and "bundled-deps" in message

    def test_duplicate_registration_is_refused(self):
        with pytest.raises(ConfigError, match="already registered"):

            @register_pack("baseline")
            def clash(config, params):  # pragma: no cover
                return config

    def test_undeclared_parameter_names_the_declared_set(self):
        with pytest.raises(ConfigError) as excinfo:
            apply_pack(ScenarioConfig(population=10), "bundled-deps", {"nope": 1})
        message = str(excinfo.value)
        assert "no parameter 'nope'" in message
        assert "share" in message

    def test_choice_parameters_are_enforced(self):
        with pytest.raises(ConfigError, match="is not one of"):
            apply_pack(
                ScenarioConfig(population=10),
                "counterfactual",
                {"intervention": "do-magic"},
            )

    def test_type_coercion_from_grid_strings(self):
        config = apply_pack(
            ScenarioConfig(population=10), "bundled-deps", {"share": "0.4"}
        )
        assert config.bundling.share == pytest.approx(0.4)
        assert config.bundling.enabled

    def test_bool_param_parse(self):
        param = PackParam("flag", bool, False)
        assert param.parse("yes") is True
        assert param.parse("0") is False
        with pytest.raises(ConfigError, match="expected a boolean"):
            param.parse("maybe")

    def test_pack_digest_is_stable_and_param_sensitive(self):
        base = pack_digest("bundled-deps")
        assert base == pack_digest("bundled-deps")
        assert base != pack_digest("bundled-deps", {"share": 0.9})
        assert base != pack_digest("cve-range-drift")


# ----------------------------------------------------------------------
# Dataset identity
# ----------------------------------------------------------------------
class TestPackIdentity:
    def test_baseline_selection_is_the_default_selection(self):
        config = ScenarioConfig(population=10)
        assert apply_pack(config, "baseline").pack == PackSelection()

    def test_unset_and_baseline_share_scenario_digest(self):
        config = ScenarioConfig(population=50, seed=3)
        assert scenario_digest(config) == scenario_digest(
            apply_pack(config, "baseline")
        )

    def test_non_baseline_pack_changes_scenario_digest(self):
        config = ScenarioConfig(population=50, seed=3)
        for name, params in (
            ("bundled-deps", {"share": 0.3}),
            ("cve-range-drift", {"rate": 0.4}),
            ("counterfactual", {}),
        ):
            assert scenario_digest(config) != scenario_digest(
                apply_pack(config, name, params)
            ), name

    def test_param_values_change_scenario_digest(self):
        config = ScenarioConfig(population=50, seed=3)
        a = apply_pack(config, "bundled-deps", {"share": 0.2})
        b = apply_pack(config, "bundled-deps", {"share": 0.3})
        assert scenario_digest(a) != scenario_digest(b)


class TestBaselineGolden:
    def test_baseline_store_bytes_match_pre_pack_seed(self):
        config = ScenarioConfig(population=120, seed=9)
        assert _store_digest(config, 8) == _GOLDEN_120_9_8

    def test_explicit_baseline_pack_matches_golden_too(self):
        config = apply_pack(
            ScenarioConfig(population=120, seed=9), "baseline"
        )
        assert _store_digest(config, 8) == _GOLDEN_120_9_8


# ----------------------------------------------------------------------
# bundled-deps: the vendored-inclusion channel
# ----------------------------------------------------------------------
class TestBundledDeps:
    CONFIG = apply_pack(
        ScenarioConfig(population=60, seed=11), "bundled-deps", {"share": 0.5}
    )

    def test_bundling_changes_store_bytes(self):
        baseline = ScenarioConfig(population=60, seed=11)
        assert _store_digest(self.CONFIG, 4) != _store_digest(baseline, 4)

    def test_full_and_manifest_modes_agree(self):
        assert _store_digest(self.CONFIG, 4, mode="full") == _store_digest(
            self.CONFIG, 4, mode="manifest"
        )

    def test_vendored_sampling_is_deterministic(self):
        import numpy as np

        from repro.semver import builtin_catalogs
        from repro.webgen.bundles import sample_vendored

        catalogs = builtin_catalogs()
        start = self.CONFIG.calendar.week_at(0).date
        bundling = BundlingConfig(share=1.0, max_ingredients=3)
        draws = [
            sample_vendored(
                np.random.default_rng([11, 4, 0xB17D]),
                bundling,
                catalogs,
                start,
            )
            for _ in range(2)
        ]
        assert draws[0] == draws[1]
        assert draws[0], "share=1.0 must vendor at least one ingredient"
        for inclusion in draws[0]:
            if inclusion.detected and not inclusion.version_visible:
                from repro.webgen.bundles import BUNDLE_BANNERS

                assert BUNDLE_BANNERS[inclusion.library][1] is not None


# ----------------------------------------------------------------------
# cve-range-drift: seeded advisory mislabeling
# ----------------------------------------------------------------------
class TestCveDrift:
    def test_zero_rate_is_identity(self):
        from repro.vulndb import default_database
        from repro.vulndb.drift import drifted_database

        database = default_database()
        assert (
            drifted_database(database, CveDriftConfig(rate=0.0)) is database
        )

    def test_drift_is_deterministic_and_marked(self):
        from repro.vulndb import default_database
        from repro.vulndb.drift import drifted_database

        drift = CveDriftConfig(rate=0.5, seed=3)
        first = drifted_database(default_database(), drift)
        second = drifted_database(default_database(), drift)
        changed = [
            advisory for advisory in first if "[drifted:" in advisory.notes
        ]
        assert changed, "rate=0.5 must drift some advisories"
        assert [a.identifier for a in changed] == [
            a.identifier for a in second if "[drifted:" in a.notes
        ]
        for advisory in changed:
            assert advisory.true_range is not None

    def test_drift_seed_changes_the_selection(self):
        from repro.vulndb import default_database
        from repro.vulndb.drift import drift_summary, drifted_database

        base = default_database()
        summary_a = drift_summary(
            base, drifted_database(base, CveDriftConfig(rate=0.5, seed=1))
        )
        summary_b = drift_summary(
            base, drifted_database(base, CveDriftConfig(rate=0.5, seed=2))
        )
        assert summary_a != summary_b

    def test_drift_pack_changes_store_bytes(self):
        baseline = ScenarioConfig(population=60, seed=11)
        drifted = apply_pack(
            baseline, "cve-range-drift", {"rate": 0.6, "seed": 5}
        )
        assert _store_digest(drifted, 4) != _store_digest(baseline, 4)


# ----------------------------------------------------------------------
# Satellites: fault vocabulary, analysis registry
# ----------------------------------------------------------------------
class TestSatellites:
    def test_fault_plan_errors_list_sorted_kinds(self):
        with pytest.raises(ConfigError) as excinfo:
            FaultPlan.from_spec("wat=1")
        message = str(excinfo.value)
        assert "known fault kinds (sorted)" in message
        kinds = message.rsplit(":", 1)[1].strip().split(", ")
        assert kinds == sorted(kinds)
        assert "crash" in kinds and "seed" in kinds

    def test_analysis_registry_runs_by_name(self):
        from repro.analysis.api import available_analyses, get_analysis

        names = available_analyses()
        assert len(names) >= 17
        assert list(names) == sorted(names)
        with pytest.raises(AnalysisError) as excinfo:
            get_analysis("nope")
        assert "registered analyses" in str(excinfo.value)

    def test_run_registered_is_deterministic_json(self):
        import json

        config = ScenarioConfig(population=40, seed=2)
        study = Study(config)
        study.run(weeks=config.calendar.weeks[:3])
        first = json.dumps(
            study.run_registered(("prevalence", "collection-series")),
            sort_keys=True,
        )
        second = json.dumps(
            study.run_registered(("prevalence", "collection-series")),
            sort_keys=True,
        )
        assert first == second

    def test_report_carries_the_analysis_index(self):
        from repro.reporting import StudyReport

        config = apply_pack(
            ScenarioConfig(population=40, seed=2),
            "bundled-deps",
            {"share": 0.4},
        )
        study = Study(config)
        study.run(weeks=config.calendar.weeks[:3])
        rendered = StudyReport(study).render()
        assert "Registered analyses" in rendered
        assert "bundled-deps(" in rendered
