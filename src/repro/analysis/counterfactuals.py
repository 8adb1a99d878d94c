"""Counterfactual interventions (the paper's Section 9 suggestions).

The paper closes by recommending ecosystem-level interventions —
chiefly "a new auto-updating feature for client-side resources".  This
module quantifies such proposals by running *paired scenarios*: the
same population and seed, with one mechanism changed, and comparing
the security outcomes (vulnerable-site share, update delays, window of
vulnerability).

Built-in interventions:

* ``universal_auto_update`` — every WordPress site auto-updates and
  uses the bundled libraries (the paper's suggestion generalized);
* ``no_auto_update`` — the mechanism that *did* exist is removed
  (quantifies how much WordPress already contributes);
* ``responsive_web`` — all frozen developers become laggards and all
  laggards responsive (an upper bound on developer-behaviour change).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..config import BehaviorMix, PlatformConfig, ScenarioConfig
from ..vulndb import MatchMode

if TYPE_CHECKING:  # the pack registry loads this module: no crawl engine
    from ..core.study import Study


@dataclasses.dataclass
class InterventionOutcome:
    """Security outcomes of one scenario arm."""

    vulnerable_share: float
    vulnerable_share_tvv: float
    #: Average over 2021-2022 only — after the platform had actually
    #: shipped patched bundles.  Auto-updating cannot help before a
    #: patched release exists, so this is the fair comparison window.
    vulnerable_share_late: float
    mean_update_delay_days: float
    updated_sites: int
    censored_sites: int


@dataclasses.dataclass
class CounterfactualResult:
    """Paired baseline-vs-intervention comparison."""

    name: str
    baseline: InterventionOutcome
    intervention: InterventionOutcome

    @property
    def prevalence_delta(self) -> float:
        """Percentage-point change in vulnerable-site share (negative =
        the intervention helps)."""
        return (
            self.intervention.vulnerable_share - self.baseline.vulnerable_share
        ) * 100.0

    @property
    def delay_delta_days(self) -> float:
        return (
            self.intervention.mean_update_delay_days
            - self.baseline.mean_update_delay_days
        )

    def summary(self) -> str:
        sign = "+" if self.prevalence_delta >= 0 else ""
        return (
            f"{self.name}: vulnerable share {self.baseline.vulnerable_share:.1%} "
            f"-> {self.intervention.vulnerable_share:.1%} "
            f"({sign}{self.prevalence_delta:.1f} pp); post-2020 share "
            f"{self.baseline.vulnerable_share_late:.1%} -> "
            f"{self.intervention.vulnerable_share_late:.1%}; mean delay "
            f"{self.baseline.mean_update_delay_days:,.0f} -> "
            f"{self.intervention.mean_update_delay_days:,.0f} days"
        )


def _outcome(study: Study) -> InterventionOutcome:
    prevalence = study.prevalence()
    delays = study.update_delays()
    late_years = (2021, 2022)
    late_values = [
        prevalence.yearly_share[MatchMode.CVE][year]
        for year in late_years
        if year in prevalence.yearly_share[MatchMode.CVE]
    ]
    late = sum(late_values) / len(late_values) if late_values else 0.0
    return InterventionOutcome(
        vulnerable_share=prevalence.average_share[MatchMode.CVE],
        vulnerable_share_tvv=prevalence.average_share[MatchMode.TVV],
        vulnerable_share_late=late,
        mean_update_delay_days=delays.mean_delay_days,
        updated_sites=delays.total_updated_sites,
        censored_sites=delays.total_censored_sites,
    )


def _run(config: ScenarioConfig) -> InterventionOutcome:
    from ..core.study import Study

    study = Study(config)
    study.run()
    return _outcome(study)


Transform = Callable[[ScenarioConfig], ScenarioConfig]


def universal_auto_update(config: ScenarioConfig) -> ScenarioConfig:
    """Every platform site auto-updates with bundled libraries."""
    return dataclasses.replace(
        config,
        platform=PlatformConfig(
            wordpress_share=config.platform.wordpress_share,
            auto_update_share=1.0,
            auto_update_lag_weeks=config.platform.auto_update_lag_weeks,
            bundled_jquery_share=1.0,
        ),
    )


def no_auto_update(config: ScenarioConfig) -> ScenarioConfig:
    """Remove the auto-update mechanism entirely."""
    return dataclasses.replace(
        config,
        platform=dataclasses.replace(config.platform, auto_update_share=0.0),
    )


def responsive_web(config: ScenarioConfig) -> ScenarioConfig:
    """Shift the whole behaviour mix one notch toward responsiveness."""
    mix = config.behavior
    return dataclasses.replace(
        config,
        behavior=BehaviorMix(
            frozen=0.0,
            laggard=mix.frozen + mix.laggard,
            responsive=mix.responsive,
            laggard_weekly_hazard=mix.laggard_weekly_hazard,
            responsive_weekly_hazard=mix.responsive_weekly_hazard,
        ),
    )


BUILTIN_INTERVENTIONS: Dict[str, Transform] = {
    "universal-auto-update": universal_auto_update,
    "no-auto-update": no_auto_update,
    "responsive-web": responsive_web,
}


def _register_counterfactual_pack() -> None:
    """Expose the interventions as one scenario pack.

    ``repro sweep`` turns the one-off paired comparisons into grid
    points: ``counterfactual:intervention=universal-auto-update|...``
    sweeps each arm as its own full scenario, and the fold report
    compares them against whatever baseline point the grid carries.
    """
    from ..scenarios.registry import PackParam, register_pack

    @register_pack(
        "counterfactual",
        description="the Section 9 what-if interventions as grid points",
        params=(
            PackParam(
                "intervention",
                str,
                "universal-auto-update",
                "which built-in intervention to apply",
                choices=tuple(sorted(BUILTIN_INTERVENTIONS)),
            ),
        ),
    )
    def counterfactual(config: ScenarioConfig, params) -> ScenarioConfig:
        return BUILTIN_INTERVENTIONS[str(params["intervention"])](config)


_register_counterfactual_pack()


def evaluate(
    name: str,
    config: ScenarioConfig,
    transform: Optional[Transform] = None,
    baseline: Optional[InterventionOutcome] = None,
) -> CounterfactualResult:
    """Run one paired comparison.

    Args:
        name: Built-in intervention name, or any label when
            ``transform`` is given.
        config: The baseline scenario (same population/seed both arms).
        transform: Config transform; defaults to the built-in of
            ``name``.
        baseline: Precomputed baseline outcome (reuse across
            interventions to avoid re-crawling the control arm).
    """
    if transform is None:
        transform = BUILTIN_INTERVENTIONS[name]
    if baseline is None:
        baseline = _run(config)
    intervention = _run(transform(config))
    return CounterfactualResult(
        name=name, baseline=baseline, intervention=intervention
    )
