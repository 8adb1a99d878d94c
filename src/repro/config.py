"""Scenario configuration for the synthetic web ecosystem.

A :class:`ScenarioConfig` fully determines a dataset: population size,
seed, calendar, developer-behaviour mix, platform penetration, and the
accessibility model.  Two configs with equal fields produce identical
datasets.  How a run executes is not part of it: that is
:class:`~repro.options.RunOptions`.

The defaults are calibrated so that percentage-level statistics match the
paper (Tables 1/2, Figures 2-15); absolute counts scale linearly with
``population``.  The paper's weekly-accessible average was 782,300
domains; the default population of 20,000 keeps the full pipeline fast
while preserving every rate and trend shape.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from .canonical import canonical_digest
from .errors import ConfigError
from .timeline import StudyCalendar, default_calendar


@dataclasses.dataclass(frozen=True)
class BehaviorMix:
    """How web developers respond to library updates (Section 7).

    Fractions of the population by update policy:

    * ``frozen`` — never touch their client-side resources;
    * ``laggard`` — update rarely (small weekly hazard);
    * ``responsive`` — follow releases within weeks;

    (WordPress auto-updaters are configured on :class:`PlatformConfig`;
    they override the site policy for platform-managed libraries.)
    """

    frozen: float = 0.42
    laggard: float = 0.41
    responsive: float = 0.17
    #: Weekly probability a laggard site refreshes its libraries.
    laggard_weekly_hazard: float = 0.006
    #: Weekly probability a responsive site refreshes its libraries.
    responsive_weekly_hazard: float = 0.075

    def __post_init__(self) -> None:
        total = self.frozen + self.laggard + self.responsive
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"behavior mix must sum to 1.0, got {total}")
        for name in ("laggard_weekly_hazard", "responsive_weekly_hazard"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in (0, 1)")


@dataclasses.dataclass(frozen=True)
class PlatformConfig:
    """WordPress penetration and behaviour (Sections 6.1, 7, appendix)."""

    #: Fraction of sites built on WordPress (paper: 26.9%).
    wordpress_share: float = 0.269
    #: Fraction of WordPress sites with auto-updates enabled; these track
    #: new WordPress releases within a few weeks and drove the paper's
    #: December 2020 jQuery update wave.
    auto_update_share: float = 0.55
    #: Weeks (mean) an auto-updating site lags a WordPress release.
    auto_update_lag_weeks: float = 3.0
    #: Fraction of WordPress sites whose jQuery/jQuery-Migrate are the
    #: platform-bundled copies (the rest pin their own via themes).
    bundled_jquery_share: float = 0.62

    def __post_init__(self) -> None:
        for name in ("wordpress_share", "auto_update_share", "bundled_jquery_share"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a fraction, got {value}")


@dataclasses.dataclass(frozen=True)
class AccessibilityConfig:
    """Domain reachability over the four years (Section 4.1).

    The paper successfully collected an average of 78.2% of the Alexa 1M
    each week, filtered domains erroring or serving <400-byte pages for
    the last four consecutive weeks, and kept 201 snapshots.
    """

    #: Fraction of domains that are dead from the start (expired,
    #: parked, or never serving over HTTPS).
    initially_dead: float = 0.15
    #: Fraction of live domains that die at a uniform random week.
    dies_during_study: float = 0.06
    #: Fraction of live domains serving anti-bot short pages.
    antibot: float = 0.02
    #: Fraction of live domains that are flaky (transient failures).
    flaky: float = 0.05
    #: Per-request failure probability for flaky domains.
    flaky_failure_rate: float = 0.30
    #: Per-request 5xx probability for flaky domains (on top of the
    #: transient failures above; the default scenario uses none).
    flaky_server_error_rate: float = 0.0
    #: Empty-page byte threshold used by the paper's filter.
    empty_page_threshold: int = 400

    def __post_init__(self) -> None:
        if not 0.0 <= self.flaky_server_error_rate <= 1.0:
            raise ConfigError(
                "flaky_server_error_rate must be a fraction, "
                f"got {self.flaky_server_error_rate}"
            )


@dataclasses.dataclass(frozen=True)
class FlashConfig:
    """Adobe Flash usage dynamics (Section 8).

    The paper observed Flash on 9,880 sites in early 2018 (1.26% of the
    collected population), decaying to 3,195 by February 2022 with an
    average of 3,553 sites after Flash's end of life.
    """

    #: Fraction of sites embedding Flash at the first snapshot.
    initial_share: float = 0.016
    #: Weekly hazard of a Flash site dropping Flash (pre-EOL).
    weekly_abandon_hazard: float = 0.0065
    #: Extra one-off abandonment probability at Flash end of life.
    eol_abandon_probability: float = 0.30
    #: Fraction of Flash sites that never abandon (the persistent cohort
    #: served by the 360-browser/flash.cn ecosystem).
    persistent_share: float = 0.26
    #: Fraction of Flash embeds specifying AllowScriptAccess at the first
    #: snapshot, and at the last (the paper saw insecure usage grow from
    #: about 21% to 30% of Flash sites).
    always_share_start: float = 0.21
    always_share_end: float = 0.30


@dataclasses.dataclass(frozen=True)
class BundlingConfig:
    """Vendored/bundled dependencies with transitive inclusion.

    Models the "Insecure Ingredients" phenomenon: sites ship a built
    application bundle that *vendors* library copies pinned at
    bundle-build time.  No ``<script src>`` reveals the ingredient — at
    best the fingerprint engine spots the library's banner comment
    inside the inline bundle body (the paper's Wappalyzer channel).
    Bundled ingredients are frozen: the bundle is rebuilt rarely, so a
    vulnerable pinned version stays on the page for the whole study.

    All defaults are inert (``share=0.0``): the baseline scenario
    generates byte-identically with this section present.

    Attributes:
        share: Fraction of JavaScript-using sites shipping a vendored
            bundle.
        max_ingredients: Upper bound on vendored libraries per bundle
            (1..``max_ingredients`` drawn uniformly).
        detection_rate: Probability a vendored ingredient is
            fingerprintable at all (banner comment survives
            minification); undetected ingredients exist only in ground
            truth — the crawl never sees them.
        version_visible_rate: Probability a *detected* ingredient's
            banner still carries its version string.
        pin_lag_weeks: How many weeks before the study start the bundle
            was built; ingredients pin the release current at that date.
    """

    share: float = 0.0
    max_ingredients: int = 2
    detection_rate: float = 0.55
    version_visible_rate: float = 0.7
    pin_lag_weeks: int = 26

    def __post_init__(self) -> None:
        for name in ("share", "detection_rate", "version_visible_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a fraction, got {value}")
        if self.max_ingredients < 1:
            raise ConfigError("max_ingredients must be >= 1")
        if self.pin_lag_weeks < 0:
            raise ConfigError("pin_lag_weeks must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.share > 0.0


@dataclasses.dataclass(frozen=True)
class CveDriftConfig:
    """Seeded mislabeling/drift of CVE affected-version ranges.

    Models the "CVE Breadcrumbs" phenomenon on top of the existing
    TVV-vs-CVE machinery: a fraction of advisories have their *stated*
    range drifted away from ground truth (the TVV range is first pinned
    to the pre-drift best-known range, so the stated-vs-true comparison
    quantifies exactly the injected mislabeling).  Drift direction is a
    seeded per-advisory draw: understatement truncates the newest
    affected releases out of the stated range; overstatement extends the
    stated range across the patch boundary.

    Defaults are inert (``rate=0.0``): the baseline database is used
    unchanged.

    Attributes:
        rate: Fraction of advisories whose stated range drifts.
        seed: Root seed for the per-advisory drift draws (independent of
            the scenario seed so the same drift can replay over
            different webs).
        understate_bias: Probability a drifted advisory understates
            (the dangerous direction); the rest overstate.
        max_shift: Upper bound on how many catalogued releases the
            stated boundary moves by (1..``max_shift`` drawn per
            advisory).
    """

    rate: float = 0.0
    seed: int = 0
    understate_bias: float = 0.7
    max_shift: int = 3

    def __post_init__(self) -> None:
        for name in ("rate", "understate_bias"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a fraction, got {value}")
        if self.max_shift < 1:
            raise ConfigError("max_shift must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0


@dataclasses.dataclass(frozen=True)
class PackSelection:
    """Which scenario pack produced this config, with its parameters.

    Part of dataset identity: the selection is carried on the
    :class:`ScenarioConfig` so the run ledger's ``scenario_digest`` (and
    through it the orchestrator queue) covers the pack and its resolved
    parameters — a checkpoint written under one pack refuses to resume
    under another.  ``params`` is the *fully resolved* parameter set
    (given values merged over pack defaults), canonicalized as sorted
    ``(name, json-encoded value)`` pairs so equal selections compare and
    digest identically.

    The default selection is the ``baseline`` pack with no parameters —
    an unset pack and an explicit ``baseline`` are the same identity.
    """

    name: str = "baseline"
    params: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("pack selection requires a pack name")
        if list(self.params) != sorted(self.params):
            raise ConfigError("pack selection params must be sorted by name")

    def describe(self) -> str:
        if not self.params:
            return self.name
        rendered = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({rendered})"


@dataclasses.dataclass(frozen=True)
class SecurityHygieneConfig:
    """SRI / crossorigin adoption (Section 6.5)."""

    #: Probability an external library inclusion carries ``integrity``.
    integrity_probability: float = 0.012
    #: Probability a GitHub-hosted inclusion carries ``integrity``
    #: (paper: 0.6% of sites using GitHub-hosted libraries).
    github_integrity_probability: float = 0.006
    #: Among inclusions with ``integrity`` + ``crossorigin``:
    crossorigin_anonymous: float = 0.971
    crossorigin_use_credentials: float = 0.019
    #: Fraction of sites loading at least one library from a
    #: collaborative-VCS host (paper: ~1,670 of 782,300).
    github_hosted_share: float = 0.00214


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines one synthetic four-year dataset."""

    population: int = 20_000
    seed: int = 20230926
    behavior: BehaviorMix = dataclasses.field(default_factory=BehaviorMix)
    platform: PlatformConfig = dataclasses.field(default_factory=PlatformConfig)
    accessibility: AccessibilityConfig = dataclasses.field(
        default_factory=AccessibilityConfig
    )
    flash: FlashConfig = dataclasses.field(default_factory=FlashConfig)
    hygiene: SecurityHygieneConfig = dataclasses.field(
        default_factory=SecurityHygieneConfig
    )
    #: Vendored-bundle modelling; inert (share=0.0) in the baseline.
    bundling: BundlingConfig = dataclasses.field(default_factory=BundlingConfig)
    #: Advisory stated-range drift; inert (rate=0.0) in the baseline.
    cve_drift: CveDriftConfig = dataclasses.field(default_factory=CveDriftConfig)
    #: Which scenario pack produced this config (part of dataset identity).
    pack: PackSelection = dataclasses.field(default_factory=PackSelection)
    calendar: StudyCalendar = dataclasses.field(default_factory=default_calendar)

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ConfigError("population must be positive")

    @property
    def scale_factor(self) -> float:
        """Ratio of the paper's weekly-accessible average to ours."""
        return 782_300 / float(self.population)


def scenario_digest(config: ScenarioConfig) -> str:
    """Digest of the dataset ``config`` determines: every field of it.

    How a run executes — workers, backend, shards, caches, checkpoints,
    metrics — lives on :class:`~repro.options.RunOptions`, never here,
    so resuming under other run options is legal and produces the
    identical store.  The digest hashes canonical JSON of the declared
    field values, never pickle bytes, so it survives module renames and
    interpreter upgrades.  The run ledger pins runs with it, and the
    web generator and the shard worker key their per-process caches on
    it.
    """
    return canonical_digest(config)


def small_scenario(seed: int = 20230926) -> ScenarioConfig:
    """A fast scenario for tests and examples (2,000 domains)."""
    return ScenarioConfig(population=2_000, seed=seed)


def default_scenario(seed: int = 20230926) -> ScenarioConfig:
    """The standard benchmark scenario (20,000 domains)."""
    return ScenarioConfig(population=20_000, seed=seed)
