"""Per-site state: membership, version timelines, and weekly manifests.

A :class:`SiteState` is built once per domain from the scenario seed and
then answers ``manifest(week)`` queries: the exact set of client-side
resources the site's landing page carries at that snapshot.  Version
changes are precomputed as sparse timelines, so a manifest lookup is a
handful of binary searches.

The update behaviour encodes Section 7's findings:

* *frozen* sites never change anything (the reason jQuery 1.12.4 stays
  dominant for four years);
* *laggard* sites refresh rarely; *responsive* sites within weeks;
* WordPress sites with the bundled jQuery follow the platform's release
  train — including the December 2020 auto-update wave.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ScenarioConfig
from ..semver import ReleaseCatalog, builtin_catalogs, parse_version
from ..timeline import StudyCalendar
from .bundles import VendoredInclusion, sample_vendored
from .domains import Domain
from .flashgen import FlashAssignment, FlashModel
from .github_hosting import GITHUB_SCRIPTS
from .libraries import (
    GENERIC_THIRD_PARTY,
    LibraryProfile,
    RESOURCE_TYPE_SHARES,
    TOP15_ORDER,
    library_profiles,
)
from .platform import WordPressModel, bundled_libraries


class UpdatePolicy(enum.Enum):
    """How this site's developer responds to releases."""

    FROZEN = "frozen"
    LAGGARD = "laggard"
    RESPONSIVE = "responsive"


@dataclasses.dataclass(frozen=True)
class LibraryInclusion:
    """One library on one page at one week (generation ground truth).

    ``version_visible`` models the real-world fraction of inclusions
    whose URL carries no version information (``jquery.min.js`` with no
    suffix, path, or ``?ver=``): the library is fingerprintable but the
    version is not, exactly as with Wappalyzer in the paper's pipeline.
    """

    library: str
    version: str
    external: bool
    host: Optional[str]
    integrity: bool
    crossorigin: Optional[str]
    wordpress_bundled: bool = False
    version_visible: bool = True


@dataclasses.dataclass(frozen=True)
class ExtraScript:
    """A non-top-15 script inclusion (GitHub-hosted libraries)."""

    url: str
    integrity: bool


@dataclasses.dataclass(frozen=True)
class FlashUsage:
    """Flash embed state at one week."""

    swf_url: str
    external: bool
    script_access: Optional[str]
    specified: bool
    visible: bool


@dataclasses.dataclass(frozen=True)
class SiteManifest:
    """Ground truth for one (domain, week) landing page."""

    domain: Domain
    week_ordinal: int
    wordpress_version: Optional[str]
    libraries: Tuple[LibraryInclusion, ...]
    extra_scripts: Tuple[ExtraScript, ...]
    resource_types: FrozenSet[str]
    flash: Optional[FlashUsage]
    #: Libraries vendored inside the site's application bundle (no URL;
    #: empty unless the scenario enables bundling).
    vendored: Tuple[VendoredInclusion, ...] = ()

    def inclusion_of(self, library: str) -> Optional[LibraryInclusion]:
        for inclusion in self.libraries:
            if inclusion.library == library:
                return inclusion
        return None


@dataclasses.dataclass
class _Membership:
    """One site's relationship with one library."""

    library: str
    active_from: int
    active_until: Optional[int]  # exclusive; None = forever
    external: bool
    host: Optional[str]
    integrity: bool
    crossorigin: Optional[str]
    version_timeline: List[Tuple[int, str]]
    version_visible: bool = True
    #: The timeline's change weeks; the timeline is final once built
    #: (migration moves only ``active_until``).
    _weeks: Tuple[int, ...] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._weeks = tuple(week for week, _ in self.version_timeline)

    def active_at(self, ordinal: int) -> bool:
        if ordinal < self.active_from:
            return False
        return self.active_until is None or ordinal < self.active_until

    def version_at(self, ordinal: int) -> str:
        index = bisect.bisect_right(self._weeks, ordinal)
        return self.version_timeline[max(0, index - 1)][1]


def _weighted_choice(
    rng: np.random.Generator, items: Sequence[Tuple[str, float]]
) -> str:
    weights = np.array([w for _, w in items], dtype=float)
    weights /= weights.sum()
    return items[int(rng.choice(len(items), p=weights))][0]


class SiteState:
    """The full four-year behaviour of one domain's landing page."""

    def __init__(
        self,
        domain: Domain,
        config: ScenarioConfig,
        wordpress_model: WordPressModel,
        flash_model: FlashModel,
        profiles: Optional[Dict[str, LibraryProfile]] = None,
        catalogs: Optional[Dict[str, ReleaseCatalog]] = None,
    ) -> None:
        self.domain = domain
        self.config = config
        self.calendar: StudyCalendar = config.calendar
        self._profiles = profiles or library_profiles()
        self._catalogs = catalogs or builtin_catalogs()
        rng = np.random.default_rng([config.seed, domain.rank, 0x5EED])
        self._build(rng, wordpress_model, flash_model)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(
        self,
        rng: np.random.Generator,
        wordpress_model: WordPressModel,
        flash_model: FlashModel,
    ) -> None:
        behavior = self.config.behavior
        #: Whether this site's self-hosted mirrors carry benign edits
        #: (set by the ecosystem; Section 9 hash audit).
        self.mirrors_modified = False
        self._manifest_memo: Optional[Tuple[int, SiteManifest]] = None
        draw = rng.random()
        if draw < behavior.frozen:
            self.policy = UpdatePolicy.FROZEN
        elif draw < behavior.frozen + behavior.laggard:
            self.policy = UpdatePolicy.LAGGARD
        else:
            self.policy = UpdatePolicy.RESPONSIVE

        # WordPress platform assignment.
        self.uses_wordpress = wordpress_model.uses_wordpress(rng)
        self.wordpress_auto = (
            self.uses_wordpress and wordpress_model.is_auto_updating(rng)
        )
        self.wordpress_bundled = (
            self.uses_wordpress and wordpress_model.uses_bundled_jquery(rng)
        )
        self.wp_timeline: List[Tuple[int, str]] = (
            wordpress_model.version_timeline(rng, self.wordpress_auto)
            if self.uses_wordpress
            else []
        )

        # WordPress-bundled inclusion delivery: mostly internal
        # (wp-includes), some via the wp.com CDN or a hosting provider's
        # own (non-CDN) asset host.
        self._wp_bundle_host: Optional[str] = None
        if self.uses_wordpress:
            bundle_draw = rng.random()
            if bundle_draw < 0.08:
                self._wp_bundle_host = "c0.wp.com"
            elif bundle_draw < 0.16:
                from .libraries import GENERIC_THIRD_PARTY as _THIRD_PARTY

                self._wp_bundle_host = _THIRD_PARTY

        # A slice of the web serves no JavaScript at all (the paper's
        # Figure 2(b): 94.7% of sites use it, so 5.3% do not).  Only
        # non-WordPress sites can be script-less.
        self.no_javascript = (
            not self.uses_wordpress
            and rng.random() < 0.053 / max(1.0 - self.config.platform.wordpress_share, 1e-9)
        )

        # Organic library memberships.
        self.memberships: List[_Membership] = []
        self._member_names: Dict[str, _Membership] = {}
        total_weeks = len(self.calendar)
        if not self.no_javascript:
            for name in TOP15_ORDER:
                profile = self._profiles[name]
                self._sample_membership(rng, profile, total_weeks)

        # Static resource types.
        types = set() if self.no_javascript else {"javascript"}
        for resource, share in RESOURCE_TYPE_SHARES.items():
            if resource == "javascript":
                continue
            if self.no_javascript and resource in ("imported-html", "axd"):
                # Those resources are carried by <script> tags.
                continue
            if rng.random() < share:
                types.add(resource)
        if self.uses_wordpress:
            types.add("css")
        self.resource_types: FrozenSet[str] = frozenset(types)

        # Flash.
        percentile = self.domain.rank / max(1, self.config.population)
        self.flash: FlashAssignment = flash_model.assign(rng, percentile)
        self._flash_model = flash_model
        self._flash_swf = (
            f"https://media.swf-hosting.net/movies/site{self.domain.rank}.swf"
            if self.flash.external_swf
            else f"/media/intro-{self.domain.rank % 7}.swf"
        )

        # GitHub-hosted extras.
        self.extra_scripts: Tuple[ExtraScript, ...] = ()
        if not self.no_javascript and rng.random() < self.config.hygiene.github_hosted_share:
            count = 1 + int(rng.random() < 0.25)
            scripts = []
            for _ in range(count):
                url = _weighted_choice(rng, GITHUB_SCRIPTS)
                integrity = bool(
                    rng.random() < self.config.hygiene.github_integrity_probability
                )
                scripts.append(ExtraScript(url=url, integrity=integrity))
            self.extra_scripts = tuple(scripts)

        # Vendored application bundle (scenario packs).  A dedicated RNG
        # stream keeps every baseline draw above untouched: with
        # bundling disabled this block consumes nothing, and with it
        # enabled the extra draws never interleave with the organic
        # stream.
        self.vendored: Tuple[VendoredInclusion, ...] = ()
        bundling = self.config.bundling
        if bundling.enabled and not self.no_javascript:
            vendor_rng = np.random.default_rng(
                [self.config.seed, self.domain.rank, 0xB17D]
            )
            self.vendored = sample_vendored(
                vendor_rng,
                bundling,
                self._catalogs,
                self.calendar.week_at(0).date,
            )

    # ------------------------------------------------------------------
    def _hazard(self) -> float:
        behavior = self.config.behavior
        if self.policy is UpdatePolicy.FROZEN:
            return 0.0
        if self.policy is UpdatePolicy.LAGGARD:
            return behavior.laggard_weekly_hazard
        return behavior.responsive_weekly_hazard

    def _sample_membership(
        self, rng: np.random.Generator, profile: LibraryProfile, total_weeks: int
    ) -> None:
        # WordPress-bundled jQuery / jQuery-Migrate are not organic
        # memberships; they derive from the platform timeline.
        share = profile.share_start
        if profile.requires is not None:
            # Soft dependency: concentrate usage among sites having the
            # prerequisite, keeping the marginal share intact.
            prerequisite = self._member_names.get(profile.requires)
            has_prereq = prerequisite is not None or (
                profile.requires == "jquery" and self.wordpress_bundled
            )
            req_share = self._profiles[profile.requires].share_start
            if has_prereq:
                share = min(1.0, 0.8 * profile.share_start / max(req_share, 1e-6))
            else:
                share = 0.2 * profile.share_start / max(1.0 - req_share, 1e-6)

        uses = rng.random() < share
        active_from = 0
        active_until: Optional[int] = None
        if not uses:
            if profile.trending_up:
                adopt_fraction = (profile.share_end - profile.share_start) / max(
                    1.0 - profile.share_start, 1e-9
                )
                if rng.random() < adopt_fraction:
                    active_from = int(rng.integers(1, total_weeks))
                    uses = True
            if not uses:
                return
        elif not profile.trending_up and profile.share_start > 0:
            drop_fraction = 1.0 - profile.share_end / profile.share_start
            if rng.random() < drop_fraction:
                active_until = int(rng.integers(1, total_weeks))

        external = rng.random() >= profile.internal_fraction
        host: Optional[str] = None
        via_cdn = False
        if external:
            if rng.random() < profile.cdn_fraction and profile.cdn_hosts:
                host = _weighted_choice(rng, profile.cdn_hosts)
                via_cdn = True
            else:
                host = GENERIC_THIRD_PARTY
        # Version visibility (the fingerprint engine can only read
        # versions that appear in the URL).  The rate is a per-library
        # calibration; see LibraryProfile.version_visible_rate.
        version_visible = rng.random() < profile.version_visible_rate
        integrity = external and rng.random() < self.config.hygiene.integrity_probability
        crossorigin: Optional[str] = None
        if integrity:
            hygiene = self.config.hygiene
            draw = rng.random()
            if draw < hygiene.crossorigin_anonymous:
                crossorigin = "anonymous"
            elif draw < hygiene.crossorigin_anonymous + hygiene.crossorigin_use_credentials:
                crossorigin = "use-credentials"

        catalog = self._catalogs.get(profile.name)
        start_date = self.calendar.week_at(active_from).date
        if active_from == 0:
            version = _weighted_choice(rng, profile.initial_versions)
            # Never start on a release that postdates the first snapshot.
            if catalog is not None and version in catalog:
                if catalog.get(version).date > start_date:
                    fallback = catalog.latest_as_of(start_date)
                    if fallback is not None:
                        version = fallback.version.text
        else:
            # Late adopters start on the then-current release.
            version = (
                catalog.latest_as_of(start_date).version.text
                if catalog and catalog.latest_as_of(start_date)
                else profile.initial_versions[-1][0]
            )

        timeline = self._build_version_timeline(
            rng, catalog, version, active_from, total_weeks, profile.discontinued
        )
        membership = _Membership(
            library=profile.name,
            active_from=active_from,
            active_until=active_until,
            external=external,
            host=host,
            integrity=integrity,
            crossorigin=crossorigin,
            version_timeline=timeline,
            version_visible=version_visible,
        )
        self.memberships.append(membership)
        self._member_names[profile.name] = membership

        # Discontinued-project migration (jquery-cookie -> js-cookie).
        if (
            profile.migrates_to
            and active_until is None
            and self.policy is not UpdatePolicy.FROZEN
            and rng.random() < 0.39
        ):
            migrate_week = int(rng.integers(1, total_weeks))
            membership.active_until = migrate_week
            target_profile = self._profiles[profile.migrates_to]
            if profile.migrates_to not in self._member_names:
                target_catalog = self._catalogs.get(profile.migrates_to)
                date = self.calendar.week_at(migrate_week).date
                latest = (
                    target_catalog.latest_as_of(date) if target_catalog else None
                )
                successor = _Membership(
                    library=profile.migrates_to,
                    active_from=migrate_week,
                    active_until=None,
                    external=external,
                    host=host,
                    integrity=integrity,
                    crossorigin=crossorigin,
                    version_timeline=[
                        (migrate_week, latest.version.text if latest else
                         target_profile.initial_versions[-1][0])
                    ],
                )
                self.memberships.append(successor)
                self._member_names[profile.migrates_to] = successor

    def _build_version_timeline(
        self,
        rng: np.random.Generator,
        catalog: Optional[ReleaseCatalog],
        initial_version: str,
        active_from: int,
        total_weeks: int,
        discontinued: bool,
    ) -> List[Tuple[int, str]]:
        timeline: List[Tuple[int, str]] = [(active_from, initial_version)]
        hazard = self._hazard()
        if hazard <= 0.0 or catalog is None or discontinued:
            return timeline
        current = parse_version(initial_version)
        ordinal = active_from
        while True:
            ordinal += int(rng.geometric(hazard))
            if ordinal >= total_weeks:
                break
            # Each refresh touches this library with probability 0.7 —
            # developers rarely update everything at once.
            if rng.random() >= 0.7:
                continue
            newest, runner_up = catalog.newest_two_as_of(
                self.calendar.week_at(ordinal).date
            )
            if newest is None:
                continue
            pick = newest
            if runner_up is not None and rng.random() >= 0.85:
                pick = runner_up
            if pick.version > current:
                timeline.append((ordinal, pick.version.text))
                current = pick.version
        return timeline

    # ------------------------------------------------------------------
    # Weekly manifest assembly
    # ------------------------------------------------------------------
    def wordpress_version_at(self, ordinal: int) -> Optional[str]:
        if not self.uses_wordpress:
            return None
        return WordPressModel.version_at(self.wp_timeline, ordinal)

    def manifest(self, ordinal: int) -> SiteManifest:
        """Ground truth for this site's landing page at a kept week."""
        # One-slot memo: within a crawl week the manifest is requested
        # once for the site-state digest and once for page serving.
        memo = self._manifest_memo
        if memo is not None and memo[0] == ordinal:
            return memo[1]
        manifest = self._build_manifest(ordinal)
        self._manifest_memo = (ordinal, manifest)
        return manifest

    def _build_manifest(self, ordinal: int) -> SiteManifest:
        inclusions: List[LibraryInclusion] = []
        wp_version = self.wordpress_version_at(ordinal)

        if wp_version is not None and self.wordpress_bundled:
            jquery_version, migrate_version = bundled_libraries(wp_version)
            host = self._wp_bundle_host
            inclusions.append(
                LibraryInclusion(
                    library="jquery",
                    version=jquery_version,
                    external=host is not None,
                    host=host,
                    integrity=False,
                    crossorigin=None,
                    wordpress_bundled=True,
                )
            )
            if migrate_version is not None:
                inclusions.append(
                    LibraryInclusion(
                        library="jquery-migrate",
                        version=migrate_version,
                        external=host is not None,
                        host=host,
                        integrity=False,
                        crossorigin=None,
                        wordpress_bundled=True,
                    )
                )

        present = {inc.library for inc in inclusions}
        for membership in self.memberships:
            if membership.library in present:
                continue
            if not membership.active_at(ordinal):
                continue
            inclusions.append(
                LibraryInclusion(
                    library=membership.library,
                    version=membership.version_at(ordinal),
                    external=membership.external,
                    host=membership.host,
                    integrity=membership.integrity,
                    crossorigin=membership.crossorigin,
                    version_visible=membership.version_visible,
                )
            )
            present.add(membership.library)

        flash_usage: Optional[FlashUsage] = None
        if self.flash.active_at(ordinal):
            access, specified = self._flash_model.script_access_at(
                self.flash, ordinal
            )
            flash_usage = FlashUsage(
                swf_url=self._flash_swf,
                external=self.flash.external_swf,
                script_access=access,
                specified=specified,
                visible=self.flash.visible,
            )

        resource_types = set(self.resource_types)
        if flash_usage is not None:
            resource_types.add("flash")

        return SiteManifest(
            domain=self.domain,
            week_ordinal=ordinal,
            wordpress_version=wp_version,
            libraries=tuple(inclusions),
            extra_scripts=self.extra_scripts,
            resource_types=frozenset(resource_types),
            flash=flash_usage,
            vendored=self.vendored,
        )
