"""The assembled web ecosystem: domains, sites, CDNs, and the network.

:class:`WebEcosystem` builds the full scenario — a ranked domain
population with per-site four-year behaviours — and wires it onto a
:class:`~repro.netsim.VirtualNetwork`:

* every live domain gets a virtual host serving its landing page for the
  network's current week (plus its internally-hosted library files, so
  the Section 9 hash audit can download them);
* the CDN hosts of Table 5 serve canonical library file bodies;
* GitHub-pages hosts and the swf host serve their content;
* reachability pathologies (dead/dying/flaky/anti-bot domains) are
  injected per the scenario's accessibility model.

Ground truth is available without the network through
:meth:`WebEcosystem.manifest` — the crawl + fingerprint pipeline must
recover it (a tested round-trip property).
"""

from __future__ import annotations

import collections
import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import ScenarioConfig, scenario_digest
from ..fingerprint.signatures import LibrarySignature, default_signatures
from ..netsim import (
    FailureModel,
    HttpRequest,
    HttpResponse,
    VirtualNetwork,
    text_response,
)
from ..netsim.network import HostCondition
from ..netsim.server import not_found
from .cdncontent import CdnContentStore, whitespace_variant
from .domains import Domain, DomainPopulation, Reachability
from .flashgen import FlashModel
from .html import render_antibot_page, render_page
from .libraries import GENERIC_CDN, GENERIC_THIRD_PARTY, LibraryProfile
from .platform import WordPressModel
from .site import SiteManifest, SiteState
from ..fingerprint.cdn import DEFAULT_CDN_HOSTS

_SWF_HOST = "media.swf-hosting.net"
_GITHUB_HOSTS = (
    "wp-r.github.io",
    "partnercoll.github.io",
    "kodir2.github.io",
    "malsup.github.com",
    "blueimp.github.io",
    "afarkas.github.io",
    "gitcdn.github.io",
    "owlcarousel2.github.io",
    "hammerjs.github.io",
    "kenwheeler.github.io",
    "weblion777.github.io",
    "actlz.github.io",
    "malihu.github.io",
    "radioafricagroup.github.io",
    "klevron.github.io",
    "jonathantneal.github.io",
    "hayageek.github.io",
    "assets-cdn.github.com",
)


#: One dataset's generator state: its domain population and its
#: {domain rank: SiteState} map, filled as sites are first touched.
_Dataset = Tuple[DomainPopulation, Dict[int, SiteState]]

#: (scenario digest, library calibration) -> dataset; bounded LRU per
#: process.  The population and every site state are pure functions of
#: dataset identity, the calibration table the sites are built from,
#: and the domain, so every ecosystem of one dataset (a Study's, each
#: tick's worker ecosystem) shares them; networks, configs and clocks
#: stay per ecosystem.
_DATASET_CACHE: "collections.OrderedDict[tuple, _Dataset]" = collections.OrderedDict()
_DATASET_CACHE_MAX = 8


def _dataset_for(
    config: ScenarioConfig, profiles: Dict[str, LibraryProfile]
) -> _Dataset:
    """The shared population and site states of ``config``'s dataset."""
    key = (scenario_digest(config), tuple(sorted(profiles.items())))
    dataset = _DATASET_CACHE.get(key)
    if dataset is None:
        rng = np.random.default_rng([config.seed, 0xEC0])
        population = DomainPopulation(
            config.population,
            config.accessibility,
            rng,
            total_weeks=len(config.calendar),
        )
        dataset = _DATASET_CACHE[key] = (population, {})
        while len(_DATASET_CACHE) > _DATASET_CACHE_MAX:
            _DATASET_CACHE.popitem(last=False)
    else:
        _DATASET_CACHE.move_to_end(key)
    return dataset


class _LibraryUrlMatcher:
    """Maps a served URL back to (library, version) via the signatures."""

    def __init__(self) -> None:
        self._signatures: Tuple[LibrarySignature, ...] = tuple(default_signatures())

    def match(self, path: str, query: str) -> Optional[Tuple[str, Optional[str]]]:
        filename = path.rsplit("/", 1)[-1]
        for signature in self._signatures:
            if signature.host_pattern is not None:
                continue  # host-scoped signatures need the host; skip
            result = signature.match_url(None, path, query, filename)
            if result is not None:
                version, _ = result
                return signature.library, version
        return None


class _CdnHost:
    """A CDN endpoint serving canonical library bodies."""

    def __init__(self, hostname: str, store: CdnContentStore, matcher: _LibraryUrlMatcher) -> None:
        self.hostname = hostname
        self._store = store
        self._matcher = matcher

    def handle(self, request: HttpRequest) -> HttpResponse:
        matched = self._matcher.match(request.url.path, request.url.query)
        if matched is None:
            return not_found(request.url.path)
        library, version = matched
        return text_response(
            self._store.get(library, version or "latest"),
            content_type="application/javascript",
        )


class _GithubHost:
    """A GitHub-pages host serving arbitrary repository scripts."""

    def __init__(self, hostname: str) -> None:
        self.hostname = hostname

    def handle(self, request: HttpRequest) -> HttpResponse:
        body = f"/* {self.hostname}{request.url.path} */\n(function(){{}})();\n"
        return text_response(body, content_type="application/javascript")


class _SwfHost:
    """Serves Flash movie bytes (FWS magic)."""

    def handle(self, request: HttpRequest) -> HttpResponse:
        body = b"FWS\x09" + request.url.path.encode("utf-8")
        return text_response(body, content_type="application/x-shockwave-flash")


class _DomainHost:
    """One domain's web server: landing page + internally hosted assets."""

    def __init__(self, ecosystem: "WebEcosystem", domain: Domain) -> None:
        self._ecosystem = ecosystem
        self.domain = domain

    def handle(self, request: HttpRequest) -> HttpResponse:
        eco = self._ecosystem
        ordinal = eco.network.clock
        if self.domain.reachability is Reachability.ANTIBOT:
            return text_response(render_antibot_page(), status=200)
        path = request.url.path
        if path == "/" or path == "/index.html":
            return text_response(eco.landing_page(self.domain, ordinal))
        if path.endswith(".js"):
            return self._serve_asset(path, request.url.query, ordinal)
        if path in ("/css/style.css", "/favicon.ico", "/feed.xml", "/img/logo.svg"):
            return text_response(f"/* {path} */", content_type="text/plain")
        if path.endswith(".swf"):
            return text_response(
                b"FWS\x09local", content_type="application/x-shockwave-flash"
            )
        return not_found(path)

    def _serve_asset(self, path: str, query: str, ordinal: int) -> HttpResponse:
        matched = self._ecosystem._matcher.match(path, query)
        if matched is None or matched[1] is None:
            return text_response("(function(){})();", content_type="application/javascript")
        library, version = matched
        state = self._ecosystem.site_state(self.domain)
        if state.mirrors_modified:
            body = whitespace_variant(library, version, flavor=self.domain.rank)
        else:
            body = self._ecosystem.cdn_content.get(library, version)
        return text_response(body, content_type="application/javascript")


class WebEcosystem:
    """The full synthetic ecosystem for one scenario."""

    def __init__(self, config: ScenarioConfig) -> None:
        # Looked up at call time, so a patched calibration table (the
        # ablation benchmarks swap one in) reaches the sites and keys
        # its own dataset.
        from .libraries import library_profiles
        from ..semver import builtin_catalogs

        self.config = config
        self.calendar = config.calendar
        self._profiles = library_profiles()
        self._catalogs = builtin_catalogs()
        self.population, self._sites = _dataset_for(config, self._profiles)
        self.wordpress_model = WordPressModel(config.platform, self.calendar)
        self.flash_model = FlashModel(config.flash, self.calendar)
        self.cdn_content = CdnContentStore()
        self._matcher = _LibraryUrlMatcher()
        self.network = VirtualNetwork(failures=FailureModel(seed=config.seed))
        self._attach_hosts()
        self._current_week = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _attach_hosts(self) -> None:
        acc = self.config.accessibility
        self._death_schedule: Dict[int, List[str]] = {}
        for domain in self.population:
            if domain.reachability is Reachability.DEAD:
                continue
            if domain.reachability is Reachability.DIES and domain.death_week is not None:
                self._death_schedule.setdefault(domain.death_week, []).append(
                    domain.name
                )
            self.network.attach(domain.name, _DomainHost(self, domain))
            if domain.reachability is Reachability.FLAKY:
                self.network.failures.set_condition(
                    domain.name,
                    HostCondition(
                        connect_failure_rate=acc.flaky_failure_rate * 0.6,
                        timeout_rate=acc.flaky_failure_rate * 0.4,
                        server_error_rate=acc.flaky_server_error_rate,
                    ),
                )
        cdn_hosts = set(DEFAULT_CDN_HOSTS) | {GENERIC_CDN, GENERIC_THIRD_PARTY}
        for host in sorted(cdn_hosts):
            self.network.attach(host, _CdnHost(host, self.cdn_content, self._matcher))
        for host in _GITHUB_HOSTS:
            self.network.attach(host, _GithubHost(host))
        self.network.attach(_SWF_HOST, _SwfHost())

    # ------------------------------------------------------------------
    # Site state & ground truth
    # ------------------------------------------------------------------
    def site_state(self, domain: Domain) -> SiteState:
        """The behaviour state of one domain, built once per dataset.

        Built on first use and kept in the per-process dataset cache,
        which every ecosystem of the same dataset shares.
        """
        state = self._sites.get(domain.rank)
        if state is None:
            state = SiteState(
                domain,
                self.config,
                self.wordpress_model,
                self.flash_model,
                profiles=self._profiles,
                catalogs=self._catalogs,
            )
            # A small share of self-hosting sites serve whitespace-edited
            # mirrors (Section 9's hash-audit finding).
            mirror_rng = np.random.default_rng([self.config.seed, domain.rank, 0x31])
            state.mirrors_modified = bool(mirror_rng.random() < 0.015)
            self._sites[domain.rank] = state
        return state

    def manifest(self, domain: Domain, week_ordinal: int) -> SiteManifest:
        """Ground-truth landing-page contents for (domain, week)."""
        return self.site_state(domain).manifest(week_ordinal)

    def landing_page(self, domain: Domain, week_ordinal: int) -> str:
        """Rendered landing-page HTML for (domain, week)."""
        return render_page(self.manifest(domain, week_ordinal))

    # ------------------------------------------------------------------
    # Time control
    # ------------------------------------------------------------------
    def set_week(self, week_ordinal: int) -> None:
        """Advance the ecosystem (and network clock) to a kept week.

        Domains whose death week has passed stop resolving.
        """
        self.network.set_clock(week_ordinal)
        for week, names in self._death_schedule.items():
            if week <= week_ordinal:
                for name in names:
                    if name in self.network:
                        self.network.detach(name)
            else:
                # Support rewinding (the accessibility prefilter probes
                # the last month before the main crawl starts).
                for name in names:
                    if name not in self.network:
                        domain = self.population.by_name(name)
                        if domain is not None:
                            self.network.attach(name, _DomainHost(self, domain))
        self._current_week = week_ordinal

    @property
    def current_week(self) -> int:
        return self._current_week
