"""Synthetic web ecosystem.

The substitution for the paper's unrecoverable four-year Alexa-1M crawl:
a seeded generator producing a domain population whose landing pages —
and their evolution across the 201 weekly snapshots — reproduce the
published marginals and dynamics (library usage shares and trends,
version mixes, inclusion types, CDN delivery, SRI adoption, WordPress
platform effects, and Adobe Flash decay).

Public API: :class:`WebEcosystem` (build from a
:class:`~repro.config.ScenarioConfig`), which exposes ground-truth
:class:`SiteManifest` objects per (domain, week), renders landing-page
HTML, and wires every domain plus the CDN hosts onto a
:class:`~repro.netsim.VirtualNetwork`.

The names below load on first use (:mod:`repro._lazy`).  The modules
that draw random values import numpy; :mod:`.libraries`, whose library
tables the analyses read, does not.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".domains": "Domain DomainPopulation Reachability",
        ".ecosystem": "WebEcosystem",
        ".libraries": "LibraryProfile RESOURCE_TYPE_SHARES library_profiles",
        ".site": "FlashUsage LibraryInclusion SiteManifest",
    },
)

__all__ = [
    "Domain",
    "DomainPopulation",
    "Reachability",
    "LibraryProfile",
    "library_profiles",
    "RESOURCE_TYPE_SHARES",
    "SiteManifest",
    "LibraryInclusion",
    "FlashUsage",
    "WebEcosystem",
]
