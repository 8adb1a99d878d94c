"""The one-pass page scan against recorded profiles and the old scans.

Two checks pin the fingerprinting of a page:

* **Golden.** Every live page of two fixed scenarios fingerprints to
  :class:`PageProfile`s whose canonical JSON has the digests below.
  They were recorded with the separate-scan fingerprinter this
  replaced, so they prove the one-pass scan changed no output.
* **Reference.** :func:`scan_page` equals the old three scans
  (``tests/reference_scan.py``) run on the once-stripped text, on every
  golden page and on seeded tag soup.
* **Decoding.** :func:`profile_from_canonical` inverts the canonical
  encoding, through JSON, on every golden profile and on hand-built
  profiles for the fields the golden pages leave at one value.
"""

from __future__ import annotations

import collections
import hashlib
import json

import pytest

import proptest
import reference_scan
from repro import ScenarioConfig
from repro.analysis.api import to_canonical_dict
from repro.fingerprint import (
    FingerprintEngine,
    FlashEmbed,
    LibraryDetection,
    PageProfile,
    ScriptAccess,
)
from repro.fingerprint.html_scan import scan_page, scan_tags
from repro.fingerprint.profile import profile_from_canonical
from repro.scenarios import apply_pack
from repro.webgen import WebEcosystem

GOLDEN_SEED = 20230926

#: sha256 of the canonical JSON of every page's profile, per scenario.
GOLDEN_DIGESTS = {
    "baseline": "730b7522161078ee68cfc7a90d036198f60deead207c3e7f8d411dcc922114d7",
    "bundled-deps": "12d0107bdc57aaff23ac7a684ac9dd10f7597dddeff240f8a6675b5f7e55f22b",
}


def _scenarios():
    yield "baseline", ScenarioConfig(population=600, seed=GOLDEN_SEED), range(6)
    bundled = apply_pack(
        ScenarioConfig(population=300, seed=GOLDEN_SEED), "bundled-deps"
    )
    yield "bundled-deps", bundled, range(12)


@pytest.fixture(scope="module")
def golden_pages():
    """``{scenario: [(html, page_url), ...]}`` for every live domain-week."""
    pages = {}
    for name, config, weeks in _scenarios():
        ecosystem = WebEcosystem(config)
        pages[name] = [
            (ecosystem.landing_page(domain, week), f"https://{domain.name}/")
            for week in weeks
            for domain in ecosystem.population
            if domain.alive_at(week)
        ]
    return pages


@pytest.fixture(scope="module")
def golden_profiles(golden_pages):
    engine = FingerprintEngine()
    return {
        name: [engine.fingerprint(html, url) for html, url in pages]
        for name, pages in golden_pages.items()
    }


def _digest(profiles) -> str:
    blob = json.dumps(
        [to_canonical_dict(profile) for profile in profiles],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class TestGoldenProfiles:
    @pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS))
    def test_digest_unchanged(self, golden_profiles, scenario):
        assert _digest(golden_profiles[scenario]) == GOLDEN_DIGESTS[scenario]

    def test_pages_cover_every_feature(self, golden_profiles):
        profiles = [p for group in golden_profiles.values() for p in group]
        detections = [d for p in profiles for d in p.libraries]
        assert {d.evidence for d in detections} == {
            "url-pattern",
            "url-generic",
            "url-noversion",
            "inline-banner",
        }
        assert {e.tag for p in profiles for e in p.flash_embeds} == {"object", "embed"}
        assert any(p.wordpress_version for p in profiles)
        assert any(d.has_integrity for d in detections)


class TestReferenceScan:
    def test_golden_pages(self, golden_pages):
        for pages in golden_pages.values():
            for html, _ in pages:
                stripped = reference_scan.strip_comments(html)
                assert tuple(scan_page(html)) == reference_scan.reference_scan(stripped)

    def test_tag_soup(self):
        def one_pass_matches_reference(rng, seed):
            seen = collections.Counter()
            for _ in range(400):
                html = proptest.tag_soup(rng)
                stripped = reference_scan.strip_comments(html)
                tags, bodies, groups = reference_scan.reference_scan(stripped)
                assert tuple(scan_page(html)) == (tags, bodies, groups), repr(html)
                assert scan_tags(html) == reference_scan.scan_tags(html), repr(html)
                seen["comment"] += stripped != html
                seen["body"] += bool(bodies)
                seen["param in object"] += any(params for _, params in groups)
                seen["markup in attribute"] += any(
                    "<" in value for tag in tags for value in tag.attrs.values()
                )
            # The soup must reach every path of the scanner.
            assert all(seen[key] for key in (
                "comment", "body", "param in object", "markup in attribute"
            )), dict(seen)

        proptest.forall(one_pass_matches_reference)


def _through_json(profile: PageProfile) -> PageProfile:
    text = json.dumps(to_canonical_dict(profile), sort_keys=True)
    return profile_from_canonical(json.loads(text))


def _hand_built():
    detection = LibraryDetection(
        library="jquery",
        version=None,
        source_url="/static/jquery.js",
        host=None,
        external=False,
    )
    yield PageProfile(page_host="bare.example")
    yield PageProfile(
        page_host="every.example",
        resource_types=frozenset({"javascript", "flash", "css"}),
        libraries=(
            detection,
            LibraryDetection(
                library="bootstrap",
                version="4.3.1",
                source_url="https://cdn.example/bootstrap.min.js",
                host="cdn.example",
                external=True,
                cdn_host="cdn.example",
                untrusted_host=False,
                has_integrity=True,
                crossorigin="anonymous",
                evidence="url-pattern",
            ),
            LibraryDetection(
                library="mylib",
                version="0.1",
                source_url="https://user.github.io/mylib-0.1.js",
                host="user.github.io",
                external=True,
                untrusted_host=True,
                crossorigin="",
                evidence="url-generic",
            ),
        ),
        flash_embeds=tuple(
            FlashEmbed(
                swf_url=f"https://swf.example/{index}.swf",
                tag=tag,
                script_access=access,
                script_access_specified=access is not None,
                external=bool(index % 2),
                visible=index != 1,
            )
            for index, (tag, access) in enumerate(
                zip(
                    ("object", "embed", "object", "embed"),
                    (*ScriptAccess, None),
                )
            )
        ),
        wordpress_version="5.2.4",
        script_count=7,
        external_script_count=3,
        untrusted_scripts=(
            ("user.github.io", "https://user.github.io/mylib-0.1.js", False),
            ("gitlab.example.io", "https://gitlab.example.io/x.js", True),
        ),
    )


class TestCanonicalDecode:
    def test_golden_profiles_round_trip(self, golden_profiles):
        profiles = [p for group in golden_profiles.values() for p in group]
        assert len(profiles) == 6273
        for profile in profiles:
            assert _through_json(profile) == profile

    def test_hand_built_profiles_round_trip(self):
        profiles = list(_hand_built())
        assert {e.script_access for e in profiles[-1].flash_embeds} == {
            *ScriptAccess, None
        }
        for profile in profiles:
            decoded = _through_json(profile)
            assert decoded == profile
            assert type(decoded.resource_types) is frozenset
            assert all(type(t) is tuple for t in decoded.untrusted_scripts)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda d: None,
            lambda d: [d],
            lambda d: {**d, "script_count": 1.0},
            lambda d: {**d, "script_count": False},
            lambda d: {**d, "page_host": None},
            lambda d: {**d, "wordpress_version": 5},
            lambda d: {**d, "resource_types": "css"},
            lambda d: {**d, "resource_types": [1]},
            lambda d: {**d, "libraries": {}},
            lambda d: {**d, "libraries": [{**d["libraries"][0], "external": 0}]},
            lambda d: {**d, "libraries": [{**d["libraries"][0], "host": 1}]},
            lambda d: {**d, "flash_embeds": [
                {**d["flash_embeds"][0], "script_access": "ALWAYS"}
            ]},
            lambda d: {**d, "flash_embeds": [
                {**d["flash_embeds"][0], "script_access": 1}
            ]},
            lambda d: {**d, "untrusted_scripts": [["h", "u"]]},
            lambda d: {**d, "untrusted_scripts": [["h", "u", "yes"]]},
            lambda d: {**d, "untrusted_scripts": [("h", "u", True)]},
            lambda d: {k: v for k, v in d.items() if k != "libraries"},
            lambda d: {**d, "unknown": 0},
        ],
    )
    def test_wrong_shapes_raise_value_error(self, damage):
        encoded = json.loads(
            json.dumps(to_canonical_dict(list(_hand_built())[-1]))
        )
        with pytest.raises(ValueError):
            profile_from_canonical(damage(encoded))
