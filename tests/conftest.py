"""Shared fixtures.

A single small scenario is crawled once per test session and reused by
every analysis test — the pipeline is deterministic, so sharing is safe.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import pytest

from repro import ScenarioConfig, Study
from repro.analysis.api import AnalysisContext, available_analyses, run_analyses
from repro.crawler import persistence
from repro.crawler.persistence import BINARY_FORMAT_VERSION
from repro.fingerprint import FingerprintEngine
from repro.vulndb import VersionMatcher, default_database
from repro.webgen import WebEcosystem


SERVE_MIX_SEED = 7


def count_calls(monkeypatch, *targets) -> dict:
    """Wrap each ``(owner, name)`` so its calls are counted by name.

    Returns the live ``{name: calls}`` dict.  Work is pinned as counts
    like these, not as wall time, so a faster host cannot hide it.
    """
    calls = {}
    for owner, name in targets:
        original = getattr(owner, name)
        calls[name] = 0

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def assert_same_reads(decoded, live, config) -> None:
    """``decoded`` reads as ``live`` does, checked without the encoder.

    Re-encoding a decoded store cannot catch a field the encoder drops,
    so a store round trip is also judged by what readers see: every
    registered analysis, and the per-site views.
    """
    database = default_database()
    context = AnalysisContext(
        config=config, database=database, matcher=VersionMatcher(database)
    )
    results = run_analyses(live, context)
    assert len(results) == len(available_analyses()) == 17
    assert run_analyses(decoded, context) == results
    assert decoded.trajectories == live.trajectories
    assert decoded.wp_trajectories == live.wp_trajectories
    assert decoded.flash_spans == live.flash_spans
    assert decoded.untrusted_site_sets == live.untrusted_site_sets
    assert decoded.untrusted_url_counts == live.untrusted_url_counts


def framed_store_blob(sections) -> bytes:
    """A format-v2 store blob of raw ``(tag, bytes)`` sections, each
    compressed and framed, behind a valid sha256 trailer."""
    out = bytearray(b"RPS2" + struct.pack("<H", BINARY_FORMAT_VERSION))
    for tag, raw in sections:
        compressed = zlib.compress(raw)
        out += struct.pack("<4sII", tag, len(compressed), len(raw)) + compressed
    out += b"SHA2"
    return bytes(out + hashlib.sha256(bytes(out)).digest())


def blob_with_id_past_its_table(store, tag: bytes, domain: str) -> bytes:
    """``store``'s blob with section ``tag`` encoded as though every
    ``domain`` symbol had the id just past the end of its table.

    The framing and trailer are valid, so only the decoder's bound
    check can refuse it.
    """
    maps = persistence._canonical_maps(store)
    bad = dict(maps, **{domain: [len(maps[domain])] * len(maps[domain])})
    blob = framed_store_blob(
        (section, encode(store, bad if section == tag else maps))
        for section, encode in (
            (b"SYMS", persistence._encode_symbols_section),
            (b"WEEK", persistence._encode_weeks_section),
            (b"SITE", persistence._encode_sites_section),
        )
    )
    assert blob != persistence.store_to_bytes(store), (
        f"section {tag!r} holds no {domain} id"
    )
    return blob


SMALL_POPULATION = 500
SEED = 123


@pytest.fixture(scope="session")
def small_config() -> ScenarioConfig:
    return ScenarioConfig(population=SMALL_POPULATION, seed=SEED)


@pytest.fixture(scope="session")
def ecosystem(small_config) -> WebEcosystem:
    return WebEcosystem(small_config)


@pytest.fixture(scope="session")
def study(small_config) -> Study:
    """A fully crawled small study (manifest mode, all 201 weeks)."""
    study = Study(small_config)
    study.run()
    return study


@pytest.fixture(scope="session")
def store(study):
    return study.store


@pytest.fixture(scope="session")
def engine() -> FingerprintEngine:
    return FingerprintEngine()


@pytest.fixture(scope="session")
def database():
    return default_database()


@pytest.fixture(scope="session")
def matcher(database) -> VersionMatcher:
    return VersionMatcher(database)


# --- serving fixtures -------------------------------------------------
#
# The serve tests exercise the same artifacts a production deployment
# would: a binary store persisted to
# disk (format v2) plus the run's canonical crawl metrics, and a seeded
# Zipf request mix.  Persisting once per session keeps the suite fast
# and guarantees every consumer queries byte-identical inputs.


@pytest.fixture(scope="session")
def served_run(study, tmp_path_factory):
    """(store_path, crawl_metrics_path) for the canned crawl run."""
    from repro.crawler.persistence import save_store

    root = tmp_path_factory.mktemp("served-run")
    store_path = root / "store.bin"
    metrics_path = root / "crawl-metrics.json"
    save_store(study.store, store_path)
    metrics_path.write_text(study.crawl_report.metrics.canonical_json())
    return store_path, metrics_path


@pytest.fixture(scope="session")
def serve_app(served_run, small_config, database):
    """A ServeApp loaded from the persisted artifacts (simulated clock)."""
    from repro.serve import ServeApp

    store_path, metrics_path = served_run
    return ServeApp.from_files(
        store_path,
        metrics_path,
        calendar=small_config.calendar,
        database=database,
    )


@pytest.fixture(scope="session")
def request_mix(store, database):
    """The seeded Zipf request mix shared by the serve tests."""
    from repro.serve import build_mix

    return build_mix(store, database, seed=SERVE_MIX_SEED)
