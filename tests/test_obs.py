"""Unit tests for the deterministic observability layer (repro.obs).

The integration-level guarantees (canonical byte-identity across
backends, shard sizes, cache settings, and kill/resume) live in
``test_invariants.py``; this file pins the primitives those guarantees
are built from — histogram arithmetic, the exact merge, the payload and
canonical codecs, pickling, and the schema validator — and the work the
instruments layer adds to a full-mode crawl, as counts.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import sys

import pytest

import repro
from repro import ExecutionOptions, RunOptions, ScenarioConfig
from repro.crawler import Crawler
from repro.errors import ConfigError
from repro.obs import (
    ATTEMPTS_EDGES,
    METRICS_FORMAT,
    SCRIPTS_PER_PAGE_EDGES,
    Histogram,
    Instruments,
    SpanEvent,
    load_schema,
    validate_metrics,
)
from repro.webgen import WebEcosystem


class TestHistogram:
    def test_bucketing_inclusive_upper_edges(self):
        hist = Histogram((0, 1, 5))
        for value in (0, 1, 2, 5, 6, 100):
            hist.observe(value)
        # buckets: <=0, <=1, <=5, overflow
        assert hist.counts == [1, 1, 2, 2]
        assert hist.count == 6
        assert hist.total == 114
        assert hist.vmin == 0 and hist.vmax == 100

    @pytest.mark.parametrize(
        "edges", [(0, 1, 5), (2, 2, 7), (-3, 0, 0, 4), SCRIPTS_PER_PAGE_EDGES]
    )
    def test_bucket_matches_a_linear_scan(self, edges):
        # Reference: the first bucket whose (inclusive) edge holds the
        # value, else the overflow bucket — duplicate edges included.
        for value in range(min(edges) - 3, max(edges) + 4):
            hist = Histogram(edges)
            hist.observe(value)
            expected = next(
                (i for i, edge in enumerate(edges) if value <= edge), len(edges)
            )
            assert hist.counts.index(1) == expected, (edges, value)

    def test_merge_is_exact_and_order_free(self):
        rng = random.Random(3)
        values = [rng.randint(0, 40) for _ in range(200)]
        whole = Histogram(SCRIPTS_PER_PAGE_EDGES)
        for v in values:
            whole.observe(v)
        cut = rng.randint(1, len(values) - 1)
        a, b = Histogram(SCRIPTS_PER_PAGE_EDGES), Histogram(SCRIPTS_PER_PAGE_EDGES)
        for v in values[:cut]:
            a.observe(v)
        for v in values[cut:]:
            b.observe(v)
        ab = Histogram(SCRIPTS_PER_PAGE_EDGES)
        ab.merge(b)
        ab.merge(a)
        assert ab == whole

    def test_merge_rejects_mismatched_edges(self):
        with pytest.raises(ConfigError):
            Histogram((0, 1)).merge(Histogram((0, 2)))

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ConfigError):
            Histogram((3, 1, 2))

    def test_dict_round_trip(self):
        hist = Histogram(ATTEMPTS_EDGES)
        for v in (1, 1, 2, 9):
            hist.observe(v)
        assert Histogram.from_dict(hist.to_dict()) == hist

    def test_empty_histogram_serializes_null_min_max(self):
        payload = Histogram((0, 1)).to_dict()
        assert payload["min"] is None and payload["max"] is None


def _filled(backend="serial", pages=3):
    ins = Instruments()
    for _ in range(pages):
        ins.inc("crawl.pages")
        ins.observe("page.scripts", 4, SCRIPTS_PER_PAGE_EDGES)
    ins.event(
        "shard",
        status="ok",
        shard_index=0,
        shard_key="weeks:0-1|domains:a..b|n=2",
        attempt=1,
        fields={"pages": pages},
        backend=backend,
    )
    ins.note("backend", backend)
    ins.add_wall_us("fetch", 1234)
    return ins


class TestInstruments:
    def test_merge_matches_single_stream(self):
        parts = [_filled(pages=n) for n in (1, 2, 5)]
        left = Instruments()
        for p in parts:
            left.merge(p)
        right = Instruments()
        for p in reversed(parts):
            right.merge(p)
        # Equality ignores process; counters/histograms/events agree.
        assert left == right
        assert left.counter("crawl.pages") == 8
        assert left.canonical_json() == right.canonical_json()

    def test_equality_ignores_process_and_backend(self):
        a = _filled(backend="serial")
        b = _filled(backend="process")
        b.note("extra", "diagnostic")
        b.add_wall_us("fetch", 999_999)
        assert a == b
        assert a.canonical_json() == b.canonical_json()

    def test_canonical_json_excludes_backend_and_process(self):
        text = _filled(backend="process").canonical_json()
        assert "process" not in text
        assert "process" not in json.loads(text)
        assert "wall.fetch_us" not in text

    def test_payload_round_trip_preserves_everything(self):
        ins = _filled()
        back = Instruments.from_payload(ins.to_payload())
        assert back == ins
        assert back.process == ins.process  # payload keeps diagnostics

    def test_payload_survives_json(self):
        ins = _filled()
        back = Instruments.from_payload(json.loads(json.dumps(ins.to_payload())))
        assert back == ins

    def test_pickle_round_trip(self):
        ins = _filled()
        back = pickle.loads(pickle.dumps(ins))
        assert back == ins and back.process == ins.process

    def test_span_accumulates_wall_and_sim_time(self):
        class FakeClock:
            now = 2.5

        ins = Instruments()
        clock = FakeClock()
        with ins.span("dispatch", clock=clock):
            clock.now = 4.0
        assert ins.process["sim.dispatch_us"] == 1_500_000
        assert ins.process["wall.dispatch_us"] >= 0
        assert ins.wall_seconds("dispatch") == pytest.approx(
            ins.process["wall.dispatch_us"] / 1e6
        )

    def test_span_event_sorting_is_deterministic(self):
        ins = Instruments()
        for index in (2, 0, 1):
            ins.event(
                "shard", status="ok", shard_index=index, shard_key="k", attempt=0
            )
        ordered = [e["shard_index"] for e in ins.to_payload()["spans"]]
        assert ordered == [0, 1, 2]


class TestSchema:
    def test_canonical_document_validates(self):
        document = json.loads(_filled().canonical_json())
        assert validate_metrics(document) == []
        assert document["format"] == METRICS_FORMAT

    def test_violations_are_reported(self):
        document = json.loads(_filled().canonical_json())
        document["dataset"].pop("pages_collected")
        document["execution"]["spans"][0]["status"] = "exploded"
        document["format"] = 99
        failures = validate_metrics(document)
        assert any("pages_collected" in f for f in failures)
        assert any("status" in f for f in failures)
        assert any("format" in f for f in failures)

    def test_schema_rejects_unknown_top_level_keys(self):
        document = json.loads(_filled().canonical_json())
        document["surprise"] = 1
        assert validate_metrics(document)

    def test_checker_cli(self, tmp_path, capsys):
        from repro.obs.check import main

        good = tmp_path / "good.json"
        good.write_text(_filled().canonical_json())
        assert main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main([str(bad)]) == 1
        assert main([]) == 2

    def test_checker_cli_reports_nested_input_and_goes_on(self, tmp_path, capsys):
        from repro.obs.check import main

        nested = tmp_path / "nested.json"
        nested.write_bytes(b"[" * 200_000)
        good = tmp_path / "good.json"
        good.write_text(_filled().canonical_json())
        assert main([str(nested), str(good)]) == 1
        captured = capsys.readouterr()
        assert f"{nested}: unreadable" in captured.err
        assert f"{good}: ok" in captured.out

    def test_load_schema_is_valid_json_document(self):
        schema = load_schema()
        assert schema["properties"]["format"]["enum"] == [METRICS_FORMAT]


class TestSpanEvent:
    def test_dict_round_trip_and_backend_exclusion(self):
        event = SpanEvent(
            name="shard",
            status="dropped",
            shard_index=3,
            shard_key="k",
            attempt=2,
            fields=(("cells", 40), ("error_kind", "InjectedWorkerCrash")),
            backend="process",
        )
        assert SpanEvent.from_dict(event.to_dict()) == event
        assert "backend" not in event.to_dict(include_backend=False)
        twin = SpanEvent.from_dict({**event.to_dict(), "backend": "serial"})
        assert twin == event  # backend is excluded from equality


# ----------------------------------------------------------------------
# The instruments layer of a full-mode crawl, counted
# ----------------------------------------------------------------------
#: The crawl whose instruments layer is priced: 150 domains x 10 weeks,
#: full mode, profile cache and accessibility filter off, so every page
#: is rendered, fetched and fingerprinted.
_CRAWL_CONFIG = ScenarioConfig(population=150, seed=77)
_CRAWL_WEEKS = _CRAWL_CONFIG.calendar.weeks[:10]
#: (instrument ops, pages) of that crawl.
_OPS_AND_PAGES = (13_944, 1_288)
#: Python-level calls the replay makes: one per ``inc`` and
#: ``add_wall_us`` op, three per ``observe`` op (``observe``,
#: ``histogram``, ``Histogram.observe``) and two ``Histogram``
#: constructions.
_REPLAY_PYTHON_CALLS = 19_098
#: Upper bound on the replay's C calls: 16,525 on Python 3.11 (a
#: ``dict.get`` per op, a ``bisect_left`` per ``observe``, ``sorted`` and
#: ``len`` per new histogram, and the ``sys.setprofile`` call that ends
#: the count).  Bounded, not pinned, since interpreters may report C
#: calls differently; one more C call per op of any kind adds at least
#: 2,576.
_REPLAY_C_CALLS_BOUND = 17_000
_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


class _RecordingInstruments(Instruments):
    """An Instruments that logs every operation a crawl performs (a
    crawl block records counters, histograms and wall timers only)."""

    __slots__ = ("ops",)

    def __init__(self):
        super().__init__()
        self.ops = []

    def inc(self, name, value=1):
        self.ops.append(("inc", name, value, None))
        super().inc(name, value)

    def observe(self, name, value, edges):
        self.ops.append(("observe", name, value, edges))
        super().observe(name, value, edges)

    def add_wall_us(self, name, micros):
        self.ops.append(("wall", name, micros, None))
        super().add_wall_us(name, micros)


def _crawl(instruments, profile_cache=False):
    ecosystem = WebEcosystem(_CRAWL_CONFIG)
    crawler = Crawler(
        ecosystem,
        mode="full",
        apply_filter=False,
        options=RunOptions(
            execution=ExecutionOptions(profile_cache=profile_cache)
        ),
    )
    crawler.crawl_block(_CRAWL_WEEKS, list(ecosystem.population), instruments)
    return instruments


def _counted_replay(ops):
    """Apply an op stream to a fresh Instruments under ``sys.setprofile``.

    Returns ``(instruments, python_calls, outside_calls, c_calls)``:
    the Python-level calls made while replaying, those of them whose
    code is not in the ``repro`` package, and the C calls.
    """
    ins = Instruments()
    counts = {"call": 0, "outside": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event == "call":
            counts["call"] += 1
            if not frame.f_code.co_filename.startswith(_REPRO_DIR):
                counts["outside"] += 1
        elif event == "c_call":
            counts["c_call"] += 1

    sys.setprofile(profile)
    try:
        for kind, name, value, edges in ops:
            if kind == "inc":
                ins.inc(name, value)
            elif kind == "observe":
                ins.observe(name, value, edges)
            else:
                ins.add_wall_us(name, value)
    finally:
        sys.setprofile(None)
    return ins, counts["call"], counts["outside"], counts["c_call"]


@pytest.fixture(scope="module")
def recorded_crawl():
    return _crawl(_RecordingInstruments())


class TestCrawlInstruments:
    """The instruments layer's added work, as counts that cannot drift
    with the speed of the host or of the crawl around it."""

    def test_op_stream_is_pinned(self, recorded_crawl):
        """The crawl's op stream is a pure function of the scenario: an
        instrument call added to the per-page path shows here, however
        cheap."""
        ops = len(recorded_crawl.ops)
        pages = recorded_crawl.counter("crawl.pages")
        assert (ops, pages) == _OPS_AND_PAGES

    def test_replay_work_is_pinned(self, recorded_crawl):
        """Replaying the stream reproduces the recording exactly, and
        makes a pinned number of Python-level calls, all in ``repro``."""
        runs = [_counted_replay(recorded_crawl.ops) for _ in range(2)]
        replayed, python_calls, outside, c_calls = runs[0]
        assert replayed == recorded_crawl
        assert python_calls == _REPLAY_PYTHON_CALLS
        assert outside == 0
        assert c_calls <= _REPLAY_C_CALLS_BOUND
        assert runs[1][1:] == (python_calls, outside, c_calls)
