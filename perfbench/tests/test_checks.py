"""Each output check accepts the reference and rejects a corrupted copy."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads
from checks import (
    check_attribution,
    check_bytes,
    check_digests,
    check_fleet,
    check_same,
    mismatched_responses,
)

BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def store_blob():
    from repro import ScenarioConfig, Study
    from repro.crawler.persistence import store_to_bytes

    study = Study(ScenarioConfig(population=40, seed=3))
    study.run(weeks=study.config.calendar.weeks[:3])
    return store_to_bytes(study.store)


def test_store_check_rejects_one_flipped_byte(store_blob):
    assert check_bytes("store.bin", store_blob, bytes(store_blob)) == []
    middle = len(store_blob) // 2
    flipped = bytearray(store_blob)
    flipped[middle] ^= 0x01
    problems = check_bytes("store.bin", bytes(flipped), store_blob)
    assert problems == [f"store.bin: differs from the reference at byte {middle}"]
    assert check_bytes("store.bin", store_blob[:-1], store_blob)


def test_socket_check_rejects_one_altered_body():
    from repro.serve.loadgen import response_digest

    responses = [
        ("/report", 200, '"e1"', b'{"a":1}\n'),
        ("/weeks/0/overview", 200, '"e2"', b'{"b":2}\n'),
        ("/report", 304, '"e1"', b""),
    ]
    want = [response_digest(*r) for r in responses]
    assert check_digests("replay", list(want), want) == []
    altered = list(want)
    altered[1] = response_digest("/weeks/0/overview", 200, '"e2"', b'{"b":3}\n')
    problems = check_digests("replay", altered, want)
    assert problems and "1 of 3 responses differ" in problems[0]
    assert mismatched_responses(altered, want) == 1
    # A request that failed on the socket counts as mismatched too.
    assert mismatched_responses([want[0], None, want[2]], want) == 1
    assert check_digests("replay", want[:2], want)


def test_read_serve_check_rejects_an_altered_body_or_analyses_pass(tmp_path):
    from repro.serve.loadgen import response_digest

    want = [response_digest("/report", 200, '"e1"', body) for body in (b"a", b"b")]
    (tmp_path / "reference.json").write_text(json.dumps(want))
    inputs = {"reference_digests": str(tmp_path / "reference.json"),
              "reference_analyses_sha256": "f00d"}
    result = {"digests": "digests.json", "analyses_sha256": ["f00d", "f00d"]}
    (tmp_path / "digests.json").write_text(json.dumps(want))
    assert workloads.check_read_serve(result, inputs, tmp_path) == []
    altered = [want[0], response_digest("/report", 200, '"e1"', b"c")]
    (tmp_path / "digests.json").write_text(json.dumps(altered))
    assert workloads.check_read_serve(result, inputs, tmp_path)
    (tmp_path / "digests.json").write_text(json.dumps(want))
    result["analyses_sha256"][1] = "beef"
    assert workloads.check_read_serve(result, inputs, tmp_path) == [
        "1 of 2 analyses passes differ from the reference pass"
    ]


def test_fleet_check():
    states = {"crawl-000": "done", "analyses-000": "done"}
    manifests = {"crawl-000": True, "analyses-000": True}
    metrics = b'{"format":1}\n'
    assert check_fleet(states, manifests, metrics, metrics) == []
    bad = check_fleet(
        dict(states, **{"analyses-000": "dead-letter"}),
        dict(manifests, **{"crawl-000": False}),
        metrics,
        b'{"format":2}\n',
    )
    assert len(bad) == 3


def test_same_across_repeats():
    assert check_same("pages", [5, 5, 5]) == []
    assert check_same("pages", [5, 6]) == ["pages: differs across repeats (2 distinct values)"]


def test_run_refuses_without_the_program(tmp_path):
    """With only the benchmark's own files present, the run exits non-zero
    and prints no result line."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (tmp_path / ".bench_build").exists()


def _traced_repeat(spans, window_ns):
    metrics, _, _ = layers.span_metrics(spans, window_ns)
    metrics["crawler.cache_lookups"] = 0
    return {"index": 1, "traced": True, "attempted": 1, "repeatable": {},
            "layers": metrics, "unmapped_spans": layers.unmapped_span_keys(spans)}


def test_attribution_outside_the_margin_fails_the_run():
    """A traced window the spans leave 40% uncovered fails the run's
    checks; one they cover to 8% passes."""
    fetch = ["crawler.fetch", 0, 600, None, None, None]
    send = ["netsim.send", 100, 300, fetch, None, None]
    outside = _traced_repeat([fetch, send], window_ns=1000)
    assert outside["layers"]["trace.unattributed_ratio"] == pytest.approx(0.4)
    assert check_attribution("traced repeat 1", 0.4, run.UNATTRIBUTED_MARGIN) == [
        "traced repeat 1: 40.0% of the traced window is in no span's self "
        "time, over the stated margin of 15%"
    ]
    assert run.check_run([outside]) == check_attribution(
        "traced repeat 1", outside["layers"]["trace.unattributed_ratio"], run.UNATTRIBUTED_MARGIN
    )
    within = _traced_repeat([fetch, send], window_ns=650)
    assert run.check_run([within]) == []
