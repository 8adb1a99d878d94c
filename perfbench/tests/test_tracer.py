"""Self-time arithmetic and wrapper transparency of the span tracer."""

import sys
import threading
import types

import pytest

import layers
from tracer import END, NAME, PARENT, REQUEST, START, Tracer, covered_ns, self_times


def span(name, start, end, parent=None, value=None):
    return [name, start, end, parent, None, value]


def test_self_time_subtracts_nested_children():
    root = span("root", 0, 100)
    a = span("a", 10, 40, root)
    b = span("b", 50, 90, root)
    c = span("c", 15, 25, a)
    spans = [root, a, b, c]
    assert self_times(spans) == [100 - 30 - 40, 30 - 10, 40, 10]
    # Nested, non-overlapping spans partition the root's interval.
    assert sum(self_times(spans)) == 100


def test_self_time_counts_overlapping_children_once_and_clips():
    root = span("root", 0, 100)
    # Two children overlapping each other (spans of two threads), one
    # sticking out past the parent's end.
    spans = [root, span("x", 10, 60, root), span("y", 40, 80, root), span("z", 90, 130, root)]
    assert self_times(spans)[0] == 100 - (70 + 10)
    assert covered_ns(0, 100, [(10, 60), (40, 80), (90, 130)]) == 80
    assert covered_ns(0, 100, []) == 0


def test_span_metrics_account_for_the_window():
    init = span("serve.init", 0, 100)
    load = span("crawler.load", 10, 60, init)
    decode = span("crawler.decode", 20, 50, load)
    analysis = span("analysis.sri", 150, 170)
    spans = [init, load, decode, analysis]
    metrics, handle, sockets = layers.span_metrics(spans, window_ns=200)
    assert metrics["serve.init_s"] == 50e-9
    assert metrics["serve.load_s"] == 20e-9  # load_store under from_files
    assert metrics["crawler.load_s"] == 0
    assert metrics["crawler.decode_s"] == 30e-9
    assert metrics["analysis.sri_s"] == 20e-9
    assert metrics["trace.unattributed_s"] == pytest.approx((200 - 120) * 1e-9)
    assert metrics["trace.unattributed_ratio"] == pytest.approx(80 / 200)
    assert handle == [] and sockets == []
    assert layers.unmapped_span_keys(spans) == []


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert layers.percentile(values, 50) == 500
    assert layers.percentile(values, 99) == 990
    assert layers.percentile([], 99) == 0.0


class Sentinel(Exception):
    pass


def test_wrapper_returns_value_and_reraises_unchanged():
    tracer = Tracer()
    result = object()
    error = Sentinel("boom")

    def ok(x, *, y):
        return result if (x, y) == (1, 2) else None

    def fails():
        raise error

    traced_ok = tracer.wrap(ok, "ok", value=lambda r: 1)
    traced_fails = tracer.wrap(fails, "fails", value=lambda r: 1)
    assert traced_ok(1, y=2) is result
    with pytest.raises(Sentinel) as caught:
        traced_fails()
    assert caught.value is error
    assert [s[NAME] for s in tracer.spans] == ["ok", "fails"]
    assert tracer.spans[0][-1] == 1 and tracer.spans[1][-1] is None
    assert all(s[END] >= s[START] for s in tracer.spans)
    # The failed call's span was closed: the next span has no parent.
    traced_ok(1, y=2)
    assert tracer.spans[2][PARENT] is None


def test_nesting_request_ids_and_outermost():
    tracer = Tracer()

    def leaf():
        return "leaf"

    traced_leaf = tracer.wrap(leaf, "leaf")

    def job(job_id):
        return traced_leaf()

    traced_job = tracer.wrap(job, "job", request=lambda job_id: job_id)

    def walk(n):
        return 0 if n == 0 else 1 + traced_walk(n - 1)

    traced_walk = tracer.wrap(walk, "walk", outermost=True)
    assert traced_job("job-7") == "leaf"
    assert traced_walk(5) == 5
    job_span, leaf_span, walk_span = tracer.spans
    assert leaf_span[PARENT] is job_span
    assert leaf_span[REQUEST] == "job-7" and tracer.request is None
    assert walk_span[NAME] == "walk" and len(tracer.spans) == 3


def test_remote_parent_links_a_server_thread():
    tracer = Tracer()
    handle = tracer.wrap(lambda: "response", "serve.handle")
    tracer.request = "request-0"
    client = tracer.begin("serve.socket")
    tracer.remote_parent(client)
    thread = threading.Thread(target=handle)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.end(client)
    server = tracer.spans[1]
    assert server[PARENT] is client and server[REQUEST] == "request-0"


def test_patching_and_uninstall_restore_everything():
    tracer = Tracer()

    class Box:
        def get(self):
            return "get"

        @classmethod
        def make(cls):
            return cls()

    def helper(x):
        return x * 2

    home = types.ModuleType("fakepkg.home")
    home.helper = helper
    user = types.ModuleType("fakepkg.user")
    user.helper = helper  # a ``from fakepkg.home import helper``
    sys.modules.update({"fakepkg.home": home, "fakepkg.user": user})
    original_get = Box.__dict__["get"]
    try:
        tracer.patch_method(Box, "get", "box.get")
        tracer.patch_method(Box, "make", "box.make")
        assert tracer.patch_function(home, "helper", "helper", prefixes=("fakepkg",)) == 2
        assert isinstance(Box.make(), Box)
        assert Box().get() == "get"
        assert user.helper(4) == 8 and home.helper(1) == 2
        assert [s[NAME] for s in tracer.spans] == ["box.make", "box.get", "helper", "helper"]
        held = user.helper
        tracer.uninstall()
        assert Box.__dict__["get"] is original_get
        assert home.helper is helper and user.helper is helper
        assert held(3) == 6 and len(tracer.spans) == 4  # inert once uninstalled
    finally:
        del sys.modules["fakepkg.home"], sys.modules["fakepkg.user"]


def test_layer_table_matches_the_program():
    """Installing the layer table wraps the program's calls and
    uninstalling restores them; the table names what the program has."""
    import os

    from repro.analysis.api import available_analyses
    from repro.crawler import persistence
    from repro.orchestrator import jobs, queue
    from repro.runtime import ledger

    assert layers.ANALYSES == available_analyses()
    assert layers.JOB_KINDS == (jobs.CRAWL, jobs.ANALYSES, jobs.REPORT, jobs.SERVE)
    assert all(callable(getattr(queue.JobQueue, m)) for m in layers.QUEUE_METHODS)
    originals = (persistence.store_to_bytes, ledger.atomic_write_bytes, os.fsync)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert persistence.store_to_bytes is not originals[0]
        assert queue.atomic_write_bytes is ledger.atomic_write_bytes is not originals[1]
        assert os.fsync is not originals[2]
    finally:
        tracer.uninstall()
    assert (persistence.store_to_bytes, ledger.atomic_write_bytes, os.fsync) == originals
    assert queue.atomic_write_bytes is originals[1]
