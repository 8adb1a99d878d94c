"""The layer table: which public calls the traced run wraps, and the
per-layer metrics derived from their spans.

Every entry names the call in the program it wraps, the span name its
calls record, and (in :data:`LAYER_MAP`) the end-to-end metric a change
in that layer should move, on the workload where the layer does most of
its work and one where it does little or none.  Span names are the
metric names without their ``_s`` suffix.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict, List, Optional, Tuple

from tracer import END, NAME, PARENT, START, VALUE, Tracer, self_times

#: Registered analyses (``repro.analysis.api.available_analyses()``).
ANALYSES = (
    "collection-series",
    "cookie-migration",
    "cve-accuracy",
    "cve-refinement",
    "discontinued",
    "dominant-versions",
    "flash-script-access",
    "flash-usage",
    "landscape",
    "prevalence",
    "resource-usage",
    "sri",
    "untrusted-hosting",
    "update-delays",
    "vulnerability-cdf",
    "wordpress-cves",
    "wordpress-usage",
)

#: ``JobQueue`` methods that read or write durable queue state.  The
#: pure path helpers (``record_path``, ``artifact_dir``, ...) are not
#: wrapped: they touch no state and would only add tracer overhead.
QUEUE_METHODS = (
    "open",
    "lease",
    "heartbeat",
    "mark_running",
    "expire_lease",
    "mark_done",
    "mark_failed",
    "requeue",
    "dead_letter",
    "mark_degraded",
    "write_done_manifest",
    "read_done_manifest",
    "load_records",
)

#: Job kinds of a default beat fleet, in DAG order.
JOB_KINDS = ("crawl", "analyses", "report", "serve")


def _is_hit(result) -> int:
    return 0 if result is None else 1


def _serve_cache_hit(response) -> Optional[int]:
    """1 for a cache hit, 0 for a miss or expiry, None for a bypass."""
    return {"hit": 1, "miss": 0, "expired": 0}.get(response.cache)


def install(tracer: Tracer) -> None:
    """Wrap every public call of the layer table."""
    mod = importlib.import_module
    ecosystem = mod("repro.webgen.ecosystem").WebEcosystem
    tracer.patch_method(ecosystem, "landing_page", "webgen.render")
    tracer.patch_method(ecosystem, "manifest", "webgen.manifest")
    tracer.patch_method(ecosystem, "__init__", "webgen.ecosystem_build")
    tracer.patch_method(mod("repro.netsim.network").VirtualNetwork, "send", "netsim.send")
    tracer.patch_method(mod("repro.crawler.fetch").Fetcher, "fetch_domain", "crawler.fetch")
    tracer.patch_method(
        mod("repro.crawler.filtering").AccessibilityFilter, "run", "crawler.filter"
    )
    pstore = mod("repro.crawler.profilestore").ProfileStore
    tracer.patch_method(pstore, "lookup", "crawler.profile_store_lookup", value=_is_hit)
    tracer.patch_method(pstore, "store", "crawler.profile_store_write")
    store = mod("repro.crawler.store").ObservationStore
    tracer.patch_method(store, "ingest", "crawler.ingest")
    tracer.patch_method(store, "merge", "crawler.merge")
    tracer.patch_method(
        mod("repro.fingerprint.engine").FingerprintEngine,
        "fingerprint",
        "fingerprint.fingerprint",
    )
    ledger = mod("repro.runtime.ledger")
    tracer.patch_method(ledger.RunLedger, "journal", "runtime.journal", value=int)
    queue = mod("repro.orchestrator.queue").JobQueue
    for method in QUEUE_METHODS:
        tracer.patch_method(queue, method, "orchestrator.queue")
    tracer.patch_method(
        mod("repro.orchestrator.runner").JobRunner,
        "execute",
        lambda runner, spec: f"orchestrator.{spec.kind}_job",
        request=lambda runner, spec: spec.job_id,
    )
    tracer.patch_method(
        mod("repro.analysis.api").RegisteredAnalysis,
        "run",
        lambda entry, store, context: f"analysis.{entry.name}",
    )
    tracer.patch_method(mod("repro.reporting.report").StudyReport, "render", "reporting.render")
    app = mod("repro.serve.app")
    tracer.patch_method(app.ServeApp, "handle", "serve.handle", value=_serve_cache_hit)
    tracer.patch_method(app.ServeApp, "from_files", "serve.init")

    # Module functions: patched where defined and in every repro module
    # that imported the name.  Load the importers first.
    for name in (
        "repro.runtime",
        "repro.crawler",
        "repro.crawler.crawl",
        "repro.crawler.profilestore",
        "repro.orchestrator.fleet",
        "repro.serve",
        "repro.sweep",
    ):
        mod(name)
    persistence = mod("repro.crawler.persistence")
    repro = ("repro",)
    tracer.patch_function(persistence, "store_to_bytes", "crawler.encode", prefixes=repro, value=len)
    tracer.patch_function(persistence, "store_from_bytes", "crawler.decode", prefixes=repro)
    tracer.patch_function(persistence, "load_store", "crawler.load", prefixes=repro)
    tracer.patch_function(mod("repro.runtime.dispatch"), "dispatch_shards", "runtime.dispatch", prefixes=repro)
    tracer.patch_function(mod("repro.runtime.worker"), "execute_shard", "runtime.shard", prefixes=repro)
    tracer.patch_function(ledger, "atomic_write_bytes", "runtime.durable_write", prefixes=repro, value=int)
    tracer.patch_function(os, "fsync", "runtime.fsync")
    tracer.patch_function(
        mod("repro.analysis.api"), "to_canonical_dict", "analysis.encode",
        prefixes=repro, outermost=True,
    )
    tracer.patch_function(app, "canonical_bytes", "serve.encode", prefixes=repro)
    tracer.patch_function(app, "make_etag", "serve.encode", prefixes=repro)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _span_key(span: list) -> str:
    """Reporting key: ``load_store`` under ``ServeApp.from_files`` is the
    serve layer's load; anywhere else it is the crawler's."""
    if span[NAME] == "crawler.load":
        parent = span[PARENT]
        if parent is not None and parent[NAME] == "serve.init":
            return "serve.load"
    return span[NAME]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


#: (metric, unit) for every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("webgen.render_s", "s"),
    ("webgen.renders", "count"),
    ("webgen.manifest_s", "s"),
    ("webgen.manifests", "count"),
    ("webgen.ecosystem_build_s", "s"),
    ("webgen.ecosystem_builds", "count"),
    ("netsim.send_s", "s"),
    ("netsim.requests", "count"),
    ("crawler.fetch_s", "s"),
    ("crawler.fetches", "count"),
    ("crawler.filter_s", "s"),
    ("crawler.filter_self_s", "s"),
    ("crawler.cache_lookups", "count"),
    ("crawler.cache_hit_ratio", "1"),
    ("crawler.profile_store_lookups", "count"),
    ("crawler.profile_store_hit_ratio", "1"),
    ("crawler.profile_store_lookup_s", "s"),
    ("crawler.profile_store_writes", "count"),
    ("crawler.profile_store_write_s", "s"),
    ("crawler.ingest_s", "s"),
    ("crawler.ingests", "count"),
    ("crawler.merge_s", "s"),
    ("crawler.merges", "count"),
    ("crawler.encode_s", "s"),
    ("crawler.encode_bytes", "bytes"),
    ("crawler.decode_s", "s"),
    ("crawler.decodes", "count"),
    ("crawler.load_s", "s"),
    ("fingerprint.fingerprint_s", "s"),
    ("fingerprint.pages", "count"),
    ("runtime.dispatch_s", "s"),
    ("runtime.shards", "count"),
    ("runtime.shard_s", "s"),
    ("runtime.journal_s", "s"),
    ("runtime.journal_bytes", "bytes"),
    ("runtime.durable_writes", "count"),
    ("runtime.durable_bytes", "bytes"),
    ("runtime.durable_write_s", "s"),
    ("runtime.fsyncs", "count"),
    ("runtime.fsync_s", "s"),
    ("orchestrator.queue_s", "s"),
    ("orchestrator.record_writes", "count"),
]
PER_LAYER += [(f"orchestrator.{kind}_job_s", "s") for kind in JOB_KINDS]
PER_LAYER += [(f"analysis.{name}_s", "s") for name in ANALYSES]
PER_LAYER += [
    ("analysis.encode_s", "s"),
    ("reporting.render_s", "s"),
    ("serve.load_s", "s"),
    ("serve.init_s", "s"),
    ("serve.handle_s", "s"),
    ("serve.handle_p50_us", "us"),
    ("serve.handle_p99_us", "us"),
    ("serve.handle_requests", "count"),
    ("serve.encode_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_hit_ratio", "1"),
    ("serve.socket_s", "s"),
    ("serve.socket_p50_us", "us"),
    ("serve.socket_p99_us", "us"),
    ("trace.spans", "count"),
    ("trace.window_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_ratio", "1"),
    ("trace.overhead_ratio", "1"),
]

#: Per-layer metrics that are inclusive times (span, children included)
#: rather than self times.  Everything else ending in ``_s`` is self
#: time, and the self times plus ``trace.unattributed_s`` add up to
#: ``trace.window_s``.
INCLUSIVE = ("crawler.filter_s",)

#: Self-time metric → span key it sums.
_SELF_TIME_KEYS = {
    metric: metric[: -len("_s")]
    for metric, unit in PER_LAYER
    if unit == "s" and not metric.startswith("trace.") and metric not in INCLUSIVE
}
_SELF_TIME_KEYS["crawler.filter_self_s"] = "crawler.filter"

#: Count metric → span key whose calls it counts.
_COUNT_KEYS = {
    "webgen.renders": "webgen.render",
    "webgen.manifests": "webgen.manifest",
    "webgen.ecosystem_builds": "webgen.ecosystem_build",
    "netsim.requests": "netsim.send",
    "crawler.fetches": "crawler.fetch",
    "crawler.profile_store_lookups": "crawler.profile_store_lookup",
    "crawler.profile_store_writes": "crawler.profile_store_write",
    "crawler.ingests": "crawler.ingest",
    "crawler.merges": "crawler.merge",
    "crawler.decodes": "crawler.decode",
    "fingerprint.pages": "fingerprint.fingerprint",
    "runtime.shards": "runtime.shard",
    "runtime.durable_writes": "runtime.durable_write",
    "runtime.fsyncs": "runtime.fsync",
    "serve.handle_requests": "serve.handle",
}

#: Byte metric → span key whose values it sums.
_VALUE_KEYS = {
    "crawler.encode_bytes": "crawler.encode",
    "runtime.journal_bytes": "runtime.journal",
    "runtime.durable_bytes": "runtime.durable_write",
}


def span_metrics(
    spans: List[list], window_ns: int
) -> Tuple[Dict[str, float], List[float], List[float]]:
    """Per-layer metrics of one traced repeat, from its spans, plus the
    per-request ``ServeApp.handle`` and socket times in µs.

    ``window_ns`` is the traced time the spans fall in (the workload's
    set-up call plus its timed section).  Counts that the spans cannot
    see (the crawl report's cache counters) and ``trace.overhead_ratio``
    are filled in by the caller.
    """
    own = self_times(spans)
    totals: Dict[str, List[float]] = {}  # key -> [self_ns, count, value, valued]
    inclusive: Dict[str, int] = {}
    handle_us: List[float] = []
    socket_us: List[float] = []
    record_writes = 0
    for span, self_ns in zip(spans, own):
        key = _span_key(span)
        entry = totals.setdefault(key, [0, 0, 0, 0])
        entry[0] += self_ns
        entry[1] += 1
        if span[VALUE] is not None:
            entry[2] += span[VALUE]
            entry[3] += 1
        inclusive[key] = inclusive.get(key, 0) + span[END] - span[START]
        if key == "serve.handle":
            handle_us.append((span[END] - span[START]) / 1e3)
        elif key == "serve.socket":
            socket_us.append(self_ns / 1e3)
        elif key == "runtime.durable_write":
            parent = span[PARENT]
            if parent is not None and parent[NAME] == "orchestrator.queue":
                record_writes += 1

    def get(key: str, field: int) -> float:
        return totals.get(key, (0, 0, 0, 0))[field]

    metrics: Dict[str, float] = {}
    for metric, key in _SELF_TIME_KEYS.items():
        metrics[metric] = get(key, 0) / 1e9
    for metric, key in _COUNT_KEYS.items():
        metrics[metric] = get(key, 1)
    for metric, key in _VALUE_KEYS.items():
        metrics[metric] = get(key, 2)
    metrics["crawler.filter_s"] = inclusive.get("crawler.filter", 0) / 1e9
    lookups = get("crawler.profile_store_lookup", 1)
    metrics["crawler.profile_store_hit_ratio"] = (
        get("crawler.profile_store_lookup", 2) / lookups if lookups else 0.0
    )
    metrics["orchestrator.record_writes"] = record_writes
    probes = get("serve.handle", 3)
    metrics["serve.cache_hits"] = get("serve.handle", 2)
    metrics["serve.cache_hit_ratio"] = (
        get("serve.handle", 2) / probes if probes else 0.0
    )
    metrics["serve.handle_p50_us"] = percentile(handle_us, 50)
    metrics["serve.handle_p99_us"] = percentile(handle_us, 99)
    metrics["serve.socket_p50_us"] = percentile(socket_us, 50)
    metrics["serve.socket_p99_us"] = percentile(socket_us, 99)
    attributed = sum(own)
    metrics["trace.spans"] = len(spans)
    metrics["trace.window_s"] = window_ns / 1e9
    metrics["trace.unattributed_s"] = (window_ns - attributed) / 1e9
    metrics["trace.unattributed_ratio"] = (
        (window_ns - attributed) / window_ns if window_ns else 0.0
    )
    return metrics, handle_us, socket_us


def unmapped_span_keys(spans: List[list]) -> List[str]:
    """Span keys whose self time no per-layer metric reports."""
    mapped = set(_SELF_TIME_KEYS.values())
    return sorted({_span_key(span) for span in spans} - mapped)


# ----------------------------------------------------------------------
# The layer -> end-to-end map
# ----------------------------------------------------------------------
#: (layer, metrics, public call, end-to-end metric it should move,
#: workload where it does most -> workload where it does little).
#: End-to-end names are those of the per-workload report lines.  Of
#: them the JSON line (``BENCHMARK.json``) gates ``setup_s`` and
#: ``peak_rss_mib`` as they are; every other time reaches it through
#: ``user_cpu_ref``, as far as the layer spends user CPU time in the
#: timed section.  Waiting on the socket or the disk is in no gated
#: metric: the trace counts the disk work exactly, and the socket time
#: shows in ``latency_*`` and ``serve.socket_*``.
LAYER_MAP = [
    ("repro.webgen", "webgen.render_s, webgen.renders", "WebEcosystem.landing_page",
     "cells_per_s", "crawl-full -> read-serve"),
    ("repro.webgen", "webgen.manifest_s, webgen.manifests", "WebEcosystem.manifest",
     "cells_per_s", "fleet-beat -> read-serve"),
    ("repro.webgen", "webgen.ecosystem_build_s, webgen.ecosystem_builds",
     "WebEcosystem.__init__", "wall_s", "fleet-beat -> read-serve"),
    ("repro.netsim", "netsim.send_s, netsim.requests", "VirtualNetwork.send",
     "cells_per_s", "crawl-full -> read-serve"),
    ("repro.crawler", "crawler.fetch_s, crawler.fetches", "Fetcher.fetch_domain",
     "cells_per_s", "crawl-full -> read-serve"),
    ("repro.crawler", "crawler.filter_s (inclusive), crawler.filter_self_s",
     "AccessibilityFilter.run", "wall_s", "fleet-beat -> read-serve"),
    ("repro.crawler", "crawler.cache_lookups, crawler.cache_hit_ratio",
     "cache.* counters of CrawlReport.metrics", "cells_per_s",
     "fleet-beat -> crawl-full (cache off)"),
    ("repro.crawler",
     "crawler.profile_store_{lookups,hit_ratio,lookup_s,writes,write_s}",
     "ProfileStore.lookup, ProfileStore.store", "wall_s", "fleet-beat -> crawl-full"),
    ("repro.crawler", "crawler.ingest_s, crawler.ingests", "ObservationStore.ingest",
     "cells_per_s", "fleet-beat, crawl-full -> read-serve"),
    ("repro.crawler", "crawler.merge_s, crawler.merges", "ObservationStore.merge",
     "wall_s", "fleet-beat -> crawl-full (direct path)"),
    ("repro.crawler", "crawler.encode_s, crawler.encode_bytes", "store_to_bytes",
     "wall_s", "fleet-beat -> crawl-full"),
    ("repro.crawler", "crawler.decode_s, crawler.decodes",
     "store_from_bytes (also under load_store)",
     "setup_s on read-serve, wall_s on fleet-beat", "read-serve -> crawl-full"),
    ("repro.crawler", "crawler.load_s", "load_store outside ServeApp.from_files",
     "wall_s", "fleet-beat -> crawl-full"),
    ("repro.fingerprint", "fingerprint.fingerprint_s, fingerprint.pages",
     "FingerprintEngine.fingerprint", "cells_per_s",
     "crawl-full -> fleet-beat and read-serve (0 calls)"),
    ("repro.runtime", "runtime.dispatch_s, runtime.shards, runtime.shard_s",
     "dispatch_shards minus execute_shard", "wall_s",
     "fleet-beat -> crawl-full (direct path)"),
    ("repro.runtime", "runtime.journal_s, runtime.journal_bytes", "RunLedger.journal",
     "wall_s", "fleet-beat -> crawl-full"),
    ("repro.runtime",
     "runtime.durable_{writes,bytes,write_s}, runtime.fsyncs, runtime.fsync_s",
     "atomic_write_bytes (each importing module) and os.fsync", "wall_s",
     "fleet-beat -> crawl-full (0)"),
    ("repro.orchestrator", "orchestrator.queue_s, orchestrator.record_writes",
     "JobQueue public methods", "wall_s", "fleet-beat -> others (0)"),
    ("repro.orchestrator", "orchestrator.{crawl,analyses,report,serve}_job_s",
     "JobRunner.execute, keyed by job kind", "wall_s", "fleet-beat -> others (0)"),
    ("repro.analysis", "analysis.<name>_s (17 registered), analysis.encode_s",
     "RegisteredAnalysis.run, to_canonical_dict", "analyses_s",
     "read-serve -> fleet-beat (four headline analyses, short window)"),
    ("repro.reporting", "reporting.render_s", "StudyReport.render", "wall_s",
     "crawl-full -> others (0)"),
    ("repro.serve", "serve.load_s, serve.init_s",
     "load_store under ServeApp.from_files; the rest of from_files", "setup_s",
     "read-serve -> fleet-beat (serve-refresh, precompute off)"),
    ("repro.serve",
     "serve.handle_{s,p50_us,p99_us,requests}, serve.encode_s, serve.cache_hits, "
     "serve.cache_hit_ratio",
     "ServeApp.handle; canonical_bytes + make_etag; response cache verdicts",
     "latency_p50_us, latency_p99_us, req_per_s",
     "read-serve -> fleet-beat"),
    ("repro.serve", "serve.socket_s, serve.socket_p50_us, serve.socket_p99_us",
     "client round trip minus ServeApp.handle", "latency_p50_us, req_per_s",
     "read-serve -> others (0)"),
    ("trace", "trace.unattributed_s, trace.unattributed_ratio, trace.overhead_ratio",
     "traced window minus summed self time; traced / untraced wall_s - 1", "-",
     "every workload"),
]
