"""The query service core: canonical-JSON endpoints over a loaded store.

:class:`ServeApp` is the whole service, *without* sockets: it loads (or
is handed) an :class:`~repro.crawler.store.ObservationStore` plus an
optional canonical crawl-metrics document, precomputes the hot
aggregates at startup, and answers ``handle(method, path, query,
headers)`` with a complete :class:`ServeResponse`.  The socket layer
(:mod:`repro.serve.http`) and the deterministic load harness
(:mod:`repro.serve.loadgen`) drive this one method — which is what makes
the service testable byte-for-byte without a network.

Determinism contract (the serving extension of the PR 1-7 identity
matrix):

* **Response bytes are a pure function of the dataset.**  Every payload
  is computed from the store through explicitly-ordered iterations —
  sorted decoded symbols, fixed calendar order, exact integer
  accumulation — never through symbol-intern or dict insertion order,
  which differ across store provenance (serial vs process backends,
  kill/resume, shard sizes) even when the dataset is
  identical.  Bodies are canonical JSON (sorted keys, no whitespace,
  trailing newline) and the ETag is the sha256 of the body, so equal
  datasets serve equal bytes.
* **The cache cannot change a byte.**  The TTL response cache
  (:mod:`repro.serve.caching`) stores the canonical body verbatim; hits
  and misses differ only in counters and simulated cost, never content.
* **Time is simulated by default.**  Each request advances the injected
  clock by a deterministic integer-microsecond cost (a fixed base per
  cache outcome plus a size term), so TTL expiry, latency histograms,
  and hit ratios replay exactly per request sequence.  The real server
  swaps in a wall clock; wall time is only ever recorded in the
  non-canonical process tier.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..advisor.findings import ATTACK_SEVERITY, Severity
from ..analysis import cve_accuracy, external, overview, updates, vulnerable
from ..analysis import flash as flash_analysis
from ..durable import parse_json
from ..errors import ConfigError, ServeError
from ..obs import Instruments
from ..obs.schema import validate_metrics
from ..timeline import default_calendar
from ..vulndb import MatchMode, VersionMatcher, classify_accuracy, default_database
from ..vulndb.flash_data import FLASH_END_OF_LIFE
from . import routes as routing
from .caching import (
    CACHE_BYPASS,
    CACHE_EXPIRED,
    CACHE_HIT,
    CACHE_MISS,
    ResponseCache,
    SimulatedServeClock,
)
from .routes import BadRequest, HttpError, MethodNotAllowed, NotFound, Route

#: Version of the endpoint surface (reported by ``/`` and ``/healthz``).
SERVE_FORMAT = 1
#: Version of the ``/metrics`` document (validated by serve.schema.json).
SERVE_METRICS_FORMAT = 1

CONTENT_TYPE = "application/json; charset=utf-8"

#: Simulated request costs, integer microseconds: a fixed base per cache
#: outcome plus a body-size term.  These are accounting conventions (like
#: the planner's cost model), chosen so hits are visibly cheaper than
#: recomputation and large bodies cost more than small ones.
HIT_BASE_US = 60
HIT_BYTES_PER_US = 512
MISS_BASE_US = 400
MISS_BYTES_PER_US = 64

LATENCY_US_EDGES = (
    30, 60, 90, 150, 250, 400, 600, 900, 1500, 2500,
    4000, 6500, 10000, 25000, 100000,
)
BODY_BYTES_EDGES = (0, 128, 512, 2048, 8192, 32768, 131072, 524288, 2097152)

#: How many top versions a trend request may ask for (``?top=K``).
MAX_TOP_VERSIONS = 50


def canonical_bytes(payload) -> bytes:
    """The one JSON encoding every endpoint uses (ETag-stable)."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def make_etag(body: bytes) -> str:
    """Strong ETag: quoted sha256 of the canonical body."""
    return f'"{hashlib.sha256(body).hexdigest()}"'


def simulated_cost_us(status: int, cache_verdict: str, body_len: int) -> int:
    """Deterministic microsecond cost of one answered request."""
    if cache_verdict == CACHE_HIT:
        base, per = HIT_BASE_US, HIT_BYTES_PER_US
    else:
        base, per = MISS_BASE_US, MISS_BYTES_PER_US
    if status == 304:  # no body was encoded or copied
        return base // 2
    return base + body_len // per


def _ascii_int(raw: str) -> Optional[int]:
    """``raw`` as an integer if it is ASCII digits only, else None.

    Every numeric request parameter goes through this one check.
    ``str.isdigit`` also accepts superscripts and other scripts' digits
    (``"²"`` fails ``int``, ``"١"`` reads as 1), and ``int`` also
    accepts ``"1_0"``, ``"+1"`` and surrounding blanks.
    """
    if not (raw.isascii() and raw.isdigit()):
        return None
    try:
        return int(raw)
    except ValueError:  # more digits than int() converts (4,300 by default)
        return None


def _rank_tier(rank: int) -> str:
    if rank <= 1_000:
        return "top1k"
    if rank <= 10_000:
        return "top10k"
    if rank <= 100_000:
        return "top100k"
    return "rest"


@dataclasses.dataclass(frozen=True)
class ServeResponse:
    """One complete HTTP response, plus serving metadata.

    ``route`` and ``cache`` are accounting metadata for the harness and
    the obs counters; only ``status``/``headers``/``body`` go on the
    wire.
    """

    status: int
    headers: Tuple[Tuple[str, str], ...]
    body: bytes
    route: str = ""
    cache: str = CACHE_BYPASS

    def header(self, name: str) -> Optional[str]:
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    @property
    def etag(self) -> Optional[str]:
        return self.header("ETag")

    def json(self):
        return json.loads(self.body.decode("utf-8"))


class ServeApp:
    """The always-on query service over one loaded crawl store.

    Args:
        store: A loaded observation store (typically via
            :func:`~repro.crawler.persistence.load_store`).
        database: Vulnerability database; defaults to the paper's.
        crawl_metrics: Optional canonical crawl-metrics document, served
            verbatim at ``/crawl-metrics``.
        cache_ttl: Response-cache TTL in seconds; 0 disables caching.
        cache_entries: Response-cache FIFO capacity; 0 = unbounded.
        top_versions: Default version count for trend endpoints.
        clock: Injectable serve clock; defaults to a fresh
            :class:`~repro.serve.caching.SimulatedServeClock` (the real
            server injects a wall clock).
        precompute: Build the hot aggregates (report, every week
            overview, every library trend, every CVE) at startup.
            Responses are byte-identical either way; lazy mode only
            pays the computation on first request.
        instruments: Telemetry sink; defaults to a fresh
            :class:`~repro.obs.Instruments`.
    """

    def __init__(
        self,
        store,
        database=None,
        *,
        crawl_metrics: Optional[dict] = None,
        cache_ttl: float = 60.0,
        cache_entries: int = 1024,
        top_versions: int = 5,
        clock=None,
        precompute: bool = True,
        instruments: Optional[Instruments] = None,
    ) -> None:
        if cache_ttl < 0:
            raise ConfigError("cache_ttl must be >= 0 seconds (0 disables)")
        if not 1 <= top_versions <= MAX_TOP_VERSIONS:
            raise ConfigError(
                f"top_versions must be in 1..{MAX_TOP_VERSIONS}, "
                f"got {top_versions}"
            )
        self.store = store
        self.calendar = store.calendar
        self.database = database if database is not None else default_database()
        self.crawl_metrics = crawl_metrics
        self.top_versions = top_versions
        self.clock = clock if clock is not None else SimulatedServeClock()
        self.cache = ResponseCache(
            ttl_us=int(round(cache_ttl * 1_000_000)), max_entries=cache_entries
        )
        self.obs = instruments if instruments is not None else Instruments()
        self._lock = threading.RLock()
        self._advisories = {a.identifier.upper(): a for a in self.database}
        self._dates = [
            agg.week.date.isoformat() for agg in store.ordered_weeks()
        ]
        #: cache_key -> precomputed payload (hot aggregates; affects
        #: computation only, never cache accounting or bytes).
        self._hot: Dict[str, object] = {}
        if precompute:
            self._precompute()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_files(
        cls,
        store_path,
        crawl_metrics_path=None,
        *,
        calendar=None,
        database=None,
        **kwargs,
    ) -> "ServeApp":
        """Build the service from a persisted binary store (format v2).

        Raises:
            StoreError: The store file is missing, corrupt, or the
                wrong format (from :func:`load_store`).
            ServeError: The crawl-metrics document is unreadable or
                fails schema validation.
        """
        from ..crawler.persistence import load_store

        calendar = calendar if calendar is not None else default_calendar()
        database = database if database is not None else default_database()
        store = load_store(store_path, calendar, VersionMatcher(database))
        crawl_metrics = None
        if crawl_metrics_path:
            path = Path(crawl_metrics_path)
            try:
                document = parse_json(path.read_bytes())
            except (OSError, ValueError) as exc:
                raise ServeError(f"cannot read crawl metrics {path}: {exc}")
            errors = validate_metrics(document)
            if errors:
                raise ServeError(
                    f"crawl metrics {path} failed schema validation: "
                    f"{errors[0]}"
                )
            crawl_metrics = document
        return cls(
            store, database=database, crawl_metrics=crawl_metrics, **kwargs
        )

    def _precompute(self) -> None:
        started_ns = time.perf_counter_ns()
        hot = self._hot
        hot["/"] = self._endpoint_index({}, {})
        hot["/report"] = self._endpoint_report({}, {})
        for week in self.calendar:
            ordinal = str(week.ordinal)
            hot[f"/weeks/{ordinal}/overview"] = self._endpoint_week(
                {"ordinal": ordinal}, {}
            )
        for library in sorted(self.store.version_totals()):
            hot[f"/libraries/{library}/trend"] = self._endpoint_trend(
                {"library": library}, {}
            )
        for identifier in sorted(self._advisories):
            advisory = self._advisories[identifier]
            hot[f"/cves/{advisory.identifier}"] = self._endpoint_cve(
                {"identifier": advisory.identifier}, {}
            )
        self.obs.add_wall_us(
            "serve.precompute", (time.perf_counter_ns() - started_ns) // 1_000
        )

    # ------------------------------------------------------------------
    # The one entry point
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        query: str = "",
        headers: Optional[Dict[str, str]] = None,
    ) -> ServeResponse:
        """Answer one request; thread-safe, never raises to the caller.

        Every failure — unknown path, wrong method, malformed query,
        even an internal analysis error — comes back as typed error
        JSON with the matching status code.
        """
        with self._lock:
            return self._handle_locked(method, path, query, headers)

    def get(
        self, target: str, if_none_match: Optional[str] = None
    ) -> ServeResponse:
        """Convenience: ``GET`` a ``path?query`` target."""
        path, _, query = target.partition("?")
        headers = {"If-None-Match": if_none_match} if if_none_match else None
        return self.handle("GET", path, query, headers)

    def _handle_locked(self, method, path, query, headers) -> ServeResponse:
        started_ns = time.perf_counter_ns()
        if_none_match = None
        if headers:
            for name, value in headers.items():
                if name.lower() == "if-none-match":
                    if_none_match = value
        route: Optional[Route] = None
        verdict = CACHE_BYPASS
        try:
            route, params = routing.match(path)
            if method.upper() != "GET":
                raise MethodNotAllowed(
                    f"{route.template} supports GET only, not {method}"
                )
            args = routing.parse_query(query, route)
            response, verdict = self._respond(
                route, params, args, path, if_none_match
            )
        except HttpError as exc:
            response = self._error_response(exc, route)
        except Exception as exc:
            # Any other failure, typed or not, is a 500: an exception that
            # escaped would end the socket handler's thread and drop the
            # connection without a response.  The traceback goes to stderr.
            import traceback

            traceback.print_exc()
            internal = HttpError(f"internal error: {exc}")
            response = self._error_response(internal, route)
        cost_us = self._account(response, verdict, started_ns)
        # The *next* request sees time advanced by this one's cost, so
        # TTL expiry interacts with the request sequence, not with wall
        # time.  (The wall clock ignores this call.)
        self.clock.advance_us(cost_us)
        return response

    def _respond(
        self, route: Route, params, args, path, if_none_match
    ) -> Tuple[ServeResponse, str]:
        key = routing.cache_key(path, args)
        entry = None
        verdict = CACHE_BYPASS
        if route.cacheable:
            entry, verdict = self.cache.get(key, self.clock.now_us())
        if entry is not None:
            body, etag = entry
        else:
            payload = self._hot.get(key)
            if payload is None:
                handler = getattr(self, f"_endpoint_{route.name}")
                payload = handler(params, args)
            body = canonical_bytes(payload)
            etag = make_etag(body)
            if route.cacheable and self.cache.enabled:
                evicted = self.cache.put(key, body, etag, self.clock.now_us())
                if evicted:
                    self.obs.inc("serve.cache.evicted", evicted)
        cache_control = (
            f"max-age={self.cache.ttl_us // 1_000_000}"
            if route.cacheable and self.cache.enabled
            else "no-cache"
        )
        if if_none_match is not None and if_none_match == etag:
            response = ServeResponse(
                status=304,
                headers=(("ETag", etag), ("Cache-Control", cache_control)),
                body=b"",
                route=route.name,
                cache=verdict,
            )
        else:
            response = ServeResponse(
                status=200,
                headers=(
                    ("Content-Type", CONTENT_TYPE),
                    ("ETag", etag),
                    ("Cache-Control", cache_control),
                ),
                body=body,
                route=route.name,
                cache=verdict,
            )
        return response, verdict

    def _error_response(
        self, exc: HttpError, route: Optional[Route]
    ) -> ServeResponse:
        payload = {"error": {"status": exc.status, "message": exc.message}}
        body = canonical_bytes(payload)
        headers: List[Tuple[str, str]] = [
            ("Content-Type", CONTENT_TYPE),
            ("Cache-Control", "no-store"),
        ]
        if exc.status == 405:
            headers.append(("Allow", "GET"))
        return ServeResponse(
            status=exc.status,
            headers=tuple(headers),
            body=body,
            route=route.name if route is not None else "",
            cache=CACHE_BYPASS,
        )

    def _account(self, response: ServeResponse, verdict: str, started_ns) -> int:
        obs = self.obs
        obs.inc("serve.requests")
        obs.inc(f"serve.requests.{response.route or 'unrouted'}")
        obs.inc(f"serve.status.{response.status}")
        if response.status == 304:
            obs.inc("serve.not_modified")
        if verdict == CACHE_HIT:
            obs.inc("serve.cache.hits")
        elif verdict == CACHE_MISS:
            obs.inc("serve.cache.misses")
        elif verdict == CACHE_EXPIRED:
            obs.inc("serve.cache.expired")
            obs.inc("serve.cache.misses")
        else:
            obs.inc("serve.cache.bypass")
        cost_us = simulated_cost_us(response.status, verdict, len(response.body))
        obs.observe("serve.latency_us", cost_us, LATENCY_US_EDGES)
        obs.observe("serve.body_bytes", len(response.body), BODY_BYTES_EDGES)
        obs.add_wall_us(
            "serve.request", (time.perf_counter_ns() - started_ns) // 1_000
        )
        return cost_us

    # ------------------------------------------------------------------
    # Metrics export (the /metrics document; canonical, schema-checked)
    # ------------------------------------------------------------------
    def metrics_document(self) -> dict:
        """The serve-layer metrics document (counters + histograms).

        Deterministic for a given request sequence against a given
        dataset: counters and the latency histogram are driven by the
        simulated cost model, never by wall time.  Wall diagnostics stay
        in the instruments' process tier and are not exported here.
        """
        return {
            "format": SERVE_METRICS_FORMAT,
            "serve": {
                "counters": dict(sorted(self.obs.counters.items())),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in sorted(self.obs.histograms.items())
                },
            },
            "cache": {
                "ttl_us": self.cache.ttl_us,
                "max_entries": self.cache.max_entries,
                "entries": len(self.cache),
            },
            "store": {
                "weeks": len(self.calendar.weeks),
                "observed_domains": len(self.store.observed_domains),
                "total_observations": self.store.total_observations,
                "advisories": len(self._advisories),
                "libraries": len(self.store.version_totals()),
            },
        }

    def canonical_metrics_json(self) -> str:
        return (
            json.dumps(
                self.metrics_document(), sort_keys=True, separators=(",", ":")
            )
            + "\n"
        )

    # ------------------------------------------------------------------
    # Endpoints (each returns a JSON-safe payload)
    # ------------------------------------------------------------------
    def _endpoint_index(self, params, args) -> dict:
        return {
            "service": "repro-serve",
            "format": SERVE_FORMAT,
            "endpoints": sorted(
                route.template for route in routing.ROUTES if route.segments
            ),
        }

    def _endpoint_healthz(self, params, args) -> dict:
        return {
            "status": "ok",
            "service": "repro-serve",
            "format": SERVE_FORMAT,
            "weeks": len(self.calendar.weeks),
            "observed_domains": len(self.store.observed_domains),
            "total_observations": self.store.total_observations,
            "advisories": len(self._advisories),
            "libraries": len(self.store.version_totals()),
            "crawl_metrics_loaded": self.crawl_metrics is not None,
        }

    def _endpoint_metrics(self, params, args) -> dict:
        # Counters reflect every request *answered before* this one —
        # the current request is accounted after its body is built, so
        # the document is deterministic per request sequence.
        return self.metrics_document()

    def _endpoint_crawl_metrics(self, params, args) -> dict:
        if self.crawl_metrics is None:
            raise NotFound(
                "no crawl metrics loaded (start with --crawl-metrics FILE)"
            )
        return self.crawl_metrics

    def _endpoint_report(self, params, args) -> dict:
        store = self.store
        prev = vulnerable.prevalence(store)
        cdf = vulnerable.vulnerability_cdf(store)
        sri = external.sri_adoption(store)
        flash = flash_analysis.flash_usage(store)
        resources = overview.resource_usage(store)
        delays = {
            mode: updates.update_delays(store, self.database, mode)
            for mode in (MatchMode.CVE, MatchMode.TVV)
        }
        return {
            "study": {
                "weeks": len(self.calendar.weeks),
                "observed_domains": len(store.observed_domains),
                "total_observations": store.total_observations,
                "average_weekly_collected": store.average_collected(),
            },
            "vulnerable_share": {
                "cve": prev.average_share[MatchMode.CVE],
                "tvv": prev.average_share[MatchMode.TVV],
                "refinement_gap": prev.refinement_gap,
            },
            "vulnerabilities_per_site": {
                "mean": {
                    "cve": cdf.mean[MatchMode.CVE],
                    "tvv": cdf.mean[MatchMode.TVV],
                },
                "median": {
                    "cve": cdf.median[MatchMode.CVE],
                    "tvv": cdf.median[MatchMode.TVV],
                },
            },
            "sri": {"average_missing_share": sri.average_missing_share},
            "flash": {
                "average_after_eol": flash.average_after_eol,
                "start_count": flash.start_count,
                "end_count": flash.end_count,
            },
            "resources": dict(resources.averages),
            "update_delays": {
                mode.name.lower(): {
                    "mean_delay_days": delays[mode].mean_delay_days,
                    "updated_sites": delays[mode].total_updated_sites,
                    "censored_sites": delays[mode].total_censored_sites,
                }
                for mode in (MatchMode.CVE, MatchMode.TVV)
            },
            "advisories": len(self._advisories),
        }

    def _endpoint_week(self, params, args) -> dict:
        raw = params["ordinal"]
        ordinal = _ascii_int(raw)
        if ordinal is None:
            raise NotFound(f"no such week: {raw!r}")
        agg = self.store.weeks.get(ordinal)
        if agg is None:
            raise NotFound(
                f"no such week ordinal {ordinal} "
                f"(kept weeks are 0..{len(self.calendar.weeks) - 1})"
            )
        top_libraries = sorted(
            agg.library_users.items(), key=lambda kv: (-kv[1], kv[0])
        )[:10]
        return {
            "ordinal": ordinal,
            "index": agg.week.index,
            "date": agg.week.date.isoformat(),
            "collected": agg.collected,
            "vulnerable_sites": {
                "cve": agg.vulnerable_sites[MatchMode.CVE],
                "tvv": agg.vulnerable_sites[MatchMode.TVV],
            },
            "wordpress_sites": agg.wordpress_sites,
            "flash_sites": agg.flash_sites,
            "sites_with_external": agg.sites_with_external,
            "sites_external_no_integrity": agg.sites_external_no_integrity,
            "untrusted_sites": agg.untrusted_sites,
            "top_libraries": [
                {"library": name, "sites": count}
                for name, count in top_libraries
            ],
            "resources": {
                name: count for name, count in sorted(agg.resource_counts.items())
            },
        }

    def _endpoint_trend(self, params, args) -> dict:
        library = params["library"]
        if self.store.symbols.library.lookup(library) is None:
            raise NotFound(f"library never observed: {library!r}")
        top = self.top_versions
        if "top" in args:
            top = _ascii_int(args["top"])
            if top is None:
                raise BadRequest(
                    f"top must be an integer, got {args['top']!r}"
                )
            if not 1 <= top <= MAX_TOP_VERSIONS:
                raise BadRequest(
                    f"top must be in 1..{MAX_TOP_VERSIONS}, got {top}"
                )
        store = self.store
        users = store.library_series(library)
        totals = store.version_totals().get(library, ())
        average_share = store.average(
            lambda agg: agg.library_users.get(library, 0) / max(agg.collected, 1)
        )
        return {
            "library": library,
            "dates": list(self._dates),
            "users": users,
            "total_user_weeks": sum(users),
            "average_share": average_share,
            "versions_observed": len(totals),
            "top_versions": [
                {
                    "version": version,
                    "site_weeks": count,
                    "series": store.version_series(library, version),
                }
                for version, count in totals[:top]
            ],
        }

    def _endpoint_cve(self, params, args) -> dict:
        advisory = self._advisories.get(params["identifier"].upper())
        if advisory is None:
            raise NotFound(f"no such advisory: {params['identifier']!r}")
        series = cve_accuracy.affected_series(self.store, advisory)
        trajectories = updates.library_trajectories(self.store, advisory.library)
        delays = {
            mode: updates.advisory_delay(
                self.store, advisory, mode, trajectories=trajectories
            )
            for mode in (MatchMode.CVE, MatchMode.TVV)
        }
        return {
            "advisory": {
                "identifier": advisory.identifier,
                "library": advisory.library,
                "stated_range": advisory.stated_range.describe(),
                "true_range": (
                    advisory.true_range.describe()
                    if advisory.true_range is not None
                    else None
                ),
                "patched_versions": list(advisory.patched_versions),
                "disclosed": (
                    advisory.disclosed.isoformat()
                    if advisory.disclosed is not None
                    else None
                ),
                "patched_on": (
                    advisory.patched_on.isoformat()
                    if advisory.patched_on is not None
                    else None
                ),
                "attack_type": advisory.attack_type.value,
                "cvss": advisory.cvss,
                "poc_available": advisory.poc_available,
                "accuracy": classify_accuracy(advisory).value,
            },
            "dates": list(series.dates),
            "stated_counts": list(series.stated_counts),
            "true_counts": list(series.true_counts),
            "average_undisclosed": series.average_undisclosed,
            "delays": {
                mode.name.lower(): {
                    "updated_sites": delays[mode].updated_sites,
                    "censored_sites": delays[mode].censored_sites,
                    "mean_delay_days": delays[mode].mean_delay_days,
                    "median_delay_days": delays[mode].median_delay_days,
                }
                for mode in (MatchMode.CVE, MatchMode.TVV)
            },
        }

    def _endpoint_scan(self, params, args) -> dict:
        raw = params["domain"]
        rank = self._parse_rank(raw)
        if rank is None or rank not in self.store.observed_domains:
            raise NotFound(f"domain never observed: {raw!r}")
        store = self.store
        matcher: VersionMatcher = store.matcher
        findings: List[dict] = []
        libraries: Dict[str, dict] = {}
        site_libs = store.trajectories.get(rank)
        for library in sorted(site_libs.keys()) if site_libs else []:
            trajectory = site_libs[library]
            current = trajectory[-1][1]
            libraries[library] = {
                "version": current or None,
                "since_week": trajectory[0][0],
                "version_changes": len(trajectory),
            }
            if current:
                stated = matcher.match(library, current, MatchMode.CVE)
                true_hits = matcher.match(library, current, MatchMode.TVV)
            else:
                stated = matcher.match_unversioned(library, MatchMode.CVE)
                true_hits = matcher.match_unversioned(library, MatchMode.TVV)
            stated_ids = {hit.identifier for hit in stated}
            for hit in true_hits:
                advisory = hit.advisory
                severity = ATTACK_SEVERITY.get(
                    advisory.attack_type, Severity.MEDIUM
                )
                if advisory.patched_versions:
                    remediation = (
                        f"update {library} to "
                        f"{advisory.patched_versions[0]} or later"
                    )
                else:
                    remediation = (
                        f"no patched release exists; replace or remove "
                        f"{library}"
                    )
                findings.append(
                    {
                        "rule": "vulnerable-library",
                        "severity": severity.name.lower(),
                        "severity_rank": int(severity),
                        "title": (
                            f"{library} {current or '(unknown version)'} "
                            f"affected by {advisory.identifier}"
                        ),
                        "library": library,
                        "version": current or None,
                        "advisory": advisory.identifier,
                        "attack_type": advisory.attack_type.value,
                        "exploitable": advisory.poc_available,
                        "undisclosed": hit.identifier not in stated_ids,
                        "remediation": remediation,
                    }
                )
        wordpress = None
        wp_trajectory = store.wp_trajectories.get(rank)
        if wp_trajectory:
            wordpress = {
                "version": wp_trajectory[-1][1] or None,
                "since_week": wp_trajectory[0][0],
                "version_changes": len(wp_trajectory),
            }
        flash_span = store.flash_spans.get(rank)
        flash = None
        if flash_span is not None:
            first, last = flash_span
            flash = {"first_week": first, "last_week": last}
            after_eol = self.calendar.week_at(last).date > FLASH_END_OF_LIFE
            severity = Severity.HIGH if after_eol else Severity.MEDIUM
            findings.append(
                {
                    "rule": "flash-after-eol" if after_eol else "flash-usage",
                    "severity": severity.name.lower(),
                    "severity_rank": int(severity),
                    "title": (
                        f"Flash content observed (weeks {first}-{last}"
                        f"{', past end-of-life' if after_eol else ''})"
                    ),
                    "library": None,
                    "version": None,
                    "advisory": None,
                    "attack_type": None,
                    "exploitable": False,
                    "undisclosed": False,
                    "remediation": "remove Flash content; no supported "
                    "browser executes it",
                }
            )
        untrusted_hosts = sorted(
            host
            for host, ranks in store.untrusted_site_sets.items()
            if rank in ranks
        )
        for host in untrusted_hosts:
            findings.append(
                {
                    "rule": "untrusted-inclusion",
                    "severity": Severity.MEDIUM.name.lower(),
                    "severity_rank": int(Severity.MEDIUM),
                    "title": f"script loaded from VCS host {host}",
                    "library": None,
                    "version": None,
                    "advisory": None,
                    "attack_type": None,
                    "exploitable": False,
                    "undisclosed": False,
                    "remediation": "serve the script from a release CDN "
                    "or first-party origin with SRI",
                }
            )
        findings.sort(
            key=lambda f: (-f["severity_rank"], f["rule"], f["title"])
        )
        summary = {severity.name.lower(): 0 for severity in Severity}
        for finding in findings:
            summary[finding["severity"]] += 1
        worst = findings[0]["severity"] if findings else "none"
        return {
            "domain": raw,
            "rank": rank,
            "tier": _rank_tier(rank),
            "libraries": libraries,
            "wordpress": wordpress,
            "flash": flash,
            "untrusted_hosts": untrusted_hosts,
            "findings": findings,
            "summary": summary,
            "worst": worst,
        }

    @staticmethod
    def _parse_rank(raw: str) -> Optional[int]:
        """Rank from a domain path param: bare digits or a site name.

        Generated hostnames are ``site``, the rank in exactly seven
        digits, then the TLD (``site0000017.com``), so both
        ``/domains/17/scan`` and the full hostname resolve.  A name
        whose seven digits run on into more (``site0000001999``) names
        no site.
        """
        if not raw.startswith("site"):
            return _ascii_int(raw)
        digits, rest = raw[4:11], raw[11:]
        if len(digits) == 7 and (not rest or rest.startswith(".")):
            return _ascii_int(digits)
        return None
