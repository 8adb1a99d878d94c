"""The query service: endpoint contracts, HTTP caching, load replay.

Golden contract tests pin every route's observable surface — status,
Content-Type, strong ETag, canonical body bytes — against payloads
recomputed independently from the store, so a formatting or ordering
regression in the serving layer cannot hide behind "the JSON still
parses".  The cache tests prove the TTL cache changes accounting but
never bytes, and the replay tests prove two same-seed load runs are
digest-identical.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import threading

import pytest

from repro.analysis import vulnerable
from repro.errors import ConfigError, ServeError
from repro.obs import validate_serve_metrics
from repro.serve import (
    ROUTES,
    LoadGenerator,
    ResponseCache,
    ServeApp,
    SimulatedServeClock,
    build_mix,
    canonical_bytes,
    make_etag,
    make_server,
)
from repro.serve.caching import CACHE_EXPIRED, CACHE_HIT, CACHE_MISS
from repro.serve.loadgen import response_digest
from repro.vulndb import MatchMode

from conftest import SERVE_MIX_SEED


def _broken_scan_app(store, database):
    """An app whose scan endpoint (never precomputed) raises ValueError."""
    app = ServeApp(store, database=database, precompute=False)

    def scan(params, args):
        raise ValueError("scan exploded")

    app._endpoint_scan = scan
    return app


def canonical(payload) -> bytes:
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def assert_contract(response, status=200):
    """Every JSON response obeys the canonical-bytes/ETag contract."""
    assert response.status == status
    assert response.header("Content-Type") == "application/json; charset=utf-8"
    body = response.body
    assert body.endswith(b"\n")
    assert canonical(json.loads(body)) == body  # canonical encoding
    if status == 200:
        expected = '"' + hashlib.sha256(body).hexdigest() + '"'
        assert response.etag == expected


@pytest.fixture(scope="module")
def app(store, database):
    """A fresh in-memory app per module so counters start at zero."""
    return ServeApp(store, database=database)


class TestEndpointContracts:
    def test_index_lists_every_route(self, app):
        response = app.get("/")
        assert_contract(response)
        payload = response.json()
        templates = sorted(r.template for r in ROUTES if r.segments)
        assert payload["endpoints"] == templates
        assert payload["service"] == "repro-serve"

    def test_healthz(self, app, store, database):
        response = app.get("/healthz")
        assert_contract(response)
        payload = response.json()
        assert payload["status"] == "ok"
        assert payload["observed_domains"] == len(store.observed_domains)
        assert payload["total_observations"] == store.total_observations
        assert payload["weeks"] == len(store.calendar.weeks)
        assert payload["crawl_metrics_loaded"] is False

    def test_report_matches_analysis(self, app, store):
        response = app.get("/report")
        assert_contract(response)
        payload = response.json()
        prev = vulnerable.prevalence(store)
        assert payload["vulnerable_share"]["cve"] == prev.average_share[MatchMode.CVE]
        assert payload["vulnerable_share"]["tvv"] == prev.average_share[MatchMode.TVV]
        assert payload["study"]["total_observations"] == store.total_observations
        assert set(payload["update_delays"]) == {"cve", "tvv"}

    def test_week_overview(self, app, store):
        agg = store.ordered_weeks()[0]
        response = app.get(f"/weeks/{agg.week.ordinal}/overview")
        assert_contract(response)
        payload = response.json()
        assert payload["ordinal"] == agg.week.ordinal
        assert payload["date"] == agg.week.date.isoformat()
        assert payload["collected"] == agg.collected
        assert payload["vulnerable_sites"]["cve"] == agg.vulnerable_sites[MatchMode.CVE]
        top = payload["top_libraries"]
        assert top == sorted(top, key=lambda e: (-e["sites"], e["library"]))
        assert len(top) <= 10

    def test_library_trend(self, app, store):
        response = app.get("/libraries/jquery/trend")
        assert_contract(response)
        payload = response.json()
        assert payload["library"] == "jquery"
        assert payload["users"] == store.library_series("jquery")
        assert payload["total_user_weeks"] == sum(payload["users"])
        assert len(payload["dates"]) == len(payload["users"])
        assert len(payload["top_versions"]) <= 5
        counts = [v["site_weeks"] for v in payload["top_versions"]]
        assert counts == sorted(counts, reverse=True)
        for entry in payload["top_versions"]:
            assert entry["series"] == store.version_series(
                "jquery", entry["version"]
            )

    def test_trend_top_parameter(self, app):
        response = app.get("/libraries/jquery/trend?top=2")
        assert_contract(response)
        assert len(response.json()["top_versions"]) <= 2

    def test_cve(self, app, database):
        advisory = sorted(database, key=lambda a: a.identifier)[0]
        response = app.get(f"/cves/{advisory.identifier}")
        assert_contract(response)
        payload = response.json()
        assert payload["advisory"]["identifier"] == advisory.identifier
        assert payload["advisory"]["library"] == advisory.library
        assert len(payload["dates"]) == len(payload["stated_counts"])
        assert len(payload["dates"]) == len(payload["true_counts"])
        # Case-insensitive lookup serves the same bytes.
        lowered = app.get(f"/cves/{advisory.identifier.lower()}")
        assert lowered.body == response.body

    def test_domain_scan(self, app, store):
        rank = sorted(store.observed_domains)[0]
        response = app.get(f"/domains/{rank}/scan")
        assert_contract(response)
        payload = response.json()
        assert payload["rank"] == rank
        ranks = [f["severity_rank"] for f in payload["findings"]]
        assert ranks == sorted(ranks, reverse=True)
        assert sum(payload["summary"].values()) == len(payload["findings"])
        if payload["findings"]:
            assert payload["worst"] == payload["findings"][0]["severity"]
        else:
            assert payload["worst"] == "none"

    def test_domain_scan_by_hostname(self, app, store):
        rank = sorted(store.observed_domains)[0]
        named = app.get(f"/domains/site{rank:07d}.example.com/scan")
        numeric = app.get(f"/domains/{rank}/scan")
        assert named.status == 200
        # Bodies differ only in the echoed "domain" key.
        by_name = named.json()
        by_rank = numeric.json()
        by_name.pop("domain")
        by_rank.pop("domain")
        assert by_name == by_rank

    def test_metrics_validates_against_schema(self, app):
        response = app.get("/metrics")
        assert_contract(response)
        assert validate_serve_metrics(response.json()) == []

    def test_every_route_has_a_contract_test(self):
        """Meta-test: the suite covers the full routing table."""
        tested = {
            "index",
            "healthz",
            "metrics",
            "crawl_metrics",
            "report",
            "week",
            "trend",
            "cve",
            "scan",
        }
        assert {route.name for route in ROUTES} == tested


class TestErrors:
    def assert_error(self, response, status, fragment=""):
        assert response.status == status
        assert response.header("Content-Type") == (
            "application/json; charset=utf-8"
        )
        assert response.header("Cache-Control") == "no-store"
        payload = response.json()["error"]
        assert payload["status"] == status
        assert fragment in payload["message"]
        assert canonical(response.json()) == response.body

    def test_unknown_path(self, app):
        self.assert_error(app.get("/no-such-endpoint"), 404, "no such endpoint")

    def test_unknown_domain(self, app, store):
        rank = sorted(store.observed_domains)[0]
        for target in (
            "/domains/9999999/scan",
            # Not ASCII digits: a superscript two (int() rejects it) and
            # an Arabic-Indic one (int() reads it as 1).
            "/domains/%C2%B2/scan",
            "/domains/%D9%A1/scan",
            "/domains/site%C2%B2/scan",
            # Seven digits then more digits: no generated name.
            f"/domains/site{rank:07d}999/scan",
            # More digits than int() converts.
            "/domains/" + "1" * 5000 + "/scan",
        ):
            self.assert_error(app.get(target), 404, "never observed")

    def test_unknown_cve(self, app):
        self.assert_error(app.get("/cves/CVE-0000-00000"), 404, "advisory")

    def test_unknown_library(self, app):
        self.assert_error(
            app.get("/libraries/no-such-library/trend"), 404, "never observed"
        )

    def test_unknown_week(self, app, store):
        beyond = len(store.calendar.weeks) + 5
        self.assert_error(app.get(f"/weeks/{beyond}/overview"), 404, "week")
        self.assert_error(app.get("/weeks/later/overview"), 404, "week")
        self.assert_error(app.get("/weeks/%C2%B2/overview"), 404, "week")
        self.assert_error(app.get("/weeks/%D9%A1/overview"), 404, "week")
        self.assert_error(app.get(f"/weeks/{'1' * 5000}/overview"), 404, "week")

    def test_crawl_metrics_absent(self, app):
        self.assert_error(app.get("/crawl-metrics"), 404, "--crawl-metrics")

    def test_method_not_allowed(self, app):
        for method in ("POST", "PUT", "DELETE"):
            response = app.handle(method, "/report")
            self.assert_error(response, 405, "GET")
            assert response.header("Allow") == "GET"

    def test_malformed_query(self, app):
        self.assert_error(app.get("/libraries/jquery/trend?top"), 400, "query")
        self.assert_error(
            app.get("/libraries/jquery/trend?bogus=1"), 400, "bogus"
        )
        self.assert_error(
            app.get("/libraries/jquery/trend?top=1&top=2"), 400, "top"
        )

    def test_bad_top_values(self, app):
        for value in ("never", "%D9%A1", "%C2%B2", "1_0", "+3", "%203", "1" * 5000):
            self.assert_error(
                app.get(f"/libraries/jquery/trend?top={value}"), 400, "integer"
            )
        self.assert_error(
            app.get("/libraries/jquery/trend?top=0"), 400, "1..50"
        )
        self.assert_error(
            app.get("/libraries/jquery/trend?top=51"), 400, "1..50"
        )

    def test_query_on_queryless_route(self, app):
        self.assert_error(app.get("/report?x=1"), 400, "x")

    def test_errors_never_cached(self, store):
        app = ServeApp(store, precompute=False)
        app.get("/cves/CVE-0000-00000")
        assert len(app.cache) == 0

    def test_unexpected_endpoint_error_is_a_typed_500(self, store, database):
        """An endpoint that raises an untyped exception still gets the
        typed 500 body: ``handle`` never raises, caches nothing and
        counts the response."""
        app = _broken_scan_app(store, database)
        rank = sorted(store.observed_domains)[0]
        response = app.get(f"/domains/{rank}/scan")
        self.assert_error(response, 500, "internal error: scan exploded")
        assert response.route == "scan"
        assert len(app.cache) == 0
        assert app.obs.counter("serve.status.500") == 1
        assert app.get("/healthz").status == 200


class TestHttpCaching:
    def test_if_none_match_304(self, app):
        first = app.get("/report")
        revalidated = app.get("/report", if_none_match=first.etag)
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.etag == first.etag
        assert revalidated.header("Content-Type") is None

    def test_stale_etag_serves_full_body(self, app):
        first = app.get("/report")
        response = app.get("/report", if_none_match='"stale"')
        assert response.status == 200
        assert response.body == first.body

    def test_ttl_expiry_reserves_identical_bytes(self, store):
        clock = SimulatedServeClock()
        app = ServeApp(
            store, cache_ttl=0.001, clock=clock, precompute=False
        )
        first = app.get("/report")
        hit = app.get("/report")
        clock.advance_us(2_000)
        refreshed = app.get("/report")
        assert (first.cache, hit.cache) == (CACHE_MISS, CACHE_HIT)
        assert refreshed.cache == CACHE_EXPIRED
        assert refreshed.body == first.body
        assert refreshed.etag == first.etag

    def test_cache_disabled_is_bypass(self, store):
        app = ServeApp(store, cache_ttl=0.0, precompute=False)
        response = app.get("/report")
        assert response.cache == "bypass"
        assert response.header("Cache-Control") == "no-cache"
        assert len(app.cache) == 0

    def test_uncacheable_routes_bypass(self, store):
        app = ServeApp(store, cache_ttl=60.0, precompute=False)
        for target in ("/healthz", "/metrics"):
            assert app.get(target).cache == "bypass", target
        assert len(app.cache) == 0

    def test_cache_control_reflects_ttl(self, store):
        app = ServeApp(store, cache_ttl=60.0, precompute=False)
        assert app.get("/report").header("Cache-Control") == "max-age=60"

    def test_precomputed_equals_cold(self, store, database):
        hot = ServeApp(store, database=database, precompute=True)
        cold = ServeApp(store, database=database, precompute=False)
        rank = sorted(store.observed_domains)[0]
        agg = store.ordered_weeks()[0]
        for target in (
            "/",
            "/report",
            f"/weeks/{agg.week.ordinal}/overview",
            "/libraries/jquery/trend",
            f"/domains/{rank}/scan",
        ):
            assert hot.get(target).body == cold.get(target).body, target

    def test_fifo_eviction(self):
        cache = ResponseCache(ttl_us=10**9, max_entries=2)
        cache.put("a", b"1", "e1", now_us=0)
        cache.put("b", b"2", "e2", now_us=1)
        # Touching "a" must NOT save it: eviction order is insertion
        # order, so accounting stays independent of the read pattern.
        assert cache.get("a", now_us=2)[1] == CACHE_HIT
        evicted = cache.put("c", b"3", "e3", now_us=3)
        assert evicted == 1
        assert cache.get("a", now_us=4)[0] is None
        assert cache.get("b", now_us=4)[0] is not None


class TestReplayDeterminism:
    def test_same_seed_same_digests(self, store, database, request_mix):
        first = LoadGenerator(
            ServeApp(store, database=database), request_mix
        ).run(250)
        second = LoadGenerator(
            ServeApp(store, database=database), request_mix
        ).run(250)
        assert first.digests == second.digests
        assert first.digest == second.digest
        assert first.status_counts == second.status_counts
        assert first.hit_ratio == second.hit_ratio

    def test_same_seed_same_metrics(self, store, database, request_mix):
        apps = [ServeApp(store, database=database) for _ in range(2)]
        for app in apps:
            LoadGenerator(app, request_mix).run(250)
        assert (
            apps[0].canonical_metrics_json() == apps[1].canonical_metrics_json()
        )

    def test_different_seed_different_sequence(self, store, database):
        mixes = [build_mix(store, database, seed=s) for s in (1, 2)]
        runs = [
            LoadGenerator(ServeApp(store, database=database), mix).run(150)
            for mix in mixes
        ]
        assert runs[0].digests != runs[1].digests

    def test_replay_covers_error_paths(self, store, database, request_mix):
        result = LoadGenerator(
            ServeApp(store, database=database), request_mix
        ).run(400)
        assert result.status_counts.get(404, 0) > 0
        assert result.status_counts.get(400, 0) > 0
        assert result.not_modified > 0
        assert result.requests == 400

    def test_cache_on_off_identical_bytes(self, store, database):
        mix = build_mix(
            store, database, seed=SERVE_MIX_SEED, include_metrics=False
        )
        cached = LoadGenerator(
            ServeApp(store, database=database), mix
        ).run(250)
        uncached = LoadGenerator(
            ServeApp(store, database=database, cache_ttl=0.0), mix
        ).run(250)
        assert cached.digests == uncached.digests
        assert uncached.cache_hits == 0

    def test_result_to_dict_roundtrips_json(self, store, database, request_mix):
        result = LoadGenerator(
            ServeApp(store, database=database), request_mix
        ).run(50)
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["digest"] == result.digest


class TestServedArtifacts:
    def test_from_files_serves_crawl_metrics(self, serve_app, study):
        response = serve_app.get("/crawl-metrics")
        assert_contract(response)
        expected = json.loads(study.crawl_report.metrics.canonical_json())
        assert response.json() == expected
        assert serve_app.get("/healthz").json()["crawl_metrics_loaded"] is True

    def test_from_files_matches_in_memory(self, serve_app, store, database, study):
        """Store provenance (disk round-trip) cannot change served bytes."""
        mix = build_mix(
            store, database, seed=SERVE_MIX_SEED, include_metrics=False
        )
        crawl_metrics = json.loads(study.crawl_report.metrics.canonical_json())
        from_disk = LoadGenerator(serve_app, mix).run(200)
        in_memory = LoadGenerator(
            ServeApp(store, database=database, crawl_metrics=crawl_metrics),
            mix,
        ).run(200)
        assert from_disk.digests == in_memory.digests

    def test_from_files_rejects_bad_metrics(self, served_run, tmp_path):
        store_path, _ = served_run
        bad = tmp_path / "bad-metrics.json"
        bad.write_text("{not json")
        with pytest.raises(ServeError):
            ServeApp.from_files(store_path, bad)
        bad.write_text('{"format": 999}')
        with pytest.raises(ServeError):
            ServeApp.from_files(store_path, bad)


    def test_from_files_rejects_nested_metrics(self, served_run, tmp_path):
        store_path, _ = served_run
        nested = tmp_path / "nested-metrics.json"
        nested.write_bytes(b"[" * 200_000)
        with pytest.raises(ServeError, match="cannot read crawl metrics"):
            ServeApp.from_files(store_path, nested)


class TestHttpServer:
    @pytest.fixture()
    def server(self, serve_app):
        server = make_server(serve_app)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def test_round_trip_over_sockets(self, server, serve_app):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            assert body == serve_app.get("/healthz").body
            etag = response.getheader("ETag")
            assert etag == make_etag(body)

            conn.request("GET", "/healthz", headers={"If-None-Match": etag})
            revalidated = conn.getresponse()
            assert revalidated.status == 304
            assert revalidated.read() == b""

            conn.request("POST", "/report")
            rejected = conn.getresponse()
            rejected.read()
            assert rejected.status == 405
            assert rejected.getheader("Allow") == "GET"
        finally:
            conn.close()

    def test_non_ascii_digits_answer_over_sockets(self, server, serve_app):
        """A path parameter ``int()`` cannot read gets the route's 404,
        not a dropped connection."""
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/weeks/%C2%B2/overview")
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 404
        assert body == serve_app.get("/weeks/%C2%B2/overview").body

    def test_unexpected_endpoint_error_keeps_the_connection(
        self, store, database
    ):
        """An endpoint's untyped exception reaches the client as the
        typed 500, and the same keep-alive connection serves on."""
        app = _broken_scan_app(store, database)
        server = make_server(app)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        rank = sorted(store.observed_domains)[0]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", f"/domains/{rank}/scan")
            failed = conn.getresponse()
            failed_body = failed.read()
            conn.request("GET", "/healthz")
            healthy = conn.getresponse()
            healthy_body = healthy.read()
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert failed.status == 500
        assert failed_body == app.get(f"/domains/{rank}/scan").body
        assert healthy.status == 200
        assert json.loads(healthy_body)["status"] == "ok"

    def test_socket_replay_equals_in_process(self, store, database, request_mix):
        """The transport cannot change a byte: the shared mix replayed
        over one keep-alive connection, revalidating as the in-process
        harness does, gets the in-process replay's responses one by one."""
        requests = 120
        app = ServeApp(store, database=database)
        server = make_server(app)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        sampler = LoadGenerator(app, request_mix)  # samples; never calls the app
        etags = {}
        digests = []
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(requests):
                target, conditional = sampler.sample()
                known = etags.get(target)
                headers = {"If-None-Match": known} if known and conditional else {}
                conn.request("GET", target, headers=headers)
                response = conn.getresponse()
                body = response.read()
                etag = response.getheader("ETag")
                if response.status == 200 and etag:
                    etags[target] = etag
                digests.append(response_digest(target, response.status, etag, body))
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        in_process = LoadGenerator(
            ServeApp(store, database=database), request_mix
        ).run(requests)
        assert in_process.not_modified > 0  # the replay revalidates
        assert tuple(digests) == in_process.digests

    def test_accepted_socket_disables_nagle(self, serve_app):
        """The body write must not wait behind Nagle for the peer's ACK."""
        server = make_server(serve_app)
        nodelay = []

        class Probe(server.RequestHandlerClass):
            def _dispatch(self, method):
                nodelay.append(
                    self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
                )
                super()._dispatch(method)

        server.RequestHandlerClass = Probe
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.read() == serve_app.get("/healthz").body
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(nodelay) == 1 and nodelay[0] != 0


class TestServeOptions:
    def test_defaults(self):
        from repro.options import ServeOptions

        options = ServeOptions()
        assert options.port == 8737
        assert options.cache_ttl == 60.0
        assert options.top_versions == 5

    def test_validation(self):
        from repro.options import ServeOptions

        with pytest.raises(ConfigError):
            ServeOptions(port=99999)
        with pytest.raises(ConfigError):
            ServeOptions(cache_ttl=-1.0)
        with pytest.raises(ConfigError):
            ServeOptions(top_versions=0)

    def test_cli_flags_round_trip(self):
        import argparse

        from repro.options import (
            add_serve_arguments,
            serve_options_from_namespace,
        )

        parser = argparse.ArgumentParser()
        add_serve_arguments(parser)
        args = parser.parse_args(
            ["--store", "run/store.bin", "--port", "9000", "--cache-ttl", "5"]
        )
        options = serve_options_from_namespace(args)
        assert options.store == "run/store.bin"
        assert options.port == 9000
        assert options.cache_ttl == 5.0

    def test_cli_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--store", "run/store.bin"]
        )
        assert args.func.__name__ == "_cmd_serve"


def test_canonical_bytes_helper():
    body = canonical_bytes({"b": 1, "a": [2, 3]})
    assert body == b'{"a":[2,3],"b":1}\n'
    assert make_etag(body) == '"' + hashlib.sha256(body).hexdigest() + '"'
