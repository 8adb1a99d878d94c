"""Socket layer: `ThreadingHTTPServer` around a :class:`ServeApp`.

The handler is a thin adapter — parse the request line, call
``app.handle``, write the response verbatim.  All routing, caching,
validation, and error shaping lives in the app, which is why the test
suite never needs a socket and the socket path needs almost no tests.
"""

from __future__ import annotations

import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from ..errors import ConfigError, ReproError
from .app import ServeApp
from .caching import WallServeClock


class ServeHandler(BaseHTTPRequestHandler):
    """Adapter from http.server to ``ServeApp.handle``."""

    #: Bound by :func:`make_server` via a subclass attribute.
    app: ServeApp = None
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: ``end_headers`` flushes the headers, so the body is a second
    #: small write on a keep-alive connection; with Nagle's algorithm on,
    #: that write waits for the client's delayed ACK (about 40 ms).
    disable_nagle_algorithm = True

    def _dispatch(self, method: str) -> None:
        parts = urlsplit(self.path)
        headers = {
            name: value
            for name, value in self.headers.items()
            if name.lower() == "if-none-match"
        }
        response = self.app.handle(method, parts.path, parts.query, headers)
        self.send_response(response.status)
        for name, value in response.headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        if method != "HEAD" and response.body:
            self.wfile.write(response.body)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def do_HEAD(self) -> None:  # noqa: N802
        self._dispatch("HEAD")

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass  # per-request logging lives in the app's instruments


def make_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-run threaded server bound to ``(host, port)``.

    Port 0 binds an ephemeral port (read it back from
    ``server.server_address``).  The app's internal lock serializes
    request handling, so the thread-per-connection model is safe.
    """
    handler = type("BoundServeHandler", (ServeHandler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def run_server(options) -> int:
    """CLI entry: load the store, bind, serve until interrupted.

    Args:
        options: A validated :class:`~repro.options.ServeOptions`.

    Returns:
        Process exit code (2 on configuration/store errors).
    """
    if not options.store:
        print("error: serve requires --store FILE", file=sys.stderr)
        return 2
    try:
        app = ServeApp.from_files(
            options.store,
            options.crawl_metrics,
            cache_ttl=options.cache_ttl,
            cache_entries=options.cache_entries,
            top_versions=options.top_versions,
            clock=WallServeClock(),
        )
    except (ConfigError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        server = make_server(app, options.host, options.port)
    except OSError as exc:
        print(
            f"error: cannot bind {options.host}:{options.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    # Graceful shutdown on SIGTERM (the signal process managers send):
    # stop accepting, drain in-flight requests, close the socket, exit
    # 0 — same path Ctrl-C takes.  ``server.shutdown`` blocks until the
    # serve loop exits, so the handler must call it from another thread.
    # Installed before the banner, which a manager may answer at once.
    previous = None
    if threading.current_thread() is threading.main_thread():

        def _terminate(signum, frame):  # noqa: ARG001 - signal signature
            print("repro-serve: SIGTERM received, draining", file=sys.stderr)
            threading.Thread(target=server.shutdown, daemon=True).start()

        previous = signal.signal(signal.SIGTERM, _terminate)
    host, port = server.server_address[:2]
    try:
        print(
            f"repro-serve: {len(app.store.observed_domains):,} domains x "
            f"{len(app.calendar.weeks)} weeks, "
            f"{len(app._hot):,} hot aggregates precomputed; "
            f"listening on http://{host}:{port}/",
            file=sys.stderr,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 0
