"""The virtual network: routing, failures, latency, accounting.

:class:`VirtualNetwork` connects crawler fetches to registered virtual
hosts through the simulated DNS.  A :class:`FailureModel` injects the
transport-level pathologies the paper encountered in four years of
crawling — connection failures, timeouts, and rate-limit style blocks —
deterministically: the outcome of the *n*-th request to a host at a given
clock value is a pure function of the network seed, so identical scenario
runs produce identical crawls.

The network carries a ``clock`` (the current snapshot week ordinal) that
time-varying hosts and failure schedules read.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional, Tuple

from ..errors import ConnectionFailed, DNSError, NetworkError, RequestTimeout
from .dns import Resolver
from .http import HttpRequest, HttpResponse
from .server import VirtualHost, text_response


@dataclasses.dataclass
class HostCondition:
    """Transport reliability of one host.

    Attributes:
        connect_failure_rate: Probability a connection attempt fails.
        timeout_rate: Probability a request times out after connecting.
        server_error_rate: Probability the host answers 5xx.
        latency: Base response latency in seconds.
    """

    connect_failure_rate: float = 0.0
    timeout_rate: float = 0.0
    server_error_rate: float = 0.0
    latency: float = 0.05

    def __post_init__(self) -> None:
        for name in ("connect_failure_rate", "timeout_rate", "server_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise NetworkError(f"{name} must be a probability, got {value}")


class FailureModel:
    """Deterministic per-host failure schedule.

    Args:
        seed: Root seed; combined with host, clock, and per-clock request
            ordinal to make outcome draws reproducible and order-stable.
        default: Condition applied to hosts with no explicit entry.
    """

    def __init__(self, seed: int = 0, default: Optional[HostCondition] = None) -> None:
        self.seed = seed
        self.default = default or HostCondition()
        self._conditions: Dict[str, HostCondition] = {}
        #: clock ordinal -> *additional* failure rates applied to every
        #: host while the network clock sits on that ordinal (a
        #: transport surge, e.g. injected by a fault plan).  Latency on
        #: surge entries is ignored.  Outcomes stay pure functions of
        #: (seed, host, clock, ordinal, rates), so a surge is exactly as
        #: deterministic as the base schedule.
        self.surge: Dict[int, HostCondition] = {}

    def set_condition(self, host: str, condition: HostCondition) -> None:
        self._conditions[host.lower()] = condition

    def condition_for(self, host: str) -> HostCondition:
        return self._conditions.get(host.lower(), self.default)

    def effective_rates(self, host: str, clock: int) -> Tuple[float, float, float]:
        """(connect, timeout, 5xx) rates for ``host`` at ``clock``, surge included."""
        condition = self.condition_for(host)
        extra = self.surge.get(clock)
        if extra is None:
            return (
                condition.connect_failure_rate,
                condition.timeout_rate,
                condition.server_error_rate,
            )
        return (
            min(1.0, condition.connect_failure_rate + extra.connect_failure_rate),
            min(1.0, condition.timeout_rate + extra.timeout_rate),
            min(1.0, condition.server_error_rate + extra.server_error_rate),
        )

    def _draw(self, host: str, clock: int, ordinal: int, channel: str) -> float:
        material = f"{self.seed}|{host}|{clock}|{ordinal}|{channel}".encode()
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def outcome(self, host: str, clock: int, ordinal: int) -> str:
        """One of ``"ok"``, ``"connect_failure"``, ``"timeout"``, ``"server_error"``."""
        connect_rate, timeout_rate, server_error_rate = self.effective_rates(
            host, clock
        )
        if connect_rate and (
            self._draw(host, clock, ordinal, "connect") < connect_rate
        ):
            return "connect_failure"
        if timeout_rate and (
            self._draw(host, clock, ordinal, "timeout") < timeout_rate
        ):
            return "timeout"
        if server_error_rate and (
            self._draw(host, clock, ordinal, "5xx") < server_error_rate
        ):
            return "server_error"
        return "ok"


@dataclasses.dataclass
class NetworkStats:
    """Aggregate transfer accounting."""

    requests: int = 0
    responses: int = 0
    bytes_received: int = 0
    dns_failures: int = 0
    connect_failures: int = 0
    timeouts: int = 0

    def record_response(self, response: HttpResponse) -> None:
        self.responses += 1
        self.bytes_received += response.content_length


class VirtualNetwork:
    """Routes HTTP requests to virtual hosts with failure injection."""

    def __init__(
        self,
        resolver: Optional[Resolver] = None,
        failures: Optional[FailureModel] = None,
    ) -> None:
        self.resolver = resolver or Resolver()
        self.failures = failures or FailureModel()
        self.stats = NetworkStats()
        self.clock: int = 0
        self._hosts: Dict[str, VirtualHost] = {}
        self._request_ordinals: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, hostname: str, host: VirtualHost) -> None:
        """Register a host and make its name resolvable."""
        hostname = hostname.lower()
        self._hosts[hostname] = host
        self.resolver.register(hostname)

    def detach(self, hostname: str) -> None:
        """Remove a host and retire its name."""
        hostname = hostname.lower()
        self._hosts.pop(hostname, None)
        self.resolver.retire(hostname)

    def __contains__(self, hostname: object) -> bool:
        return isinstance(hostname, str) and hostname.lower() in self._hosts

    def set_clock(self, clock: int) -> None:
        """Advance the network clock (snapshot week ordinal)."""
        self.clock = clock

    def reset_ordinals(self) -> None:
        """Forget per-(host, clock) request counters.

        After a probe pass (e.g. the crawler's accessibility prefilter),
        resetting restores the failure schedule a fresh crawl would see,
        keeping runs deterministic regardless of probing.
        """
        self._request_ordinals.clear()

    def is_pristine(self) -> bool:
        """Whether every request would draw what a fresh network draws.

        True when no request ordinal has been consumed (since
        construction or the last :meth:`reset_ordinals`) and no
        transport surge is installed, so the failure schedule is the
        one a new network of the same seed starts from.
        """
        return not self._request_ordinals and not self.failures.surge

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _next_ordinal(self, host: str) -> int:
        key = (host, self.clock)
        ordinal = self._request_ordinals.get(key, 0)
        self._request_ordinals[key] = ordinal + 1
        return ordinal

    def simulate_outcome(self, host: str) -> str:
        """Draw the next request outcome for ``host`` without serving it.

        Consumes a request ordinal exactly as :meth:`send` would, so a
        caller that already knows what the response body would be (e.g.
        the crawler's profile cache) can skip the fetch while leaving
        the failure schedule — and therefore every later request —
        byte-for-byte identical to a run that really fetched.
        """
        ordinal = self._next_ordinal(host)
        return self.failures.outcome(host, self.clock, ordinal)

    def send(self, request: HttpRequest) -> HttpResponse:
        """Route one request.

        Raises:
            DNSError: The hostname does not resolve.
            ConnectionFailed: The virtual connection could not open.
            RequestTimeout: The request exceeded its deadline.
        """
        host = request.host
        self.stats.requests += 1
        try:
            self.resolver.resolve(host)
        except DNSError:
            self.stats.dns_failures += 1
            raise

        ordinal = self._next_ordinal(host)
        outcome = self.failures.outcome(host, self.clock, ordinal)
        condition = self.failures.condition_for(host)
        if outcome == "connect_failure":
            self.stats.connect_failures += 1
            raise ConnectionFailed(f"connection to {host} failed")
        if outcome == "timeout" or condition.latency > request.timeout:
            self.stats.timeouts += 1
            raise RequestTimeout(f"request to {host} timed out")

        server = self._hosts.get(host)
        if server is None:
            # Resolvable but nothing listening: connection refused.
            self.stats.connect_failures += 1
            raise ConnectionFailed(f"nothing listening on {host}")

        if outcome == "server_error":
            response = text_response(
                "<html><body><h1>503 Service Unavailable</h1></body></html>",
                status=503,
            )
        else:
            response = server.handle(request)
        response.url = request.url
        response.elapsed = condition.latency
        self.stats.record_response(response)
        return response
