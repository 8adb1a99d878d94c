"""Deterministic load harness: a seeded Zipf request mix, replayed.

The service's proof is replayability: the same seed against the same
dataset must produce the identical response-byte sequence, cache
hit/miss sequence, and latency histogram.  This module builds a request
*universe* from the store itself (every endpoint family, plus known-404
and known-400 probes), ranks it by a seeded shuffle, samples it under a
Zipf(s) popularity law with ``random.Random(seed)``, and replays the
stream through :meth:`ServeApp.handle` in-process — no sockets, no
threads, no wall clock.

Determinism tiers (documented in the README):

* **Response bytes** are a pure function of the dataset — identical
  across platforms and store provenance.
* **The sampled request sequence** (and therefore the digests, hit
  ratios, and latency histograms) is deterministic per ``(seed,
  platform)``: Zipf weights use float ``**``, whose last ulp may differ
  across C libraries.  CI compares two same-seed replays on one
  machine, which is exact.

Conditional revalidation is part of the mix: the generator remembers
the last ETag it saw per target and re-requests with ``If-None-Match``
at a seeded rate, exercising the 304 path deterministically.
"""

from __future__ import annotations

import dataclasses
import hashlib
from bisect import bisect_right
from random import Random
from typing import Dict, List, Optional, Tuple

from .app import ServeApp
from .caching import CACHE_EXPIRED, CACHE_HIT, CACHE_MISS

#: Default Zipf exponent; ~1 is the classic web-popularity skew.
DEFAULT_EXPONENT = 1.1
#: Probability a repeat request revalidates with If-None-Match.
DEFAULT_CONDITIONAL_RATE = 0.35


@dataclasses.dataclass(frozen=True)
class RequestMix:
    """A replayable request distribution: targets + sampling law."""

    seed: int
    targets: Tuple[str, ...]
    exponent: float = DEFAULT_EXPONENT
    conditional_rate: float = DEFAULT_CONDITIONAL_RATE

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("a request mix needs at least one target")


def build_mix(
    store,
    database,
    seed: int,
    *,
    exponent: float = DEFAULT_EXPONENT,
    conditional_rate: float = DEFAULT_CONDITIONAL_RATE,
    include_metrics: bool = True,
    max_weeks: int = 24,
    max_libraries: int = 12,
    max_domains: int = 24,
) -> RequestMix:
    """A request mix spanning every endpoint family of ``store``.

    The universe is derived deterministically from the dataset (sorted
    libraries by usage, sorted observed ranks, sorted advisory ids,
    evenly-strided weeks) plus fixed error probes, so two stores with
    identical datasets produce the identical mix.

    Args:
        include_metrics: Drop ``/metrics`` from the universe when the
            caller intends to byte-compare replays across *different
            serving configurations* (e.g. cache on vs off): the metrics
            document legitimately reflects cache counters.
    """
    targets: List[str] = ["/", "/healthz", "/report", "/crawl-metrics"]
    if include_metrics:
        targets.append("/metrics")

    ordinals = sorted(week.ordinal for week in store.calendar)
    stride = max(1, len(ordinals) // max(max_weeks, 1))
    for ordinal in ordinals[::stride][:max_weeks]:
        targets.append(f"/weeks/{ordinal}/overview")

    library_totals = {
        library: sum(count for _version, count in versions)
        for library, versions in store.version_totals().items()
    }
    ranked_libraries = sorted(
        library_totals.items(), key=lambda kv: (-kv[1], kv[0])
    )
    for library, _count in ranked_libraries[:max_libraries]:
        targets.append(f"/libraries/{library}/trend")
    if ranked_libraries:
        targets.append(f"/libraries/{ranked_libraries[0][0]}/trend?top=3")

    for advisory in sorted(a.identifier for a in database):
        targets.append(f"/cves/{advisory}")

    observed = sorted(store.observed_domains)
    stride = max(1, len(observed) // max(max_domains, 1))
    for rank in observed[::stride][:max_domains]:
        targets.append(f"/domains/{rank}/scan")

    # Known-failure probes: routing 404s, unknown resources, a malformed
    # query.  Error paths must be as replayable as success paths.
    targets.extend(
        (
            "/no-such-endpoint",
            "/cves/CVE-0000-00000",
            "/libraries/no-such-library/trend",
            "/domains/9999999/scan",
            "/libraries/jquery/trend?top=never",
        )
    )
    return RequestMix(
        seed=seed,
        targets=tuple(targets),
        exponent=exponent,
        conditional_rate=conditional_rate,
    )


@dataclasses.dataclass(frozen=True)
class ReplayResult:
    """Everything one replay produced, in comparable form.

    ``digest`` is the rolling sha256 over the per-response digests;
    two replays are byte-identical iff their digests match.  Each
    per-response digest covers ``method target|status|etag|body``.
    """

    requests: int
    digest: str
    digests: Tuple[str, ...]
    status_counts: Dict[int, int]
    cache_hits: int
    cache_misses: int
    cache_expired: int
    not_modified: int
    bytes_served: int

    @property
    def hit_ratio(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "digest": self.digest,
            "status_counts": {
                str(status): count
                for status, count in sorted(self.status_counts.items())
            },
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_expired": self.cache_expired,
            "not_modified": self.not_modified,
            "bytes_served": self.bytes_served,
        }


def response_digest(target: str, status: int, etag: Optional[str], body: bytes) -> str:
    """The canonical per-response digest the harness compares."""
    prefix = f"GET {target}|{status}|{etag or '-'}|".encode("utf-8")
    return hashlib.sha256(prefix + body).hexdigest()


class LoadGenerator:
    """Replays a :class:`RequestMix` through an app, in-process.

    One generator instance is one replay stream: the RNG state advances
    with every request, so two ``run`` calls continue a single sequence.
    Build a fresh generator (same seed) to repeat a sequence exactly.
    """

    def __init__(self, app: ServeApp, mix: RequestMix) -> None:
        self.app = app
        self.mix = mix
        self._rng = Random(mix.seed)
        # Popularity ranking: a seeded shuffle decides *which* target is
        # hot; the Zipf law decides *how* hot.  Draw order is fixed —
        # shuffle, then per-request (pick, conditional) pairs.
        order = list(mix.targets)
        self._rng.shuffle(order)
        self._targets = order
        cumulative: List[float] = []
        total = 0.0
        for index in range(len(order)):
            total += 1.0 / ((index + 1) ** mix.exponent)
            cumulative.append(total)
        self._cumulative = cumulative
        self._total_weight = total
        self._etags: Dict[str, str] = {}

    def sample(self) -> Tuple[str, bool]:
        """The next ``(target, wants_conditional)`` draw.

        Exactly two RNG draws per call, in fixed order (popularity
        point, then the conditional coin), so any client replaying the
        stream — in-process or over sockets — sees the same sequence.
        """
        point = self._rng.random() * self._total_weight
        index = min(
            bisect_right(self._cumulative, point), len(self._targets) - 1
        )
        conditional = self._rng.random() < self.mix.conditional_rate
        return self._targets[index], conditional

    def run(self, requests: int) -> ReplayResult:
        """Replay ``requests`` sampled requests; returns the evidence."""
        app = self.app
        digests: List[str] = []
        rolling = hashlib.sha256()
        status_counts: Dict[int, int] = {}
        hits = misses = expired = not_modified = 0
        bytes_served = 0
        for _ in range(requests):
            target, conditional = self.sample()
            if_none_match = None
            known = self._etags.get(target)
            if known is not None and conditional:
                if_none_match = known
            response = app.get(target, if_none_match=if_none_match)
            if response.status == 200 and response.etag:
                self._etags[target] = response.etag
            digest = response_digest(
                target, response.status, response.etag, response.body
            )
            digests.append(digest)
            rolling.update(digest.encode("ascii"))
            status_counts[response.status] = (
                status_counts.get(response.status, 0) + 1
            )
            if response.cache == CACHE_HIT:
                hits += 1
            elif response.cache == CACHE_MISS:
                misses += 1
            elif response.cache == CACHE_EXPIRED:
                expired += 1
                misses += 1
            if response.status == 304:
                not_modified += 1
            bytes_served += len(response.body)
        return ReplayResult(
            requests=requests,
            digest=rolling.hexdigest(),
            digests=tuple(digests),
            status_counts=status_counts,
            cache_hits=hits,
            cache_misses=misses,
            cache_expired=expired,
            not_modified=not_modified,
            bytes_served=bytes_served,
        )
