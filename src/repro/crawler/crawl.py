"""The main weekly crawl loop (Section 4.1).

Two operating modes exercise the same downstream pipeline:

* ``full`` — honest end-to-end path: HTTP GET each landing page over the
  virtual network, fingerprint the returned HTML.  This is what the
  paper's crawler did.
* ``manifest`` — fast path for large populations: read the ecosystem's
  ground-truth manifest and *render + fingerprint nothing*, producing the
  identical :class:`PageProfile` the full path would (an equivalence that
  the test suite verifies page-by-page on samples).  Reachability and
  the accessibility filter still apply.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import CrawlError
from ..obs import (
    LIBRARIES_PER_PAGE_EDGES,
    SCRIPTS_PER_PAGE_EDGES,
    Instruments,
)
from ..fingerprint import (
    CdnCatalog,
    FingerprintEngine,
    FlashEmbed,
    LibraryDetection,
    PageProfile,
    ScriptAccess,
    default_cdn_catalog,
)
from ..options import RunOptions
from ..runtime.backends import describe_backend, get_backend
from ..runtime.dispatch import backoff_delay, dispatch_shards
from ..runtime.ledger import JournalingRunner, RunLedger, RunManifest
from ..runtime.sharding import plan_shards
from ..runtime.worker import ShardTask, shard_coverage_key
from ..timeline import Week
from ..vulndb import VersionMatcher, default_database
from ..webgen.domains import Domain, Reachability
from ..webgen.ecosystem import WebEcosystem
from ..webgen.html import script_url
from ..webgen.site import SiteManifest
from .cache import ProfileCache, site_state_key
from .profilestore import ProfileStore
from .fetch import Fetcher, FetchOutcome
from .filtering import AccessibilityFilter, FilterReport
from .store import ObservationStore


@dataclasses.dataclass
class CrawlReport:
    """Summary of one crawl run.

    All counters live in :attr:`metrics` — one
    :class:`~repro.obs.Instruments` folded exactly from the per-shard
    instruments every worker captured (see :mod:`repro.obs` for the
    determinism tiers).  The former ad-hoc counter fields remain as
    read-only properties, so existing callers keep working unchanged.

    A *degraded* run — one where shards exhausted their retries and were
    dropped instead of aborting the crawl — is recorded rather than
    hidden: ``dropped_shards``/``dropped_cells`` say how much of the
    ``weeks × domains`` grid is missing, ``shard_errors`` says why, and
    the accounting is deterministic per (scenario seed, fault plan).
    """

    weeks_crawled: int
    domains_crawled: int
    filter_report: Optional[FilterReport]
    #: The run's folded telemetry.  Equality ignores the
    #: non-deterministic ``process`` section, so two same-seed reports
    #: compare equal across backends and kill/resume.
    metrics: Instruments = dataclasses.field(default_factory=Instruments)
    #: One ``"<shard identity>: <error>"`` line per dropped shard,
    #: ordered by shard index.  Kept out of the metrics object: the
    #: identity strings name the live backend, which the canonical
    #: document must not (span events carry the error *kind* instead).
    shard_errors: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Back-compat counter views over the metrics object
    # ------------------------------------------------------------------
    @property
    def pages_collected(self) -> int:
        return self.metrics.counter("crawl.pages")

    @property
    def fetch_failures(self) -> int:
        return self.metrics.counter("crawl.fetch_failures")

    @property
    def cache_hits(self) -> int:
        """Profile-cache lookups that reused a previous week's profile."""
        return self.metrics.counter("cache.hits")

    @property
    def cache_misses(self) -> int:
        """Profile-cache lookups that had to (re)build the profile."""
        return self.metrics.counter("cache.misses")

    @property
    def dropped_shards(self) -> int:
        """Shards dropped after exhausting their retries."""
        return self.metrics.counter("dispatch.dropped_shards")

    @property
    def dropped_cells(self) -> int:
        """``weeks × domains`` grid cells the dropped shards covered."""
        return self.metrics.counter("dispatch.dropped_cells")

    @property
    def shard_retries(self) -> int:
        """Shard re-dispatch attempts across the whole run."""
        return self.metrics.counter("dispatch.retries")

    @property
    def backoff_seconds(self) -> float:
        """Total simulated backoff wait (seconds; never slept for real)."""
        return self.metrics.counter("dispatch.backoff_us") / 1_000_000

    @property
    def shards_replayed(self) -> int:
        """Shards replayed from the journal (checkpointed runs only)."""
        return int(self.metrics.process.get("ledger.shards_replayed", 0))

    @property
    def shards_reexecuted(self) -> int:
        """Shards executed live by this run (on a resumed run: the
        missing ones; on a fresh checkpointed run: all of them)."""
        return int(self.metrics.process.get("ledger.shards_reexecuted", 0))

    @property
    def entries_quarantined(self) -> int:
        """Journal entries that failed validation and were quarantined."""
        return int(self.metrics.process.get("ledger.entries_quarantined", 0))

    @property
    def bytes_journaled(self) -> int:
        """Bytes of journal entries written by this run."""
        return int(self.metrics.process.get("journal.bytes_written", 0))

    @property
    def average_weekly_collected(self) -> float:
        if self.weeks_crawled == 0:
            return 0.0
        return self.pages_collected / self.weeks_crawled

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 when cache disabled)."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def degraded(self) -> bool:
        """Whether any part of the crawl grid was dropped."""
        return self.dropped_shards > 0


def profile_from_manifest(
    manifest: SiteManifest, cdn_catalog: CdnCatalog
) -> PageProfile:
    """Build the PageProfile the engine would produce, from ground truth.

    This mirrors the fingerprint engine's semantics exactly; the test
    suite asserts equality against the full render + fingerprint path.
    Only a :class:`CdnCatalog` is needed (delivery classification), so
    manifest-mode crawls never construct a fingerprint engine.
    """
    detections: List[LibraryDetection] = []
    for inclusion in manifest.libraries:
        url = script_url(inclusion, manifest.wordpress_version)
        detections.append(
            LibraryDetection(
                library=inclusion.library,
                version=inclusion.version if inclusion.version_visible else None,
                source_url=url,
                host=inclusion.host or manifest.domain.name,
                external=inclusion.external,
                cdn_host=(
                    cdn_catalog.match(inclusion.host)
                    if inclusion.external
                    else None
                ),
                untrusted_host=False,
                has_integrity=inclusion.integrity,
                crossorigin=inclusion.crossorigin,
                evidence="manifest",
            )
        )

    # Vendored bundle ingredients: the engine's inline-banner channel —
    # one detection per chunk, skipped when the library was already seen
    # via a URL, never counted as a <script src>.
    url_script_count = len(detections)
    seen = {d.library for d in detections}
    for vendored in manifest.vendored:
        if not vendored.detected or vendored.library in seen:
            continue
        detections.append(
            LibraryDetection(
                library=vendored.library,
                version=vendored.version if vendored.version_visible else None,
                source_url="",
                host=manifest.domain.name,
                external=False,
                evidence="inline-banner",
            )
        )
        seen.add(vendored.library)

    untrusted = []
    for extra in manifest.extra_scripts:
        host = extra.url.split("//", 1)[1].split("/", 1)[0].lower()
        untrusted.append((host, extra.url, extra.integrity))

    flash_embeds = ()
    if manifest.flash is not None:
        flash = manifest.flash
        flash_embeds = (
            FlashEmbed(
                swf_url=flash.swf_url,
                tag="object" if manifest.domain.rank % 10 < 7 else "embed",
                script_access=(
                    ScriptAccess.parse(flash.script_access)
                    if flash.script_access
                    else None
                ),
                script_access_specified=flash.specified,
                external=flash.external,
                visible=flash.visible,
            ),
        )

    resource_types = set(manifest.resource_types)
    return PageProfile(
        page_host=manifest.domain.name,
        resource_types=frozenset(resource_types),
        libraries=tuple(detections),
        flash_embeds=flash_embeds,
        wordpress_version=manifest.wordpress_version,
        script_count=url_script_count + len(untrusted),
        external_script_count=sum(1 for d in detections if d.external) + len(untrusted),
        untrusted_scripts=tuple(untrusted),
    )


class Crawler:
    """Runs the weekly collection over a scenario's ecosystem.

    Args:
        ecosystem: The built web ecosystem.
        store: Destination for fingerprinted observations; when omitted a
            fresh store with the default vulnerability database is used.
        mode: ``"full"`` or ``"manifest"`` (see module docstring).
            Full mode builds a fingerprint engine for
            :meth:`crawl_block`; manifest mode builds none and reads
            only a CDN catalog.
        apply_filter: Run the paper's accessibility prefilter.
        options: How the crawl runs (:class:`~repro.RunOptions`):
            sharding and caches, the fault plan (injected faults fire
            at the shard boundary, so they behave identically on every
            backend), the run ledger, and the metrics output.  Every
            shard task carries them to its worker.  Defaults to
            ``RunOptions()``.
    """

    def __init__(
        self,
        ecosystem: WebEcosystem,
        store: Optional[ObservationStore] = None,
        mode: str = "full",
        apply_filter: bool = True,
        options: Optional[RunOptions] = None,
    ) -> None:
        if mode not in ("full", "manifest"):
            raise CrawlError(f"unknown crawl mode {mode!r}")
        self.ecosystem = ecosystem
        self.engine = FingerprintEngine() if mode == "full" else None
        self.cdn_catalog = (
            self.engine.cdn_catalog
            if self.engine is not None
            else default_cdn_catalog()
        )
        if store is None:
            matcher = VersionMatcher(default_database())
            store = ObservationStore(ecosystem.calendar, matcher)
        self.store = store
        self.mode = mode
        self.apply_filter = apply_filter
        self.options = options if options is not None else RunOptions()

    # ------------------------------------------------------------------
    def run(self, weeks: Optional[Sequence[Week]] = None) -> CrawlReport:
        """Crawl the given weeks (default: the whole calendar).

        The run is planned as balanced shards over the ``(week, domain)``
        space, dispatched through the configured execution backend, and
        folded back into :attr:`store`.  Every plan takes that one path,
        a single serial shard included: each shard crawls into its own
        store on the worker's cached ecosystem (see
        :mod:`repro.runtime.worker`), so this crawler's ecosystem is
        only probed, never crawled.  Results are bit-identical across
        backends and worker counts.

        With ``options.durability.checkpoint_dir`` set the run is
        durable: completed shard payloads are journaled write-ahead (see
        :mod:`repro.runtime.ledger`), and with ``resume`` true the
        journal is replayed — verified against the recorded manifest —
        so only the missing shards execute.  A killed-and-resumed run
        produces a byte-identical store to an uninterrupted one.

        Raises:
            CrawlError: :attr:`store` already holds pages of a target
                week (a second crawl would count them twice); raised
                before anything is probed or fetched.
        """
        ecosystem = self.ecosystem
        calendar = ecosystem.calendar
        target_weeks: Sequence[Week] = tuple(
            weeks if weeks is not None else calendar.weeks
        )
        held = self.store.weeks
        crawled = [
            w.ordinal for w in target_weeks
            if w.ordinal in held and held[w.ordinal].collected
        ]
        if crawled:
            raise CrawlError(
                f"week ordinals {crawled} are already in this crawl's store "
                f"(crawl each week once, or start a new Study)"
            )

        instruments = Instruments()
        filter_report: Optional[FilterReport] = None
        retained: Optional[Set[str]] = None
        with instruments.span("plan"):
            if self.apply_filter:
                accessibility = AccessibilityFilter(
                    ecosystem,
                    empty_page_threshold=(
                        ecosystem.config.accessibility.empty_page_threshold
                    ),
                )
                retained, filter_report = accessibility.run()

            domains: List[Domain] = [
                d
                for d in ecosystem.population
                if retained is None or d.name in retained
            ]

            execution = self.options.execution
            shards = plan_shards(
                len(target_weeks),
                len(domains),
                workers=execution.workers,
                shard_size=execution.shard_size,
            )
        shard_errors = self._run_sharded(
            shards,
            target_weeks,
            domains,
            execution.resolved_backend,
            execution.workers,
            instruments,
        )

        return CrawlReport(
            weeks_crawled=len(target_weeks),
            domains_crawled=len(domains),
            filter_report=filter_report,
            metrics=instruments,
            shard_errors=shard_errors,
        )

    # ------------------------------------------------------------------
    def crawl_block(
        self,
        weeks: Sequence[Week],
        domains: Sequence[Domain],
        instruments: Optional[Instruments] = None,
    ) -> Instruments:
        """Crawl one block of (weeks × domains) into :attr:`store`.

        This is the shard primitive: no filtering, no dispatch — just
        the observation loop.  A fresh :class:`ProfileCache` is created
        per call, so cache reuse never crosses a shard boundary and the
        runtime determinism contract (bit-identical stores on every
        backend) is preserved by construction.

        Returns the block's :class:`~repro.obs.Instruments` (the one
        passed in, or a fresh one): the ``crawl.pages``,
        ``crawl.fetch_failures`` and ``cache.*`` counters, the per-page
        histograms, and the fetch and fingerprint instrumentation.
        """
        ecosystem = self.ecosystem
        execution = self.options.execution
        ins = instruments if instruments is not None else Instruments()
        # Stable document shape: the core counters exist even at zero.
        ins.inc("crawl.pages", 0)
        ins.inc("crawl.fetch_failures", 0)
        fetcher = Fetcher(ecosystem.network, instruments=ins)
        if self.engine is not None:
            self.engine.instruments = ins
        threshold = ecosystem.config.accessibility.empty_page_threshold
        cache = ProfileCache(enabled=execution.profile_cache)
        # Cross-run generation store (manifest mode only): consulted on
        # in-run cache misses, fed with the profiles this block had to
        # build, and written as one segment when the block ends.  Reads
        # touch only immutable predecessor generations, so lookup
        # results — and the profile_store.* counters — are independent
        # of shard execution order, backend, and worker count.
        pstore = None
        if self.mode == "manifest":
            pstore = ProfileStore.from_options(execution)
        for week in weeks:
            ecosystem.set_week(week.ordinal)
            for domain in domains:
                if self.mode == "manifest":
                    if not self._reachable_fast(domain, week.ordinal):
                        ins.inc("crawl.fetch_failures")
                        continue
                    manifest = ecosystem.manifest(domain, week.ordinal)
                    if cache.enabled or pstore is not None:
                        key = site_state_key(manifest)
                        profile = cache.lookup(domain.rank, key)
                        if profile is None:
                            if pstore is not None:
                                profile = pstore.lookup(
                                    domain.name, domain.rank, key
                                )
                            if profile is None:
                                profile = profile_from_manifest(
                                    manifest, self.cdn_catalog
                                )
                                if pstore is not None:
                                    pstore.store(
                                        domain.name, domain.rank, key, profile
                                    )
                            cache.store(domain.rank, key, profile)
                    else:
                        profile = profile_from_manifest(manifest, self.cdn_catalog)
                else:
                    key = None
                    if (
                        cache.enabled
                        and domain.reachability is not Reachability.ANTIBOT
                        and domain.alive_at(week.ordinal)
                    ):
                        # Content-address the page before rendering it.
                        manifest = ecosystem.manifest(domain, week.ordinal)
                        key = site_state_key(manifest)
                        cached = cache.lookup(domain.rank, key)
                        if cached is not None:
                            # Skip render + fingerprint, but draw this
                            # week's failure schedule exactly as the
                            # fetch would have.
                            ins.inc("fetch.simulated")
                            if self._fetch_would_succeed(domain):
                                self.store.ingest(domain, week, cached)
                                self._observe_page(ins, cached)
                            else:
                                ins.inc("crawl.fetch_failures")
                            continue
                    result = fetcher.fetch_domain(domain.name)
                    if not result.ok or result.size < threshold:
                        ins.inc("crawl.fetch_failures")
                        continue
                    profile = self.engine.fingerprint(
                        result.text, f"https://{domain.name}/"
                    )
                    if key is not None:
                        cache.store(domain.rank, key, profile)
                self.store.ingest(domain, week, profile)
                self._observe_page(ins, profile)
        cache.record(ins)
        if pstore is not None:
            pstore.flush()
            pstore.record(ins)
        return ins

    @staticmethod
    def _observe_page(ins: Instruments, profile: PageProfile) -> None:
        """Record one ingested page (dataset-tier: per-page, at ingest).

        Observed where the page enters the store — not in the fetch or
        cache paths — so the histograms are invariant under every
        execution knob, including the profile cache.
        """
        ins.inc("crawl.pages")
        ins.observe(
            "page.scripts", profile.script_count, SCRIPTS_PER_PAGE_EDGES
        )
        ins.observe(
            "page.libraries", len(profile.libraries), LIBRARIES_PER_PAGE_EDGES
        )

    # ------------------------------------------------------------------
    def _run_sharded(
        self,
        shards,
        target_weeks: Sequence[Week],
        domains: Sequence[Domain],
        backend_name: str,
        workers: int,
        instruments: Instruments,
    ) -> Tuple[str, ...]:
        """Dispatch planned shards through a backend and fold results.

        Workers rebuild their ecosystems deterministically from the
        scenario config and hand partial stores back: a shard run in
        this process hands over its live store, and one run in a pool
        process (or replayed from the journal) arrives as the store
        codec's canonical bytes, which the fold decodes.  Folding uses
        the store's exact merge either way.
        Failed shards are retried with bounded backoff and, once
        exhausted, dropped with accounting rather than aborting the run
        (see :mod:`repro.runtime.dispatch`).

        With a ledger active, completed payloads are journaled inside
        the workers (write-ahead), and a resumed run replays valid
        journal entries instead of re-executing their shards.  The fold
        always runs in shard-plan order over replayed and live payloads
        alike, which is what keeps resumed stores byte-identical.

        Fills ``instruments`` with the folded per-shard telemetry plus
        the canonical dispatch accounting, and returns the dropped-shard
        error lines (which name the live backend, so they stay out of
        the metrics object).
        """
        from .persistence import BINARY_FORMAT_VERSION, store_from_bytes

        config = self.ecosystem.config
        options = self.options
        durability = options.durability
        ledger = scan = None
        if durability.checkpoint_dir is not None:
            ledger = RunLedger(durability.checkpoint_dir)
            manifest = RunManifest.build(
                config=config,
                mode=self.mode,
                fault_plan=options.resilience.fault_plan,
                week_ordinals=tuple(w.ordinal for w in target_weeks),
                domain_names=tuple(d.name for d in domains),
                shards=shards,
                # Journal payloads embed binary store blobs, so a
                # checkpoint's identity includes the blob format: an
                # old-format checkpoint must be refused, not replayed.
                store_format=BINARY_FORMAT_VERSION,
            )
            scan = ledger.open(manifest, resume=durability.resume)
            if scan.resumed:
                # The stored plan is authoritative: journal entries are
                # per-shard of *that* plan, and fault draws are pure in
                # its coverage keys — so a resume may change backend,
                # workers or shard size, but never the shard shapes.
                shards = scan.manifest.shards()

        # The plan is final here — freshly cut, or adopted from a
        # resumed manifest — so this is where the canonical planner
        # section learns its geometry.
        instruments.set_plan(
            len(target_weeks),
            len(domains),
            (
                (s.index, s.week_start, s.week_count, s.domain_start,
                 s.domain_count)
                for s in shards
            ),
        )

        replayed = scan.payloads if scan is not None else {}
        tasks = []
        for shard in shards:
            shard_weeks = target_weeks[
                shard.week_start : shard.week_start + shard.week_count
            ]
            shard_domains = domains[
                shard.domain_start : shard.domain_start + shard.domain_count
            ]
            tasks.append(
                ShardTask(
                    config=config,
                    mode=self.mode,
                    week_ordinals=tuple(w.ordinal for w in shard_weeks),
                    domain_names=tuple(d.name for d in shard_domains),
                    database=self.store.matcher.database,
                    shard_index=shard.index,
                    backend_name=backend_name,
                    options=options,
                )
            )
        pending = [
            task for task in tasks if task.shard_index not in replayed
        ]

        run_task = None
        if ledger is not None:
            run_task = JournalingRunner(ledger.root)

        backend = get_backend(backend_name, workers)
        resilience = options.resilience
        dispatch_kwargs = {} if run_task is None else {"run_task": run_task}
        ins = instruments
        with ins.span("dispatch"):
            outcome = dispatch_shards(
                backend,
                pending,
                max_retries=resilience.max_shard_retries,
                on_failure=resilience.on_shard_failure,
                instruments=ins,
                **dispatch_kwargs,
            )

        payload_by_index = dict(replayed)
        for task, payload in zip(pending, outcome.payloads):
            if payload is not None:
                payload_by_index[task.shard_index] = payload

        with ins.span("fold"):
            for index in sorted(payload_by_index):
                payload = payload_by_index[index]
                partial = payload["store"]
                if isinstance(partial, (bytes, bytearray)):
                    partial = store_from_bytes(
                        bytes(partial), self.store.calendar, self.store.matcher
                    )
                self.store.merge(partial)
                ins.merge(Instruments.from_payload(payload["metrics"]))

        # Drop events carry the error *kind* only — the full message
        # names the live backend, which must not leak into the canonical
        # document (the same degraded run on another backend is
        # byte-identical).
        for failure in outcome.dropped:
            shard = shards[failure.shard_index]
            shard_ordinals = tuple(
                w.ordinal
                for w in target_weeks[
                    shard.week_start : shard.week_start + shard.week_count
                ]
            )
            shard_names = tuple(
                d.name
                for d in domains[
                    shard.domain_start : shard.domain_start + shard.domain_count
                ]
            )
            ins.event(
                "shard",
                status="dropped",
                shard_index=failure.shard_index,
                shard_key=shard_coverage_key(shard_ordinals, shard_names),
                attempt=failure.attempts - 1,
                fields={
                    "error_kind": failure.error.split(":", 1)[0],
                    "cells": shard.cells,
                },
                backend=backend_name,
            )

        # Canonical dispatch accounting, *derived* from the span events
        # rather than read off this process's live dispatcher: a span's
        # final attempt number pins how many re-dispatches (and how much
        # simulated backoff) the shard cost, whether it ran here or was
        # replayed from a journal — so a resumed run reports the
        # original run's retries, and the canonical document stays
        # byte-identical across kill/resume.
        retries = 0
        backoff_us = 0
        for event in ins.events:
            if event.name != "shard":
                continue
            retries += event.attempt
            for attempt in range(event.attempt):
                backoff_us += int(round(backoff_delay(attempt) * 1_000_000))
        ins.inc("dispatch.retries", retries)
        ins.inc("dispatch.backoff_us", backoff_us)
        ins.inc("dispatch.dropped_shards", len(outcome.dropped))
        ins.inc(
            "dispatch.dropped_cells",
            sum(shards[failure.shard_index].cells for failure in outcome.dropped),
        )
        ins.note("backend", describe_backend(backend))

        shard_errors = tuple(
            f"{failure.description}: {failure.error}"
            for failure in outcome.dropped
        )
        if ledger is not None:
            ins.note("ledger.shards_replayed", len(replayed))
            ins.note("ledger.shards_reexecuted", len(pending))
            ins.note("ledger.entries_quarantined", scan.quarantined)
            ins.note(
                "journal.bytes_written",
                ledger.entry_bytes(
                    task.shard_index
                    for task, payload in zip(pending, outcome.payloads)
                    if payload is not None
                ),
            )
        return shard_errors

    # ------------------------------------------------------------------
    def _reachable_fast(self, domain: Domain, ordinal: int) -> bool:
        """Manifest-mode reachability mirroring the full path's outcome.

        Dead/dying domains and anti-bot blockers never contribute pages;
        flaky domains drop out per the deterministic failure schedule:
        the same draws the network would make for the first request plus
        one retry, where transient failures (connect, timeout) retry but
        a 5xx answer is terminal — exactly the fetcher's semantics.

        During a transport surge (an elevated failure schedule installed
        on the network, e.g. by a fault plan), *every* live domain is
        subject to those draws — mirroring what the full path's fetches
        would experience that week.
        """
        if not domain.alive_at(ordinal):
            return False
        if domain.reachability is Reachability.ANTIBOT:
            return False
        failures = self.ecosystem.network.failures
        if (
            domain.reachability is Reachability.FLAKY
            or ordinal in failures.surge
        ):
            for attempt in (0, 1):
                outcome = failures.outcome(domain.name, ordinal, attempt)
                if outcome in ("connect_failure", "timeout"):
                    continue  # transient: the fetcher retries once
                return outcome == "ok"
            return False  # retries exhausted
        return True

    # ------------------------------------------------------------------
    def _fetch_would_succeed(self, domain: Domain) -> bool:
        """Replay a cache-hit week's fetch outcome without serving it.

        Mirrors :class:`Fetcher` semantics (one retry on transient
        failures, 5xx terminal) while consuming request ordinals through
        :meth:`~repro.netsim.VirtualNetwork.simulate_outcome`, so the
        per-(host, clock) failure schedule stays byte-identical to a
        run that really fetched.  Callers guarantee the domain is alive
        and not anti-bot at the network's current clock.
        """
        network = self.ecosystem.network
        name = domain.name
        if name not in network:  # pragma: no cover - callers pre-check
            return False  # DNS failure: no request is ever sent
        condition = network.failures.condition_for(name)
        latency_timeout = condition.latency > Fetcher.DEFAULT_TIMEOUT
        for _ in range(2):
            outcome = network.simulate_outcome(name)
            if outcome == "connect_failure":
                continue
            if outcome == "timeout" or latency_timeout:
                continue
            if outcome == "server_error":
                return False  # 503 answer: HTTP error, no retry
            return True
        return False
