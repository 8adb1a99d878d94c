"""The columnar observation store: symbols, views, binary persistence.

Covers the PR-6 surface:

* symbol interning (dense ids, pair packing, canonical order);
* the packed containers' mapping views against plain-dict semantics;
* the WordPress-trajectory fallback-normalization fix;
* ``observed_versions`` memoization and invalidation;
* binary format v2: roundtrip, canonical byte identity, the corruption
  matrix (truncation, bit flips, wrong format id), and the pinned digest
  of one whole-calendar crawl.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import pytest

from repro import ScenarioConfig, Study
from repro.crawler import Crawler, ObservationStore, columns, persistence
from repro.crawler.persistence import (
    BINARY_FORMAT_VERSION,
    load_store,
    save_store,
    store_from_bytes,
    store_to_bytes,
)
from repro.crawler.store import _COLUMN_FIELDS
from repro.crawler.symbols import SymbolTable
from repro.errors import StoreError
from repro.fingerprint.profile import LibraryDetection, PageProfile
from repro.vulndb import MatchMode, VersionMatcher, default_database
from repro.webgen import WebEcosystem
from repro.webgen.domains import Domain, Reachability

from conftest import (
    assert_same_reads,
    blob_with_id_past_its_table,
    count_calls,
    framed_store_blob,
)


def _domain(rank: int) -> Domain:
    return Domain(
        rank=rank, name=f"site{rank}.example", reachability=Reachability.STABLE
    )


def _store(config=None) -> ObservationStore:
    config = config or ScenarioConfig(population=20, seed=5)
    return ObservationStore(config.calendar, VersionMatcher(default_database()))


def _crawled_store(population=60, seed=9, n_weeks=5):
    config = ScenarioConfig(population=population, seed=seed)
    ecosystem = WebEcosystem(config)
    crawler = Crawler(ecosystem, mode="manifest", apply_filter=False)
    crawler.crawl_block(
        config.calendar.weeks[:n_weeks], list(ecosystem.population)
    )
    return crawler.store, config


class TestSymbolTable:
    def test_intern_is_dense_and_stable(self):
        table = SymbolTable()
        a = table.library.intern("jquery")
        b = table.library.intern("react")
        assert (a, b) == (0, 1)
        assert table.library.intern("jquery") == a
        assert table.library.decode(b) == "react"
        assert len(table.library) == 2

    def test_lookup_never_interns(self):
        table = SymbolTable()
        assert table.version.lookup("1.2.3") is None
        assert len(table.version) == 0

    def test_pair_domain_packs_and_decodes(self):
        table = SymbolTable()
        pair_id = table.libver.intern(("jquery", "1.12.4"))
        assert table.libver.decode(pair_id) == ("jquery", "1.12.4")
        assert table.libver.intern(("jquery", "1.12.4")) == pair_id
        lib_id = table.library.lookup("jquery")
        ver_id = table.version.lookup("1.12.4")
        assert table.libver.component_ids(pair_id) == (lib_id, ver_id)
        assert table.libver.intern_ids(lib_id, ver_id) == pair_id

    def test_canonical_order_sorts_by_symbol(self):
        table = SymbolTable()
        for name in ("zlib", "axios", "moment"):
            table.library.intern(name)
        order = table.library.canonical_order()
        assert [table.library.decode(i) for i in order] == [
            "axios",
            "moment",
            "zlib",
        ]

    def test_pair_canonical_order_sorts_by_decoded_tuple(self):
        table = SymbolTable()
        table.libver.intern(("react", "2.0"))
        table.libver.intern(("jquery", "3.0"))
        table.libver.intern(("jquery", "1.0"))
        order = table.libver.canonical_order()
        assert [table.libver.decode(i) for i in order] == [
            ("jquery", "1.0"),
            ("jquery", "3.0"),
            ("react", "2.0"),
        ]


class TestColumnViews:
    """The packed containers expose exact mapping-by-symbol semantics."""

    def test_week_counter_behaves_like_a_dict(self):
        store = _store()
        agg = store.ordered_weeks()[0]
        counter = agg.library_users
        assert not counter and len(counter) == 0
        counter.inc_id(store.symbols.library.intern("jquery"), 3)
        counter.inc_id(store.symbols.library.intern("react"))
        assert counter["jquery"] == 3 and counter.get("react") == 1
        assert counter.get("absent", 7) == 7 and "absent" not in counter
        assert dict(counter.items()) == {"jquery": 3, "react": 1}
        assert sorted(counter) == ["jquery", "react"]
        assert counter.to_dict() == {"jquery": 3, "react": 1}
        assert counter == {"jquery": 3, "react": 1}

    def test_trajectory_view_decodes_tuples(self):
        store = _store()
        jquery = store.symbols.library.intern("jquery")
        for week, version in ((0, "1.0"), (1, "1.0"), (3, "2.0")):
            store.trajectories.observe(
                4, jquery, week, store.symbols.version.intern(version)
            )
        site = store.trajectories[4]
        assert site["jquery"] == [(0, "1.0"), (3, "2.0")]
        assert site.get("react") is None
        assert store.trajectories.to_dict() == {
            4: {"jquery": [(0, "1.0"), (3, "2.0")]}
        }

    def test_flash_spans_pack_first_and_last(self):
        store = _store()
        store.flash_spans.observe(9, 2)
        store.flash_spans.observe(9, 5)
        store.flash_spans.observe(9, 7)
        assert store.flash_spans[9] == (2, 7)
        assert store.flash_spans == {9: (2, 7)}

    def test_site_sets_compact_past_threshold(self):
        from repro.crawler.columns import _SET_COMPACT_THRESHOLD, PackedIntSet

        packed = PackedIntSet()
        n = _SET_COMPACT_THRESHOLD + 100
        for rank in range(n, 0, -1):
            packed.add(rank)
            packed.add(rank)  # duplicate adds must not double-count
        assert len(packed) == n
        assert list(packed) == list(range(1, n + 1))
        assert 1 in packed and n in packed and n + 1 not in packed


class TestWordPressTrajectoryDedup:
    """Regression: the unreadable-version fallback must be normalized
    *before* the trajectory dedup compare.

    The old ingest appended ``version or "?"`` but compared the raw
    (possibly empty) version against the stored fallback, so a site
    whose WordPress version stayed unreadable logged one bogus "change"
    per week instead of one.
    """

    def _profile(self, wp_version):
        return PageProfile(page_host="site3.example", wordpress_version=wp_version)

    def test_unreadable_version_records_one_change(self):
        store = _store()
        weeks = store.calendar.weeks[:4]
        domain = _domain(3)
        for week in weeks:
            store.ingest(domain, week, self._profile(""))
        assert store.wp_trajectories[3] == [(weeks[0].ordinal, "?")]

    def test_unreadable_then_real_then_unreadable(self):
        store = _store()
        weeks = store.calendar.weeks[:4]
        domain = _domain(3)
        for week, version in zip(weeks, ["", "5.2", "5.2", ""]):
            store.ingest(domain, week, self._profile(version))
        assert store.wp_trajectories[3] == [
            (weeks[0].ordinal, "?"),
            (weeks[1].ordinal, "5.2"),
            (weeks[3].ordinal, "?"),
        ]

    def test_weekly_counts_unaffected(self):
        store = _store()
        weeks = store.calendar.weeks[:2]
        for week in weeks:
            store.ingest(_domain(3), week, self._profile(""))
        for agg in store.ordered_weeks()[:2]:
            assert agg.wordpress_versions == {"?": 1}
            assert agg.wordpress_sites == 1


class TestObservedVersionsMemo:
    def _ingest(self, store, rank, week, version):
        profile = PageProfile(
            page_host=f"site{rank}.example",
            libraries=(
                LibraryDetection(
                    library="jquery",
                    version=version,
                    source_url="/js/jquery.js",
                    host=None,
                    external=False,
                ),
            ),
        )
        store.ingest(_domain(rank), week, profile)

    def test_sorted_by_total_count_descending(self):
        store = _store()
        weeks = store.calendar.weeks
        self._ingest(store, 1, weeks[0], "1.0")
        self._ingest(store, 2, weeks[0], "2.0")
        self._ingest(store, 2, weeks[1], "2.0")
        assert store.observed_versions("jquery") == ["2.0", "1.0"]
        assert store.observed_versions("absent") == []

    def test_cache_rebuilds_after_ingest_and_merge(self):
        store = _store()
        weeks = store.calendar.weeks
        self._ingest(store, 1, weeks[0], "1.0")
        assert store.observed_versions("jquery") == ["1.0"]
        assert store._versions_cache is not None  # memoized
        self._ingest(store, 2, weeks[1], "3.0")
        assert store._versions_cache is None  # invalidated by ingest
        self._ingest(store, 3, weeks[1], "3.0")
        assert store.observed_versions("jquery") == ["3.0", "1.0"]

        other = _store()
        self._ingest(other, 4, weeks[2], "1.0")
        self._ingest(other, 5, weeks[2], "1.0")
        store.merge(other)
        assert store.observed_versions("jquery") == ["1.0", "3.0"]

    def test_repeated_calls_reuse_the_cache(self):
        store, _ = _crawled_store(population=30, seed=3, n_weeks=3)
        first = store.observed_versions("jquery")
        cache = store._versions_cache
        assert store.observed_versions("jquery") == first
        assert store._versions_cache is cache  # no rescan between calls


class TestBinaryRoundTrip:
    def test_roundtrip_preserves_every_surface(self):
        store, config = _crawled_store()
        blob = store_to_bytes(store)
        loaded = store_from_bytes(blob, config.calendar)
        assert_same_reads(loaded, store, config)
        # Re-encoding the load is byte-identical: the encoding is a
        # pure function of store content, not intern history.
        assert store_to_bytes(loaded) == blob

    def test_blob_leads_with_magic_and_version(self):
        store, _ = _crawled_store(population=20, seed=2, n_weeks=2)
        blob = store_to_bytes(store)
        assert blob[:4] == b"RPS2"
        assert struct.unpack_from("<H", blob, 4)[0] == BINARY_FORMAT_VERSION

    def test_save_and_load_binary(self, tmp_path):
        store, config = _crawled_store(population=20, seed=2, n_weeks=2)
        path = tmp_path / "store.bin"
        save_store(store, path)
        assert path.read_bytes()[:4] == b"RPS2"
        loaded = load_store(path, config.calendar)
        assert_same_reads(loaded, store, config)
        assert store_to_bytes(loaded) == path.read_bytes()

    def test_empty_store_roundtrips(self):
        config = ScenarioConfig(population=10, seed=1)
        store = _store(config)
        blob = store_to_bytes(store)
        loaded = store_from_bytes(blob, config.calendar)
        assert_same_reads(loaded, store, config)
        assert store_to_bytes(loaded) == blob


class TestCorruptionMatrix:
    """Every damaged blob fails with a typed StoreError, never garbage."""

    @pytest.fixture(scope="class")
    def blob(self):
        store, config = _crawled_store(population=30, seed=4, n_weeks=3)
        return store_to_bytes(store), config.calendar

    def test_truncation_at_every_region(self, blob):
        data, calendar = blob
        # Cut inside the header, each section, and the trailer.
        for cut in (0, 3, 5, 40, len(data) // 2, len(data) - 20, len(data) - 1):
            with pytest.raises(StoreError):
                store_from_bytes(data[:cut], calendar)

    def test_flipped_byte_anywhere_fails_the_trailer(self, blob):
        data, calendar = blob
        for pos in (6, 20, len(data) // 2, len(data) - 40, len(data) - 1):
            flipped = bytearray(data)
            flipped[pos] ^= 0x01
            with pytest.raises(StoreError):
                store_from_bytes(bytes(flipped), calendar)

    def test_wrong_format_version(self, blob):
        data, calendar = blob
        bad = bytearray(data)
        struct.pack_into("<H", bad, 4, 99)
        with pytest.raises(StoreError, match="unsupported store format"):
            store_from_bytes(bytes(bad), calendar)

    def test_wrong_magic(self, blob):
        data, calendar = blob
        with pytest.raises(StoreError, match="magic"):
            store_from_bytes(b"XXXX" + data[4:], calendar)

    def test_load_store_carries_the_path(self, tmp_path, blob):
        data, calendar = blob
        path = tmp_path / "store.bin"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreError) as excinfo:
            load_store(path, calendar)
        assert excinfo.value.path == str(path)

    def test_unreadable_file_is_typed(self, tmp_path, blob):
        _, calendar = blob
        with pytest.raises(StoreError):
            load_store(tmp_path / "missing.bin", calendar)

    def test_non_store_file_is_typed(self, tmp_path, blob):
        _, calendar = blob
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x00\x01" * 64)
        with pytest.raises(StoreError):
            load_store(path, calendar)

    @pytest.fixture(scope="class")
    def every_id_kind(self):
        """A store that refers to a symbol of every domain."""
        return _crawled_store(population=200, seed=1, n_weeks=3)

    @pytest.mark.parametrize(
        "tag, domain",
        [
            # Pair-domain component ids.
            (b"SYMS", "library"),
            (b"SYMS", "version"),
            (b"SYMS", "cdn_host"),
            # Week id columns, both advisory_sites columns included.
            (b"WEEK", "token"),
            (b"WEEK", "library"),
            (b"WEEK", "version"),
            (b"WEEK", "libver"),
            (b"WEEK", "libhost"),
            (b"WEEK", "untrusted_host"),
            (b"WEEK", "advisory"),
            # Trajectory library and version ids, untrusted-host ids,
            # untrusted_url_counts.
            (b"SITE", "library"),
            (b"SITE", "version"),
            (b"SITE", "untrusted_host"),
            (b"SITE", "url"),
        ],
    )
    def test_symbol_id_past_its_table(self, every_id_kind, tag, domain):
        store, config = every_id_kind
        blob = blob_with_id_past_its_table(store, tag, domain)
        size = len(persistence._canonical_maps(store)[domain])
        with pytest.raises(
            StoreError,
            match=f"section {tag.decode()} refers to {domain} id {size}, ",
        ):
            store_from_bytes(blob, config.calendar)


def _with_week_section(blob: bytes, length: int) -> bytes:
    """``blob`` with its WEEK section cut to its first ``length`` raw
    bytes, re-framed with matching lengths and a valid trailer."""
    sections = []
    offset = 6
    for _ in range(3):
        tag, compressed_len, _raw_len = struct.unpack_from("<4sII", blob, offset)
        offset += 12
        raw = zlib.decompress(blob[offset : offset + compressed_len])
        offset += compressed_len
        sections.append((tag, raw[:length] if tag == b"WEEK" else raw))
    return framed_store_blob(sections)


def _week_section(blob: bytes) -> bytes:
    offset = 6
    while True:
        tag, compressed_len, _ = struct.unpack_from("<4sII", blob, offset)
        offset += 12
        if tag == b"WEEK":
            return zlib.decompress(blob[offset : offset + compressed_len])
        offset += compressed_len


#: A week's fixed head in the WEEK section: u32 ordinal, then u64
#: collected, 11 scalar fields and 2 vulnerable-site counts.
_HEAD = 4 + 8 * 14
#: An all-empty week's tail: a zero u32 entry count for each of its 17
#: columns.
_EMPTY_TAIL = 4 * 17


class TestEmptyWeeks:
    """Weeks with no column entries: the same bytes, a faster path."""

    @pytest.mark.parametrize("mode", ["manifest", "full"])
    def test_non_contiguous_weeks_roundtrip(self, mode):
        config = ScenarioConfig(population=20, seed=3)
        ecosystem = WebEcosystem(config)
        weeks = config.calendar.weeks
        crawler = Crawler(ecosystem, mode=mode, apply_filter=False)
        crawler.crawl_block(
            [weeks[0], weeks[5], weeks[9]], list(ecosystem.population)
        )
        store = crawler.store
        held = [o for o, week in sorted(store.weeks.items()) if week.collected]
        assert held == [0, 5, 9]
        blob = store_to_bytes(store)
        loaded = store_from_bytes(blob, config.calendar)
        assert_same_reads(loaded, store, config)
        assert store_to_bytes(loaded) == blob

    def test_emptiness_is_read_from_the_columns(self):
        """A week with column entries but no collected page keeps them."""
        config = ScenarioConfig(population=10, seed=1)
        store = _store(config)
        week = store.weeks[3]
        week.resource_counts.inc_id(store.symbols.token.intern("script"))
        week.advisory_sites[MatchMode.TVV].inc_id(
            store.symbols.advisory.intern("CVE-2020-11022")
        )
        blob = store_to_bytes(store)
        loaded = store_from_bytes(blob, config.calendar)
        assert loaded.weeks[3].collected == 0
        assert loaded.weeks[3].resource_counts == {"script": 1}
        assert loaded.weeks[3].advisory_sites[MatchMode.TVV] == {
            "CVE-2020-11022": 1
        }
        assert_same_reads(loaded, store, config)
        assert store_to_bytes(loaded) == blob

    @pytest.fixture(scope="class")
    def week_one(self):
        """A store holding week 1 only: week 0 is empty."""
        config = ScenarioConfig(population=20, seed=3)
        ecosystem = WebEcosystem(config)
        crawler = Crawler(ecosystem, mode="manifest", apply_filter=False)
        crawler.crawl_block(
            [config.calendar.weeks[1]], list(ecosystem.population)
        )
        return store_to_bytes(crawler.store), config.calendar

    def test_empty_week_is_a_zero_tail(self, week_one):
        blob, calendar = week_one
        raw = _week_section(blob)
        assert struct.unpack_from("<I", raw, 4)[0] == 0  # week 0's ordinal
        assert raw[4 + _HEAD : 4 + _HEAD + _EMPTY_TAIL] == bytes(_EMPTY_TAIL)
        # Re-framing alone changes nothing the decoder sees.
        reframed = _with_week_section(blob, len(raw))
        assert store_to_bytes(store_from_bytes(reframed, calendar)) == blob

    def test_truncation_inside_the_zero_tail(self, week_one):
        blob, calendar = week_one
        cut = 4 + _HEAD + _EMPTY_TAIL // 2
        with pytest.raises(StoreError, match="truncated"):
            store_from_bytes(_with_week_section(blob, cut), calendar)

    def test_truncation_inside_a_columns_pairs(self, week_one):
        blob, calendar = week_one
        raw = _week_section(blob)
        column = 4 + 2 * _HEAD + _EMPTY_TAIL  # week 1's first column
        assert struct.unpack_from("<I", raw, column)[0] >= 2
        for cut in (column + 4 + 6, column + 4 + 12):  # mid-pair, between pairs
            with pytest.raises(StoreError, match="truncated"):
                store_from_bytes(_with_week_section(blob, cut), calendar)


class TestDecodeGrowth:
    def test_each_decoded_column_grows_once(self, monkeypatch):
        """A decoded column is sized once, to its largest id.

        Adding one entry at a time grew a column at every id past its
        end: 4,145 ``_grow`` calls for this store.
        """
        config = ScenarioConfig(population=200, seed=1)
        study = Study(config)
        study.run(weeks=config.calendar.weeks[:20])
        blob = store_to_bytes(study.store)
        calls = count_calls(monkeypatch, (columns, "_grow"))
        loaded = store_from_bytes(blob, config.calendar)
        decoded = [loaded.untrusted_url_counts]
        for week in loaded.weeks.values():
            decoded += [getattr(week, name) for name in _COLUMN_FIELDS]
            decoded += week.vuln_count_hist.values()
            decoded += week.advisory_sites.values()
        assert 0 < calls["_grow"] <= sum(1 for column in decoded if column)
        assert store_to_bytes(loaded) == blob


class TestJsonInterchange:
    """The crawl that anchored the migration to the binary store."""

    def test_pinned_migration_digest(self):
        """The seed scenario's whole-calendar store, byte for byte.

        The same crawl anchored the move from the pre-columnar JSON
        document to binary format v2; any change to what it records,
        or to how format v2 encodes it, moves the digest.
        """
        config = ScenarioConfig(population=500, seed=123)
        crawler = Crawler(WebEcosystem(config), mode="manifest")
        crawler.run()
        digest = hashlib.sha256(store_to_bytes(crawler.store)).hexdigest()
        assert digest == (
            "adba6bc835c67faf6d2a3a2f52c25035d9ff3435d9e69f9c509445318f3dab71"
        )
