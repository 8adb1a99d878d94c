"""Saving and loading observation stores.

The paper publishes its aggregated dataset for future research; this
module provides the equivalent for downstream users of this library,
in one encoding:

**Binary format v2** (:func:`store_to_bytes` / :func:`store_from_bytes`)
is the on-disk and on-the-wire encoding, used by
:func:`save_store`/:func:`load_store`, the shard-worker transport, and
the ledger journal.  ``struct``-framed little-endian sections (symbol
table, weekly columns, per-site structures), each zlib-compressed,
behind a magic/version header and in front of a sha256 trailer.  Symbol
ids are remapped to each domain's *sorted* symbol order at encode time,
and per-site arrays are delta-encoded, so equal stores — serial or
sharded, cached or not, resumed or not — produce byte-identical blobs
regardless of runtime intern order (the binary analogue of
``json.dumps(..., sort_keys=True)``).

Only analysis-facing state is persisted (weekly aggregates, per-site
trajectories, untrusted-host sets); the memoization caches rebuild on
demand.

Durability: :func:`save_store` writes through
:func:`~repro.durable.atomic_write_bytes`, the one durable-write
primitive — a same-directory temp file, fsync'd and atomically renamed
into place, then a directory fsync — so a reader can never observe a
torn write and the new name survives a crash.
Corruption — truncated sections, flipped bytes, foreign or unsupported
formats, symbol ids past the end of their table — surfaces as a typed
:class:`~repro.errors.StoreError` carrying the path and (when
identifiable) the failing section, never as a raw ``struct.error``,
``zlib.error``, ``KeyError`` or ``IndexError``.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from array import array
from itertools import starmap
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

from ..durable import atomic_write_bytes
from ..errors import StoreError
from ..timeline import StudyCalendar
from ..vulndb import MatchMode, VersionMatcher, default_database
from .store import _COLUMN_FIELDS, _SCALAR_FIELDS, ObservationStore
from .symbols import PAIR_DOMAINS, STRING_DOMAINS

#: Binary store format: magic + version header, struct-framed zlib
#: sections, sha256 trailer.
BINARY_FORMAT_VERSION = 2
_MAGIC = b"RPS2"
_TRAILER_TAG = b"SHA2"
_ZLIB_LEVEL = 6

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_SECTION_HEADER = struct.Struct("<4sII")

#: WeekAggregate column fields paired with the symbol domain whose
#: canonical order their keys serialize under (same order as
#: store._COLUMN_FIELDS).
_WEEK_COLUMN_DOMAINS = (
    ("resource_counts", "token"),
    ("library_users", "library"),
    ("version_counts", "libver"),
    ("internal_counts", "library"),
    ("external_counts", "library"),
    ("cdn_counts", "library"),
    ("cdn_hosts", "libhost"),
    ("crossorigin_values", "token"),
    ("wordpress_versions", "version"),
    ("wordpress_jquery_versions", "version"),
    ("library_wordpress_users", "library"),
    ("flash_by_tier", "token"),
    ("untrusted_hosts", "untrusted_host"),
)
assert tuple(name for name, _ in _WEEK_COLUMN_DOMAINS) == _COLUMN_FIELDS

_MODES = (MatchMode.CVE, MatchMode.TVV)

#: A week's fixed head: ordinal, ``collected``, the scalar fields, then
#: ``vulnerable_sites`` per mode.
_WEEK_HEAD = struct.Struct("<IQ" + "Q" * (len(_SCALAR_FIELDS) + len(_MODES)))
#: One ``(id, count)`` entry of an id-keyed column.
_PAIR = struct.Struct("<IQ")
#: The tail of a week whose 17 columns (the id columns, then each mode's
#: vuln-count histogram and advisory column) are all empty: one zero
#: entry count per column.  Such weeks — every week the store has not
#: crawled — are written and recognised as this one constant.
_EMPTY_WEEK_TAIL = bytes(
    _U32.size * (len(_WEEK_COLUMN_DOMAINS) + 2 * len(_MODES))
)


# ----------------------------------------------------------------------
# Binary format v2
# ----------------------------------------------------------------------
class _Corrupt(Exception):
    """Internal: a structural defect found while decoding (wrapped)."""


class _Writer:
    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u32(self, value: int) -> None:
        self.buf += _U32.pack(value)

    def u64(self, value: int) -> None:
        self.buf += _U64.pack(value)

    def string(self, text: str) -> None:
        encoded = text.encode("utf-8")
        self.u32(len(encoded))
        self.buf += encoded

    def pairs(self, entries: List[Tuple[int, int]]) -> None:
        """A column: its entry count, then one :data:`_PAIR` per entry."""
        self.u32(len(entries))
        self.buf += b"".join(starmap(_PAIR.pack, entries))


class _Reader:
    __slots__ = ("data", "pos", "section")

    def __init__(self, data: bytes, section: str) -> None:
        self.data = data
        self.pos = 0
        self.section = section

    def _take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise _Corrupt(f"section {self.section} is truncated")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def string(self) -> str:
        length = self.u32()
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _Corrupt(
                f"section {self.section} holds invalid UTF-8"
            ) from exc

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self._take(layout.size))

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """A column written by :meth:`_Writer.pairs`."""
        return _PAIR.iter_unpack(self._take(self.u32() * _PAIR.size))

    def skip(self, expected: bytes) -> bool:
        """Consume ``expected`` if the data continues with it."""
        if not self.data.startswith(expected, self.pos):
            return False
        self.pos += len(expected)
        return True

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise _Corrupt(
                f"section {self.section} has {len(self.data) - self.pos} "
                f"trailing bytes"
            )


def _canonical_maps(store: ObservationStore) -> Dict[str, List[int]]:
    """Per-domain runtime-id -> canonical-id tables.

    Canonical ids follow each domain's sorted symbol order, which
    depends only on the symbol *set* — every interned symbol is
    referenced by store data, and equal stores intern equal sets — so
    the encoding is independent of ingest/merge/fold order.
    """
    maps: Dict[str, List[int]] = {}
    for domain in store.symbols.domains():
        order = domain.canonical_order()
        table = [0] * len(order)
        for canonical_id, runtime_id in enumerate(order):
            table[runtime_id] = canonical_id
        maps[domain.name] = table
    return maps


def _encode_id_column(writer: _Writer, counter, canon: List[int]) -> None:
    writer.pairs(sorted((canon[i], count) for i, count in counter.items_ids()))


def _check_id(reader: _Reader, sym_id: int, domain) -> None:
    """Refuse a symbol id past the end of ``domain``'s decoded table."""
    if sym_id >= len(domain):
        raise _Corrupt(
            f"section {reader.section} refers to {domain.name} id {sym_id}, "
            f"past the end of its {len(domain)}-symbol table"
        )


def _decode_column(reader: _Reader, add, domain=None) -> None:
    """Add a column written by :meth:`_Writer.pairs` through ``add``.

    The column grows once, to its largest key, before any count is
    added.  A symbol-id column names its ``domain``, and a key past the
    end of that domain's table is refused before anything grows.
    """
    entries = list(reader.pairs())
    if not entries:
        return
    top = max(entries)[0]  # pairs compare by key first
    if domain is not None:
        _check_id(reader, top, domain)
    add(top, 0)  # the one grow
    for key, count in entries:
        add(key, count)


def _encode_delta_ranks(writer: _Writer, ranks: List[int]) -> None:
    writer.u32(len(ranks))
    previous = 0
    for rank in ranks:
        writer.u64(rank - previous)
        previous = rank
    # delta >= 0 holds because callers pass sorted, deduplicated ranks


def _decode_delta_ranks(reader: _Reader) -> List[int]:
    count = reader.u32()
    ranks: List[int] = []
    value = 0
    for _ in range(count):
        value += reader.u64()
        ranks.append(value)
    return ranks


def _encode_changes(
    writer: _Writer, arr: array, ver_canon: List[int], rank: int, subject: str
) -> None:
    writer.u32(len(arr) // 2)
    previous = 0
    for i in range(0, len(arr), 2):
        week = arr[i]
        if week < previous:
            # Weeks ingested twice or out of order (e.g. a second
            # Study.run over weeks already crawled); the week deltas
            # cannot encode it.
            raise StoreError(
                f"site rank {rank}: the {subject} trajectory runs "
                f"backwards (week {week} recorded after week {previous})"
            )
        writer.u32(week - previous)
        writer.u32(ver_canon[arr[i + 1]])
        previous = week


def _decode_changes(reader: _Reader, versions) -> array:
    count = reader.u32()
    arr = array("q")
    week = 0
    for _ in range(count):
        week += reader.u32()
        arr.append(week)
        arr.append(reader.u32())
    if count:
        _check_id(reader, max(arr[1::2]), versions)
    return arr


def _encode_symbols_section(store: ObservationStore, maps) -> bytes:
    writer = _Writer()
    symbols = store.symbols
    writer.u32(len(STRING_DOMAINS))
    for name in STRING_DOMAINS:
        domain = getattr(symbols, name)
        writer.string(name)
        order = domain.canonical_order()
        writer.u32(len(order))
        for runtime_id in order:
            writer.string(domain.decode(runtime_id))
    writer.u32(len(PAIR_DOMAINS))
    for name, a_name, b_name in PAIR_DOMAINS:
        domain = getattr(symbols, name)
        writer.string(name)
        a_canon = maps[a_name]
        b_canon = maps[b_name]
        order = domain.canonical_order()
        writer.u32(len(order))
        for runtime_id in order:
            a_id, b_id = domain.component_ids(runtime_id)
            writer.u32(a_canon[a_id])
            writer.u32(b_canon[b_id])
    return bytes(writer.buf)


def _decode_symbols_section(data: bytes, store: ObservationStore) -> None:
    reader = _Reader(data, "SYMS")
    symbols = store.symbols
    if reader.u32() != len(STRING_DOMAINS):
        raise _Corrupt("unexpected string-domain count")
    for name in STRING_DOMAINS:
        if reader.string() != name:
            raise _Corrupt(f"expected symbol domain {name!r}")
        domain = getattr(symbols, name)
        for _ in range(reader.u32()):
            domain.intern(reader.string())
    if reader.u32() != len(PAIR_DOMAINS):
        raise _Corrupt("unexpected pair-domain count")
    for name, _a, _b in PAIR_DOMAINS:
        if reader.string() != name:
            raise _Corrupt(f"expected symbol domain {name!r}")
        domain = getattr(symbols, name)
        for _ in range(reader.u32()):
            a_id = reader.u32()
            b_id = reader.u32()
            _check_id(reader, a_id, domain.a)
            _check_id(reader, b_id, domain.b)
            domain.intern_ids(a_id, b_id)
    reader.expect_end()


def _encode_weeks_section(store: ObservationStore, maps) -> bytes:
    writer = _Writer()
    buf = writer.buf
    ordered = store.ordered_weeks()
    writer.u32(len(ordered))
    columns_of = attrgetter(*_COLUMN_FIELDS)
    scalars_of = attrgetter(*_SCALAR_FIELDS)
    column_canons = [maps[domain] for _, domain in _WEEK_COLUMN_DOMAINS]
    advisory_canon = maps["advisory"]
    for agg in ordered:
        vulnerable = agg.vulnerable_sites
        buf += _WEEK_HEAD.pack(
            agg.week.ordinal,
            agg.collected,
            *scalars_of(agg),
            *[vulnerable[mode] for mode in _MODES],
        )
        columns = columns_of(agg)
        hists = [agg.vuln_count_hist[mode] for mode in _MODES]
        advisories = [agg.advisory_sites[mode] for mode in _MODES]
        if not (any(columns) or any(hists) or any(advisories)):
            buf += _EMPTY_WEEK_TAIL
            continue
        for column, canon in zip(columns, column_canons):
            _encode_id_column(writer, column, canon)
        for hist in hists:
            writer.pairs(list(hist.items()))
        for advisory in advisories:
            _encode_id_column(writer, advisory, advisory_canon)
    return bytes(buf)


def _decode_weeks_section(data: bytes, store: ObservationStore) -> None:
    reader = _Reader(data, "WEEK")
    count = reader.u32()
    if count != len(store.weeks):
        raise _Corrupt(
            f"store has {count} weeks but the calendar has {len(store.weeks)}"
        )
    scalars = len(_SCALAR_FIELDS)
    symbols = store.symbols
    column_domains = [
        (name, getattr(symbols, domain)) for name, domain in _WEEK_COLUMN_DOMAINS
    ]
    for _ in range(count):
        head = reader.unpack(_WEEK_HEAD)
        agg = store.weeks.get(head[0])
        if agg is None:
            raise _Corrupt(f"week ordinal {head[0]} not in calendar")
        agg.collected = head[1]
        for name, value in zip(_SCALAR_FIELDS, head[2 : 2 + scalars]):
            setattr(agg, name, value)
        vulnerable = agg.vulnerable_sites
        for mode, value in zip(_MODES, head[2 + scalars :]):
            vulnerable[mode] = value
        if reader.skip(_EMPTY_WEEK_TAIL):
            continue
        for name, domain in column_domains:
            _decode_column(reader, getattr(agg, name).inc_id, domain)
        for mode in _MODES:
            _decode_column(reader, agg.vuln_count_hist[mode].inc)
        for mode in _MODES:
            _decode_column(
                reader, agg.advisory_sites[mode].inc_id, symbols.advisory
            )
    reader.expect_end()


def _encode_sites_section(store: ObservationStore, maps) -> bytes:
    writer = _Writer()
    writer.u64(store.total_observations)
    _encode_delta_ranks(writer, sorted(store.observed_domains))

    lib_canon = maps["library"]
    lib_name = store.symbols.library.decode
    ver_canon = maps["version"]
    sites = store.trajectories.packed()
    writer.u32(len(sites))
    for rank in sorted(sites):
        site = sites[rank]
        writer.u64(rank)
        writer.u32(len(site))
        entries = sorted(
            ((lib_canon[lib_id], lib_id, arr) for lib_id, arr in site.items()),
            key=lambda entry: entry[0],
        )
        for canonical_lib, lib_id, arr in entries:
            writer.u32(canonical_lib)
            _encode_changes(writer, arr, ver_canon, rank, lib_name(lib_id))

    wp_sites = store.wp_trajectories.packed()
    writer.u32(len(wp_sites))
    for rank in sorted(wp_sites):
        writer.u64(rank)
        _encode_changes(writer, wp_sites[rank], ver_canon, rank, "WordPress")

    spans = sorted(store.flash_spans.items())
    writer.u32(len(spans))
    for rank, (first, last) in spans:
        writer.u64(rank)
        writer.u32(first)
        writer.u32(last)

    host_canon = maps["untrusted_host"]
    site_sets = store.untrusted_site_sets.packed()
    entries = sorted(
        ((host_canon[host_id], ranks) for host_id, ranks in site_sets.items()),
        key=lambda entry: entry[0],
    )
    writer.u32(len(entries))
    for canonical_host, ranks in entries:
        writer.u32(canonical_host)
        _encode_delta_ranks(writer, sorted(ranks))

    _encode_id_column(writer, store.untrusted_url_counts, maps["url"])
    return bytes(writer.buf)


def _decode_sites_section(data: bytes, store: ObservationStore) -> None:
    reader = _Reader(data, "SITE")
    store.total_observations = reader.u64()
    store.observed_domains = set(_decode_delta_ranks(reader))

    symbols = store.symbols
    sites: Dict[int, Dict[int, array]] = {}
    for _ in range(reader.u32()):
        rank = reader.u64()
        site: Dict[int, array] = {}
        for _ in range(reader.u32()):
            lib_id = reader.u32()
            _check_id(reader, lib_id, symbols.library)
            site[lib_id] = _decode_changes(reader, symbols.version)
        sites[rank] = site
    store.trajectories.adopt_packed(sites)

    wp_sites: Dict[int, array] = {}
    for _ in range(reader.u32()):
        rank = reader.u64()
        wp_sites[rank] = _decode_changes(reader, symbols.version)
    store.wp_trajectories.adopt_packed(wp_sites)

    for _ in range(reader.u32()):
        rank = reader.u64()
        first = reader.u32()
        last = reader.u32()
        store.flash_spans[rank] = (first, last)

    for _ in range(reader.u32()):
        host_id = reader.u32()
        _check_id(reader, host_id, symbols.untrusted_host)
        store.untrusted_site_sets.load_ids(host_id, _decode_delta_ranks(reader))

    _decode_column(reader, store.untrusted_url_counts.inc_id, symbols.url)
    reader.expect_end()


def store_to_bytes(store: ObservationStore) -> bytes:
    """Encode a store as a canonical format-v2 binary blob.

    Equal stores produce byte-identical blobs: symbol ids are remapped
    to sorted-symbol order, weeks follow the calendar, and every
    id-keyed list is sorted, so nothing about runtime intern, fold, or
    backend order leaks into the encoding.

    Raises:
        StoreError: A site's library or WordPress trajectory records a
            change at an earlier week than the change before it — the
            store ingested some weeks twice or out of order.
    """
    maps = _canonical_maps(store)
    out = bytearray()
    out += _MAGIC
    out += _U16.pack(BINARY_FORMAT_VERSION)
    for tag, raw in (
        (b"SYMS", _encode_symbols_section(store, maps)),
        (b"WEEK", _encode_weeks_section(store, maps)),
        (b"SITE", _encode_sites_section(store, maps)),
    ):
        compressed = zlib.compress(raw, _ZLIB_LEVEL)
        out += _SECTION_HEADER.pack(tag, len(compressed), len(raw))
        out += compressed
    out += _TRAILER_TAG
    # The digest covers everything before it, trailer tag included.
    out += hashlib.sha256(bytes(out)).digest()
    return bytes(out)


_SECTION_DECODERS = (
    (b"SYMS", _decode_symbols_section),
    (b"WEEK", _decode_weeks_section),
    (b"SITE", _decode_sites_section),
)


def store_from_bytes(
    data: bytes,
    calendar: StudyCalendar,
    matcher: VersionMatcher = None,
) -> ObservationStore:
    """Rebuild a store from :func:`store_to_bytes` output.

    Raises:
        StoreError: The blob has the wrong magic or version, is
            truncated, fails its sha256 trailer, or holds a malformed
            section.
    """
    if matcher is None:
        matcher = VersionMatcher(default_database())
    if len(data) < len(_MAGIC) + _U16.size:
        raise StoreError("store blob is truncated before the format header")
    if data[:4] != _MAGIC:
        raise StoreError(
            f"not a binary store blob (magic {data[:4]!r}, expected {_MAGIC!r})"
        )
    version = _U16.unpack_from(data, 4)[0]
    if version != BINARY_FORMAT_VERSION:
        raise StoreError(f"unsupported store format: {version!r}")
    trailer_start = len(data) - (len(_TRAILER_TAG) + 32)
    if trailer_start <= 6 or data[trailer_start : trailer_start + 4] != _TRAILER_TAG:
        raise StoreError(
            "store blob has no sha256 trailer — truncated or corrupt",
            field="trailer",
        )
    digest = hashlib.sha256(data[: trailer_start + 4]).digest()
    if digest != data[trailer_start + 4 :]:
        raise StoreError(
            "store blob fails its sha256 trailer — the file is corrupt or "
            "was modified after saving",
            field="checksum",
        )

    store = ObservationStore(calendar, matcher)
    offset = 6
    try:
        for tag, decoder in _SECTION_DECODERS:
            if offset + _SECTION_HEADER.size > trailer_start:
                raise _Corrupt(f"section {tag.decode()} is missing")
            found, compressed_len, raw_len = _SECTION_HEADER.unpack_from(
                data, offset
            )
            if found != tag:
                raise _Corrupt(
                    f"expected section {tag.decode()}, found {found!r}"
                )
            offset += _SECTION_HEADER.size
            end = offset + compressed_len
            if end > trailer_start:
                raise _Corrupt(f"section {tag.decode()} is truncated")
            try:
                raw = zlib.decompress(data[offset:end])
            except zlib.error as exc:
                raise _Corrupt(
                    f"section {tag.decode()} fails to decompress ({exc})"
                ) from exc
            if len(raw) != raw_len:
                raise _Corrupt(
                    f"section {tag.decode()} decompressed to {len(raw)} "
                    f"bytes, header says {raw_len}"
                )
            decoder(raw, store)
            offset = end
        if offset != trailer_start:
            raise _Corrupt(
                f"{trailer_start - offset} unexpected bytes after sections"
            )
    except _Corrupt as exc:
        raise StoreError(f"store blob is malformed ({exc})") from exc
    except (struct.error, IndexError, ValueError, OverflowError) as exc:
        raise StoreError(
            f"store blob is malformed ({type(exc).__name__}: {exc})"
        ) from exc
    return store


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def save_store(store: ObservationStore, path: Union[str, Path]) -> None:
    """Write a store to ``path`` as a canonical format-v2 binary blob.

    Equal stores — e.g. a serial crawl and a merged sharded crawl,
    whose intern orders differ — produce byte-identical files.  The
    write is crash-safe (temp file + fsync + atomic rename + directory
    fsync), and the blob carries a sha256 trailer that
    :func:`load_store` verifies.
    """
    atomic_write_bytes(Path(path), store_to_bytes(store))


def load_store(
    path: Union[str, Path],
    calendar: StudyCalendar,
    matcher: VersionMatcher = None,
) -> ObservationStore:
    """Read a store previously written by :func:`save_store`.

    The file must be a format-v2 binary blob; its sha256 trailer is
    verified before any section is parsed.

    Raises:
        StoreError: The file is unreadable, is not a format-v2 blob
            (wrong magic or version), or is truncated or corrupt; the
            error carries the path and, when identifiable, the failing
            field.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StoreError(
            f"cannot read store file ({exc.strerror or exc})", path=path
        ) from exc
    try:
        return store_from_bytes(data, calendar, matcher)
    except StoreError as exc:
        if exc.path is None:
            raise StoreError(exc.message, path=path, field=exc.field) from exc
        raise
