"""Saving and loading observation stores.

The paper publishes its aggregated dataset for future research; this
module provides the equivalent for downstream users of this library.
Two codecs coexist:

* **Binary format v2** — the canonical on-disk and on-the-wire
  encoding (:func:`store_to_bytes` / :func:`store_from_bytes`), used
  by :func:`save_store`/:func:`load_store`, the shard-worker
  transport, and the ledger journal.  ``struct``-framed little-endian
  sections (symbol table, weekly columns, per-site structures), each
  zlib-compressed, behind a magic/version header and in front of a
  sha256 trailer.  Symbol ids are remapped to each domain's *sorted*
  symbol order at encode time, and per-site arrays are delta-encoded,
  so equal stores — serial or sharded, cached or not, resumed or not —
  produce byte-identical blobs regardless of runtime intern order
  (the binary analogue of ``json.dumps(..., sort_keys=True)``).

* **Canonical JSON (format 1)** — :func:`store_to_dict` /
  :func:`store_from_dict`, retained as the interchange export.  Its
  output is unchanged from the pre-columnar store, byte for byte under
  ``sort_keys=True``, which anchors the old byte-identity contracts
  across the migration; :func:`load_store` still reads legacy JSON
  documents.

Only analysis-facing state is persisted (weekly aggregates, per-site
trajectories, untrusted-host sets); the memoization caches rebuild on
demand.

Durability: :func:`save_store` and :func:`export_store_json` write
through :func:`~repro.runtime.ledger.atomic_write_bytes`, the primitive
the run ledger journals with — a same-directory temp file, fsync'd and
atomically renamed into place, then a directory fsync — so a reader can
never observe a torn write and the new name survives a crash.
Corruption — truncated sections, flipped bytes, foreign or unsupported
formats — surfaces as a typed :class:`~repro.errors.StoreError`
carrying the path and (when identifiable) the failing section, never as
a raw ``struct.error``, ``zlib.error``, or ``KeyError``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from array import array
from pathlib import Path
from typing import Dict, List, Union

from ..errors import StoreError
from ..runtime.ledger import atomic_write_bytes
from ..timeline import StudyCalendar
from ..vulndb import MatchMode, VersionMatcher, default_database
from .store import _COLUMN_FIELDS, _SCALAR_FIELDS, ObservationStore
from .symbols import PAIR_DOMAINS, STRING_DOMAINS

#: JSON export format (the pre-columnar document, unchanged).
_FORMAT_VERSION = 1

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


def _encode_mode_dict(mapping):
    return {mode.value: value for mode, value in mapping.items()}


# ----------------------------------------------------------------------
# Canonical JSON export (format 1 — output unchanged by the columnar
# refactor; the migration anchor for the byte-identity contracts)
# ----------------------------------------------------------------------
def store_to_dict(store: ObservationStore) -> dict:
    """Serialize a store to a JSON-compatible dict."""
    weeks = []
    for agg in store.ordered_weeks():
        weeks.append(
            {
                "ordinal": agg.week.ordinal,
                "collected": agg.collected,
                "resources": agg.resource_counts.to_dict(),
                "library_users": agg.library_users.to_dict(),
                # Sorted so the payload is canonical: serial and merged
                # sharded stores produce identical documents even though
                # their intern orders differ.
                "versions": [
                    [lib, ver, count]
                    for (lib, ver), count in sorted(agg.version_counts.items())
                ],
                "internal": agg.internal_counts.to_dict(),
                "external": agg.external_counts.to_dict(),
                "cdn": agg.cdn_counts.to_dict(),
                "cdn_hosts": agg.cdn_hosts.to_dict(),
                "sites_with_external": agg.sites_with_external,
                "sites_external_no_integrity": agg.sites_external_no_integrity,
                "crossorigin": agg.crossorigin_values.to_dict(),
                "integrity_inclusions": agg.integrity_inclusions,
                "external_inclusions": agg.external_inclusions,
                "wordpress_sites": agg.wordpress_sites,
                "wordpress_versions": agg.wordpress_versions.to_dict(),
                "wordpress_jquery": agg.wordpress_jquery_versions.to_dict(),
                "library_wp_users": agg.library_wordpress_users.to_dict(),
                "flash_sites": agg.flash_sites,
                "flash_by_tier": agg.flash_by_tier.to_dict(),
                "flash_access_specified": agg.flash_access_specified,
                "flash_access_always": agg.flash_access_always,
                "flash_visible": agg.flash_visible,
                "untrusted_sites": agg.untrusted_sites,
                "untrusted_sites_with_integrity": agg.untrusted_sites_with_integrity,
                "untrusted_hosts": agg.untrusted_hosts.to_dict(),
                "vulnerable_sites": _encode_mode_dict(agg.vulnerable_sites),
                "vuln_hist": {
                    mode.value: {str(k): v for k, v in hist.items()}
                    for mode, hist in agg.vuln_count_hist.items()
                },
                "advisory_sites": {
                    mode.value: sites.to_dict()
                    for mode, sites in agg.advisory_sites.items()
                },
            }
        )
    return {
        "format": _FORMAT_VERSION,
        "total_observations": store.total_observations,
        "observed_domains": sorted(store.observed_domains),
        "weeks": weeks,
        "trajectories": {
            str(rank): site.to_dict() for rank, site in store.trajectories.items()
        },
        "wp_trajectories": {
            str(rank): traj for rank, traj in store.wp_trajectories.items()
        },
        "flash_spans": {
            str(rank): list(span) for rank, span in store.flash_spans.items()
        },
        "untrusted_site_sets": {
            host: sorted(sites) for host, sites in store.untrusted_site_sets.items()
        },
        "untrusted_urls": store.untrusted_url_counts.to_dict(),
    }


def store_from_dict(
    payload: dict,
    calendar: StudyCalendar,
    matcher: VersionMatcher = None,
) -> ObservationStore:
    """Rebuild a store from :func:`store_to_dict` output.

    Raises:
        StoreError: On an unknown format version, a week mismatch, or a
            missing/malformed document field (the typed wrapper names
            the failing field instead of leaking a raw ``KeyError``).
    """
    if not isinstance(payload, dict):
        raise StoreError(
            f"store payload must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format") != _FORMAT_VERSION:
        raise StoreError(f"unsupported store format: {payload.get('format')!r}")
    if matcher is None:
        matcher = VersionMatcher(default_database())
    try:
        return _store_from_dict_unchecked(payload, calendar, matcher)
    except KeyError as exc:
        raise StoreError(
            "store document is missing a required field",
            field=str(exc.args[0]) if exc.args else None,
        ) from exc
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise StoreError(
            f"store document is malformed ({type(exc).__name__}: {exc})"
        ) from exc


def _store_from_dict_unchecked(
    payload: dict,
    calendar: StudyCalendar,
    matcher: VersionMatcher,
) -> ObservationStore:
    store = ObservationStore(calendar, matcher)
    store.total_observations = payload["total_observations"]
    store.observed_domains = set(payload["observed_domains"])

    for entry in payload["weeks"]:
        ordinal = entry["ordinal"]
        agg = store.weeks.get(ordinal)
        if agg is None:
            raise StoreError(f"week ordinal {ordinal} not in calendar")
        agg.collected = entry["collected"]
        agg.resource_counts.update(entry["resources"])
        agg.library_users.update(entry["library_users"])
        for lib, ver, count in entry["versions"]:
            agg.version_counts[(lib, ver)] = count
        agg.internal_counts.update(entry["internal"])
        agg.external_counts.update(entry["external"])
        agg.cdn_counts.update(entry["cdn"])
        for lib, hosts in entry["cdn_hosts"].items():
            agg.cdn_hosts.update_outer(lib, hosts)
        agg.sites_with_external = entry["sites_with_external"]
        agg.sites_external_no_integrity = entry["sites_external_no_integrity"]
        agg.crossorigin_values.update(entry["crossorigin"])
        agg.integrity_inclusions = entry["integrity_inclusions"]
        agg.external_inclusions = entry["external_inclusions"]
        agg.wordpress_sites = entry["wordpress_sites"]
        agg.wordpress_versions.update(entry["wordpress_versions"])
        agg.wordpress_jquery_versions.update(entry["wordpress_jquery"])
        agg.library_wordpress_users.update(entry["library_wp_users"])
        agg.flash_sites = entry["flash_sites"]
        agg.flash_by_tier.update(entry["flash_by_tier"])
        agg.flash_access_specified = entry["flash_access_specified"]
        agg.flash_access_always = entry["flash_access_always"]
        agg.flash_visible = entry["flash_visible"]
        agg.untrusted_sites = entry["untrusted_sites"]
        agg.untrusted_sites_with_integrity = entry["untrusted_sites_with_integrity"]
        agg.untrusted_hosts.update(entry["untrusted_hosts"])
        for mode_text, value in entry["vulnerable_sites"].items():
            agg.vulnerable_sites[MatchMode(mode_text)] = value
        for mode_text, hist in entry["vuln_hist"].items():
            target = agg.vuln_count_hist[MatchMode(mode_text)]
            for count_text, sites in hist.items():
                target[int(count_text)] = sites
        for mode_text, sites in entry["advisory_sites"].items():
            agg.advisory_sites[MatchMode(mode_text)].update(sites)

    for rank_text, libs in payload["trajectories"].items():
        store.trajectories.load_site(
            int(rank_text),
            {lib: [tuple(change) for change in traj] for lib, traj in libs.items()},
        )
    for rank_text, traj in payload["wp_trajectories"].items():
        store.wp_trajectories.load_site(int(rank_text), [tuple(c) for c in traj])
    for rank_text, span in payload["flash_spans"].items():
        store.flash_spans[int(rank_text)] = (span[0], span[1])
    for host, sites in payload["untrusted_site_sets"].items():
        store.untrusted_site_sets.load(host, sites)
    store.untrusted_url_counts.update(payload["untrusted_urls"])
    return store


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
    entries = sorted((canon[i], count) for i, count in counter.items_ids())
    writer.u32(len(entries))
    for key_id, count in entries:
        writer.u32(key_id)
        writer.u64(count)


def _decode_id_column(reader: _Reader, counter) -> None:
    for _ in range(reader.u32()):
        key_id = reader.u32()
        counter.inc_id(key_id, reader.u64())


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


def _decode_changes(reader: _Reader) -> array:
    count = reader.u32()
    arr = array("q")
    week = 0
    for _ in range(count):
        week += reader.u32()
        arr.append(week)
        arr.append(reader.u32())
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
            domain.intern_ids(a_id, b_id)
    reader.expect_end()


def _encode_weeks_section(store: ObservationStore, maps) -> bytes:
    writer = _Writer()
    ordered = store.ordered_weeks()
    writer.u32(len(ordered))
    for agg in ordered:
        writer.u32(agg.week.ordinal)
        writer.u64(agg.collected)
        for name in _SCALAR_FIELDS:
            writer.u64(getattr(agg, name))
        for mode in _MODES:
            writer.u64(agg.vulnerable_sites[mode])
        for name, domain_name in _WEEK_COLUMN_DOMAINS:
            _encode_id_column(writer, getattr(agg, name), maps[domain_name])
        for mode in _MODES:
            hist = agg.vuln_count_hist[mode]
            entries = list(hist.items())
            writer.u32(len(entries))
            for key, count in entries:
                writer.u32(key)
                writer.u64(count)
        for mode in _MODES:
            _encode_id_column(writer, agg.advisory_sites[mode], maps["advisory"])
    return bytes(writer.buf)


def _decode_weeks_section(data: bytes, store: ObservationStore) -> None:
    reader = _Reader(data, "WEEK")
    count = reader.u32()
    if count != len(store.weeks):
        raise _Corrupt(
            f"store has {count} weeks but the calendar has {len(store.weeks)}"
        )
    for _ in range(count):
        ordinal = reader.u32()
        agg = store.weeks.get(ordinal)
        if agg is None:
            raise _Corrupt(f"week ordinal {ordinal} not in calendar")
        agg.collected = reader.u64()
        for name in _SCALAR_FIELDS:
            setattr(agg, name, reader.u64())
        for mode in _MODES:
            agg.vulnerable_sites[mode] = reader.u64()
        for name, _domain_name in _WEEK_COLUMN_DOMAINS:
            _decode_id_column(reader, getattr(agg, name))
        for mode in _MODES:
            hist = agg.vuln_count_hist[mode]
            for _ in range(reader.u32()):
                key = reader.u32()
                hist.inc(key, reader.u64())
        for mode in _MODES:
            _decode_id_column(reader, agg.advisory_sites[mode])
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

    sites: Dict[int, Dict[int, array]] = {}
    for _ in range(reader.u32()):
        rank = reader.u64()
        site: Dict[int, array] = {}
        for _ in range(reader.u32()):
            lib_id = reader.u32()
            site[lib_id] = _decode_changes(reader)
        sites[rank] = site
    store.trajectories.adopt_packed(sites)

    wp_sites: Dict[int, array] = {}
    for _ in range(reader.u32()):
        rank = reader.u64()
        wp_sites[rank] = _decode_changes(reader)
    store.wp_trajectories.adopt_packed(wp_sites)

    for _ in range(reader.u32()):
        rank = reader.u64()
        first = reader.u32()
        last = reader.u32()
        store.flash_spans[rank] = (first, last)

    for _ in range(reader.u32()):
        host_id = reader.u32()
        store.untrusted_site_sets.load_ids(host_id, _decode_delta_ranks(reader))

    _decode_id_column(reader, store.untrusted_url_counts)
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


def export_store_json(store: ObservationStore, path: Union[str, Path]) -> None:
    """Write the canonical JSON export (format 1, checksummed).

    The document is the pre-columnar :func:`save_store` output,
    unchanged: a ``{"checksum", "store"}`` envelope over the sorted
    :func:`store_to_dict` payload.
    """
    payload = store_to_dict(store)
    body = json.dumps(payload, sort_keys=True)
    document = json.dumps(
        {
            "checksum": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "store": payload,
        },
        sort_keys=True,
    )
    atomic_write_bytes(Path(path), document.encode("utf-8"))


def load_store(
    path: Union[str, Path],
    calendar: StudyCalendar,
    matcher: VersionMatcher = None,
) -> ObservationStore:
    """Read a store previously written by :func:`save_store`.

    Format-v2 binary blobs verify their sha256 trailer before any
    section is parsed.  Legacy JSON documents — checksummed envelopes
    from :func:`export_store_json` / the pre-v2 ``save_store``, or a
    bare :func:`store_to_dict` payload — still load.

    Raises:
        StoreError: The file is unreadable, truncated, corrupt, of an
            unsupported format, or missing fields; the error carries
            the path and, when identifiable, the failing field.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StoreError(
            f"cannot read store file ({exc.strerror or exc})", path=path
        ) from exc

    if data[:4] == _MAGIC:
        try:
            return store_from_bytes(data, calendar, matcher)
        except StoreError as exc:
            if exc.path is None:
                raise StoreError(exc.message, path=path, field=exc.field) from exc
            raise

    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        detail = (
            f"{exc.msg} at position {exc.pos}"
            if isinstance(exc, json.JSONDecodeError)
            else str(exc)
        )
        raise StoreError(
            f"store file is neither a format-v2 binary blob nor valid JSON "
            f"(truncated or corrupt: {detail})",
            path=path,
        ) from exc
    payload = document
    if isinstance(document, dict) and "checksum" in document:
        if "store" not in document:
            raise StoreError(
                "checksummed store document has no 'store' payload",
                path=path,
                field="store",
            )
        payload = document["store"]
        body = json.dumps(payload, sort_keys=True)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != document["checksum"]:
            raise StoreError(
                "store payload fails its sha256 checksum — the file is "
                "corrupt or was modified after saving",
                path=path,
                field="checksum",
            )
    try:
        return store_from_dict(payload, calendar, matcher)
    except StoreError as exc:
        if exc.path is None:
            raise StoreError(exc.message, path=path, field=exc.field) from exc
        raise
