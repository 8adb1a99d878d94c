"""Packed columnar containers for the observation store.

Each container stores counts or packed ints keyed by dense symbol ids
(see :mod:`.symbols`) in stdlib ``array('q')`` columns, while exposing
the *mapping-by-symbol* read surface (``.get``/``.items``/
``dict(...)``/``==``) alongside an id-level one (``get_id``/
``items_ids``).  The write surface used by the ingest hot path works on
raw ids and never builds a key object; the hot analyses read by id too
and decode only the symbols that reach their results.

Iteration order of every ``items()`` is dense-id order, which equals
first-intern order and so depends on how the store was built (crawled,
merged, or decoded from bytes).  No result may depend on it: the
analyses and the serve layer break count ties by symbol.

Per-site structures (:class:`PackedTrajectories`,
:class:`PackedWpTrajectories`, :class:`FlashSpans`,
:class:`SiteSets`) pack their payloads into int arrays or single ints
keyed by site rank; the binary persistence layer delta-encodes them on
top of this (see :mod:`.persistence`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .symbols import PairDomain, SymbolDomain, SymbolTable

#: Pending-set size at which a PackedIntSet folds into its sorted array.
_SET_COMPACT_THRESHOLD = 1024


def _grow(counts: array, sym_id: int) -> None:
    counts.extend([0] * (sym_id + 1 - len(counts)))


class ColumnCounter:
    """Counts per symbol of one string domain, stored as an array.

    Reads are keyed by symbol string; entries with a zero count are
    treated as absent (counts are only ever incremented, so this
    matches the old defaultdict's key set exactly).
    """

    __slots__ = ("_domain", "_counts")

    def __init__(self, domain: SymbolDomain) -> None:
        self._domain = domain
        self._counts = array("q")

    # -- write surface (ids) -------------------------------------------
    def inc_id(self, sym_id: int, n: int = 1) -> None:
        counts = self._counts
        if sym_id >= len(counts):
            _grow(counts, sym_id)
        counts[sym_id] += n

    def merge_from(self, other: "ColumnCounter") -> None:
        """Add another counter's counts, remapping ids via symbols."""
        intern = self._domain.intern
        decode = other._domain.decode
        for sym_id, count in enumerate(other._counts):
            if count:
                self.inc_id(intern(decode(sym_id)), count)

    # -- read surface (symbols) ----------------------------------------
    def items_ids(self) -> Iterator[Tuple[int, int]]:
        """Nonzero ``(id, count)`` pairs in dense-id order."""
        return ((i, c) for i, c in enumerate(self._counts) if c)

    def items(self) -> Iterator[Tuple[str, int]]:
        decode = self._domain.decode
        return ((decode(i), c) for i, c in enumerate(self._counts) if c)

    def keys(self) -> List[str]:
        decode = self._domain.decode
        return [decode(i) for i, c in enumerate(self._counts) if c]

    def values(self) -> List[int]:
        return [c for c in self._counts if c]

    def get(self, symbol: str, default=0):
        sym_id = self._domain.lookup(symbol)
        if sym_id is None or sym_id >= len(self._counts):
            return default
        count = self._counts[sym_id]
        return count if count else default

    def get_id(self, sym_id: int) -> int:
        return self._counts[sym_id] if sym_id < len(self._counts) else 0

    def __getitem__(self, symbol: str) -> int:
        return self.get(symbol, 0)

    def __contains__(self, symbol: str) -> bool:
        return self.get(symbol, 0) != 0

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return sum(1 for c in self._counts if c)

    def __bool__(self) -> bool:
        return any(self._counts)

    def to_dict(self) -> Dict[str, int]:
        decode = self._domain.decode
        return {decode(i): c for i, c in enumerate(self._counts) if c}

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnCounter):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == {k: v for k, v in other.items() if v}
        return NotImplemented


class PairColumnCounter:
    """Counts per ``(a, b)`` symbol pair of one pair domain."""

    __slots__ = ("_domain", "_counts")

    def __init__(self, domain: PairDomain) -> None:
        self._domain = domain
        self._counts = array("q")

    def inc_id(self, pair_id: int, n: int = 1) -> None:
        counts = self._counts
        if pair_id >= len(counts):
            _grow(counts, pair_id)
        counts[pair_id] += n

    def merge_from(self, other: "PairColumnCounter") -> None:
        intern = self._domain.intern
        decode = other._domain.decode
        for pair_id, count in enumerate(other._counts):
            if count:
                self.inc_id(intern(decode(pair_id)), count)

    def items_ids(self) -> Iterator[Tuple[int, int]]:
        return ((i, c) for i, c in enumerate(self._counts) if c)

    def items(self) -> Iterator[Tuple[Tuple[str, str], int]]:
        decode = self._domain.decode
        return ((decode(i), c) for i, c in enumerate(self._counts) if c)

    def keys(self) -> List[Tuple[str, str]]:
        decode = self._domain.decode
        return [decode(i) for i, c in enumerate(self._counts) if c]

    def values(self) -> List[int]:
        return [c for c in self._counts if c]

    def get(self, pair: Tuple[str, str], default=0):
        pair_id = self._domain.lookup(pair)
        if pair_id is None or pair_id >= len(self._counts):
            return default
        count = self._counts[pair_id]
        return count if count else default

    def get_id(self, pair_id: int) -> int:
        return self._counts[pair_id] if pair_id < len(self._counts) else 0

    def __getitem__(self, pair: Tuple[str, str]) -> int:
        return self.get(pair, 0)

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        return self.get(pair, 0) != 0

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self.keys())

    def __len__(self) -> int:
        return sum(1 for c in self._counts if c)

    def __bool__(self) -> bool:
        return any(self._counts)

    def to_dict(self) -> Dict[Tuple[str, str], int]:
        decode = self._domain.decode
        return {decode(i): c for i, c in enumerate(self._counts) if c}

    def __eq__(self, other) -> bool:
        if isinstance(other, PairColumnCounter):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == {k: v for k, v in other.items() if v}
        return NotImplemented


class NestedPairCounter:
    """``{a: {b: count}}`` view over a pair-domain column (cdn_hosts)."""

    __slots__ = ("_domain", "_counts")

    def __init__(self, domain: PairDomain) -> None:
        self._domain = domain
        self._counts = array("q")

    def inc_id(self, pair_id: int, n: int = 1) -> None:
        counts = self._counts
        if pair_id >= len(counts):
            _grow(counts, pair_id)
        counts[pair_id] += n

    def merge_from(self, other: "NestedPairCounter") -> None:
        intern = self._domain.intern
        decode = other._domain.decode
        for pair_id, count in enumerate(other._counts):
            if count:
                self.inc_id(intern(decode(pair_id)), count)

    def items_ids(self) -> Iterator[Tuple[int, int]]:
        """Nonzero ``(pair id, count)`` pairs in dense-id order."""
        return ((i, c) for i, c in enumerate(self._counts) if c)

    def _grouped(self) -> "Dict[int, Dict[str, int]]":
        """Nonzero pairs grouped by outer id, first-seen outer order."""
        domain = self._domain
        groups: Dict[int, Dict[str, int]] = {}
        decode_b = domain.b.decode
        for pair_id, count in enumerate(self._counts):
            if count:
                a_id, b_id = domain.component_ids(pair_id)
                groups.setdefault(a_id, {})[decode_b(b_id)] = count
        return groups

    def get(self, a_symbol: str, default=None):
        """Scans the whole column; hot readers use :meth:`items_ids`."""
        inner = self._grouped().get(self._domain.a.lookup(a_symbol))
        if not inner:
            return {} if default is None else default
        return inner

    def items(self) -> Iterator[Tuple[str, Dict[str, int]]]:
        decode_a = self._domain.a.decode
        return (
            (decode_a(a_id), inner) for a_id, inner in self._grouped().items()
        )

    def keys(self) -> List[str]:
        decode_a = self._domain.a.decode
        return [decode_a(a_id) for a_id in self._grouped()]

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._grouped())

    def __bool__(self) -> bool:
        return any(self._counts)

    def to_dict(self) -> Dict[str, Dict[str, int]]:
        decode_a = self._domain.a.decode
        return {decode_a(a_id): inner for a_id, inner in self._grouped().items()}

    def __eq__(self, other) -> bool:
        if isinstance(other, NestedPairCounter):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == {
                k: dict(v) for k, v in other.items() if v
            }
        return NotImplemented


class IntCounter:
    """Counts keyed by small non-negative ints (vuln-count histogram)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts = array("q")

    def inc(self, key: int, n: int = 1) -> None:
        counts = self._counts
        if key >= len(counts):
            _grow(counts, key)
        counts[key] += n

    def merge_from(self, other: "IntCounter") -> None:
        for key, count in enumerate(other._counts):
            if count:
                self.inc(key, count)

    def items(self) -> Iterator[Tuple[int, int]]:
        return ((k, c) for k, c in enumerate(self._counts) if c)

    def keys(self) -> List[int]:
        return [k for k, c in enumerate(self._counts) if c]

    def values(self) -> List[int]:
        return [c for c in self._counts if c]

    def get(self, key: int, default=0):
        if 0 <= key < len(self._counts) and self._counts[key]:
            return self._counts[key]
        return default

    def __getitem__(self, key: int) -> int:
        return self.get(key, 0)

    def __contains__(self, key: int) -> bool:
        return self.get(key, 0) != 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.keys())

    def __len__(self) -> int:
        return sum(1 for c in self._counts if c)

    def __bool__(self) -> bool:
        return any(self._counts)

    def to_dict(self) -> Dict[int, int]:
        return {k: c for k, c in enumerate(self._counts) if c}

    def __eq__(self, other) -> bool:
        if isinstance(other, IntCounter):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == {int(k): v for k, v in other.items() if v}
        return NotImplemented


class _SiteTrajectories:
    """Read view of one site's trajectories: library name -> changes."""

    __slots__ = ("_libs", "_symbols")

    def __init__(self, libs: Dict[int, array], symbols: SymbolTable) -> None:
        self._libs = libs
        self._symbols = symbols

    def _decode(self, arr: array) -> List[Tuple[int, str]]:
        decode = self._symbols.version.decode
        return [
            (arr[i], decode(arr[i + 1])) for i in range(0, len(arr), 2)
        ]

    def get(self, library: str, default=None):
        lib_id = self._symbols.library.lookup(library)
        if lib_id is None:
            return default
        arr = self._libs.get(lib_id)
        if arr is None:
            return default
        return self._decode(arr)

    def __getitem__(self, library: str) -> List[Tuple[int, str]]:
        result = self.get(library)
        if result is None:
            raise KeyError(library)
        return result

    def __contains__(self, library: str) -> bool:
        return self.get(library) is not None

    def keys(self) -> List[str]:
        decode = self._symbols.library.decode
        return [decode(lib_id) for lib_id in self._libs]

    def items(self) -> Iterator[Tuple[str, List[Tuple[int, str]]]]:
        decode = self._symbols.library.decode
        return (
            (decode(lib_id), self._decode(arr))
            for lib_id, arr in self._libs.items()
        )

    def values(self) -> Iterator[List[Tuple[int, str]]]:
        return (self._decode(arr) for arr in self._libs.values())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._libs)

    def to_dict(self) -> Dict[str, List[Tuple[int, str]]]:
        return dict(self.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, _SiteTrajectories):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == {
                k: [tuple(c) for c in v] for k, v in other.items()
            }
        return NotImplemented


class PackedTrajectories:
    """Per-site change-compressed version trajectories, packed.

    Storage is ``rank -> library id -> array('q')`` with changes laid
    out as interleaved ``(week ordinal, version id)`` pairs — two
    machine ints per change instead of a tuple, a string, and a list
    slot.  The mapping view decodes to the classic
    ``{rank: {library: [(week, version), ...]}}`` shape on demand.
    """

    __slots__ = ("_sites", "_symbols")

    def __init__(self, symbols: SymbolTable) -> None:
        self._sites: Dict[int, Dict[int, array]] = {}
        self._symbols = symbols

    # -- write surface -------------------------------------------------
    def observe(self, rank: int, lib_id: int, ordinal: int, ver_id: int) -> None:
        """Record one observation, appending only on version change."""
        site = self._sites.get(rank)
        if site is None:
            self._sites[rank] = site = {}
        arr = site.get(lib_id)
        if arr is None:
            site[lib_id] = array("q", (ordinal, ver_id))
        elif arr[-1] != ver_id:
            arr.append(ordinal)
            arr.append(ver_id)

    def merge_from(self, other: "PackedTrajectories") -> None:
        """Fold another store's trajectories in, remapping symbols.

        Disjoint ``(rank, library)`` entries are adopted wholesale;
        overlapping ones are merged exactly like the old
        ``_merge_changes``: concatenate, sort by week, drop entries
        that repeat the previous version (the shard planner guarantees
        spans never interleave, making this exact).
        """
        symbols = self._symbols
        other_symbols = other._symbols
        lib_intern = symbols.library.intern
        lib_decode = other_symbols.library.decode
        ver_intern = symbols.version.intern
        ver_decode = other_symbols.version.decode
        for rank, other_site in other._sites.items():
            site = self._sites.get(rank)
            if site is None:
                self._sites[rank] = site = {}
            for other_lib_id, other_arr in other_site.items():
                lib_id = lib_intern(lib_decode(other_lib_id))
                remapped = array("q")
                for i in range(0, len(other_arr), 2):
                    remapped.append(other_arr[i])
                    remapped.append(ver_intern(ver_decode(other_arr[i + 1])))
                existing = site.get(lib_id)
                if existing is None:
                    site[lib_id] = remapped
                else:
                    site[lib_id] = _merge_packed_changes(existing, remapped)

    def packed(self) -> Dict[int, Dict[int, array]]:
        """The raw packed storage (persistence codec only)."""
        return self._sites

    def adopt_packed(self, sites: Dict[int, Dict[int, array]]) -> None:
        """Replace the storage wholesale (persistence codec only)."""
        self._sites = sites

    # -- read surface --------------------------------------------------
    def library_changes(self, lib_id: Optional[int]) -> Iterator[array]:
        """Each site's packed ``(week, version id)`` changes for one library
        id; sites without it (all, for ``None``) are skipped.  Read-only."""
        for site in self._sites.values():
            changes = site.get(lib_id)
            if changes is not None:
                yield changes

    def get(self, rank: int, default=None):
        site = self._sites.get(rank)
        if site is None:
            return default
        return _SiteTrajectories(site, self._symbols)

    def __getitem__(self, rank: int) -> _SiteTrajectories:
        return _SiteTrajectories(self._sites[rank], self._symbols)

    def __contains__(self, rank: int) -> bool:
        return rank in self._sites

    def keys(self):
        return self._sites.keys()

    def items(self) -> Iterator[Tuple[int, _SiteTrajectories]]:
        symbols = self._symbols
        return (
            (rank, _SiteTrajectories(site, symbols))
            for rank, site in self._sites.items()
        )

    def values(self) -> Iterator[_SiteTrajectories]:
        symbols = self._symbols
        return (
            _SiteTrajectories(site, symbols) for site in self._sites.values()
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self._sites)

    def __len__(self) -> int:
        return len(self._sites)

    def __bool__(self) -> bool:
        return bool(self._sites)

    def to_dict(self) -> Dict[int, Dict[str, List[Tuple[int, str]]]]:
        symbols = self._symbols
        return {
            rank: _SiteTrajectories(site, symbols).to_dict()
            for rank, site in self._sites.items()
        }

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedTrajectories):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == {
                rank: {k: [tuple(c) for c in v] for k, v in libs.items()}
                for rank, libs in other.items()
            }
        return NotImplemented


def _merge_packed_changes(a: array, b: array) -> array:
    """Exact merge of two packed change arrays (same symbol table)."""
    changes = [(a[i], a[i + 1]) for i in range(0, len(a), 2)]
    changes += [(b[i], b[i + 1]) for i in range(0, len(b), 2)]
    merged = array("q")
    last_ver = -1
    for week, ver_id in sorted(changes):
        if not merged or last_ver != ver_id:
            merged.append(week)
            merged.append(ver_id)
            last_ver = ver_id
    return merged


class PackedWpTrajectories:
    """Per-site WordPress version trajectories, packed like above."""

    __slots__ = ("_sites", "_symbols")

    def __init__(self, symbols: SymbolTable) -> None:
        self._sites: Dict[int, array] = {}
        self._symbols = symbols

    def observe(self, rank: int, ordinal: int, ver_id: int) -> None:
        arr = self._sites.get(rank)
        if arr is None:
            self._sites[rank] = array("q", (ordinal, ver_id))
        elif arr[-1] != ver_id:
            arr.append(ordinal)
            arr.append(ver_id)

    def merge_from(self, other: "PackedWpTrajectories") -> None:
        intern = self._symbols.version.intern
        decode = other._symbols.version.decode
        for rank, other_arr in other._sites.items():
            remapped = array("q")
            for i in range(0, len(other_arr), 2):
                remapped.append(other_arr[i])
                remapped.append(intern(decode(other_arr[i + 1])))
            existing = self._sites.get(rank)
            if existing is None:
                self._sites[rank] = remapped
            else:
                self._sites[rank] = _merge_packed_changes(existing, remapped)

    def packed(self) -> Dict[int, array]:
        """The raw packed storage (persistence codec only)."""
        return self._sites

    def adopt_packed(self, sites: Dict[int, array]) -> None:
        """Replace the storage wholesale (persistence codec only)."""
        self._sites = sites

    def _decode(self, arr: array) -> List[Tuple[int, str]]:
        decode = self._symbols.version.decode
        return [(arr[i], decode(arr[i + 1])) for i in range(0, len(arr), 2)]

    def get(self, rank: int, default=None):
        arr = self._sites.get(rank)
        if arr is None:
            return default
        return self._decode(arr)

    def __getitem__(self, rank: int) -> List[Tuple[int, str]]:
        return self._decode(self._sites[rank])

    def __contains__(self, rank: int) -> bool:
        return rank in self._sites

    def keys(self):
        return self._sites.keys()

    def items(self) -> Iterator[Tuple[int, List[Tuple[int, str]]]]:
        return ((rank, self._decode(arr)) for rank, arr in self._sites.items())

    def values(self) -> Iterator[List[Tuple[int, str]]]:
        return (self._decode(arr) for arr in self._sites.values())

    def __iter__(self) -> Iterator[int]:
        return iter(self._sites)

    def __len__(self) -> int:
        return len(self._sites)

    def __bool__(self) -> bool:
        return bool(self._sites)

    def to_dict(self) -> Dict[int, List[Tuple[int, str]]]:
        return dict(self.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedWpTrajectories):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == {
                rank: [tuple(c) for c in changes]
                for rank, changes in other.items()
            }
        return NotImplemented


class FlashSpans:
    """Per-site ``(first, last)`` Flash week spans, one packed int each."""

    __slots__ = ("_spans",)

    def __init__(self) -> None:
        self._spans: Dict[int, int] = {}

    def observe(self, rank: int, ordinal: int) -> None:
        packed = self._spans.get(rank)
        if packed is None:
            self._spans[rank] = (ordinal << 32) | ordinal
        else:
            self._spans[rank] = (packed & ~0xFFFFFFFF) | ordinal

    def merge_from(self, other: "FlashSpans") -> None:
        spans = self._spans
        for rank, packed in other._spans.items():
            existing = spans.get(rank)
            if existing is None:
                spans[rank] = packed
            else:
                spans[rank] = (
                    min(existing & ~0xFFFFFFFF, packed & ~0xFFFFFFFF)
                    | max(existing & 0xFFFFFFFF, packed & 0xFFFFFFFF)
                )

    def __setitem__(self, rank: int, span: Tuple[int, int]) -> None:
        self._spans[rank] = (span[0] << 32) | span[1]

    def get(self, rank: int, default=None):
        packed = self._spans.get(rank)
        if packed is None:
            return default
        return (packed >> 32, packed & 0xFFFFFFFF)

    def __getitem__(self, rank: int) -> Tuple[int, int]:
        packed = self._spans[rank]
        return (packed >> 32, packed & 0xFFFFFFFF)

    def __contains__(self, rank: int) -> bool:
        return rank in self._spans

    def keys(self):
        return self._spans.keys()

    def items(self) -> Iterator[Tuple[int, Tuple[int, int]]]:
        return (
            (rank, (packed >> 32, packed & 0xFFFFFFFF))
            for rank, packed in self._spans.items()
        )

    def values(self) -> Iterator[Tuple[int, int]]:
        return (
            (packed >> 32, packed & 0xFFFFFFFF)
            for packed in self._spans.values()
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __bool__(self) -> bool:
        return bool(self._spans)

    def to_dict(self) -> Dict[int, Tuple[int, int]]:
        return dict(self.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, FlashSpans):
            return self._spans == other._spans
        if isinstance(other, dict):
            return self.to_dict() == {
                rank: tuple(span) for rank, span in other.items()
            }
        return NotImplemented


class PackedIntSet:
    """A set of site ranks as a sorted int array plus a small overlay.

    Adds go to a plain-set overlay (after a bisect membership probe of
    the sorted core) and fold into the core once the overlay reaches
    ``_SET_COMPACT_THRESHOLD``, keeping membership O(log n) and steady-
    state memory at 8 bytes per rank.
    """

    __slots__ = ("_sorted", "_pending")

    def __init__(self, initial: Optional[Iterable[int]] = None) -> None:
        self._sorted = array("q", sorted(set(initial)) if initial else [])
        self._pending: set = set()

    def _compact(self) -> None:
        if self._pending:
            merged = sorted(set(self._sorted) | self._pending)
            self._sorted = array("q", merged)
            self._pending.clear()

    def add(self, rank: int) -> None:
        core = self._sorted
        index = bisect_left(core, rank)
        if index < len(core) and core[index] == rank:
            return
        self._pending.add(rank)
        if len(self._pending) >= _SET_COMPACT_THRESHOLD:
            self._compact()

    def update(self, ranks: Iterable[int]) -> None:
        for rank in ranks:
            self.add(rank)

    def __len__(self) -> int:
        return len(self._sorted) + len(self._pending)

    def __contains__(self, rank: int) -> bool:
        if rank in self._pending:
            return True
        core = self._sorted
        index = bisect_left(core, rank)
        return index < len(core) and core[index] == rank

    def __iter__(self) -> Iterator[int]:
        self._compact()
        return iter(self._sorted)

    def __bool__(self) -> bool:
        return bool(self._sorted) or bool(self._pending)

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedIntSet):
            return set(self) == set(other)
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        return NotImplemented


class SiteSets:
    """Untrusted host -> packed set of site ranks (whole study)."""

    __slots__ = ("_domain", "_sets")

    def __init__(self, domain: SymbolDomain) -> None:
        self._domain = domain
        self._sets: Dict[int, PackedIntSet] = {}

    def add_id(self, host_id: int, rank: int) -> None:
        existing = self._sets.get(host_id)
        if existing is None:
            self._sets[host_id] = existing = PackedIntSet()
        existing.add(rank)

    def load_ids(self, host_id: int, ranks: Iterable[int]) -> None:
        self._sets[host_id] = PackedIntSet(ranks)

    def packed(self) -> Dict[int, PackedIntSet]:
        """The raw id-keyed storage (persistence codec only)."""
        return self._sets

    def merge_from(self, other: "SiteSets") -> None:
        intern = self._domain.intern
        decode = other._domain.decode
        for host_id, ranks in other._sets.items():
            mine = intern(decode(host_id))
            existing = self._sets.get(mine)
            if existing is None:
                self._sets[mine] = existing = PackedIntSet(ranks)
            else:
                existing.update(ranks)

    def get(self, host: str, default=None):
        host_id = self._domain.lookup(host)
        if host_id is None:
            return default
        return self._sets.get(host_id, default)

    def __getitem__(self, host: str) -> PackedIntSet:
        host_id = self._domain.lookup(host)
        if host_id is None or host_id not in self._sets:
            raise KeyError(host)
        return self._sets[host_id]

    def __contains__(self, host: str) -> bool:
        host_id = self._domain.lookup(host)
        return host_id is not None and host_id in self._sets

    def keys(self) -> List[str]:
        decode = self._domain.decode
        return [decode(host_id) for host_id in self._sets]

    def items(self) -> Iterator[Tuple[str, PackedIntSet]]:
        decode = self._domain.decode
        return (
            (decode(host_id), ranks) for host_id, ranks in self._sets.items()
        )

    def values(self) -> Iterator[PackedIntSet]:
        return iter(self._sets.values())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._sets)

    def __bool__(self) -> bool:
        return bool(self._sets)

    def to_dict(self) -> Dict[str, set]:
        decode = self._domain.decode
        return {
            decode(host_id): set(ranks)
            for host_id, ranks in self._sets.items()
        }

    def __eq__(self, other) -> bool:
        if isinstance(other, SiteSets):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == {k: set(v) for k, v in other.items()}
        return NotImplemented
