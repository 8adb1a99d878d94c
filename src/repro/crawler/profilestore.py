"""Cross-run content-addressed profile store.

The PR-2 :class:`~repro.crawler.cache.ProfileCache` is per-shard,
per-run: every new :class:`~repro.core.Study` starts cold even when it
re-crawls the exact population the previous run just built.  For a
fleet of chained runs — the orchestrator's re-crawl beat — that throws
away most of the work: most sites are frozen or slow-moving, so run
N+1's profiles are overwhelmingly run N's profiles.

This module persists :class:`~repro.fingerprint.PageProfile` objects
under content-address keys so they survive the process, with a layout
designed to keep the runtime determinism contract intact:

* **Generation snapshots.**  Each run writes to its *own* generation
  directory and reads only from *predecessor* generations, which are
  immutable for the duration of the run.  Lookup results therefore do
  not depend on shard execution order, worker count, or backend — the
  same property that makes the in-run cache's counters canonical.
* **Manifest mode only.**  The manifest-mode miss path
  (:func:`~repro.crawler.crawl.profile_from_manifest`) records no
  instrumentation, so substituting a store hit for a rebuild changes no
  canonical counter except the ``profile_store.*`` pair introduced
  here.  Full mode keeps its in-run cache untouched.
* **Only what no predecessor had.**  A run stores a profile only when
  every predecessor missed it.  A run reads all of its predecessors,
  and a finished generation is complete and immutable, so the union of
  the generations already holds every profile a hit could return:
  storing hits again would change no later lookup.
* **One checksummed segment per crawl shard.**  A shard's new profiles
  are written once, when the shard's block ends, as one segment file:
  a :mod:`repro.durable` header-line record whose header adds the entry
  ``count``, and whose body is canonical JSON (sorted keys) mapping
  each content address to :func:`~repro.canonical.to_canonical_dict`
  of its profile.  The file is named after the sha256 of its bytes, so
  a retried or resumed shard rewrites an identical file (or finds it
  there), and it is finalized by
  :func:`~repro.durable.atomic_write_bytes`.
  Readers load and verify each predecessor's segments once, into one
  index; a torn, bit-flipped or malformed segment contributes nothing,
  and an entry that does not decode to a profile
  (:func:`~repro.fingerprint.profile.profile_from_canonical`) is a
  miss.  No entry is ever unpickled or otherwise executed.

The content-address covers everything a manifest-mode profile is a pure
function of: the domain's constant identity (name, rank) plus the
:func:`~repro.crawler.cache.site_state_key` fields.  The key is encoded
canonically — frozensets sorted, dataclasses by field order — because
the digest must agree across worker processes regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from ..canonical import to_canonical_dict
from ..durable import atomic_write_bytes, encode_record, parse_json, read_record
from ..fingerprint import PageProfile
from ..fingerprint.profile import profile_from_canonical
from .cache import SiteStateKey

#: Version of the generation-directory schema.  A generation whose
#: marker names another format is ignored wholesale (every lookup
#: misses) rather than half-read.  Format 1 kept one pickled file per
#: profile; format 2 keeps one canonical-JSON segment per crawl shard.
PROFILE_STORE_FORMAT = 2

MARKER_NAME = "profile-store.json"

SEGMENT_SUFFIX = ".segment"


def _encode(value: object) -> str:
    """Canonical text encoding of a site-state key component.

    ``repr`` alone is unstable for frozensets (iteration order follows
    the per-process hash seed), so sets are sorted and dataclasses are
    spelled out in declared field order.  Everything else in a key is a
    scalar whose ``repr`` is already canonical.
    """
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(_encode(v) for v in value)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(_encode(v) for v in value) + ")"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = ",".join(
            f"{field.name}={_encode(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({body})"
    return repr(value)


def profile_digest(domain_name: str, rank: int, key: SiteStateKey) -> str:
    """The content-address of one (domain identity, site state) pair."""
    text = f"{domain_name}|{rank}|{_encode(key)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_segment(path: Path) -> Dict[str, object]:
    """The entries of one segment file; empty unless every check passes.

    Checks: a record of this format that verifies
    (:func:`~repro.durable.read_record`), and a body that parses as a
    JSON object of ``count`` entries, each a JSON object.  Entries are
    not decoded here — only a lookup that hits one decodes it.
    """
    record = read_record(path, PROFILE_STORE_FORMAT)
    if not record.ok:
        return {}
    try:
        entries = parse_json(record.body)
    except ValueError:
        return {}
    if (
        not isinstance(entries, dict)
        or record.header.get("count") != len(entries)
        or not all(isinstance(entry, dict) for entry in entries.values())
    ):
        return {}
    return entries


class ProfileStore:
    """Durable cross-run profile cache over generation directories.

    Args:
        write_dir: This run's own generation directory (created and
            marked by the first :meth:`flush` with something to write);
            ``None`` disables writes.
        read_dirs: Predecessor generation directories, consulted in
            order — list the most recent generation first.  Directories
            without a valid format marker are ignored.

    Attributes:
        hits: Lookups answered from a predecessor generation.
        misses: Lookups no predecessor generation could answer.
    """

    __slots__ = (
        "write_dir", "read_dirs", "hits", "misses",
        "_index", "_pending", "_last_miss",
    )

    def __init__(
        self,
        write_dir: Optional[Union[str, Path]] = None,
        read_dirs: Sequence[Union[str, Path]] = (),
    ) -> None:
        self.write_dir = Path(write_dir) if write_dir else None
        self.read_dirs: Tuple[Path, ...] = tuple(
            path
            for path in (Path(d) for d in read_dirs)
            if self._valid_generation(path)
        )
        self.hits = 0
        self.misses = 0
        #: content address -> canonical entry, over every predecessor
        #: segment; loaded by the first lookup.
        self._index: Optional[Dict[str, object]] = None
        #: content address -> profile, stored since the last flush.
        self._pending: Dict[str, PageProfile] = {}
        #: (domain name, rank, key, digest) of the latest miss, so that
        #: storing the profile built for it hashes the key only once.
        self._last_miss: Optional[Tuple[str, int, SiteStateKey, str]] = None

    @classmethod
    def from_incremental(cls, incremental) -> Optional["ProfileStore"]:
        """Build a store from an :class:`~repro.config.IncrementalConfig`.

        Returns ``None`` when the config names neither a write
        generation nor read generations, so callers can keep the
        store-less path branch-free.
        """
        write_dir = getattr(incremental, "profile_store_write", None)
        read_dirs = getattr(incremental, "profile_store_read", ())
        if not write_dir and not read_dirs:
            return None
        return cls(write_dir=write_dir, read_dirs=read_dirs)

    # ------------------------------------------------------------------
    @staticmethod
    def _valid_generation(path: Path) -> bool:
        try:
            marker = parse_json((path / MARKER_NAME).read_bytes())
        except (OSError, ValueError):
            return False
        return (
            isinstance(marker, dict)
            and marker.get("format") == PROFILE_STORE_FORMAT
        )

    def _load_index(self) -> Dict[str, object]:
        """Every predecessor segment's entries; the freshest generation
        wins a content address several generations hold."""
        index: Dict[str, object] = {}
        for directory in reversed(self.read_dirs):
            try:
                names = sorted(
                    entry.name
                    for entry in directory.iterdir()
                    if entry.name.endswith(SEGMENT_SUFFIX)
                    and not entry.name.startswith(".")
                )
            except OSError:
                continue
            for name in names:
                index.update(_read_segment(directory / name))
        return index

    # ------------------------------------------------------------------
    def lookup(
        self, domain_name: str, rank: int, key: SiteStateKey
    ) -> Optional[PageProfile]:
        """The stored profile for this site state, from any predecessor.

        An entry of a verified segment that decodes to a profile is a
        hit; anything else — no entry, a damaged segment, an entry of
        the wrong shape — is a miss.
        """
        if not self.read_dirs:
            return None
        if self._index is None:
            self._index = self._load_index()
        digest = profile_digest(domain_name, rank, key)
        entry = self._index.get(digest)
        if entry is not None:
            try:
                profile = profile_from_canonical(entry)
            except ValueError:
                pass
            else:
                self.hits += 1
                return profile
        self.misses += 1
        self._last_miss = (domain_name, rank, key, digest)
        return None

    def store(
        self,
        domain_name: str,
        rank: int,
        key: SiteStateKey,
        profile: PageProfile,
    ) -> None:
        """Queue one built profile for this run's generation.

        Call it only for profiles no predecessor had (a :meth:`lookup`
        miss); :meth:`flush` writes the queued profiles.
        """
        if self.write_dir is None:
            return
        last = self._last_miss
        if (
            last is not None
            and last[2] is key
            and last[1] == rank
            and last[0] == domain_name
        ):
            digest = last[3]
        else:
            digest = profile_digest(domain_name, rank, key)
        self._last_miss = None
        self._pending[digest] = profile

    def flush(self) -> None:
        """Write the profiles stored since the last flush as one segment.

        Writes nothing when nothing was stored.  Otherwise the
        generation marker is written first (once), then the segment, by
        one atomic write each.  Segments are content-named, so shards
        racing on one generation, or a shard re-executed after a crash,
        write distinct or identical files — never a torn one.
        """
        if self.write_dir is None or not self._pending:
            return
        self.write_dir.mkdir(parents=True, exist_ok=True)
        marker = self.write_dir / MARKER_NAME
        if not marker.exists():
            text = json.dumps({"format": PROFILE_STORE_FORMAT})
            atomic_write_bytes(marker, text.encode("utf-8"))
        body = json.dumps(
            {
                digest: to_canonical_dict(profile)
                for digest, profile in self._pending.items()
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        data = encode_record(
            PROFILE_STORE_FORMAT, body, count=len(self._pending)
        )
        path = self.write_dir / (
            hashlib.sha256(data).hexdigest() + SEGMENT_SUFFIX
        )
        if not path.exists():
            atomic_write_bytes(path, data)
        self._pending.clear()

    # ------------------------------------------------------------------
    def record(self, instruments) -> None:
        """Flush hit/miss counters into an :class:`~repro.obs.Instruments`.

        Both keys are written (even at zero) whenever a store is
        configured, so fleets get a stable metrics shape; store-less
        runs keep their pre-existing document shape byte-identical.
        """
        instruments.inc("profile_store.hits", self.hits)
        instruments.inc("profile_store.misses", self.misses)
