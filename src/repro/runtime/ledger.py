"""Durable runs: the run ledger, shard journal, and crash recovery.

The paper's measurement ran for four years; at production scale a
multi-hour sharded crawl that dies at 90% must not restart from zero.
This module makes whole-process death survivable:

* a **run manifest** (``manifest.json``) pins what the run *is* — a
  scenario-config digest, crawl mode, fault-plan digest, target week
  ordinals, retained-domain digest, store format, and the full shard
  plan (with each shard's coverage key);
* a **write-ahead journal** (``journal/shard-*.wal``) receives every
  completed shard's payload — with its store in the codec bytes a
  replay folds — checksummed with sha256 and written with fsync +
  atomic rename *inside the worker*, so a payload is durable the moment
  the dispatcher could ever see it;
* on resume, journaled payloads are **replayed** through the identical
  deterministic merge fold; truncated, bit-flipped, or otherwise invalid
  entries are **quarantined** into ``quarantine/`` and their shards
  re-executed rather than silently trusted.

Each journal entry is one :mod:`repro.durable` header-line record
(format version, shard index, coverage key, sha256 of the body)
whose body is the format-3 frame: a u32 length prefix, the shard
store's canonical binary blob (format v2, already zlib-sectioned —
see :mod:`repro.crawler.persistence`), and the zlib-compressed
canonical JSON of the remaining payload fields ("metrics", counters).
A pool process's store blob is journaled verbatim; a shard run in the
dispatching process is encoded once, for its entry alone.

Run-directory layout::

    <checkpoint_dir>/
        manifest.json          # versioned run manifest (atomic write)
        journal/
            shard-00000.wal    # one checksummed entry per completed shard
            shard-00017.wal
        quarantine/
            shard-00004.wal    # entries that failed validation on resume

Determinism contract (extends PR-1/PR-3): a run killed at any point and
resumed — on any backend, at any worker count — produces a byte-identical
persisted store to the same run executed uninterrupted.  Replayed
payloads are the exact bytes the original workers produced; re-executed
shards are deterministic functions of (config, shard coverage, fault
plan); and the merge fold consumes both in shard-plan order.  Resuming
adopts the manifest's shard plan, so fault draws (pure in the shard
coverage key) stay consistent even if the live execution knobs changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..canonical import canonical_digest
from ..config import ScenarioConfig, scenario_digest
from ..durable import (
    atomic_write_bytes,
    encode_record,
    parse_json,
    quarantine,
    read_record,
    sweep_temp_files,
)
from ..errors import CheckpointError, CheckpointMismatchError
from .sharding import Shard
from .worker import ShardTask, execute_shard_safely, shard_coverage_key

#: Version of the manifest + journal-entry schema.  Format 2 requires
#: every payload's in-worker ``"metrics"``; format 3 frames the shard
#: store blob verbatim; format 4 records the plan's provenance and the
#: span facts (``cells``/``scripts``) the cost profile needs; format 5
#: digests the config and fault plan as canonical JSON, not pickle
#: bytes, so an older checkpoint is refused.  Entries of older formats
#: are quarantined and their shards re-run: a resumed fold never mixes
#: entry generations.
LEDGER_FORMAT = 5

MANIFEST_NAME = "manifest.json"
JOURNAL_DIRNAME = "journal"
QUARANTINE_DIRNAME = "quarantine"

#: zlib level for the journal entry's metadata JSON (the store blob is
#: already compressed by the binary codec and is journaled verbatim).
#: Level 1 is plenty for the small, repetitive metrics document.
JOURNAL_COMPRESSION = 1

#: u32 length prefix framing the store blob inside a format-3 body.
_STORE_LEN = struct.Struct("<I")


def _canonical(payload: object) -> str:
    """The canonical JSON text a checksum is computed over."""
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# Digests pinning a run's identity
# ----------------------------------------------------------------------
def fault_plan_digest(fault_plan) -> str:
    """Digest of the fault plan (``"none"`` for fault-free runs)."""
    if fault_plan is None:
        return "none"
    return canonical_digest(fault_plan)


def domains_digest(domain_names: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(domain_names).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The run manifest
# ----------------------------------------------------------------------
#: One shard-plan row: (index, week_start, week_count, domain_start,
#: domain_count, coverage key).
PlanRow = Tuple[int, int, int, int, int, str]


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Versioned description of one durable run.

    Everything that must match for journaled payloads to be replayable
    lives here; everything that may legally vary between the original
    and the resumed process (backend, workers, cache) does not.
    """

    scenario_digest: str
    seed: int
    mode: str
    fault_digest: str
    week_ordinals: Tuple[int, ...]
    domains_digest: str
    domain_count: int
    store_format: int
    shard_plan: Tuple[PlanRow, ...]
    format: int = LEDGER_FORMAT
    #: How the shard plan was produced: ``"uniform"`` (cell-balanced)
    #: or ``"weighted"`` (cost-balanced via ``plan_from``).  Provenance,
    #: not identity: a resume adopts the stored plan regardless of what
    #: the live process would have planned.
    plan_source: str = "uniform"
    #: sha256 of the ``plan_from`` metrics document the plan was built
    #: from (``"none"`` for uniform plans) — the audit trail from a
    #: weighted plan back to the exact measurements that shaped it.
    plan_from_digest: str = "none"

    #: Fields compared on resume; the shard plan is adopted from the
    #: manifest rather than compared (and its provenance fields with
    #: it), so execution-shape changes between the original and resumed
    #: process stay legal.
    _IDENTITY_FIELDS = (
        "format",
        "scenario_digest",
        "seed",
        "mode",
        "fault_digest",
        "week_ordinals",
        "domains_digest",
        "domain_count",
        "store_format",
    )

    @classmethod
    def build(
        cls,
        config: ScenarioConfig,
        mode: str,
        fault_plan,
        week_ordinals: Sequence[int],
        domain_names: Sequence[str],
        shards: Sequence[Shard],
        store_format: int,
        plan_source: str = "uniform",
        plan_from_digest: str = "none",
    ) -> "RunManifest":
        """Derive the manifest for a planned run."""
        ordinals = tuple(week_ordinals)
        names = tuple(domain_names)
        plan: List[PlanRow] = []
        for shard in shards:
            shard_ordinals = ordinals[
                shard.week_start : shard.week_start + shard.week_count
            ]
            shard_names = names[
                shard.domain_start : shard.domain_start + shard.domain_count
            ]
            plan.append(
                (
                    shard.index,
                    shard.week_start,
                    shard.week_count,
                    shard.domain_start,
                    shard.domain_count,
                    shard_coverage_key(shard_ordinals, shard_names),
                )
            )
        return cls(
            scenario_digest=scenario_digest(config),
            seed=config.seed,
            mode=mode,
            fault_digest=fault_plan_digest(fault_plan),
            week_ordinals=ordinals,
            domains_digest=domains_digest(names),
            domain_count=len(names),
            store_format=store_format,
            shard_plan=tuple(plan),
            plan_source=plan_source,
            plan_from_digest=plan_from_digest,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        return cls(
            format=payload["format"],
            scenario_digest=payload["scenario_digest"],
            seed=payload["seed"],
            mode=payload["mode"],
            fault_digest=payload["fault_digest"],
            week_ordinals=tuple(payload["week_ordinals"]),
            domains_digest=payload["domains_digest"],
            domain_count=payload["domain_count"],
            store_format=payload["store_format"],
            shard_plan=tuple(
                (row[0], row[1], row[2], row[3], row[4], row[5])
                for row in payload["shard_plan"]
            ),
            plan_source=payload.get("plan_source", "uniform"),
            plan_from_digest=payload.get("plan_from_digest", "none"),
        )

    def mismatches(self, live: "RunManifest") -> List[Tuple[str, object, object]]:
        """``(field, recorded, live)`` triples where this manifest diverges."""
        out: List[Tuple[str, object, object]] = []
        for field in self._IDENTITY_FIELDS:
            recorded, current = getattr(self, field), getattr(live, field)
            if recorded != current:
                out.append((field, recorded, current))
        return out

    def shards(self) -> List[Shard]:
        """Rebuild the recorded shard plan as planner objects."""
        return [
            Shard(
                index=index,
                week_start=week_start,
                week_count=week_count,
                domain_start=domain_start,
                domain_count=domain_count,
            )
            for index, week_start, week_count, domain_start, domain_count, _ in (
                self.shard_plan
            )
        ]

    def coverage_keys(self) -> Dict[int, str]:
        """Expected journal-entry coverage key per shard index."""
        return {row[0]: row[5] for row in self.shard_plan}

    def plan_problem(self) -> Optional[str]:
        """Why the shard plan does not partition this run's grid.

        ``None`` when it does: each row is five ints and a coverage
        key, the indices run ``0..n-1`` in order, each shard is a
        non-empty block of the ``len(week_ordinals) x domain_count``
        grid, and every cell lies in exactly one shard.  A resumed run
        adopts the stored plan, so it is checked first.
        """
        n_weeks, n_domains = len(self.week_ordinals), self.domain_count
        cuts = {0, n_weeks}
        for position, row in enumerate(self.shard_plan):
            index, week_start, week_count, domain_start, domain_count, key = row
            if any(type(value) is not int for value in row[:5]) or not (
                isinstance(key, str)
            ):
                return f"row {position} is not five ints and a coverage key"
            if index != position:
                return f"row {position} has shard index {index}"
            if not (
                0 <= week_start < week_start + week_count <= n_weeks
                and 0 <= domain_start < domain_start + domain_count <= n_domains
            ):
                return (
                    f"shard {index} is not a non-empty block of the "
                    f"{n_weeks} x {n_domains} grid"
                )
            cuts.update((week_start, week_start + week_count))
        # The weeks between two consecutive cuts lie in the same shards,
        # whose domain runs must tile the domains.
        cuts = sorted(cuts)
        for first, end in zip(cuts, cuts[1:]):
            covered = 0
            for start, count in sorted(
                (row[3], row[4])
                for row in self.shard_plan
                if row[1] <= first < row[1] + row[2]
            ):
                if start != covered:  # a gap or an overlap
                    covered = -1
                    break
                covered += count
            if covered != n_domains:
                return (
                    f"weeks {first}-{end - 1} do not cover the {n_domains} "
                    f"domains exactly once"
                )
        return None


# ----------------------------------------------------------------------
# Ledger scan result
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LedgerScan:
    """What :meth:`RunLedger.open` found in the run directory.

    Attributes:
        resumed: A matching manifest existed and its journal was
            scanned.
        manifest: The authoritative manifest (the stored one when
            resuming, the freshly written one otherwise).
        payloads: Valid journaled payloads by shard index — replay these
            instead of re-executing their shards.
        quarantined: Journal entries that failed validation and were
            moved to ``quarantine/``.
        replayed_bytes: Total size of the valid entries' files.
    """

    resumed: bool
    manifest: RunManifest
    payloads: Dict[int, Dict[str, object]]
    quarantined: int = 0
    replayed_bytes: int = 0


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
class RunLedger:
    """Owns one on-disk run directory: manifest, journal, quarantine.

    The ledger is cheap to construct (it holds only paths), safe to
    reconstruct inside worker processes, and concurrency-safe by
    design: journal entries are per-shard files with process-unique
    temp names, finalized by atomic rename.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.manifest_path = self.root / MANIFEST_NAME
        self.journal_dir = self.root / JOURNAL_DIRNAME
        self.quarantine_dir = self.root / QUARANTINE_DIRNAME

    # ------------------------------------------------------------------
    def entry_path(self, shard_index: int) -> Path:
        return self.journal_dir / f"shard-{shard_index:05d}.wal"

    def entry_bytes(self, shard_indices: Iterable[int]) -> int:
        """Total on-disk size of the journal entries for these shards."""
        total = 0
        for index in shard_indices:
            try:
                total += self.entry_path(index).stat().st_size
            except OSError:  # pragma: no cover - raced/removed entry
                continue
        return total

    # ------------------------------------------------------------------
    def open(self, manifest: RunManifest, resume: bool) -> LedgerScan:
        """Start (or resume) a durable run in this directory.

        Fresh start: writes ``manifest`` atomically and returns an empty
        scan.  Resume with a stored manifest: verifies it matches
        ``manifest`` (:class:`~repro.errors.CheckpointMismatchError`
        otherwise), validates every journal entry against the *stored*
        shard plan, quarantines invalid ones, and returns the replayable
        payloads.  Resume with no stored manifest falls back to a fresh
        start, so ``resume=True`` is always safe to pass.

        Raises:
            CheckpointError: The directory already holds a run and
                ``resume`` is false, or its manifest is unreadable.
            CheckpointMismatchError: The stored run is not this run, or
                its shard plan does not cover the run's grid exactly
                once (:meth:`RunManifest.plan_problem`).
        """
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        sweep_temp_files(self.journal_dir)

        if self.manifest_path.exists():
            if not resume:
                raise CheckpointError(
                    f"checkpoint directory {self.root} already contains a "
                    f"run manifest; pass resume=True to continue it or "
                    f"point checkpoint_dir at a fresh directory"
                )
            stored = self._load_manifest()
            mismatches = stored.mismatches(manifest)
            if not mismatches:
                problem = stored.plan_problem()
                if problem is not None:
                    mismatches = [(
                        "shard_plan",
                        problem,
                        "every cell of the grid in exactly one shard",
                    )]
            if mismatches:
                raise CheckpointMismatchError(self.manifest_path, mismatches)
            payloads, quarantined, replayed_bytes = self._scan_journal(stored)
            return LedgerScan(
                resumed=True,
                manifest=stored,
                payloads=payloads,
                quarantined=quarantined,
                replayed_bytes=replayed_bytes,
            )

        # Fresh start.  Stray journal entries without a manifest cannot
        # be attributed to any run — quarantine rather than trust them.
        quarantined = 0
        for stray in sorted(self.journal_dir.glob("shard-*.wal")):
            quarantine(stray, self.quarantine_dir)
            quarantined += 1
        atomic_write_bytes(
            self.manifest_path,
            _canonical(manifest.to_dict()).encode("utf-8"),
        )
        return LedgerScan(
            resumed=False,
            manifest=manifest,
            payloads={},
            quarantined=quarantined,
        )

    # ------------------------------------------------------------------
    def journal(
        self, shard_index: int, shard_key: str, payload: Dict[str, object]
    ) -> int:
        """Append one completed shard's payload to the journal.

        Called from inside the worker (any backend) the moment the shard
        finishes, *before* the dispatcher can fold the payload — the
        write-ahead property.  The entry is a :mod:`repro.durable` record
        whose header carries the shard index and coverage key, and whose
        body is the format-3 frame: u32 store-blob length, the store's
        canonical binary bytes verbatim, then the zlib-compressed
        canonical JSON of the remaining payload fields.  The atomic write
        means a crash at any point leaves either no entry or a complete,
        verifiable one.  The whole body is a deterministic function of
        the payload, so re-journaling a validated payload reproduces the
        original entry byte for byte.

        Returns the entry size in bytes.
        """
        store_blob = payload["store"]
        if not isinstance(store_blob, (bytes, bytearray)):
            raise TypeError(
                "journal payloads carry the store as binary blob bytes "
                f"(store_to_bytes), got {type(store_blob).__name__}"
            )
        meta = {key: value for key, value in payload.items() if key != "store"}
        body = (
            _STORE_LEN.pack(len(store_blob))
            + bytes(store_blob)
            + zlib.compress(_canonical(meta).encode("utf-8"), JOURNAL_COMPRESSION)
        )
        return atomic_write_bytes(
            self.entry_path(shard_index),
            encode_record(
                LEDGER_FORMAT, body, shard_index=shard_index, shard_key=shard_key
            ),
        )

    # ------------------------------------------------------------------
    def _load_manifest(self) -> RunManifest:
        try:
            return RunManifest.from_dict(
                parse_json(self.manifest_path.read_bytes())
            )
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            raise CheckpointError(
                f"checkpoint manifest {self.manifest_path} is unreadable "
                f"({type(exc).__name__}: {exc}); the run directory is "
                f"corrupt — start a fresh one"
            ) from exc

    def _scan_journal(
        self, manifest: RunManifest
    ) -> Tuple[Dict[int, Dict[str, object]], int, int]:
        """Validate every journal entry against the stored shard plan.

        Returns ``(payloads by shard index, quarantined count, replayed
        bytes)``.  An entry is quarantined — moved aside and its shard
        re-executed — when it is truncated, not valid JSON, fails its
        checksum, or names a shard/coverage the plan does not.
        """
        expected_keys = manifest.coverage_keys()
        payloads: Dict[int, Dict[str, object]] = {}
        quarantined = 0
        replayed_bytes = 0
        for entry_file in sorted(self.journal_dir.glob("shard-*.wal")):
            entry = self._validate_entry(entry_file, expected_keys)
            if entry is None:
                quarantine(entry_file, self.quarantine_dir)
                quarantined += 1
                continue
            # A valid entry's file name spells its index, so no index
            # comes twice.
            payloads[entry["shard_index"]] = entry["payload"]
            replayed_bytes += entry_file.stat().st_size
        return payloads, quarantined, replayed_bytes

    @staticmethod
    def _validate_entry(
        entry_file: Path, expected_keys: Dict[int, str]
    ) -> Optional[dict]:
        # The record check covers the header and the body bytes exactly
        # as they sit on disk — truncation and bit-flips (in the store
        # blob or the metadata alike) fail there without any parsing.
        record = read_record(entry_file, LEDGER_FORMAT)
        if not record.ok:
            return None
        entry, body = record.header, record.body
        index = entry.get("shard_index")
        if not isinstance(index, int) or index not in expected_keys:
            return None
        if entry.get("shard_key") != expected_keys[index]:
            return None
        if entry_file.name != f"shard-{index:05d}.wal":
            return None
        # Format-3 body: u32 store-blob length, store bytes verbatim,
        # compressed metadata JSON.
        if len(body) < _STORE_LEN.size:
            return None
        (store_len,) = _STORE_LEN.unpack_from(body)
        meta_start = _STORE_LEN.size + store_len
        if meta_start > len(body):
            return None
        try:
            meta = parse_json(zlib.decompress(body[meta_start:]))
        except (zlib.error, ValueError):
            return None
        if not isinstance(meta, dict) or not meta.get("ok"):
            return None
        if "store" in meta:  # a store field outside the frame is foreign
            return None
        # Format 2+: the in-worker metrics capture must ride with the
        # store — a payload without it cannot participate in the exact
        # telemetry fold, so its shard is re-executed instead.
        if not isinstance(meta.get("metrics"), dict):
            return None
        payload = dict(meta)
        payload["store"] = body[_STORE_LEN.size : meta_start]
        return dict(entry, payload=payload)


# ----------------------------------------------------------------------
# In-worker journaling
# ----------------------------------------------------------------------
class JournalingRunner:
    """A picklable ``run_task`` that journals successful payloads.

    Wraps the normal shard entry point so the journal write happens in
    the worker — the calling process on the serial backend, the pool
    process on the process backend — immediately after the shard
    completes.  That is what makes a hard process abort survivable at
    per-shard granularity on every backend: by the time a payload could
    reach the dispatcher, it is already durable.

    A payload that carries its store live (a shard run in the calling
    process) is encoded once, for the journal only, and passed on live.
    """

    def __init__(
        self,
        root: Union[str, Path],
        run_task: Callable[[ShardTask], Dict[str, object]] = execute_shard_safely,
    ) -> None:
        self.root = str(root)
        self.run_task = run_task

    def __call__(self, task: ShardTask) -> Dict[str, object]:
        payload = self.run_task(task)
        if payload.get("ok"):
            from ..crawler.persistence import store_to_bytes

            started = time.perf_counter_ns()
            entry = payload
            if not isinstance(payload["store"], (bytes, bytearray)):
                entry = dict(payload, store=store_to_bytes(payload["store"]))
            RunLedger(self.root).journal(
                task.shard_index, task.shard_key(), entry
            )
            # The journal-write wall time is stamped *after* journaling
            # (the durable bytes can't contain their own write time) and
            # lives in the process tier, so it never perturbs canonical
            # metrics.  A replayed payload simply lacks it — correctly:
            # the resumed run did not pay that write.
            metrics = payload.get("metrics")
            if isinstance(metrics, dict):
                process = metrics.setdefault("process", {})
                process["wall.journal_us"] = int(process.get(
                    "wall.journal_us", 0
                )) + (time.perf_counter_ns() - started) // 1000
        return payload
