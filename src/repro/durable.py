"""Durable files: one write primitive and one checked record format.

Every file a later process must trust is written by
:func:`atomic_write_bytes`.  The run ledger's journal entries, the job
queue's records and the profile store's segments are **header-line
records**: one JSON line (``json.dumps(..., sort_keys=True)`` of the
writer's fields plus ``format`` and the body's ``sha256``), a newline,
then the body bytes.  :func:`encode_record` builds one and
:func:`read_record` verifies one, treating the file as untrusted: it
returns a verdict and never raises.  This module imports nothing else
from the package, so any layer may use it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

#: Verdicts of :func:`read_record` (see :class:`RecordRead`).
OK = "ok"
MISSING = "missing"
TORN = "torn"
WRONG_FORMAT = "wrong-format"
CHECKSUM_MISMATCH = "checksum-mismatch"


def atomic_write_bytes(path: Path, data: bytes) -> int:
    """Write ``data`` to ``path`` durably: temp file, fsync, atomic rename.

    A reader (including a resumed run) can never observe a torn write:
    either the old file, or the complete new one.  The containing
    directory is fsync'd after the rename so the *name* survives a crash
    too (best-effort on platforms without directory fsync).

    Returns the number of bytes written.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:  # pragma: no cover - platform-dependent durability upgrade
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:
        return len(data)
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - e.g. directories on some FSes
        pass
    finally:
        os.close(dir_fd)
    return len(data)


def parse_json(data: Union[bytes, str]) -> object:
    """Parse untrusted JSON: any malformed input raises ``ValueError`` —
    bytes that are not UTF-8, and nesting too deep for the parser (which
    ``json.loads`` reports as ``RecursionError``) included."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except RecursionError as exc:
        raise ValueError("JSON document nested too deep") from exc


def encode_record(record_format: int, body: bytes, **fields: object) -> bytes:
    """The header-line record of ``body`` with ``fields`` in its header."""
    header = dict(
        fields, format=record_format, sha256=hashlib.sha256(body).hexdigest()
    )
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body


@dataclasses.dataclass(frozen=True)
class RecordRead:
    """What :func:`read_record` found: :data:`OK` or the first failed
    check — :data:`MISSING` (absent or unreadable), :data:`TORN` (no
    header line, or a header that is not a JSON object, nested too deep
    included), :data:`WRONG_FORMAT` or :data:`CHECKSUM_MISMATCH` — with
    the header whenever it parsed as an object, and the body after it."""

    verdict: str
    header: Optional[dict] = None
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.verdict == OK


def read_record(path: Union[str, Path], record_format: int) -> RecordRead:
    """Read and verify one header-line record; never raises."""
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return RecordRead(MISSING)
    head, newline, body = raw.partition(b"\n")
    try:
        header = parse_json(head)
    except ValueError:
        return RecordRead(TORN)
    if not isinstance(header, dict):
        return RecordRead(TORN)
    if not newline:
        return RecordRead(TORN, header)
    if header.get("format") != record_format:
        return RecordRead(WRONG_FORMAT, header, body)
    if header.get("sha256") != hashlib.sha256(body).hexdigest():
        return RecordRead(CHECKSUM_MISMATCH, header, body)
    return RecordRead(OK, header, body)


def quarantine(path: Path, directory: Path) -> None:
    """Move a damaged file into ``directory`` — never deleted, never
    trusted — under a name no earlier one holds."""
    target = directory / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = directory / f"{path.name}.{suffix}"
    os.replace(path, target)


def sweep_temp_files(*directories: Path) -> None:
    """Remove temp files of writes that died mid-flight."""
    for directory in directories:
        for tmp in directory.glob(".*.tmp"):
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - raced removal
                pass
