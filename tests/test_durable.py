"""The durable-file primitive: one write path, one checked record.

Every reader of a header-line record treats its input as untrusted, so
the record reader's corruption matrix runs here, once, against the
primitive: whatever is done to the bytes, :func:`read_record` returns a
verdict and never raises.  The last test pins the ownership invariants
over the whole package: no module imports ``pickle``, and only
``repro/durable.py`` fsyncs, renames or defines the write primitive.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.durable import (
    CHECKSUM_MISMATCH,
    MISSING,
    OK,
    TORN,
    WRONG_FORMAT,
    atomic_write_bytes,
    encode_record,
    parse_json,
    quarantine,
    read_record,
    sweep_temp_files,
)

_FORMAT = 3
_BODY = b'{"a":1,"b":[2,3]}\x00binary tail'
#: Deep enough to exhaust the JSON parser's recursion limit.
_NESTED = b"[" * 200_000


def _record(**fields) -> bytes:
    return encode_record(_FORMAT, _BODY, job_id="crawl-000", **fields)


def _header_end() -> int:
    return _record().index(b"\n")


class TestEncoding:
    def test_layout_is_sorted_header_line_then_body(self):
        data = _record(state="done")
        digest = hashlib.sha256(_BODY).hexdigest()
        assert data == (
            f'{{"format": 3, "job_id": "crawl-000", "sha256": "{digest}", '
            f'"state": "done"}}\n'
        ).encode("utf-8") + _BODY

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.rec"
        assert atomic_write_bytes(path, _record()) == len(_record())
        read = read_record(path, _FORMAT)
        assert read.ok and read.verdict == OK
        assert read.body == _BODY
        assert read.header["job_id"] == "crawl-000"


def _truncate(cut):
    return lambda data: data[:cut(data)]


#: (case, damage applied to a valid record's bytes, expected verdict,
#: whether the header still parses).
_MATRIX = [
    ("empty", lambda data: b"", TORN, False),
    ("cut-inside-header", _truncate(lambda d: 10), TORN, False),
    ("cut-before-newline", _truncate(lambda d: _header_end()), TORN, True),
    ("cut-after-newline", _truncate(lambda d: _header_end() + 1),
     CHECKSUM_MISMATCH, True),
    ("cut-mid-body", _truncate(lambda d: len(d) - len(_BODY) // 2),
     CHECKSUM_MISMATCH, True),
    ("cut-last-byte", _truncate(lambda d: len(d) - 1), CHECKSUM_MISMATCH, True),
    ("header-not-json", lambda data: b"{not json\n" + _BODY, TORN, False),
    ("header-not-utf8", lambda data: b"\xff\xfe{}\n" + _BODY, TORN, False),
    ("header-is-a-list", lambda data: b"[1, 2]\n" + _BODY, TORN, False),
    ("header-is-a-string", lambda data: b'"header"\n' + _BODY, TORN, False),
    ("header-nested-too-deep", lambda data: _NESTED + b"\n" + _BODY, TORN, False),
    ("wrong-format",
     lambda data: encode_record(_FORMAT + 1, _BODY, job_id="crawl-000"),
     WRONG_FORMAT, True),
    ("format-missing",
     lambda data: json.dumps({"sha256": hashlib.sha256(_BODY).hexdigest()})
     .encode("utf-8") + b"\n" + _BODY,
     WRONG_FORMAT, True),
    ("sha256-missing",
     lambda data: json.dumps({"format": _FORMAT}).encode("utf-8") + b"\n" + _BODY,
     CHECKSUM_MISMATCH, True),
    ("body-byte-flipped",
     lambda data: data[:-3] + bytes([data[-3] ^ 0x01]) + data[-2:],
     CHECKSUM_MISMATCH, True),
    ("body-appended", lambda data: data + b"x", CHECKSUM_MISMATCH, True),
]


class TestCorruptionMatrix:
    def test_missing_file(self, tmp_path):
        read = read_record(tmp_path / "absent.rec", _FORMAT)
        assert read.verdict == MISSING and not read.ok
        assert read.header is None and read.body == b""

    @pytest.mark.parametrize(
        "damage,verdict,header_parses",
        [case[1:] for case in _MATRIX],
        ids=[case[0] for case in _MATRIX],
    )
    def test_damaged_record(self, tmp_path, damage, verdict, header_parses):
        path = tmp_path / "r.rec"
        path.write_bytes(damage(_record()))
        read = read_record(path, _FORMAT)
        assert read.verdict == verdict
        assert not read.ok
        assert (read.header is not None) == header_parses
        if header_parses:
            assert isinstance(read.header, dict)

    def test_every_cut_point_is_caught(self, tmp_path):
        data = _record()
        path = tmp_path / "r.rec"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            assert read_record(path, _FORMAT).verdict in (
                TORN,
                CHECKSUM_MISMATCH,
            ), cut


class TestUntrustedJson:
    @pytest.mark.parametrize(
        "raw", [_NESTED, b"{" * 200_000, b"\xff", b"", b"[1,"]
    )
    def test_malformed_input_is_a_value_error(self, raw):
        with pytest.raises(ValueError):
            parse_json(raw)

    def test_text_and_bytes_parse_alike(self):
        assert parse_json('{"a": [1]}') == parse_json(b'{"a": [1]}') == {"a": [1]}


class TestFiles:
    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_quarantine_never_overwrites(self, tmp_path):
        aside = tmp_path / "quarantine"
        aside.mkdir()
        path = tmp_path / "shard-00001.wal"
        for content in (b"first", b"second", b"third"):
            path.write_bytes(content)
            quarantine(path, aside)
            assert not path.exists()
        names = ["shard-00001.wal", "shard-00001.wal.1", "shard-00001.wal.2"]
        assert sorted(p.name for p in aside.iterdir()) == names
        assert [(aside / n).read_bytes() for n in names] == [
            b"first",
            b"second",
            b"third",
        ]

    def test_sweep_removes_only_temp_files(self, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        for directory in (tmp_path, jobs):
            (directory / ".a.rec.123.tmp").write_bytes(b"half")
            (directory / "a.rec").write_bytes(b"whole")
        sweep_temp_files(jobs, tmp_path)
        assert sorted(p.name for p in jobs.iterdir()) == ["a.rec"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.rec", "jobs"]


# ----------------------------------------------------------------------
# One owner
# ----------------------------------------------------------------------
def test_no_pickle_and_one_owner_of_fsync_and_rename():
    """Identity never rests on pickle bytes, and every fsync and rename
    in the package happens inside the durable-file primitive."""
    root = Path(repro.__file__).resolve().parent
    paths = sorted(root.rglob("*.py"))
    assert len(paths) > 50
    pickling, syncing, defining = [], [], []
    for path in paths:
        name = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "pickle" for alias in node.names):
                    pickling.append(name)
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "pickle":
                    pickling.append(name)
                if node.module == "os" and any(
                    alias.name in ("fsync", "replace") for alias in node.names
                ):
                    syncing.append(name)
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr in ("fsync", "replace")
                ):
                    syncing.append(name)
            elif isinstance(node, ast.FunctionDef):
                if node.name == "atomic_write_bytes":
                    defining.append(name)
    assert pickling == []
    assert set(syncing) == {"durable.py"}
    assert defining == ["durable.py"]
