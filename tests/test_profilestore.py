"""The cross-run profile store: one checksummed segment per crawl shard.

* **Pinned counters.**  Three chained manifest-mode Studies of one
  dataset — tick *t* reads the generations of ticks *t-1 .. 0* and
  writes its own, as the orchestrator's crawl jobs do — record
  exactly these ``profile_store`` counters and save exactly these
  stores, on one-shard and multi-shard plans alike.
  Each tick here crawls from week 0 (an orchestrator tick crawls only
  the weeks after its base's), so every tick looks up profiles its
  predecessors built.
  They were recorded with the one-file-per-profile store this layout
  replaced.
* **Layout.**  A generation holds only the profiles no predecessor
  had, one segment per crawl block, named after its bytes; each key is
  hashed once per in-run cache miss; segment bytes do not depend on
  ``PYTHONHASHSEED``.
* **Corruption matrix.**  A truncated, bit-flipped, foreign or
  malformed segment — or a generation without a current marker —
  yields misses only, never an exception, while an intact segment
  beside it still hits.  A planted format-1 pickle entry is never
  deserialised, and no crawler module imports ``pickle``.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Study
from repro.config import ScenarioConfig
from repro.crawler import profilestore
from repro.crawler.cache import site_state_key
from repro.crawler.crawl import profile_from_manifest
from repro.crawler.persistence import store_to_bytes
from repro.crawler.profilestore import (
    MARKER_NAME,
    PROFILE_STORE_FORMAT,
    SEGMENT_SUFFIX,
    ProfileStore,
    profile_digest,
)
from repro.fingerprint import default_cdn_catalog
from repro.options import ExecutionOptions, RunOptions
from repro.webgen import WebEcosystem

_CHAIN = ScenarioConfig(population=80, seed=13)

#: Per tick: (profile_store.hits, profile_store.misses, sha256[:16] of
#: the saved store).  Tick *t* crawls weeks ``[0, 2t + 2)``.
_CHAIN_PINNED = [
    (0, 0, "1eed07e9571b861c"),
    (66, 2, "037ee3386147ce16"),
    (68, 3, "9a4922db2bd1d8df"),
]


def _tick_options(root: Path, tick: int, options: RunOptions) -> RunOptions:
    """``options`` with tick ``tick``'s profile-store generations."""
    return dataclasses.replace(
        options,
        execution=dataclasses.replace(
            options.execution,
            profile_store_read=tuple(
                str(root / f"gen-{t:03d}") for t in range(tick - 1, -1, -1)
            ),
            profile_store_write=str(root / f"gen-{tick:03d}"),
        ),
    )


def _run_chain(root: Path, options=None, reports=None):
    observed = []
    for tick in range(3):
        study = Study(
            _CHAIN, options=_tick_options(root, tick, options or RunOptions())
        )
        report = study.run(weeks=_CHAIN.calendar.weeks[: 2 * (tick + 1)])
        if reports is not None:
            reports.append(report)
        counters = report.metrics.counters
        observed.append(
            (
                counters["profile_store.hits"],
                counters["profile_store.misses"],
                hashlib.sha256(store_to_bytes(study.store)).hexdigest()[:16],
            )
        )
    return observed


class TestChainedRuns:
    def test_direct_serial_chain_is_pinned(self, tmp_path):
        assert _run_chain(tmp_path) == _CHAIN_PINNED

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_sharded_chain_is_pinned(self, tmp_path, backend):
        options = RunOptions(
            execution=ExecutionOptions(
                workers=2, backend=backend, shard_size=40
            )
        )
        assert _run_chain(tmp_path, options) == _CHAIN_PINNED


def _segments(directory: Path):
    return sorted(
        path
        for path in directory.iterdir()
        if path.name.endswith(SEGMENT_SUFFIX)
    )


def _entries(directory: Path) -> dict:
    entries = {}
    for path in _segments(directory):
        _, _, body = path.read_bytes().partition(b"\n")
        entries.update(json.loads(body))
    return entries


class TestLayout:
    def test_generations_hold_only_what_no_predecessor_had(self, tmp_path):
        reports = []
        _run_chain(tmp_path, reports=reports)
        generations = [tmp_path / f"gen-{tick:03d}" for tick in range(3)]
        held = [set(_entries(directory)) for directory in generations]
        # Tick 0 stores every profile it built; later ticks store their
        # misses only, so no content address is in two generations.
        assert len(held[0]) == reports[0].metrics.counters["cache.misses"]
        assert [len(h) for h in held[1:]] == [
            report.metrics.counters["profile_store.misses"]
            for report in reports[1:]
        ]
        assert not (held[0] & held[1] or held[0] & held[2] or held[1] & held[2])
        for directory in generations:
            # One block per tick on a one-shard plan: one segment, named
            # after the sha256 of its bytes, beside the marker.
            (segment,) = _segments(directory)
            assert segment.name == (
                hashlib.sha256(segment.read_bytes()).hexdigest()
                + SEGMENT_SUFFIX
            )
            assert sorted(p.name for p in directory.iterdir()) == sorted(
                [MARKER_NAME, segment.name]
            )
        assert not list(tmp_path.rglob("*.profile"))

    def test_sharded_generation_holds_the_same_profiles(self, tmp_path):
        _run_chain(tmp_path / "direct")
        options = RunOptions(
            execution=ExecutionOptions(workers=2, backend="serial", shard_size=40)
        )
        _run_chain(tmp_path / "sharded", options)
        for tick in range(3):
            direct = tmp_path / "direct" / f"gen-{tick:03d}"
            sharded = tmp_path / "sharded" / f"gen-{tick:03d}"
            assert len(_segments(sharded)) > 1
            assert _entries(sharded) == _entries(direct)

    def test_each_key_is_hashed_once_per_cache_miss(self, tmp_path, monkeypatch):
        calls = []

        def counting_digest(domain_name, rank, key):
            calls.append(rank)
            return profile_digest(domain_name, rank, key)

        monkeypatch.setattr(profilestore, "profile_digest", counting_digest)
        reports = []
        _run_chain(tmp_path, reports=reports)
        assert len(calls) == sum(
            report.metrics.counters["cache.misses"] for report in reports
        )

    def test_a_block_that_built_nothing_writes_nothing(self, tmp_path):
        store = ProfileStore(write_dir=tmp_path / "gen-000")
        store.flush()
        assert not (tmp_path / "gen-000").exists()

    def test_rewriting_a_segment_is_idempotent(self, tmp_path):
        gen = tmp_path / "gen-000"
        for _ in range(2):
            store = ProfileStore(write_dir=gen)
            for domain, key, profile in _built(range(6)):
                store.store(domain.name, domain.rank, key, profile)
            store.flush()
        assert len(_segments(gen)) == 1

    def test_segment_bytes_ignore_the_hash_seed(self, tmp_path):
        script = (
            "import hashlib, sys\n"
            "from pathlib import Path\n"
            "from repro import ExecutionOptions, RunOptions, ScenarioConfig, Study\n"
            "gen = Path(sys.argv[1])\n"
            "config = ScenarioConfig(population=40, seed=13)\n"
            "options = RunOptions(execution=ExecutionOptions("
            "profile_store_write=str(gen)))\n"
            "Study(config, options=options).run(weeks=config.calendar.weeks[:2])\n"
            "for path in sorted(gen.iterdir()):\n"
            "    print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        listings = set()
        for seed in ("1", "2", "3"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / f"gen-{seed}")],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            listings.add(proc.stdout)
        (listing,) = listings
        assert SEGMENT_SUFFIX in listing


# ----------------------------------------------------------------------
# Corruption matrix
# ----------------------------------------------------------------------
_DATASET = ScenarioConfig(population=40, seed=3)


def _built(indices):
    """(domain, site-state key, profile) of live domains, week 0."""
    ecosystem = WebEcosystem(_DATASET)
    live = [d for d in ecosystem.population if d.alive_at(0)]
    built = []
    for index in indices:
        domain = live[index]
        manifest = ecosystem.manifest(domain, 0)
        built.append(
            (
                domain,
                site_state_key(manifest),
                profile_from_manifest(manifest, default_cdn_catalog()),
            )
        )
    return built


@pytest.fixture()
def generation(tmp_path):
    """A generation of two segments: ``damaged`` and ``intact`` profiles.

    Returns ``(gen_dir, damaged_segment_path, damaged, intact)``; the
    profile lists hold ``(domain, key, profile)`` triples.
    """
    gen = tmp_path / "gen-000"
    damaged, intact = _built(range(0, 6)), _built(range(6, 12))
    before = set()
    paths = []
    for group in (damaged, intact):
        store = ProfileStore(write_dir=gen)
        for domain, key, profile in group:
            store.store(domain.name, domain.rank, key, profile)
        store.flush()
        (path,) = set(_segments(gen)) - before
        before.add(path)
        paths.append(path)
    return gen, paths[0], damaged, intact


def _lookups(gen: Path, triples):
    """A fresh reader's lookup results for ``triples``, and the reader."""
    reader = ProfileStore(read_dirs=[gen])
    found = [reader.lookup(d.name, d.rank, key) for d, key, _ in triples]
    return found, reader


def _assert_damaged_misses(gen, damaged, intact):
    found, reader = _lookups(gen, damaged + intact)
    assert found[: len(damaged)] == [None] * len(damaged)
    assert found[len(damaged):] == [profile for _, _, profile in intact]
    assert (reader.hits, reader.misses) == (len(intact), len(damaged))


def _rewrite(path: Path, body: bytes, **header) -> None:
    """Replace a segment with ``body`` behind a header that verifies."""
    fields = {
        "count": len(json.loads(body)) if body.startswith(b"{") else 0,
        "format": PROFILE_STORE_FORMAT,
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    fields.update(header)
    path.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + body)


def _split(path: Path):
    head, _, body = path.read_bytes().partition(b"\n")
    return json.loads(head), body


#: Armed by unpickling a :class:`_Bomb`: proof the pickle was loaded.
_DETONATIONS = []


def _detonate():
    _DETONATIONS.append(True)
    raise RuntimeError("a planted pickle was deserialised")


class _Bomb:
    def __reduce__(self):
        return (_detonate, ())


class TestCorruptionMatrix:
    def test_intact_generation_hits_everything(self, generation):
        gen, _, damaged, intact = generation
        found, reader = _lookups(gen, damaged + intact)
        assert found == [profile for _, _, profile in damaged + intact]
        assert (reader.hits, reader.misses) == (12, 0)

    @pytest.mark.parametrize("where", ["empty", "one", "header-1", "header",
                                       "header+1", "middle", "last-1"])
    def test_truncated_segment_misses(self, generation, where):
        gen, path, damaged, intact = generation
        raw = path.read_bytes()
        header = raw.index(b"\n")
        cut = {
            "empty": 0,
            "one": 1,
            "header-1": header - 1,
            "header": header,
            "header+1": header + 1,
            "middle": len(raw) // 2,
            "last-1": len(raw) - 1,
        }[where]
        path.write_bytes(raw[:cut])
        _assert_damaged_misses(gen, damaged, intact)

    @pytest.mark.parametrize("where", [0, 10, "newline", "body", "middle", -2])
    def test_flipped_byte_misses(self, generation, where):
        gen, path, damaged, intact = generation
        raw = bytearray(path.read_bytes())
        header = raw.index(b"\n")
        offset = {
            "newline": header,
            "body": header + 3,
            "middle": len(raw) // 2,
        }.get(where, where)
        raw[offset] ^= 0x20
        path.write_bytes(bytes(raw))
        _assert_damaged_misses(gen, damaged, intact)

    @pytest.mark.parametrize(
        "header",
        [{"format": 1}, {"format": "2"}, {"count": 5}, {"sha256": "0" * 64}],
    )
    def test_header_that_disagrees_misses(self, generation, header):
        gen, path, damaged, intact = generation
        _, body = _split(path)
        _rewrite(path, body, **header)
        _assert_damaged_misses(gen, damaged, intact)

    def test_header_that_is_not_an_object_misses(self, generation):
        gen, path, damaged, intact = generation
        _, body = _split(path)
        path.write_bytes(b'["format", 2]\n' + body)
        _assert_damaged_misses(gen, damaged, intact)

    @pytest.mark.parametrize(
        "body",
        [b"[]", b'"text"', b"{}", b'{"x": 1}', b"not json", b"[" * 100_000],
    )
    def test_verified_body_of_the_wrong_shape_misses(self, generation, body):
        gen, path, damaged, intact = generation
        _rewrite(path, body)
        _assert_damaged_misses(gen, damaged, intact)

    @pytest.mark.parametrize(
        "damage",
        ["external-not-bool", "unknown-script-access", "extra-field",
         "missing-field", "count-is-bool", "entry-is-list"],
    )
    def test_entry_of_the_wrong_shape_misses(self, generation, damage):
        gen, path, damaged, intact = generation
        _, body = _split(path)
        entries = json.loads(body)
        for entry in entries.values():
            if damage == "external-not-bool":
                entry["libraries"] = [
                    dict(d, external=1) for d in entry["libraries"]
                ] or [{"external": 1}]
            elif damage == "unknown-script-access":
                entry["flash_embeds"] = [
                    {
                        "swf_url": "https://s.example/a.swf",
                        "tag": "object",
                        "script_access": "sometimes",
                        "script_access_specified": True,
                        "external": True,
                        "visible": True,
                    }
                ]
            elif damage == "extra-field":
                entry["extra"] = None
            elif damage == "missing-field":
                del entry["page_host"]
            elif damage == "count-is-bool":
                entry["script_count"] = True
        if damage == "entry-is-list":
            entries = {digest: [entry] for digest, entry in entries.items()}
        _rewrite(
            path,
            json.dumps(entries, sort_keys=True, separators=(",", ":")).encode(),
        )
        _assert_damaged_misses(gen, damaged, intact)

    @pytest.mark.parametrize("marker", [None, {"format": 1}, b"{torn"])
    def test_generation_without_a_current_marker_is_ignored(
        self, generation, marker
    ):
        gen, _, damaged, intact = generation
        if marker is None:
            (gen / MARKER_NAME).unlink()
        elif isinstance(marker, bytes):
            (gen / MARKER_NAME).write_bytes(marker)
        else:
            (gen / MARKER_NAME).write_text(json.dumps(marker))
        found, reader = _lookups(gen, damaged + intact)
        assert found == [None] * 12
        assert reader.read_dirs == ()
        assert reader.hits == 0

    def test_planted_pickle_entry_is_never_deserialised(self, generation):
        gen, path, damaged, intact = generation
        path.unlink()
        # The format-1 layout: one ``<digest>.profile`` file per entry,
        # a JSON header line, then a pickle body.
        body = pickle.dumps(_Bomb())
        for domain, key, _ in damaged:
            digest = profile_digest(domain.name, domain.rank, key)
            header = json.dumps(
                {
                    "digest": digest,
                    "format": 1,
                    "sha256": hashlib.sha256(body).hexdigest(),
                },
                sort_keys=True,
            )
            (gen / f"{digest}.profile").write_bytes(
                header.encode() + b"\n" + body
            )
        with pytest.raises(RuntimeError):
            pickle.loads(body)  # the bomb is live
        _DETONATIONS.clear()
        _assert_damaged_misses(gen, damaged, intact)
        assert _DETONATIONS == []

    def test_dot_prefixed_temp_files_are_ignored(self, generation):
        gen, path, damaged, intact = generation
        raw = path.read_bytes()
        path.unlink()
        # What a killed atomic write leaves, and a hidden copy with the
        # segment suffix: neither is a segment.
        (gen / f".{path.name}.4242.tmp").write_bytes(raw)
        (gen / f".{path.name}").write_bytes(raw)
        _assert_damaged_misses(gen, damaged, intact)


def test_no_crawler_module_imports_pickle():
    crawler = Path(profilestore.__file__).parent
    importers = []
    for path in sorted(crawler.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "pickle" for name in names):
                importers.append(path.name)
    assert importers == []
