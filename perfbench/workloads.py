"""The three workloads: what each one runs, at what size, and why.

Each workload has two halves that run in fresh interpreters started by
``run.py``:

* ``prepare`` — builds the run's inputs and the references its outputs
  are checked against.  Nothing here is timed.
* ``set_up`` then ``measure`` — one measured repeat: ``child.py``
  times the set-up call (``setup_s``), then ``measure`` runs the timed
  section (the only calls any end-to-end metric covers) in the window
  it is given and gathers the evidence the checks need after the clock
  stopped.  A set-up-only interpreter runs ``set_up`` alone.

and two that ``run.py`` calls on the repeats' results:

* ``check`` — one repeat's outputs against the references;
* ``summarize`` — the workload's own end-to-end lines (its rate, and for
  ``read-serve`` the analyses time and request latencies).

Every call into the program goes through the public API of ``repro``.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from checks import check_bytes, check_digests, check_fleet, mismatched_responses
from layers import percentile
from tracer import Tracer


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    reason: str
    size: Dict[str, int]
    loop: str
    unit: str  # what ``attempted`` counts
    min_repeats: int  # untraced repeats per run, at least
    min_traced: int  # traced repeats per trace run, at least
    #: Set-up-only interpreters after each untraced repeat, so that
    #: ``setup_s`` is a median of enough fresh set-ups.
    extra_setups: int
    #: ``(size, seed, work) -> inputs``, in its own interpreter.
    prepare: Callable[[dict, int, Path], dict]
    #: ``(size, seed, work, inputs) -> state``: the set-up call.
    set_up: Callable[[dict, int, Path, dict], object]
    #: ``(state, size, seed, work, inputs, window, tracer) -> result``:
    #: the timed section of one repeat, then its evidence.
    measure: Callable[..., dict]
    #: ``(result, inputs, work) -> problems`` of one repeat.
    check: Callable[[dict, dict, Path], List[str]]
    #: ``(untraced results) -> [(name, value, unit, base)]``.
    summarize: Callable[[List[dict]], List[tuple]]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "reason": self.reason,
            "size": self.size,
            "loop": self.loop,
            "unit": self.unit,
        }


def peak_rss_mib() -> float:
    """Peak resident set of this interpreter (``VmHWM``).

    ``ru_maxrss`` is not used: Linux carries it over from the process
    that started the interpreter, so it reads at least the benchmark
    runner's own size.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def user_cpu_s() -> float:
    """User-mode CPU time of this process so far (all threads)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path`` (from /proc/mounts)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


class Window:
    """Clock for the traced intervals: the set-up call and the timed
    section.  Intervals closed with ``timed=True`` make up the timed
    section and also count towards ``wall_ns``, ``cpu_ns`` (process CPU
    time, all threads) and ``user_s`` (its user-mode part)."""

    def __init__(self) -> None:
        self.ns = self.wall_ns = self.cpu_ns = 0
        self.user_s = 0.0
        self._start = self._cpu = 0
        self._user = 0.0

    def open(self) -> None:
        self._user = user_cpu_s()
        self._cpu = time.process_time_ns()
        self._start = time.perf_counter_ns()

    def close(self, timed: bool = True) -> int:
        elapsed = time.perf_counter_ns() - self._start
        self.ns += elapsed
        if timed:
            self.wall_ns += elapsed
            self.cpu_ns += time.process_time_ns() - self._cpu
            self.user_s += user_cpu_s() - self._user
        return elapsed


def check_store(result: dict, inputs: dict, work: Path) -> List[str]:
    return check_bytes(
        "store.bin",
        (work / result["store"]).read_bytes(),
        Path(inputs["reference_store"]).read_bytes(),
    )


# ----------------------------------------------------------------------
# crawl-full
# ----------------------------------------------------------------------
def _reference_store(population: int, seed: int, weeks: int, work: Path) -> dict:
    """Reference store bytes: a direct manifest-mode ``Study`` crawl of
    the first ``weeks`` weeks."""
    from repro import ScenarioConfig, Study
    from repro.crawler.persistence import store_to_bytes

    study = Study(ScenarioConfig(population=population, seed=seed))
    study.run(weeks=study.config.calendar.weeks[:weeks])
    path = work / "reference-store.bin"
    path.write_bytes(store_to_bytes(study.store))
    return {"reference_store": str(path)}


def prepare_crawl_full(size: dict, seed: int, work: Path) -> dict:
    """Reference: a manifest-mode crawl of the same seed and grid."""
    return _reference_store(size["population"], seed, size["weeks"], work)


def set_up_crawl_full(size: dict, seed: int, work: Path, inputs: dict):
    from repro import ExecutionOptions, RunOptions, ScenarioConfig, Study

    return Study(
        ScenarioConfig(population=size["population"], seed=seed),
        mode="full",
        options=RunOptions(execution=ExecutionOptions(profile_cache=False)),
    )


def measure_crawl_full(
    study, size, seed, work: Path, inputs, window: Window, tracer: Optional[Tracer]
) -> dict:
    from repro.crawler.persistence import store_to_bytes
    from repro.reporting import StudyReport

    weeks = study.config.calendar.weeks[: size["weeks"]]
    window.open()
    report = study.run(weeks=weeks)
    run_ns = window.close()
    window.open()
    text = StudyReport(study).render()
    window.close()
    rss = peak_rss_mib()
    if tracer is not None:
        tracer.uninstall()

    (work / "store.bin").write_bytes(store_to_bytes(study.store))
    counters = report.metrics
    return {
        "run_ns": run_ns,
        "rss_mib": rss,
        "attempted": report.domains_crawled * report.weeks_crawled,
        "failed": report.dropped_cells,
        "repeatable": {
            "report text": sha256_hex(text.encode("utf-8")),
            "pages": report.pages_collected,
            "fetch failures": report.fetch_failures,
        },
        "store": "store.bin",
        "cache_hits": counters.counter("cache.hits"),
        "cache_misses": counters.counter("cache.misses"),
    }


def summarize_crawl_full(runs: List[dict]) -> List[tuple]:
    rate = median(r["attempted"] / (r["run_ns"] / 1e9) for r in runs)
    return [
        ("cells_per_s", rate, "1/s",
         f"{runs[0]['attempted']} cells / Study.run time, median of {len(runs)}"),
    ]


# ----------------------------------------------------------------------
# fleet-beat
# ----------------------------------------------------------------------
def prepare_fleet_beat(size: dict, seed: int, work: Path) -> dict:
    """Reference: a direct ``Study`` crawl of the last tick's window."""
    weeks = size["ticks"] * size["weeks_per_tick"]
    return _reference_store(size["population"], seed, weeks, work)


def set_up_fleet_beat(size: dict, seed: int, work: Path, inputs: dict):
    from repro.orchestrator import FleetPlan, Orchestrator

    plan = FleetPlan.build(
        size["population"], seed, size["ticks"], size["weeks_per_tick"]
    )
    return Orchestrator(work / "queue", plan)


def measure_fleet_beat(
    orchestrator, size, seed, work: Path, inputs, window: Window, tracer: Optional[Tracer]
) -> dict:
    from repro.orchestrator import Orchestrator

    queue_dir = work / "queue"
    plan = orchestrator.plan
    window.open()
    records = orchestrator.run()
    window.close()
    rss = peak_rss_mib()
    if tracer is not None:
        tracer.uninstall()

    queue = orchestrator.queue
    jobs = [spec.job_id for spec in plan.jobs]
    states = {job: records[job].state for job in jobs}
    manifests = {job: queue.read_done_manifest(job) is not None for job in jobs}
    metrics_path = queue_dir / "fleet-metrics.json"
    shutil.copyfile(metrics_path, work / "fleet-metrics.first.json")
    Orchestrator(queue_dir, plan).run()  # a finished fleet: nothing to run
    shutil.copyfile(metrics_path, work / "fleet-metrics.rerun.json")
    last_crawl = f"crawl-{size['ticks'] - 1:03d}"
    shutil.copyfile(
        queue.artifact_dir(last_crawl) / "store.bin", work / "store.bin"
    )
    cells = cache_hits = cache_misses = 0
    for job in jobs:
        if not job.startswith("crawl-"):
            continue
        document = json.loads((queue.artifact_dir(job) / "metrics.json").read_text())
        grid = document["planner"]["grid"]
        cells += grid["domains"] * grid["weeks"]
        counters = document["execution"]["counters"]
        cache_hits += counters.get("cache.hits", 0)
        cache_misses += counters.get("cache.misses", 0)
    queue_fs = filesystem_type(queue_dir)
    shutil.rmtree(queue_dir)
    return {
        "rss_mib": rss,
        "attempted": len(jobs),
        "failed": sum(1 for state in states.values() if state != "done"),
        "cells": cells,
        "repeatable": {"crawl-job cells": cells},
        "states": states,
        "done_manifests": manifests,
        "store": "store.bin",
        "queue_fs": queue_fs,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
    }


def check_fleet_beat(result: dict, inputs: dict, work: Path) -> List[str]:
    return check_store(result, inputs, work) + check_fleet(
        result["states"],
        result["done_manifests"],
        (work / "fleet-metrics.first.json").read_bytes(),
        (work / "fleet-metrics.rerun.json").read_bytes(),
    )


def summarize_fleet_beat(runs: List[dict]) -> List[tuple]:
    rate = median(r["cells"] / (r["wall_ns"] / 1e9) for r in runs)
    return [
        ("cells_per_s", rate, "1/s",
         f"{runs[0]['cells']} crawl-job cells / wall_s, median of {len(runs)}"),
    ]


# ----------------------------------------------------------------------
# read-serve
# ----------------------------------------------------------------------
def _analysis_context(app, size: dict, seed: int):
    from repro import ScenarioConfig
    from repro.analysis.api import AnalysisContext

    return AnalysisContext(
        config=ScenarioConfig(population=size["population"], seed=seed),
        database=app.database,
        matcher=app.store.matcher,
    )


def _canonical_sha256(document) -> str:
    return sha256_hex(json.dumps(document, sort_keys=True).encode("utf-8"))


def prepare_read_serve(size: dict, seed: int, work: Path) -> dict:
    """Input: a 201-week manifest crawl of the seed, saved with
    ``save_store``.  References: the analyses of that store and an
    in-process ``LoadGenerator`` replay of the mix, response by response."""
    from repro import ScenarioConfig, Study
    from repro.analysis.api import run_analyses
    from repro.crawler.persistence import save_store
    from repro.serve import LoadGenerator, ServeApp, build_mix

    study = Study(ScenarioConfig(population=size["population"], seed=seed))
    study.run(weeks=study.config.calendar.weeks[: size["weeks"]])
    save_store(study.store, work / "store.bin")
    app = ServeApp.from_files(work / "store.bin")
    analyses = run_analyses(app.store, _analysis_context(app, size, seed))
    mix = build_mix(app.store, app.database, seed, include_metrics=False)
    replay = LoadGenerator(app, mix).run(size["requests"])
    (work / "reference-digests.json").write_text(json.dumps(list(replay.digests)))
    return {
        "store": str(work / "store.bin"),
        "reference_analyses_sha256": _canonical_sha256(analyses),
        "reference_digests": str(work / "reference-digests.json"),
        "targets": len(mix.targets),
    }


def set_up_read_serve(size: dict, seed: int, work: Path, inputs: dict):
    from repro.serve import ServeApp, WallServeClock

    return ServeApp.from_files(inputs["store"], clock=WallServeClock())


def measure_read_serve(
    app, size, seed, work: Path, inputs, window: Window, tracer: Optional[Tracer]
) -> dict:
    """Fresh analyses passes (a new context each; the store keeps no
    analysis results), each followed by an equal share of the replay, so
    the passes sample the whole repeat rather than one moment of it."""
    import http.client

    from repro.analysis.api import run_analyses
    from repro.serve import LoadGenerator, build_mix, make_server
    from repro.serve.loadgen import response_digest

    mix = build_mix(app.store, app.database, seed, include_metrics=False)
    sampler = LoadGenerator(app, mix)  # samples the stream; never calls the app
    server = make_server(app)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.connect()
    passes, requests = size["analysis_passes"], size["requests"]
    analyses_ns = []
    analyses_sha256 = []
    replay_ns = 0
    etags: Dict[str, str] = {}
    responses = []  # (target, status, etag, body); None where the socket failed
    latencies_us = []
    try:
        for chunk in range(passes):
            context = _analysis_context(app, size, seed)
            window.open()
            analyses = run_analyses(app.store, context)
            analyses_ns.append(window.close())
            analyses_sha256.append(_canonical_sha256(analyses))
            window.open()
            for index in range(chunk * requests // passes, (chunk + 1) * requests // passes):
                target, conditional = sampler.sample()
                headers = {}
                known = etags.get(target)
                if known is not None and conditional:
                    headers["If-None-Match"] = known
                span = None
                if tracer is not None:
                    tracer.request = f"request-{index}"
                    span = tracer.begin("serve.socket")
                    tracer.remote_parent(span)
                sent = time.perf_counter_ns()
                try:
                    conn.request("GET", target, headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException):
                    responses.append(None)
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=30)
                    continue
                finally:
                    latencies_us.append((time.perf_counter_ns() - sent) / 1e3)
                    if span is not None:
                        tracer.end(span)
                        tracer.remote_parent(None)
                        tracer.request = None
                etag = response.getheader("ETag")
                if response.status == 200 and etag:
                    etags[target] = etag
                responses.append((target, response.status, etag, body))
            replay_ns += window.close()
        rss = peak_rss_mib()
    finally:
        if tracer is not None:
            tracer.uninstall()
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)

    digests = [None if r is None else response_digest(*r) for r in responses]
    (work / "digests.json").write_text(json.dumps(digests))
    reference = json.loads(Path(inputs["reference_digests"]).read_text())
    statuses = collections.Counter(str(r[1]) for r in responses if r is not None)
    return {
        "analyses_ns": analyses_ns,
        "replay_ns": replay_ns,
        "rss_mib": rss,
        "attempted": requests,
        "failed": mismatched_responses(digests, reference),
        "repeatable": {"status counts": dict(sorted(statuses.items()))},
        "latencies_us": latencies_us,
        "digests": "digests.json",
        "analyses_sha256": analyses_sha256,
    }


def check_read_serve(result: dict, inputs: dict, work: Path) -> List[str]:
    got = json.loads((work / result["digests"]).read_text())
    want = json.loads(Path(inputs["reference_digests"]).read_text())
    problems = check_digests("socket responses", got, want)
    differing = sum(
        1 for digest in result["analyses_sha256"]
        if digest != inputs["reference_analyses_sha256"]
    )
    if differing:
        problems.append(
            f"{differing} of {len(result['analyses_sha256'])} analyses passes "
            "differ from the reference pass"
        )
    return problems


def summarize_read_serve(runs: List[dict]) -> List[tuple]:
    n = len(runs)
    passes = [ns / 1e9 for r in runs for ns in r["analyses_ns"]]
    latencies = [v for r in runs for v in r["latencies_us"]]
    beyond_p99 = len(latencies) - math.ceil(0.99 * len(latencies))
    rate = median(r["attempted"] / (r["replay_ns"] / 1e9) for r in runs)
    return [
        ("analyses_s", median(passes), "s",
         f"run_analyses over all 17 analyses, median of {len(passes)} fresh passes"),
        ("req_per_s", rate, "1/s",
         f"{runs[0]['attempted']} requests / replay time, median of {n}"),
        ("latency_p50_us", percentile(latencies, 50), "us",
         f"{len(latencies)} requests pooled over {n} repeats"),
        ("latency_p99_us", percentile(latencies, 99), "us",
         f"{len(latencies)} requests, {beyond_p99} beyond p99"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crawl-full",
            reason=(
                "the paper's own crawler: every page rendered, fetched over "
                "netsim and fingerprinted every week; fingerprint is its top layer"
            ),
            size={"population": 1000, "weeks": 30},
            loop=(
                "batch: Study(mode='full', profile cache off) on the serial "
                "direct path, then StudyReport.render; one repeat per fresh "
                "interpreter"
            ),
            unit="grid cells (crawled domains x weeks)",
            min_repeats=4,
            min_traced=2,
            extra_setups=0,
            prepare=prepare_crawl_full,
            set_up=set_up_crawl_full,
            measure=measure_crawl_full,
            check=check_store,
            summarize=summarize_crawl_full,
        ),
        Workload(
            name="fleet-beat",
            reason=(
                "the longitudinal beat and the only workload that writes: "
                "checkpointed manifest crawls with the cross-run profile store, "
                "analyses, report and serve-refresh jobs on the durable queue"
            ),
            size={"population": 1000, "ticks": 3, "weeks_per_tick": 4},
            loop=(
                "batch: Orchestrator.run over FleetPlan.build(...) from an empty "
                "queue inside the checkout; one repeat per fresh interpreter"
            ),
            unit="fleet jobs",
            min_repeats=3,
            min_traced=2,
            extra_setups=0,
            prepare=prepare_fleet_beat,
            set_up=set_up_fleet_beat,
            measure=measure_fleet_beat,
            check=check_fleet_beat,
            summarize=summarize_fleet_beat,
        ),
        Workload(
            name="read-serve",
            reason=(
                "the read side of the store the fleet writes: decode, all 17 "
                "registered analyses over 201 weeks, and a keep-alive socket replay"
            ),
            size={"population": 600, "weeks": 201, "analysis_passes": 8, "requests": 340},
            loop=(
                "analysis_passes times: a fresh run_analyses pass, then "
                "requests/analysis_passes requests of a closed loop (one client "
                "on one keep-alive connection replaying a seeded Zipf mix, "
                "conditional revalidation on, against make_server on a thread); "
                "one repeat per fresh interpreter, one set-up-only interpreter "
                "after each"
            ),
            unit="requests",
            min_repeats=3,
            min_traced=3,
            extra_setups=1,
            prepare=prepare_read_serve,
            set_up=set_up_read_serve,
            measure=measure_read_serve,
            check=check_read_serve,
            summarize=summarize_read_serve,
        ),
    )
}
