"""The repository's benchmark: three workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload crawl-full --seed 1 --seconds 30 --trace 0

``--workload`` is ``crawl-full``, ``fleet-beat`` or ``read-serve`` (see
``workloads.py`` for what each runs and why).  The run prepares its
inputs and references from ``--seed`` in one fresh interpreter, then
starts one fresh interpreter per measured repeat until ``--seconds`` of
repeats are done, checks every repeat's outputs against the references,
and prints the metrics: one line each with its unit and base, then, as
the last line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics (medians
across repeats); ``--trace 1`` alternates untraced and traced repeats
and reports the per-layer metrics of the traced repeats.  After every
interpreter it starts, the run times a fixed reference computation, so
that CPU time can also be given in units of the machine's speed at that
moment.

A failed output check exits 1 and prints no metrics.  Work files go to
``.bench_build/perfbench/`` in the checkout; the full record of each run
(environment, sizes, every repeat, the layer map) is written to
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_attribution, check_same  # noqa: E402
from layers import INCLUSIVE, LAYER_MAP, PER_LAYER, percentile  # noqa: E402
from workloads import WORKLOADS, median, user_cpu_s  # noqa: E402

#: (metric, unit, better) in the JSON line of ``--trace 0``: end-to-end
#: metrics every workload has and that repeat from run to run on a
#: shared host.  ``user_cpu_ref`` is the timed section's user-mode CPU
#: time in units of the reference computation's, both medians over the
#: same minutes of the run: shared 2-vCPU hosts change speed by up to 2x
#: for minutes at a time, which moves every time in seconds but not this
#: ratio.  User time leaves out the kernel's file-system work and the
#: waits on ``fsync`` and on the socket, which vary with the host's disk
#: and timers rather than with the program; the traced run counts that
#: work exactly (``runtime.fsyncs``, ``runtime.durable_writes``).  The
#: times in seconds (``wall_s``, ``cpu_s``) and the workload-specific
#: metrics (``cells_per_s``, ``analyses_s``, ``req_per_s``, latency
#: percentiles, ``failed_ratio``) are printed on the text lines.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("user_cpu_ref", "ref", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

#: Sizes of the reference computation's two halves: about 0.15 s of CPU
#: time each on a 2-vCPU cloud VM.
REFERENCE_ITEMS = 100_000
REFERENCE_STEPS = 2_000_000

#: Stop starting repeats after this long, so a run ends within 180 s.
HARD_STOP_S = 120.0
#: No child may outlive this many seconds after the run started.
RUN_DEADLINE_S = 170.0
#: A traced run's self times must account for its traced window to
#: within this share; the remainder is ``trace.unattributed_s``.
UNATTRIBUTED_MARGIN = 0.15


class RunFailed(Exception):
    """A child failed, the repeats did not fit, or an output check failed."""


def cpu_ticks():
    """``(steal, total)`` CPU ticks of the machine from /proc/stat, or
    None where that file cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def reference_work() -> str:
    """A fixed pure-Python computation in two halves: string formatting,
    counting in a dict larger than the CPU caches, sorting and hashing;
    then arithmetic on a few integers.  A busy shared host slows
    cache-bound work more than arithmetic, and the program does both."""
    counts: Dict[str, int] = {}
    for i in range(REFERENCE_ITEMS):
        key = f"lib-{i * 7919 % 4099}/{i % 13}.{i % 7}"
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    total = 0
    for i in range(REFERENCE_STEPS):
        total += i * i % 7
    return hashlib.sha256(f"{ordered!r}{total}".encode("ascii")).hexdigest()


def reference_user_s() -> float:
    """User-mode CPU seconds of one ``reference_work`` in this process."""
    before = user_cpu_s()
    reference_work()
    return user_cpu_s() - before


def run_child(
    workload, seed: int, mode: str, work: Path, deadline: float,
    inputs: Optional[dict] = None, traced: bool = False,
) -> dict:
    """Run ``child.py`` in ``mode`` in a fresh interpreter working in
    ``work``; its result plus ``launched`` (monotonic time just before
    the process started).  A child still running at ``deadline``
    (monotonic) is killed."""
    work.mkdir(parents=True, exist_ok=True)
    spec = {
        "root": str(ROOT),
        "workload": workload.name,
        "size": workload.size,
        "seed": seed,
        "mode": mode,
        "trace": traced,
        "inputs": inputs or {},
        "work": str(work),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=max(1.0, deadline - launched),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise RunFailed(f"{mode} child for {workload.name} exited {proc.returncode}")
    result = json.loads((work / "result.json").read_text())
    result["launched"] = launched
    return result


def enough(workload, trace: bool, repeats: List[dict]) -> bool:
    traced = sum(1 for r in repeats if r["traced"])
    untraced = len(repeats) - traced
    if trace:
        return traced >= workload.min_traced and untraced >= 1
    return untraced >= workload.min_repeats


def measure(
    workload, seed: int, seconds: float, trace: bool, run_dir: Path, inputs, deadline: float
) -> List[dict]:
    """Start fresh interpreters until the run has its minimum repeats and
    another one would overrun ``seconds``.  Without tracing, each repeat
    is followed by the workload's set-up-only interpreters, whose set-up
    times it keeps as ``extra_setups_s``.  Every interpreter is followed
    by one reference computation; a repeat keeps the user CPU times of
    its own and its set-up-only interpreters' as ``ref_user_s``."""
    repeats: List[dict] = []
    rounds: List[float] = []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        if repeats and enough(workload, trace, repeats):
            if elapsed + statistics.median(rounds) > seconds or elapsed > HARD_STOP_S:
                break
        elif elapsed > HARD_STOP_S:
            raise RunFailed(
                f"only {len(repeats)} repeats fit in {HARD_STOP_S:.0f} s"
            )
        index = len(repeats)
        # Trace runs alternate untraced and traced repeats, so both see
        # the same machine conditions.
        traced = trace and index % 2 == 1
        work = run_dir / f"repeat-{index:02d}"
        result = run_child(workload, seed, "measure", work, deadline, inputs, traced)
        result["ref_user_s"] = [reference_user_s()]
        result["traced"] = traced
        result["index"] = index
        result["extra_setups_s"] = []
        for n in range(0 if trace else workload.extra_setups):
            setup = run_child(workload, seed, "setup", Path(f"{work}-setup-{n}"), deadline, inputs)
            result["extra_setups_s"].append(setup["setup_done"] - setup["launched"])
            result["ref_user_s"].append(reference_user_s())
        repeats.append(result)
        rounds.append(time.monotonic() - started - elapsed)
    return repeats


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_repeat(workload, repeat: dict, inputs: dict, run_dir: Path) -> List[str]:
    work = run_dir / f"repeat-{repeat['index']:02d}"
    return [
        f"repeat {repeat['index']}: {problem}"
        for problem in workload.check(repeat, inputs, work)
    ]


def check_run(repeats: List[dict]) -> List[str]:
    """Outputs that must repeat exactly across the run's repeats, and the
    traced repeats' accounting."""
    problems = check_same("attempted", [r["attempted"] for r in repeats])
    for label in repeats[0]["repeatable"]:
        problems += check_same(label, [r["repeatable"][label] for r in repeats])
    traced = [r for r in repeats if r["traced"]]
    # Counts only: byte totals include journal entries, whose metrics
    # carry wall-clock diagnostics and so vary in compressed size.
    for metric, unit in PER_LAYER:
        if unit == "count":
            problems += check_same(metric, [r["layers"][metric] for r in traced])
    for repeat in traced:
        if repeat["unmapped_spans"]:
            problems.append(
                f"spans with no per-layer metric: {', '.join(repeat['unmapped_spans'])}"
            )
        problems += check_attribution(
            f"traced repeat {repeat['index']}",
            repeat["layers"]["trace.unattributed_ratio"],
            UNATTRIBUTED_MARGIN,
        )
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def setup_times(runs: List[dict]) -> List[float]:
    """Set-up time of every fresh interpreter: the repeats' own and those
    of the set-up-only interpreters that followed them."""
    return [r["setup_done"] - r["launched"] for r in runs] + [
        t for r in runs for t in r["extra_setups_s"]
    ]


def reference_times(runs: List[dict]) -> List[float]:
    return [t for r in runs for t in r["ref_user_s"]]


def end_to_end(runs: List[dict]) -> Dict[str, float]:
    """The metrics of the JSON line (``END_TO_END``), medians over ``runs``."""
    return {
        "setup_s": median(setup_times(runs)),
        "user_cpu_ref": median(r["user_s"] for r in runs) / median(reference_times(runs)),
        "peak_rss_mib": median(r["rss_mib"] for r in runs),
    }


def details(workload, repeats: List[dict]) -> List[tuple]:
    """The end-to-end lines: (name, value, unit, base)."""
    runs = [r for r in repeats if not r["traced"]]
    n = len(runs)
    e2e = end_to_end(runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return [
        ("setup_s", e2e["setup_s"], "s",
         f"median of {len(setup_times(runs))} fresh interpreters"),
        ("wall_s", median(r["wall_ns"] / 1e9 for r in runs), "s", f"median of {n}"),
        ("cpu_s", median(r["cpu_ns"] / 1e9 for r in runs), "s",
         f"process CPU time of the timed section, median of {n}"),
        ("user_cpu_s", median(r["user_s"] for r in runs), "s",
         f"its user-mode part, median of {n}"),
        ("ref_user_s", median(reference_times(runs)), "s",
         f"user CPU time of the reference computation, median of "
         f"{len(reference_times(runs))}, one after each interpreter"),
        ("user_cpu_ref", e2e["user_cpu_ref"], "ref", "user_cpu_s / ref_user_s"),
        *workload.summarize(runs),
        ("peak_rss_mib", e2e["peak_rss_mib"], "MiB", f"median of {n}"),
        ("failed_ratio", failed / attempted if attempted else 0.0, "1",
         f"{failed} of {attempted} {workload.unit}"),
    ]


def per_layer(repeats: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of the traced repeat with the median traced
    window (so its self times add up), with latency percentiles pooled
    over every traced repeat and the tracing overhead from the run's
    untraced repeats."""
    traced = sorted(
        (r for r in repeats if r["traced"]), key=lambda r: r["window_ns"]
    )
    chosen = traced[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    handle = [v for r in traced for v in r["handle_us"]]
    socket = [v for r in traced for v in r["socket_us"]]
    metrics["serve.handle_p50_us"] = percentile(handle, 50)
    metrics["serve.handle_p99_us"] = percentile(handle, 99)
    metrics["serve.socket_p50_us"] = percentile(socket, 50)
    metrics["serve.socket_p99_us"] = percentile(socket, 99)
    untraced = median(r["wall_ns"] for r in repeats if not r["traced"])
    metrics["trace.overhead_ratio"] = median(r["wall_ns"] for r in traced) / untraced - 1
    return metrics


def run_once(workload, seed: int, seconds: float, trace: bool, run_dir: Path):
    """Prepare, measure and check one run; raises RunFailed.

    Returns the repeats and the share of the machine's CPU time that
    the hypervisor gave to other guests (steal) while they ran, the main
    source of run-to-run spread on shared hosts (None where unknown).
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Byte-compile the program first, so no repeat's set-up pays for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    inputs = run_child(workload, seed, "prepare", run_dir / "inputs", deadline)
    before = cpu_ticks()
    repeats = measure(workload, seed, seconds, trace, run_dir, inputs, deadline)
    after = cpu_ticks()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    problems = []
    for repeat in repeats:
        problems += check_repeat(workload, repeat, inputs, run_dir)
    problems += check_run(repeats)
    if problems:
        raise RunFailed("; ".join(problems))
    return repeats, steal


def print_report(workload, args, repeats: List[dict], steal, layer_metrics) -> dict:
    """Print the per-workload lines; return the run's full record."""
    fleet_fs = next((r["queue_fs"] for r in repeats if "queue_fs" in r), "-")
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "fleet_queue_fs": fleet_fs,
        "cpu_steal_share": steal,
    }
    untraced = sum(1 for r in repeats if not r["traced"])
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"python={env['python']} nproc={env['nproc']} fleet-queue-fs={fleet_fs} "
        f"cpu-steal={'-' if steal is None else f'{steal:.1%}'}"
    )
    print(f"  why:  {workload.reason}")
    print("  size: " + " ".join(f"{k}={v}" for k, v in workload.size.items()))
    print(f"  loop: {workload.loop}")
    print(
        f"  repeats: {untraced} untraced, {len(repeats) - untraced} traced; "
        f"outputs checked against references on every repeat"
    )
    lines = details(workload, repeats)
    for name, value, unit, note in lines:
        print(f"  {name:<16} {value:>14.6g} {unit:<5} ({note})")
    record = {
        "workload": workload.describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "end_to_end": {name: [value, unit, note] for name, value, unit, note in lines},
        "repeats": [
            {k: v for k, v in r.items() if k not in ("latencies_us", "handle_us", "socket_us")}
            for r in repeats
        ],
        "layer_map": LAYER_MAP,
    }
    if layer_metrics is not None:
        print(
            "  per layer: the traced repeat with the median window; self times "
            "unless marked inclusive; self times + trace.unattributed_s = "
            f"trace.window_s, within the stated margin of {UNATTRIBUTED_MARGIN:.0%} "
            f"on every traced repeat (here {layer_metrics['trace.unattributed_ratio']:.1%})"
        )
        for name, unit in PER_LAYER:
            flag = " (inclusive)" if name in INCLUSIVE else ""
            print(f"    {name:<36} {layer_metrics[name]:>14.6g} {unit}{flag}")
        print("  layer | metrics | public call | should move | most -> little:")
        for row in LAYER_MAP:
            print("    " + " | ".join(row))
        record["per_layer"] = layer_metrics
    return record


def keep_spans(run_dir: Path) -> None:
    """Drop the run's work files, keeping the first traced repeat's spans."""
    kept = False
    for child in sorted(run_dir.iterdir()):
        spans = child / "spans.jsonl"
        if not kept and spans.is_file():
            shutil.move(str(spans), str(run_dir / "spans.jsonl"))
            kept = True
        if child.is_dir():
            shutil.rmtree(child)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    base = ROOT / ".bench_build" / "perfbench"
    run_dir = base / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        repeats, steal = run_once(workload, args.seed, args.seconds, trace, run_dir)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {workload.name} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    layer_metrics = per_layer(repeats) if trace else None
    record = print_report(workload, args, repeats, steal, layer_metrics)
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"  record: {path.relative_to(ROOT)}")
    keep_spans(run_dir)

    runs = [r for r in repeats if not r["traced"]]
    if trace:
        metrics = {
            name: {"value": layer_metrics[name], "unit": unit} for name, unit in PER_LAYER
        }
    else:
        e2e = end_to_end(runs)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
