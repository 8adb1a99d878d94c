"""Output checks: each returns a list of problems, empty when the output
matches its reference.  The references are computed outside every timed
section (``workloads.prepare_*``)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def check_bytes(label: str, got: bytes, want: bytes) -> List[str]:
    """``got`` must equal ``want`` byte for byte."""
    if got == want:
        return []
    if len(got) != len(want):
        return [f"{label}: {len(got)} bytes, reference has {len(want)}"]
    first = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return [f"{label}: differs from the reference at byte {first}"]


def check_fleet(
    states: Dict[str, str],
    done_manifests: Dict[str, bool],
    metrics_first: bytes,
    metrics_rerun: bytes,
) -> List[str]:
    """Every job ``done`` with a readable ``DONE.json``, and a re-run of
    the finished fleet rewrites a byte-identical ``fleet-metrics.json``."""
    problems = [
        f"job {job} ended {state!r}, not 'done'"
        for job, state in sorted(states.items())
        if state != "done"
    ]
    problems += [
        f"job {job}: read_done_manifest returned nothing"
        for job, ok in sorted(done_manifests.items())
        if not ok
    ]
    problems += check_bytes(
        "fleet-metrics.json after re-running the finished fleet",
        metrics_rerun,
        metrics_first,
    )
    return problems


def check_digests(
    label: str, got: Sequence[Optional[str]], want: Sequence[str]
) -> List[str]:
    """Per-response digests must equal the reference replay's, in order.

    A ``None`` digest marks a request that failed on the socket.
    """
    problems = []
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} responses, reference has {len(want)}")
    mismatched = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    if mismatched:
        problems.append(
            f"{label}: {len(mismatched)} of {len(want)} responses differ from "
            f"the in-process replay (first at request {mismatched[0]})"
        )
    return problems


def mismatched_responses(got: Sequence[Optional[str]], want: Sequence[str]) -> int:
    """Responses that failed or differ from the reference."""
    return sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))


def check_same(label: str, values: Sequence) -> List[str]:
    """Every repeat must give the same value (deterministic outputs)."""
    distinct = {repr(value) for value in values}
    if len(distinct) <= 1:
        return []
    return [f"{label}: differs across repeats ({len(distinct)} distinct values)"]


def check_attribution(label: str, unattributed_ratio: float, margin: float) -> List[str]:
    """The self times of a traced repeat must account for its traced
    window to within ``margin``: the share no span covers stays below it."""
    if abs(unattributed_ratio) <= margin:
        return []
    return [
        f"{label}: {unattributed_ratio:.1%} of the traced window is in no "
        f"span's self time, over the stated margin of {margin:.0%}"
    ]
