"""What the runner measures: peak memory per interpreter, and CPU time in
units of the reference computation."""

import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent.parent


def test_peak_rss_is_the_interpreters_own():
    # The parent's resident size, well above a bare interpreter's.
    ballast = b"x" * (200 << 20)
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
        "import workloads; print(workloads.peak_rss_mib())"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert float(child.stdout) < 100
    del ballast


def test_user_cpu_ref_follows_a_change_of_machine_speed():
    # The machine halves its speed for a run: the repeats' user CPU time
    # and their references stretch together, and the ratio stays.
    def repeats(slowdown):
        return [
            {"user_s": user * slowdown, "ref_user_s": [ref * slowdown],
             "setup_done": 1.3, "launched": 1.0, "extra_setups_s": [], "rss_mib": 50.0}
            for user, ref in [(1.0, 0.2), (1.1, 0.21), (0.9, 0.19)]
        ]

    assert run.end_to_end(repeats(1))["user_cpu_ref"] == 5.0
    assert run.end_to_end(repeats(2))["user_cpu_ref"] == 5.0
