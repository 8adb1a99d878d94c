"""One fresh interpreter of a benchmark run: ``python3 child.py SPEC``.

``SPEC`` is a JSON file naming the checkout root, the workload, its size
and seed, the mode (``prepare``, ``measure`` or ``setup``), whether to
trace, and the directory to work in.  The child writes ``result.json``
there; with tracing on it also writes its spans to ``spans.jsonl`` once
it is done.

``measure`` and ``setup`` both run the workload's set-up call and note
when it returned (``setup_done``, monotonic clock); ``setup`` stops
there, ``measure`` goes on to the timed section.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, Window

    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    workload, size, seed = WORKLOADS[spec["workload"]], spec["size"], spec["seed"]
    if spec["mode"] == "prepare":
        result = workload.prepare(size, seed, work)
    else:
        tracer = None
        if spec["trace"]:
            tracer = Tracer()
            layers.install(tracer)
        window = Window()
        window.open()
        state = workload.set_up(size, seed, work, spec["inputs"])
        window.close(timed=False)
        setup_done = time.monotonic()
        result = {}
        if spec["mode"] == "measure":
            result = workload.measure(
                state, size, seed, work, spec["inputs"], window, tracer
            )
            result.update(
                wall_ns=window.wall_ns,
                cpu_ns=window.cpu_ns,
                user_s=window.user_s,
                window_ns=window.ns,
            )
        result["setup_done"] = setup_done
        if tracer is not None:
            metrics, handle_us, socket_us = layers.span_metrics(
                tracer.spans, result["window_ns"]
            )
            lookups = result.get("cache_hits", 0) + result.get("cache_misses", 0)
            metrics["crawler.cache_lookups"] = lookups
            metrics["crawler.cache_hit_ratio"] = (
                result["cache_hits"] / lookups if lookups else 0.0
            )
            result["layers"] = metrics
            result["handle_us"] = handle_us
            result["socket_us"] = socket_us
            result["unmapped_spans"] = layers.unmapped_span_keys(tracer.spans)
            tracer.dump(work / "spans.jsonl")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
