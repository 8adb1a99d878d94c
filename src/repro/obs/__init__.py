"""Deterministic observability: exact, mergeable run telemetry.

See :mod:`repro.obs.instruments` for the determinism contract and
:mod:`repro.obs.schema` for the canonical document validation used by
CI against ``--metrics-out`` files.
"""

from .instruments import (
    ATTEMPTS_EDGES,
    COST_PER_CACHE_MISS,
    COST_PER_CELL,
    COST_PER_FAILURE,
    COST_PER_PAGE,
    COST_PER_SCRIPT,
    DATASET_COUNTERS,
    DATASET_HISTOGRAMS,
    LIBRARIES_PER_PAGE_EDGES,
    METRICS_FORMAT,
    PAGES_PER_SHARD_EDGES,
    SCRIPTS_PER_PAGE_EDGES,
    Histogram,
    Instruments,
    SpanEvent,
    shard_cost_units,
)
from .schema import (
    load_schema,
    load_serve_schema,
    validate_metrics,
    validate_serve_metrics,
)

__all__ = [
    "ATTEMPTS_EDGES",
    "COST_PER_CACHE_MISS",
    "COST_PER_CELL",
    "COST_PER_FAILURE",
    "COST_PER_PAGE",
    "COST_PER_SCRIPT",
    "DATASET_COUNTERS",
    "DATASET_HISTOGRAMS",
    "LIBRARIES_PER_PAGE_EDGES",
    "METRICS_FORMAT",
    "PAGES_PER_SHARD_EDGES",
    "SCRIPTS_PER_PAGE_EDGES",
    "Histogram",
    "Instruments",
    "SpanEvent",
    "load_schema",
    "load_serve_schema",
    "shard_cost_units",
    "validate_metrics",
    "validate_serve_metrics",
]
