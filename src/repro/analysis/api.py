"""Uniform analysis API: one registry over every analysis module.

Before this module each consumer of the analyses hand-wired its own
call shapes — ``Study`` exposed ~20 methods, the orchestrator's
analyses job called four functions directly, and the report renderer a
different overlapping set.  The registry gives every analysis one
entry point:

* ``name`` — stable registry key (also the key in folded documents);
* ``run(store, context) -> result`` — the analysis, where ``context``
  carries the non-store inputs (config, vulnerability database,
  matcher) so every analysis has the same signature;
* :func:`to_canonical_dict` — a deterministic encoder from any typed
  result to JSON-serializable data (dataclasses, enums — including
  enum *keys* — dates, numpy scalars, version ranges).  It lives in
  :mod:`repro.canonical`, so layers below the analyses (the crawler's
  profile store) share it without importing the registry; it is
  re-exported here.

The original module-level functions stay untouched; registry entries
are thin adapters over them, so existing callers keep working while
the orchestrator fold, the sweep engine, and ``reporting`` iterate
registered analyses instead of hand-wiring call shapes.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

from ..canonical import to_canonical_dict
from ..errors import AnalysisError


@dataclasses.dataclass(frozen=True)
class AnalysisContext:
    """The non-store inputs an analysis may need.

    Built once per consumer (``Study.analysis_context()``, the
    orchestrator's analyses job, the sweep fold) and shared across every
    registered analysis.
    """

    config: object
    database: object
    matcher: object


@runtime_checkable
class Analysis(Protocol):
    """What every registered analysis looks like."""

    name: str

    def run(self, store, context: AnalysisContext) -> object:
        """Produce this analysis's typed result dataclass."""


@dataclasses.dataclass(frozen=True)
class RegisteredAnalysis:
    """One registry entry: a named adapter over an analysis function."""

    name: str
    title: str
    runner: Callable[[object, AnalysisContext], object]

    def run(self, store, context: AnalysisContext) -> object:
        return self.runner(store, context)


_REGISTRY: Dict[str, RegisteredAnalysis] = {}


def register_analysis(
    name: str, *, title: str = ""
) -> Callable[[Callable], Callable]:
    """Register one analysis adapter under a stable name."""

    def decorator(runner: Callable) -> Callable:
        if name in _REGISTRY:
            raise AnalysisError(f"analysis {name!r} is already registered")
        _REGISTRY[name] = RegisteredAnalysis(
            name=name, title=title or (runner.__doc__ or "").strip(), runner=runner
        )
        return runner

    return decorator


def available_analyses() -> Tuple[str, ...]:
    """Registered analysis names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_analysis(name: str) -> RegisteredAnalysis:
    """Look up one analysis; unknown names list the vocabulary."""
    if name not in _REGISTRY:
        raise AnalysisError(
            f"unknown analysis {name!r}; registered analyses: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name]


def run_analyses(
    store,
    context: AnalysisContext,
    names: Optional[Tuple[str, ...]] = None,
) -> Dict[str, object]:
    """Run analyses by name → canonical-dict results, insertion-sorted.

    With ``names=None`` every registered analysis runs (sorted by
    name, so the document layout is deterministic).
    """
    selected = names if names is not None else available_analyses()
    return {
        name: to_canonical_dict(get_analysis(name).run(store, context))
        for name in selected
    }


# ----------------------------------------------------------------------
# Built-in entries: adapters over the analysis modules
# ----------------------------------------------------------------------
def _register_builtin() -> None:
    from ..webgen.libraries import TOP15_ORDER
    from . import (
        cve_accuracy,
        dominant,
        external,
        flash,
        landscape,
        overview,
        updates,
        vulnerable,
        wordpress,
    )

    entries = (
        ("collection-series", "Figure 2(a)", lambda s, c: overview.collection_series(s)),
        ("resource-usage", "Figure 2(b)", lambda s, c: overview.resource_usage(s)),
        ("landscape", "Table 1 / Figure 3 / Table 5", lambda s, c: landscape.analyze(s, c.database)),
        ("prevalence", "Section 6.2 / RQ1", lambda s, c: vulnerable.prevalence(s)),
        ("vulnerability-cdf", "Figure 12", lambda s, c: vulnerable.vulnerability_cdf(s)),
        ("dominant-versions", "Section 6.3", lambda s, c: dominant.dominant_versions(s, c.matcher, TOP15_ORDER)),
        ("discontinued", "Section 6.3 (discontinued)", lambda s, c: dominant.discontinued_usage(s)),
        ("cookie-migration", "Section 6.3 (migration)", lambda s, c: dominant.cookie_migration(s)),
        ("cve-accuracy", "Table 2", lambda s, c: cve_accuracy.classify_all(c.database, libraries=TOP15_ORDER)),
        ("cve-refinement", "Section 6.4", lambda s, c: cve_accuracy.refinement(s, c.database)),
        ("sri", "Figure 10", lambda s, c: external.sri_adoption(s)),
        ("untrusted-hosting", "Table 6", lambda s, c: external.untrusted_hosting(s)),
        ("update-delays", "Section 7 / RQ2", lambda s, c: updates.update_delays(s, c.database)),
        ("flash-usage", "Figure 8", lambda s, c: flash.flash_usage(s)),
        ("flash-script-access", "Figure 11", lambda s, c: flash.script_access(s)),
        ("wordpress-usage", "Figure 9", lambda s, c: wordpress.usage(s)),
        ("wordpress-cves", "Table 4", lambda s, c: wordpress.cve_exposure(s, c.database)),
    )
    for name, title, runner in entries:
        register_analysis(name, title=title)(runner)


_register_builtin()

#: The compact subset folded into orchestrator / sweep documents (full
#: results for these stay small at any population).
HEADLINE_ANALYSES: Tuple[str, ...] = (
    "collection-series",
    "resource-usage",
    "prevalence",
    "vulnerability-cdf",
)
