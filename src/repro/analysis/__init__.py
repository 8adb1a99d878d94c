"""Analyses reproducing every table and figure of the paper.

Each module consumes the crawl's :class:`~repro.crawler.ObservationStore`
(and, where the paper did, the vulnerability database and PoC lab) and
returns typed result objects that the reporting layer renders and the
benchmarks compare against the published numbers.

Module → paper-section map:

* :mod:`.overview` — Section 5, Figure 2
* :mod:`.landscape` — Section 6.1, Table 1, Figure 3, Table 5
* :mod:`.vulnerable` — Section 6.2, Figure 12, RQ1
* :mod:`.dominant` — Section 6.3 (dominant versions, discontinued libs)
* :mod:`.cve_accuracy` — Section 6.4, Table 2, Figures 4/5/13/14, RQ3
* :mod:`.external` — Section 6.5, Figure 10, Table 6
* :mod:`.updates` — Section 7, Figures 6/7/15, RQ2
* :mod:`.flash` — Section 8, Figures 8/11, Table 3, RQ4
* :mod:`.wordpress` — appendix, Figure 9, Table 4
* :mod:`.integrity_check` — Section 9 validity experiment (not loaded
  here: it builds an ecosystem, so it belongs to the write side; import
  it by name)
"""

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
from .api import (
    Analysis,
    AnalysisContext,
    HEADLINE_ANALYSES,
    available_analyses,
    get_analysis,
    register_analysis,
    run_analyses,
    to_canonical_dict,
)

__all__ = [
    "Analysis",
    "AnalysisContext",
    "HEADLINE_ANALYSES",
    "available_analyses",
    "get_analysis",
    "register_analysis",
    "run_analyses",
    "to_canonical_dict",
    "overview",
    "landscape",
    "vulnerable",
    "dominant",
    "cve_accuracy",
    "external",
    "updates",
    "flash",
    "wordpress",
]
