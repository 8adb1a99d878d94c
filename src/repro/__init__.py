"""repro — reproduction of the IMC '23 study of vulnerable client-side
web resources and developers' updating behaviors.

The package rebuilds the paper's entire measurement pipeline against a
calibrated synthetic web ecosystem (the four-year Alexa-1M crawl is not
recoverable): virtual network, weekly crawler, Wappalyzer-style
fingerprinting, CVE knowledge base with True Vulnerable Versions, a PoC
validation lab, and per-section analyses regenerating every table and
figure.

Quickstart::

    from repro import Study, ScenarioConfig

    study = Study(ScenarioConfig(population=2000))
    study.run()
    for line in study.results().summary_lines():
        print(line)

The names below load on first use (:mod:`repro._lazy`), so importing
one submodule loads only what that submodule imports.  The read side
(the store codec, the analyses, ``repro.serve``, ``repro.obs``) never
loads the generator, numpy or the crawl engine that ``Study`` needs;
DESIGN.md's "Import layers" section has the rule.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".advisor.scanner": "SiteScanner",
        ".config": "AccessibilityConfig BehaviorMix ExecutionConfig "
        "FlashConfig IncrementalConfig ObservabilityConfig PlatformConfig "
        "ScenarioConfig SecurityHygieneConfig default_scenario small_scenario",
        ".core.results": "StudyResults",
        ".core.study": "Study",
        ".errors": "ReproError",
        ".obs.instruments": "Instruments",
        ".options": "DurabilityOptions ExecutionOptions ObservabilityOptions "
        "ResilienceOptions RunOptions",
        ".runtime.faults": "FaultPlan",
        ".timeline": "StudyCalendar Week default_calendar",
        ".vulndb.matcher": "MatchMode",
        ".vulndb.store": "default_database",
    },
)

__version__ = "1.0.0"

__all__ = [
    "Study",
    "StudyResults",
    "SiteScanner",
    "ScenarioConfig",
    "ExecutionConfig",
    "IncrementalConfig",
    "ObservabilityConfig",
    "RunOptions",
    "ExecutionOptions",
    "ResilienceOptions",
    "DurabilityOptions",
    "ObservabilityOptions",
    "Instruments",
    "FaultPlan",
    "BehaviorMix",
    "PlatformConfig",
    "AccessibilityConfig",
    "FlashConfig",
    "SecurityHygieneConfig",
    "default_scenario",
    "small_scenario",
    "StudyCalendar",
    "Week",
    "default_calendar",
    "MatchMode",
    "default_database",
    "ReproError",
    "__version__",
]
