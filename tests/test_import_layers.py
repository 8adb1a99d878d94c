"""Import layers: the read side loads no generator, crawl engine or numpy.

The read side (the store codec, the analysis registry, ``repro.serve``
and ``repro.obs``) only reads a crawl archive; the write side (the
generator with numpy, the crawl engine, the fingerprint engine, the
runtime, ``repro.core`` and the site scanner) builds one.  No read-side
module imports a write-side one at module level, and the package inits
bind their re-exported names on first use (PEP 562), so each check runs
in a fresh interpreter: this process has long since loaded everything.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.api import AnalysisContext, run_analyses
from repro.serve import ServeApp, build_mix

from conftest import SEED, SERVE_MIX_SEED, SMALL_POPULATION

#: Write-side modules that no read-side pass may load.
WRITE_SIDE = (
    "repro.webgen.domains",
    "repro.webgen.ecosystem",
    "repro.webgen.site",
    "repro.webgen.platform",
    "repro.crawler.crawl",
    "repro.crawler.fetch",
    "repro.crawler.filtering",
    "repro.crawler.profilestore",
    "repro.fingerprint.engine",
    "repro.runtime.worker",
    "repro.runtime.ledger",
    "repro.runtime.dispatch",
    "repro.runtime.backends",
    "repro.core",
    "repro.poclab",
    "repro.advisor.scanner",
)

#: The packages whose inits load their names lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.runtime",
    "repro.crawler",
    "repro.webgen",
    "repro.advisor",
    "repro.orchestrator",
)

_READ_SIDE_SCRIPT = """
import hashlib, json, sys

sys.modules["numpy"] = None  # any numpy import raises ImportError

import repro.analysis, repro.cli, repro.crawler.persistence, repro.obs.check
import repro.serve
from repro.analysis.api import AnalysisContext, run_analyses
from repro.config import ScenarioConfig
from repro.serve import ServeApp, build_mix

store_path, metrics_path, population, seed, mix_seed, forbidden = sys.argv[1:]
config = ScenarioConfig(population=int(population), seed=int(seed))
app = ServeApp.from_files(store_path, metrics_path, calendar=config.calendar)
context = AnalysisContext(
    config=config, database=app.database, matcher=app.store.matcher
)
analyses = run_analyses(app.store, context)
served = [
    [target, response.status, response.etag]
    for target in build_mix(app.store, app.database, int(mix_seed)).targets
    for response in [app.get(target)]
]
assert repro.obs.check.main([metrics_path]) == 0  # prints "<path>: ok"
print(json.dumps({
    "analyses": len(analyses),
    "analyses_sha256": hashlib.sha256(
        json.dumps(analyses, sort_keys=True).encode("utf-8")
    ).hexdigest(),
    "served": served,
    "loaded": [name for name in forbidden.split(",") if name in sys.modules],
}))
"""

_WRITE_SIDE_SCRIPT = """
import sys

{statement}
engine = ("numpy", "repro.webgen.ecosystem", "repro.crawler.crawl",
          "repro.runtime.worker", "repro.runtime.ledger")
print(",".join(name for name in engine if name not in sys.modules))
"""

_QUEUE_STATUS_SCRIPT = """
import contextlib, io, json, sys

from repro.cli import main

queue_dir, sweep_dir = sys.argv[1:]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [
        main(["orchestrate", "status", "--queue-dir", queue_dir]),
        main(["sweep", "status", "--queue-dir", sweep_dir]),
        main(["sweep", "report", "--queue-dir", sweep_dir]),
    ]
engine = ("numpy", "repro.webgen.ecosystem", "repro.crawler.crawl",
          "repro.core.study")
print(json.dumps({
    "codes": codes,
    "loaded": [name for name in engine if name in sys.modules],
    "stdout": out.getvalue(),
}))
"""

_PUBLIC_NAMES_SCRIPT = """
import importlib, json, sys, types

packages = sys.argv[1:]
modules = {name: importlib.import_module(name) for name in packages}
problems = []
for name, package in modules.items():
    # dir() lists every name before any of them is loaded.
    missing = sorted(set(package.__all__) - set(dir(package)))
    if missing:
        problems.append(f"{name}: dir() lacks {missing}")
for name, package in modules.items():
    prefix = name + "."
    for attr in package.__all__:
        value = getattr(package, attr)
        if attr == "__version__":  # defined by the init itself
            continue
        holders = [
            module_name
            for module_name, module in list(sys.modules.items())
            if module_name.startswith(prefix)
            and module is not None
            and vars(module).get(attr) is value
        ]
        if not holders:
            problems.append(f"{name}.{attr}: no submodule binds this object")
        defining = getattr(value, "__module__", None)
        if isinstance(value, (type, types.FunctionType)) and defining not in holders:
            problems.append(f"{name}.{attr}: not the object {defining} defines")
    namespace = {}
    exec(f"from {name} import *", namespace)
    unbound = sorted(set(package.__all__) - set(namespace))
    if unbound:
        problems.append(f"{name}: 'import *' leaves {unbound} unbound")
    try:
        getattr(package, "no_such_name")
    except AttributeError:
        pass
    else:
        problems.append(f"{name}: an unknown name resolved")
print(json.dumps(problems))
"""


def _run(script: str, *args: str) -> str:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_read_side_runs_without_the_write_side(served_run, small_config, database):
    """Serving, all 17 analyses and the metrics check run with numpy
    made unimportable, load no write-side module, and give the results
    this process computes with everything loaded."""
    store_path, metrics_path = served_run
    checked, line = _run(
        _READ_SIDE_SCRIPT,
        str(store_path),
        str(metrics_path),
        str(SMALL_POPULATION),
        str(SEED),
        str(SERVE_MIX_SEED),
        ",".join(WRITE_SIDE),
    ).splitlines()
    assert checked == f"{metrics_path}: ok"
    report = json.loads(line)
    assert report["loaded"] == []

    app = ServeApp.from_files(
        store_path, metrics_path, calendar=small_config.calendar, database=database
    )
    context = AnalysisContext(
        config=small_config, database=app.database, matcher=app.store.matcher
    )
    analyses = run_analyses(app.store, context)
    assert report["analyses"] == len(analyses) == 17
    assert report["analyses_sha256"] == hashlib.sha256(
        json.dumps(analyses, sort_keys=True).encode("utf-8")
    ).hexdigest()
    served = [
        [target, response.status, response.etag]
        for target in build_mix(app.store, app.database, SERVE_MIX_SEED).targets
        for response in [app.get(target)]
    ]
    assert report["served"] == served
    assert {status for _target, status, _etag in served} <= {200, 400, 404}


@pytest.mark.parametrize(
    "statement",
    [
        pytest.param(
            "import repro.orchestrator\nrepro.orchestrator.Orchestrator",
            id="import repro.orchestrator",
        ),
        "from repro.orchestrator import Orchestrator",
        "from repro import Study",
    ],
)
def test_write_side_loads_its_engine_at_import(statement):
    """The orchestrator and ``Study`` load the generator, numpy and the
    crawl engine when imported, not on their first crawl, so a
    benchmark's set-up still pays for them and its timed section does
    not.  The lazy ``repro.orchestrator`` init loads them when
    ``Orchestrator`` is first resolved, by attribute or by
    ``from ... import``."""
    missing = _run(_WRITE_SIDE_SCRIPT.format(statement=statement)).strip()
    assert missing == ""


def test_queue_status_commands_load_no_engine(tmp_path):
    """``repro orchestrate status`` and ``repro sweep status|report``
    read only the queue, its plan and the folded sweep document: over
    finished queues they print what this process renders, and load
    neither numpy nor the generator nor the crawl engine."""
    from repro.orchestrator import FleetPlan, Orchestrator, status_lines
    from repro.sweep import (
        SWEEP_DOCUMENT_NAME,
        SweepSpec,
        render_sweep_report,
    )

    fleet_dir, sweep_dir = tmp_path / "fleet", tmp_path / "sweep"
    Orchestrator(fleet_dir, FleetPlan.build(12, 7, 1, 1)).run()
    sweep_plan = FleetPlan.build_sweep(
        SweepSpec.parse("baseline").points, population=12, seed=7, weeks=1
    )
    Orchestrator(sweep_dir, sweep_plan).run()
    report = json.loads(
        _run(_QUEUE_STATUS_SCRIPT, str(fleet_dir), str(sweep_dir))
    )
    assert report["codes"] == [0, 0, 0]
    assert report["loaded"] == []
    document = json.loads((sweep_dir / SWEEP_DOCUMENT_NAME).read_text())
    expected = status_lines(fleet_dir) + status_lines(sweep_dir)
    expected.append(render_sweep_report(document))
    assert report["stdout"] == "\n".join(expected) + "\n"


def test_lazy_packages_keep_every_public_name():
    """Every ``__all__`` name of a lazy package init is listed by
    ``dir()``, resolves to the object its submodule defines, and is
    bound by ``import *``; an unknown name raises ``AttributeError``."""
    problems = json.loads(_run(_PUBLIC_NAMES_SCRIPT, *LAZY_PACKAGES))
    assert problems == []
