"""BENCHMARK.json lists exactly the metrics the benchmark prints."""

import json
import re
from pathlib import Path

from layers import PER_LAYER
from run import END_TO_END
from workloads import WORKLOADS

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_lists_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in DOC["per_layer"]] == PER_LAYER
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)


def test_names_units_and_bounds_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in DOC[key]]
    names += [w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    metrics = DOC["end_to_end"] + DOC["per_layer"]
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in DOC["workloads"])
