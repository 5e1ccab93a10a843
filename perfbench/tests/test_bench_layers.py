"""The workload design and the traced counters.

A traced run of each small mix must agree with the predictions recorded in
``design.json``: every traced layer is exercised by the workload meant to
exercise it (which catches a missed re-binding such as
``weyl.poisson_bracket``), layers a workload must not touch record no call,
and the recorded share bounds hold.  Two traced runs at one seed give
identical counts.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layer_trace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DESIGN = json.loads((BENCH / "design.json").read_text())
NAMES = list(workloads.WORKLOADS)
COUNT_SUFFIXES = (".calls", ".term_pairs", ".peak_terms", ".peak_coef_bits",
                  ".peak_entry_bits", ".max_dim", ".accepted", ".inverse_per_trial",
                  ".draw_yield")


def traced(workload, seed=3):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "WORKLOADS", workloads.SMALL)
        out = run.measure(workload, seed, 0, trace=True)
    assert out["failed"] == 0, out["reasons"]
    assert out["missing"] == []
    return out


@pytest.fixture(scope="module")
def first_runs():
    return {name: traced(name) for name in NAMES}


def test_every_layer_has_a_workload():
    exercised = {p for w in DESIGN["workloads"].values() for p in w["exercises"]}
    assert exercised == set(layer_trace.LAYERS)
    assert set(DESIGN["workloads"]) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_matches_predictions(first_runs, name):
    layers = first_runs[name]["layers"]
    design = DESIGN["workloads"][name]
    for prefix in design["exercises"]:
        assert layers[f"{prefix}.calls"][0] > 0, f"{prefix} not exercised on {name}"
    for prefix in design["silent"]:
        assert layers[f"{prefix}.calls"][0] == 0, f"{prefix} ran on {name}"
    traced_wall = first_runs[name]["passes"][1]["measured"]["wall_s"]
    for prefix, share in design.get("max_self_share", {}).items():
        assert layers[f"{prefix}.self_s"][0] < share * traced_wall


@pytest.mark.parametrize("name", NAMES)
def test_tail_lies_above_the_median(name):
    count = len(workloads.request_plan(name, 1))
    assert run.tail_rank(count) > count / 2


@pytest.mark.parametrize("name", NAMES)
def test_counts_are_deterministic(first_runs, name):
    again = traced(name)
    counts = {k: v for k, v in first_runs[name]["layers"].items()
              if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: v for k, v in again["layers"].items() if k in counts}
    assert first_runs[name]["passes"][0]["digest"] == again["passes"][0]["digest"]
