"""Workload definitions: which scenario kinds a benchmark pass sends.

A *request* is one ``cli.run_scenario`` call on a one-trial scenario followed
by ``Report.to_json`` -- exactly what ``commfam run cfg --trials 1 --seed s``
does.  A *pass* is a workload's fixed mix of requests; the benchmark seed
and the pass number pick every request's scenario seed and the order of the
pass, and the program receives only the generated scenarios.

Each mix pairs the heavy kinds that the workload is about with cheaper
requests of the same layers.  The heavy requests take most of the wall time;
the cheap ones give a pass more than twenty requests, so that the latency
tail (the highest percentile with at least ten requests beyond it) lies
above the median.  The counts put the median and the tail inside one kind's
block of costs rather than on the edge between two kinds, so neither jumps
from seed to seed.  A pass takes seven to eleven seconds on a 2-core Xeon
VM, so three to five passes fit into one run.

This module imports nothing from ``commfam`` at import time, so the set-up
measurement can time that import in a fresh interpreter.
"""

from __future__ import annotations

import random

# name -> [(kind, params, requests per pass)]
WORKLOADS: dict[str, list[tuple[str, dict, int]]] = {
    # Fraction QMatrix products, inverses and Kronecker assembly of Delta;
    # no MPoly product runs.
    "tensor-legs": [
        ("corollary-legs", {"n": 4, "d": 2}, 2),
        ("corollary-legs", {"n": 3, "d": 3}, 1),
        ("identity-suite", {"n": 4, "d": 2}, 1),
        ("identity-suite", {"n": 3, "d": 2}, 26),
    ],
    # Large sparse MPoly products, Leibniz composition and Poisson brackets;
    # no QMatrix work apart from the small rank test.
    "rational-ops": [
        ("weyl-rational", {"N": 3, "T": "d2", "symbols": 1}, 1),
        ("weyl-rational", {"N": 3, "T": "z*d1+1", "symbols": 1}, 1),
        ("poisson-classical", {"n": 3}, 2),
        ("weyl-rational", {"N": 2, "T": "d2", "symbols": 1}, 8),
        ("weyl-rational", {"N": 2, "T": "z*d1+1", "symbols": 1}, 8),
        ("poisson-classical", {"n": 2}, 9),
    ],
    # Many tiny MPoly products (per-call overhead), Fraction permutation
    # determinants and the quantization bridges.
    "small-algebra": [
        ("hbar-localization", {"f": "x^2+1", "M": 5}, 3),
        ("dual-number", {"n": 2}, 18),
        ("grassmann", {"arity": 4}, 18),
        ("weyl-basis", {"N": 3}, 14),
        ("cone-p1", {}, 72),
        ("hyperplane", {"g": 4}, 58),
    ],
}

# Smaller mixes with the same kinds and code paths, for the benchmark's tests
# (which put them in place of WORKLOADS).
SMALL: dict[str, list[tuple[str, dict, int]]] = {
    "tensor-legs": [
        ("corollary-legs", {"n": 3, "d": 2}, 1),
        ("corollary-legs", {"n": 2, "d": 3}, 1),
        ("identity-suite", {"n": 3, "d": 2}, 1),
    ],
    "rational-ops": [
        ("weyl-rational", {"N": 2, "T": "d2", "symbols": 1}, 1),
        ("weyl-rational", {"N": 2, "T": "z*d1+1", "symbols": 1}, 1),
        ("poisson-classical", {"n": 2}, 2),
    ],
    "small-algebra": [
        ("hbar-localization", {"f": "x^2+1", "M": 3}, 1),
        ("dual-number", {"n": 2}, 1),
        ("grassmann", {"arity": 4}, 1),
        ("cone-p1", {}, 1),
        ("weyl-basis", {"N": 2}, 1),
        ("hyperplane", {"g": 3}, 1),
    ],
}

# Kinds whose runners draw random families and log resamples; their requests
# count towards the draw yield.
DRAWING_KINDS = frozenset({"corollary-legs", "identity-suite",
                           "poisson-classical", "hyperplane"})


def request_plan(workload: str, seed: int,
                 pass_index: int = 0) -> list[tuple[str, dict, int]]:
    """Pass ``pass_index`` as ``(kind, params, scenario seed)`` in send order."""
    mix = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    plan = []
    for kind, params, count in mix:
        for _ in range(count):
            plan.append((kind, params, rng.randrange(1, 2**31)))
    rng.shuffle(plan)
    return plan


def build_scenarios(workload: str, seed: int, pass_index: int = 0) -> list:
    """Import the program and build the pass's ``Scenario`` objects.

    Seed operators are parsed here as well, so a malformed one is refused
    before the first request is sent.
    """
    from commfam import cli

    scenarios = []
    for kind, params, scenario_seed in request_plan(workload, seed, pass_index):
        config = {"kind": kind, "seed": scenario_seed, "trials": 1, **params}
        scenario = cli.scenario_from_config(config)
        if "T" in scenario.params:
            cli.parse_operator_spec(scenario.params["T"])
        scenarios.append(scenario)
    return scenarios
