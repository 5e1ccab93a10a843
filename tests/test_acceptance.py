"""Acceptance suite: every stated guarantee at its stated scale, exactly.

Each test runs one guarantee end to end through the scenario runner at the
required sample counts, asserts zero-tolerance success, and prints one
PASS/FAIL line (visible under ``pytest -s`` or ``-v``).  Runtime caps are
asserted where stated.
"""

import time

from commfam import cli
from commfam.reports import Report


def run_criterion(number):
    """Run criterion ``number``'s rows of the grid at seed 101 * number."""
    return [cli.run_scenario(scenario)
            for scenario in cli.verify_all_scenarios(101 * number, criterion=number)]


def assert_all_passed(reports: list[Report], label: str):
    bad = []
    for report in reports:
        bad.extend((report.scenario["kind"], c) for c in report.checks
                   if c.status != "pass")
    assert not bad, f"{label}: {bad[:5]}"


def announce(number: int, label: str, ok: bool, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {status} ({elapsed:.1f}s)")


def _criterion(number, label, reports, started, time_cap=None):
    elapsed = time.time() - started
    ok = all(r.all_passed() for r in reports)
    announce(number, label, ok, elapsed)
    assert_all_passed(reports, label)
    if time_cap is not None:
        assert elapsed < time_cap, f"{label}: {elapsed:.1f}s exceeds {time_cap}s"


def test_01_tensor_leg_commutation():
    started = time.time()
    reports = run_criterion(1)
    assert len(reports) == 5
    for report in reports:
        commute = [c for c in report.checks if c.name.startswith("pairwise-commute")]
        assert len(commute) == 30
    _criterion(1, "H_i H_j = H_j H_i over the (n, d) grid, 30 seeds each",
               reports, started, time_cap=120)


def test_02_proof_identity_suite():
    started = time.time()
    reports = run_criterion(2)
    assert [r.scenario["params"]["n"] for r in reports] == [2, 3, 4]
    for report, n in zip(reports, (2, 3, 4)):
        two_b = [c for c in report.checks if c.name.startswith("identity-2b")]
        wanted = 10 * (len(range(1, n - 1)) if n >= 3 else 1)
        assert len(two_b) == wanted
    _criterion(2, "one-leg sums, three-factor symmetry, Laplace expansion",
               reports, started)


def test_03_per_leg_generalization_and_singular_reporting():
    started = time.time()
    *reports, constant = run_criterion(3)
    assert len(reports) == 5
    assert all(r.scenario["params"]["legs"] == "varying" for r in reports)
    assert constant.scenario["params"]["legs"] == "constant"
    # the skew-field-shaped draws are singular by structure; they must be
    # reported through the Singular path, never silently passed
    assert all(c.name.startswith("singular-reported") for c in constant.checks)
    assert len(constant.checks) == 3
    _criterion(3, "per-leg families commute; singular draws logged",
               reports + [constant], started)


def test_04_classical_poisson_commutation():
    started = time.time()
    reports = run_criterion(4)
    assert len(reports) == 2
    _criterion(4, "{H_i^cl, H_j^cl} = 0 for degree <= 2 families, 20 seeds",
               reports, started, time_cap=60)


def test_05_grassmann_identities():
    started = time.time()
    reports = run_criterion(5)
    assert len(reports) == 3
    for report in reports:
        assert len(report.checks) == 100
    _criterion(5, "alternating-form identities, arities 2/3/4, 100 tuples",
               reports, started)


def test_06_hyperplane_incidence():
    started = time.time()
    reports = run_criterion(6)
    assert len(reports) == 4
    _criterion(6, "1 + sum (-1)^i h_i x_i(P_j) = 0 for g in 1..4, 20 seeds",
               reports, started)


def test_07_dual_number_degeneration():
    started = time.time()
    reports = run_criterion(7)
    assert len(reports) == 2
    checks = [c for report in reports for c in report.checks]
    assoc = [c for c in checks if "dual-assoc" in c.name]
    souls = [c for c in checks if "dual-soul-factor" in c.name]
    families = [c for c in checks if "dual-commutator" in c.name]
    assert len(assoc) >= 50 and len(souls) >= 50 and families
    _criterion(7, "eps-product associativity, commutators, soul = 2{.,.}",
               reports, started)


def test_08_quantum_commutation_and_symbols():
    started = time.time()
    reports = []
    heavy = None
    for scenario in cli.verify_all_scenarios(808, criterion=8):
        t0 = time.time()
        reports.append(cli.run_scenario(scenario))
        if (scenario.params["N"], scenario.params["T"]) == (3, "d2"):
            heavy = time.time() - t0
    assert len(reports) == 6
    assert heavy is not None and heavy < 300, f"N=3, T=d2 took {heavy:.1f}s"
    _criterion(8, "[H_k, H_l] = 0 and symbol(H_k) matches the classical family",
               reports, started)


def test_09_cross_construction():
    started = time.time()
    reports = run_criterion(9)
    assert len(reports) == 2
    for report in reports:
        matches = [c for c in report.checks if "basis-vs-closed-form" in c.name]
        assert matches
    _criterion(9, "cofactor family = closed form up to the fixed constants",
               reports, started)


def test_10_hbar_localization():
    started = time.time()
    reports = run_criterion(10)
    assert len(reports) == 6
    for report in reports:
        assert any("x-derivative" in c.name for c in report.checks)
        assoc = [c for c in report.checks if "localize-assoc" in c.name]
        assert len(assoc) >= 20
    _criterion(10, "X f = f X = 1 and associativity mod hbar^M, M in 3..5",
               reports, started)


def test_11_cone_bracket():
    started = time.time()
    [report] = run_criterion(11)
    alpha_free = [c for c in report.checks if "alpha-independence" in c.name]
    jacobi = [c for c in report.checks if "jacobi" in c.name]
    assert len(alpha_free) == 20 and len(jacobi) == 20
    _criterion(11, "cone bracket alpha-independent, antisymmetric, Jacobi",
               [report], started)
