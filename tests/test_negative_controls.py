"""Negative controls for the checks fed by the signed-bijection kernel, by
the quantization bridges (dual numbers, hbar-localization, cone bracket) and
by the sparse-polynomial product kernel, ``*`` and ``dot`` (Poisson brackets
at n = 3, Leibniz compositions at N = 4 and symbols at N = 3, where products
and sums of products fill the dense exponent box).

Each entry names an anchor, a true instance whose records for that anchor
pass, and one documented perturbation.  Under the perturbation the same
instance must give at least one ``fail`` record for the anchor, and every
such record must carry a witness.
"""

import importlib
import itertools
import math
import pkgutil
import random
from fractions import Fraction

import pytest

import commfam
from commfam import exact, poisson, quantize, weyl
from commfam.exact import MPoly, RatFunc, maximal_minors
from commfam.poisson import (ANCHOR_CONE_ALPHA, ANCHOR_CONE_ANTISYM,
                             ANCHOR_CONE_CANONICAL, ANCHOR_CONE_JACOBI,
                             ANCHOR_GRASSMANN, ANCHOR_INCIDENCE,
                             ANCHOR_POISSON_COMMUTE, ConeDifferential,
                             WedgeForm, check_alpha_independence,
                             check_cone_antisymmetry, check_cone_jacobi,
                             check_cone_vs_canonical, check_grassmann,
                             check_hyperplane_incidence, classical_hamiltonians,
                             hyperplane_coefficients,
                             random_decomposable, random_vector)
from commfam.quantize import (ANCHOR_DEGEN, ANCHOR_DUAL_ASSOC, ANCHOR_DUAL_COMM,
                              ANCHOR_LIFT_FREE, ANCHOR_LOCAL_ASSOC, ANCHOR_LOCAL_INV,
                              ANCHOR_SOUL_FACTOR, ANCHOR_SOUL_MATCH, ANCHOR_XD,
                              DualNum, HElem, check_degeneration, check_dual_assoc,
                              check_lift_independence, check_localization_axioms,
                              check_soul_factor, check_x_derivative_identity,
                              dual_commuting_family, random_helem)
from commfam.weyl import (ANCHOR_BASIS_MATCH, ANCHOR_OP_COMMUTE, ANCHOR_SYMBOL_COMMUTE,
                          ANCHOR_SYMBOL_MATCH, OpFamilySpec, RatDiffOp,
                          check_basis_matches_closed_form, check_commute,
                          check_symbol_matches_classical)
from test_ncfam import NEGATIVE_CONTROLS as NCFAM_CONTROLS


def dual_family():
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    xi = RatFunc.var(2, 1)
    return dual_commuting_family([one, x, xi], classical_hamiltonians([one, x, xi]))


def delta1_plus_one(module, one):
    """``module``'s maximal minors with one(n) added to Delta_1."""
    def perturb(monkeypatch):
        def perturbed(*args):
            minors = maximal_minors(*args)
            return [m + one(len(minors) - 1) if i == 1 else m
                    for i, m in enumerate(minors)]
        monkeypatch.setattr(module, "maximal_minors", perturbed)
    return perturb


def bracket_plus_one(monkeypatch):
    original = quantize.poisson_bracket
    monkeypatch.setattr(quantize, "poisson_bracket",
                        lambda f, g: original(f, g) + 1)


def negate_first_coefficient(monkeypatch):
    original = WedgeForm.from_covectors.__func__

    def perturbed(cls, ws):
        form = original(cls, ws)
        first = min(form.coeffs)
        return cls(form.dim, form.arity, {**form.coeffs, first: -form.coeffs[first]})

    monkeypatch.setattr(WedgeForm, "from_covectors", classmethod(perturbed))


def grassmann_instance(arity):
    # the form is built inside the instance, after the perturbation is in place
    def run():
        rng = random.Random(50 + arity)
        form = random_decomposable(rng, 6, arity)
        vectors = [random_vector(rng, 6) for _ in range(arity + 2)]
        return [check_grassmann(form, vectors)]
    return run


def hyperplane_instance():
    points = [[Fraction(2), Fraction(-1), Fraction(3)],
              [Fraction(0), Fraction(4), Fraction(1)],
              [Fraction(-3), Fraction(1), Fraction(5)]]
    return [check_hyperplane_incidence(points, hyperplane_coefficients(points))]


def basis_instance():
    spec = OpFamilySpec([Fraction(0), Fraction(1), Fraction(-2)], RatDiffOp.partial(1, 1))
    return check_basis_matches_closed_form(spec)


def negate_c1(monkeypatch):
    original = weyl.basis_match_constant
    monkeypatch.setattr(weyl, "basis_match_constant",
                        lambda points, k: -original(points, k) if k == 1
                        else original(points, k))


def dual_elems():
    x, xi = RatFunc.var(2, 0), RatFunc.var(2, 1)
    return [DualNum(x * x + xi, x), DualNum(x * xi, xi * xi + 1), DualNum(xi + 2, x * xi)]


def dual_assoc_instance():
    return [check_dual_assoc(*dual_elems())]


def soul_factor_instance():
    a, b, _ = dual_elems()
    return [check_soul_factor(a.body, b.body)]


def drop_eps_bracket(monkeypatch):
    """The bracket sum {a_0, b_0} - {b_0, a_0} of ``dual_commutator`` read as 0."""
    monkeypatch.setattr(quantize, "bracket_sum", lambda pairs: pairs[0][1] * 0)


def negate_last_soul_product(monkeypatch):
    """``rat_dot`` as the dual-number module sees it, with the sign of the
    last of four products flipped: of the four body-soul products of
    ``dual_commutator``, -b_1 a_0 enters as +b_1 a_0."""
    original = quantize.rat_dot

    def perturbed(products):
        products = list(products)
        if len(products) == 4:
            s, f, g = products[-1]
            products[-1] = (-s, f, g)
        return original(products)
    monkeypatch.setattr(quantize, "rat_dot", perturbed)


def localization_instance(hbar_term):
    """Localize at z^2 + 1, plus hbar d/dz when ``hbar_term``: then X -> f^-1
    needs the whole geometric series."""
    def run():
        z = RatFunc.var(1, 0)
        f = HElem.function(z * z + RatFunc.const(1, 1), 3)
        if hbar_term:
            f = f + HElem.hbar_derivative(3)
        rng = random.Random(7)
        # two random triples
        return check_localization_axioms(f, rng) + check_localization_axioms(f, rng)
    return run


def first_term_inverse(monkeypatch):
    monkeypatch.setattr(quantize, "h_inverse", lambda f: HElem.function(
        RatFunc.const(1, 1) / f.body(), f.trunc))


def positive_binomial(monkeypatch):
    monkeypatch.setattr(quantize, "_neg_binomial", math.comb)


def lift_instance():
    z = RatFunc.var(1, 0)
    f = HElem.function(z * z + RatFunc.const(1, 1), 4)
    return [check_lift_independence(f, random_helem(random.Random(17), 4))]


def degeneration_instance():
    rng = random.Random(19)
    return [check_degeneration(random_helem(rng, 5), random_helem(rng, 5))]


def swapped_bracket(monkeypatch):
    original = quantize.poisson_bracket
    monkeypatch.setattr(quantize, "poisson_bracket", lambda f, g: original(g, f))


def cone_instance():
    # distinct weights: swapping i and i' changes the bracket
    z = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    w1 = ConeDifferential(z * z + one, 2)
    w2 = ConeDifferential(one / (z + one), -1)
    w3 = ConeDifferential(z + RatFunc.const(1, 3), 0)
    alphas = [ConeDifferential(one, 1), ConeDifferential(z + RatFunc.const(1, 2), 1)]
    # looked up on the module at each call, so cone_bracket_with reaches it
    brackets = [poisson.cone_bracket(w1, w2, alpha) for alpha in alphas]
    return [check_alpha_independence(brackets),
            check_cone_antisymmetry(w1, alphas[0]),
            check_cone_jacobi(w1, w2, w3, alphas[0]),
            check_cone_vs_canonical(brackets[1], w1, w2)]


def cone_bracket_with(weights):
    """``cone_bracket`` with the weight factors (i, i') taken as ``weights(i, i')``."""
    def perturb(monkeypatch):
        def perturbed(omega, omega2, alpha):
            i, i2 = weights(omega.weight, omega2.weight)
            lhs = omega.f * poisson.nabla(alpha, omega2).f * i
            rhs = omega2.f * poisson.nabla(alpha, omega).f * i2
            return ConeDifferential(lhs - rhs, omega.weight + omega2.weight + 1)
        monkeypatch.setattr(poisson, "cone_bracket", perturbed)
    return perturb


SWAP_I = ("i and i' swapped in cone_bracket", cone_instance,
          cone_bracket_with(lambda i, i2: (i2, i)))


def leg_function(terms):
    return RatFunc(MPoly.from_terms(2, terms))


# four quadratics of (x, xi): at n = 3 the bracket sums fill the box
CLASSICAL_FS = [leg_function({(0, 0): 1, (1, 1): 2, (0, 2): -1}),
                leg_function({(1, 0): 3, (0, 1): -2, (2, 0): 1}),
                leg_function({(0, 1): 1, (1, 1): -3, (2, 0): 2, (0, 0): 4}),
                leg_function({(1, 0): -1, (0, 2): 5, (1, 1): 1})]


def poisson_commute_instance():
    return [poisson.check_poisson_commute(poisson.classical_hamiltonians(CLASSICAL_FS))]


def op_commute_instance():
    # at N = 3 no Leibniz product of [H_k, H_l] reaches the box route
    spec = OpFamilySpec([Fraction(p) for p in (-2, 1, 3, 5)], RatDiffOp.partial(1, 1, 2))
    return [check_commute(weyl.rational_hamiltonians(spec))]


def symbol_instance():
    # T = z d/dz + 1: its symbol z xi keeps z in the classical brackets
    z = RatFunc.var(1, 0)
    T = (weyl.do_compose(RatDiffOp.multiplication(z), RatDiffOp.partial(1, 1))
         + RatDiffOp.identity(1))
    spec = OpFamilySpec([Fraction(p) for p in (-2, 1, 3)], T)
    return check_symbol_matches_classical(weyl.rational_hamiltonians(spec), spec)


def added_to_h2(module, name, term):
    """``module.name`` returning its second Hamiltonian h plus ``term(h)``."""
    def perturb(monkeypatch):
        original = getattr(module, name)

        def perturbed(*args):
            hs = original(*args)
            return [h + term(h) if i == 1 else h for i, h in enumerate(hs)]
        monkeypatch.setattr(module, name, perturbed)
    return perturb


def z1_added_to_second_symbol(monkeypatch):
    original = weyl.symbol
    calls = itertools.count()
    monkeypatch.setattr(weyl, "symbol", lambda a: original(a) + RatFunc.var(2 * a.nvars, 0)
                        if next(calls) == 1 else original(a))


# anchor -> (perturbation as documented, true instance, perturbation)
NEGATIVE_CONTROLS = {
    ANCHOR_DUAL_COMM: ("Delta_1 + 1 among the dual-number minors", dual_family,
                       delta1_plus_one(quantize, lambda n: DualNum.classical(
                           RatFunc.const(2 * n, 1)))),
    ANCHOR_SOUL_MATCH: ("the Poisson bracket the dual-number module sees is "
                        "{f, g} + 1", dual_family, bracket_plus_one),
    **{ANCHOR_GRASSMANN[arity]: ("one coefficient of the decomposable form "
                                 "negated", grassmann_instance(arity),
                                 negate_first_coefficient)
       for arity in (2, 3, 4)},
    ANCHOR_INCIDENCE: ("Delta_1 + 1 among the hyperplane minors", hyperplane_instance,
                       delta1_plus_one(poisson, lambda n: Fraction(1))),
    ANCHOR_BASIS_MATCH: ("c_1 negated in basis_match_constant", basis_instance,
                         negate_c1),
    ANCHOR_DUAL_ASSOC: ("the Poisson bracket the dual-number module sees is "
                        "{f, g} + 1", dual_assoc_instance, bracket_plus_one),
    ANCHOR_SOUL_FACTOR: ("the eps-bracket dropped from dual_commutator",
                         soul_factor_instance, drop_eps_bracket),
    ANCHOR_LOCAL_INV: ("h_inverse cut after its first term 1/body",
                       localization_instance(True), first_term_inverse),
    ANCHOR_LOCAL_ASSOC: ("C(n, alpha) for C(-n, alpha) in localize_product",
                         localization_instance(False), positive_binomial),
    ANCHOR_XD: ("C(n, alpha) for C(-n, alpha) in localize_product",
                lambda: [check_x_derivative_identity(4)], positive_binomial),
    ANCHOR_LIFT_FREE: ("C(n, alpha) for C(-n, alpha) in localize_product",
                       lift_instance, positive_binomial),
    ANCHOR_DEGEN: ("the Poisson bracket the hbar module sees is {g, f}",
                   degeneration_instance, swapped_bracket),
    ANCHOR_CONE_ALPHA: SWAP_I,
    ANCHOR_CONE_ANTISYM: ("the first weight factor of cone_bracket is i + 1",
                          cone_instance, cone_bracket_with(lambda i, i2: (i + 1, i2))),
    ANCHOR_CONE_JACOBI: SWAP_I,
    ANCHOR_CONE_CANONICAL: SWAP_I,
    ANCHOR_POISSON_COMMUTE: ("x_1 added to H_2", poisson_commute_instance,
                             added_to_h2(poisson, "classical_hamiltonians",
                                         lambda h: RatFunc.var(h.nvars, 0))),
    ANCHOR_OP_COMMUTE: ("multiplication by z_1 added to H_2", op_commute_instance,
                        added_to_h2(weyl, "rational_hamiltonians", lambda h:
                                    RatDiffOp.multiplication(RatFunc.var(h.nvars, 0)))),
    ANCHOR_SYMBOL_MATCH: ("c_1 negated in basis_match_constant", symbol_instance,
                          negate_c1),
    ANCHOR_SYMBOL_COMMUTE: ("z_1 added to symbol(H_2)", symbol_instance,
                            z1_added_to_second_symbol),
}

# the anchors decided by the polynomial product kernel at n = 3, N = 3 and N = 4
KERNEL_ANCHORS = [ANCHOR_POISSON_COMMUTE, ANCHOR_OP_COMMUTE, ANCHOR_SYMBOL_MATCH,
                  ANCHOR_SYMBOL_COMMUTE]


@pytest.mark.parametrize("anchor", NEGATIVE_CONTROLS,
                         ids=["dual-comm", "soul-match", "grassmann-2", "grassmann-3",
                              "grassmann-4", "incidence", "basis-match", "dual-assoc",
                              "soul-factor", "local-inv", "local-assoc", "x-derivative",
                              "lift-free", "degeneration", "cone-alpha",
                              "cone-antisymmetry", "cone-jacobi", "cone-canonical",
                              "poisson-commute", "op-commute", "symbol-match",
                              "symbol-commute"])
def test_perturbation_turns_pass_into_fail(monkeypatch, anchor):
    _, instance, perturb = NEGATIVE_CONTROLS[anchor]
    clean = [r for r in instance() if r.anchor == anchor]
    assert clean and all(r.status == "pass" for r in clean)
    perturb(monkeypatch)
    failing = [r for r in instance() if r.anchor == anchor and r.status == "fail"]
    assert failing and all(r.witness for r in failing)


def test_wrong_sign_soul_product_fails_the_dual_commutator(monkeypatch):
    """A second control for the dual-number commutator: one of the four
    body-soul products of ``dual_commutator`` with the wrong sign fails
    dual-commutator-12, with a witness, on the linear family and on a
    quadratic one whose Hamiltonians have nonzero souls."""
    one, x, xi = RatFunc.const(2, 1), RatFunc.var(2, 0), RatFunc.var(2, 1)
    families = ([one, x, xi], [one, x + xi * xi, x * xi])

    def commutators():
        return [r for fs in families
                for r in dual_commuting_family(fs, classical_hamiltonians(fs))
                if r.anchor == ANCHOR_DUAL_COMM]
    assert [r.status for r in commutators()] == ["pass", "pass"]
    negate_last_soul_product(monkeypatch)
    failing = commutators()
    assert [(r.name, r.status) for r in failing] == [("dual-commutator-12", "fail")] * 2
    assert all(r.witness.startswith("nonzero soul: ") for r in failing)


@pytest.mark.parametrize("anchor", KERNEL_ANCHORS,
                         ids=["poisson-commute", "op-commute", "symbol-match",
                              "symbol-commute"])
def test_kernel_controls_run_through_the_box_kernel(monkeypatch, anchor):
    calls = []
    original = exact._dot_box
    monkeypatch.setattr(exact, "_dot_box", lambda *args: calls.append(1) or original(*args))
    NEGATIVE_CONTROLS[anchor][1]()
    assert calls


def module_anchors():
    """Every module-level ANCHOR_* string in commfam (dicts give their values)."""
    anchors = {}
    for info in pkgutil.iter_modules(commfam.__path__):
        module = importlib.import_module(f"commfam.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("ANCHOR_"):
                for text in value.values() if isinstance(value, dict) else [value]:
                    anchors[text] = f"{info.name}.{name}"
    return anchors


def test_every_anchor_has_a_negative_control():
    anchors = module_anchors()
    assert len(anchors) >= 27  # 25 names, ANCHOR_GRASSMANN holding three
    missing = [name for text, name in anchors.items()
               if text not in NEGATIVE_CONTROLS and text not in NCFAM_CONTROLS]
    assert not missing


def test_positive_binomial_fails_the_comparison_with_its_hbar_order(monkeypatch):
    # C(n, alpha) for C(-n, alpha), with the lift z^2+1 + hbar d/dz
    positive_binomial(monkeypatch)
    assoc = [r for r in localization_instance(True)() if r.anchor == ANCHOR_LOCAL_ASSOC]
    assert [(r.status, r.witness) for r in assoc] == [
        ("fail", "difference starts at hbar^2"), ("fail", "difference starts at hbar^3")]


def test_oracle_overflow_fails_the_comparison_instead_of_raising(monkeypatch):
    # The same perturbed instance, with the evaluation oracle alone confined
    # to exponents up to 8: building the series fits, evaluating them leaves
    # the packing range.
    positive_binomial(monkeypatch)
    evaluate = quantize.LocalSeries.evaluate

    def cramped(series):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(exact, "_MAX_EXP", 8)
            return evaluate(series)
    monkeypatch.setattr(quantize.LocalSeries, "evaluate", cramped)
    assoc = [r for r in localization_instance(True)() if r.anchor == ANCHOR_LOCAL_ASSOC]
    assert len(assoc) == 2
    assert all(r.status == "fail" and "overflow" in r.witness for r in assoc)
