"""Negative controls for the checks fed by the signed-bijection kernel.

Each entry names an anchor, a true instance whose records for that anchor
pass, and one documented perturbation.  Under the perturbation the same
instance must give at least one ``fail`` record for the anchor, and every
such record must carry a witness.
"""

import random
from fractions import Fraction

import pytest

from commfam import poisson, quantize, weyl
from commfam.exact import RatFunc, maximal_minors
from commfam.poisson import (ANCHOR_GRASSMANN, ANCHOR_INCIDENCE, WedgeForm,
                             check_grassmann, check_hyperplane_incidence,
                             hyperplane_coefficients, random_decomposable,
                             random_vector)
from commfam.quantize import (ANCHOR_DUAL_COMM, ANCHOR_SOUL_MATCH, DualNum,
                              dual_commuting_family)
from commfam.weyl import (ANCHOR_BASIS_MATCH, OpFamilySpec, RatDiffOp,
                          check_basis_matches_closed_form)


def dual_family():
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    xi = RatFunc.var(2, 1)
    return dual_commuting_family([one, x, xi])


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
        return [check_grassmann(form, vectors, name=f"grassmann-{arity}")]
    return run


def hyperplane_instance():
    points = [[Fraction(2), Fraction(-1), Fraction(3)],
              [Fraction(0), Fraction(4), Fraction(1)],
              [Fraction(-3), Fraction(1), Fraction(5)]]
    return [check_hyperplane_incidence(points, hyperplane_coefficients(points))]


def basis_instance():
    spec = OpFamilySpec.make([Fraction(0), Fraction(1), Fraction(-2)],
                             RatDiffOp.partial(1, 1))
    return check_basis_matches_closed_form(spec)


def negate_c1(monkeypatch):
    original = weyl.basis_match_constant
    monkeypatch.setattr(weyl, "basis_match_constant",
                        lambda points, k: -original(points, k) if k == 1
                        else original(points, k))


# anchor -> (perturbation as documented, true instance, perturbation)
NEGATIVE_CONTROLS = {
    ANCHOR_DUAL_COMM: ("Delta_1 + 1 among the dual-number minors", dual_family,
                       delta1_plus_one(quantize, lambda n: DualNum.const(n, 1))),
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
}


@pytest.mark.parametrize("anchor", NEGATIVE_CONTROLS,
                         ids=["dual-comm", "soul-match", "grassmann-2", "grassmann-3",
                              "grassmann-4", "incidence", "basis-match"])
def test_perturbation_turns_pass_into_fail(monkeypatch, anchor):
    _, instance, perturb = NEGATIVE_CONTROLS[anchor]
    clean = [r for r in instance() if r.anchor == anchor]
    assert clean and all(r.status == "pass" for r in clean)
    perturb(monkeypatch)
    failing = [r for r in instance() if r.anchor == anchor and r.status == "fail"]
    assert failing and all(r.witness for r in failing)
