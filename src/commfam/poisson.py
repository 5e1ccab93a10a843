"""Classical side: canonical Poisson brackets, determinant Hamiltonians,
Grassmann identities, hyperplane geometry, and the cone bracket on the line.

The symplectic 2n-space carries variables ordered (x_1, xi_1, ..., x_n, xi_n)
with the canonical bracket normalised to {x_j, xi_j} = +1:

    {f, g} = sum_j (df/dx_j dg/dxi_j - df/dxi_j dg/dx_j).

Functions on it are plain ``RatFunc`` values in those 2n variables; the
bracket reads n off their variable count.  Two operands over one factor map,
whose product is c, bracket their numerators over c^3; any others bracket as
``RatFunc`` values.  Each leg of a tensor power occupies one (x_j, xi_j)
block, so functions on distinct legs Poisson-commute.  All zero tests go
through polynomial cross-multiplication; nothing is approximated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import (MPoly, QMatrix, RatFunc, _lcm_cofactors, dot, maximal_minors, rank,
                    rat_dot, signed_minors)
from .reports import CheckRecord, first_witness, verdict

ANCHOR_POISSON_COMMUTE = "{H_i, H_j} = 0"
ANCHOR_GRASSMANN = {
    2: "L(a,b)L(c,d) - L(a,c)L(b,d) + L(a,d)L(b,c) = 0",
    3: ("L(b,c,c')L(a,c,b')L(b,b',c') + L(b,c,b')L(c,b',c')L(a,b,c') "
        "- L(b,c,b')L(a,c,c')L(b,b',c') - L(b,c,c')L(c,b',c')L(a,b,b') = 0"),
    4: ("L(b,c,b',c')L(a,c,a',c')L(a,b,a',b') + L(b,c,a',c')L(a,c,a',b')L(a,b,b',c') "
        "+ L(b,c,a',b')L(a,c,b',c')L(a,b,a',c') - L(b,c,b',c')L(a,c,a',b')L(a,b,a',c') "
        "- L(b,c,a',b')L(a,c,a',c')L(a,b,b',c') - L(b,c,a',c')L(a,c,b',c')L(a,b,a',b') = 0"),
}
ANCHOR_INCIDENCE = "1 + sum_{i=1..g} (-1)^i h_i x_i(P_j) = 0"
ANCHOR_CONE_ALPHA = "i w grad_a(w') - i' w' grad_a(w) independent of a"
ANCHOR_CONE_ANTISYM = "{w, w} = 0"
ANCHOR_CONE_JACOBI = "{a,{b,c}} + {b,{c,a}} + {c,{a,b}} = 0"
ANCHOR_CONE_CANONICAL = ("cone bracket = canonical (z, xi) bracket under "
                         "f (dz)^i <-> f xi^-i")


class DependentFamily(ValueError):
    """The chosen functions are linearly dependent over the rationals."""


class ZeroDelta0(ArithmeticError):
    """Delta_0 vanishes identically (points or functions degenerate)."""


class ZeroAlpha(ValueError):
    """The reference one-differential is zero."""


# ---------------------------------------------------------------------------
# The canonical bracket.


def _pairwise_kernel(pairs: list):
    """sum s P(u, v) over (s, du, dv) triples, where
    P(u, v) = sum_j (u_x_j v_xi_j - u_xi_j v_x_j) is read from the partials
    du = (u_x_1, u_xi_1, ..., u_x_n, u_xi_n) and dv of two ``MPoly`` or two
    ``RatFunc`` values, n >= 1: the whole sum is one ``dot`` or one
    ``rat_dot``, so no product is formed on its own."""
    fused = dot if isinstance(pairs[0][1][0], MPoly) else rat_dot
    return fused(t for s, du, dv in pairs for x in range(0, len(du), 2)
                 for t in ((s, du[x], dv[x + 1]), (-s, du[x + 1], dv[x])))


def bracket_sum(pairs: list[tuple[int, RatFunc, RatFunc]]) -> RatFunc:
    """sum s {f, g} over signed pairs (s, f, g) of rational functions in 2n
    variables ordered (x_1, xi_1, ..., x_n, xi_n), exact; each operand's
    partials are taken once, however many pairs it enters.

    Raises ``ValueError`` when the variable counts differ or are odd.  With
    P the kernel above, operands a/c and b/c over one factor map (the rule
    of ``RatFunc.same_den``), c its product, give
    {a/c, b/c} = (c P(a,b) - a P(c,b) - b P(a,c)) / c^3, c^3 kept as c's
    factors cubed (the quotient rule would give c^4).  When every operand
    holds that one map, the pairs' terms are grouped by their outer factor,
    c or an operand's numerator, so a numerator entering several pairs
    multiplies one sum: each group's sum of P is one ``exact.dot`` and the
    numerator over c^3 one more.  Other operands go through P as ``RatFunc``
    values, whose partials raise only the factors holding the variable, and
    the sum of P is one ``exact.rat_dot``: one ``dot`` per factor map of its
    products and one over their lcm.
    """
    first = pairs[0][1]
    for _, f, g in pairs:
        for u, v in ((first, f), (f, g)):
            if u.nvars != v.nvars or v.nvars % 2:
                raise ValueError(f"bracket operands need the same even number of "
                                 f"variables, got {u.nvars} and {v.nvars}")
    operands = {id(p): p for _, f, g in pairs for p in (f, g)}
    n = first.nvars // 2
    if n == 0:
        return first * 0
    if not all(first.same_den(p) for p in operands.values()):
        partials = {key: [p.partial(i) for i in range(2 * n)] for key, p in operands.items()}
        return _pairwise_kernel([(s, partials[id(f)], partials[id(g)]) for s, f, g in pairs])
    c = first.den
    dc = [c.partial(i) for i in range(2 * n)]
    partials = {key: [p.num.partial(i) for i in range(2 * n)]
                for key, p in operands.items()}
    # c P(a,b) - a P(c,b) - b P(a,c), summed over the pairs by outer factor
    inner, outer = [], {}
    for s, f, g in pairs:
        da, db = partials[id(f)], partials[id(g)]
        inner.append((s, da, db))
        outer.setdefault(id(f), []).append((s, dc, db))
        outer.setdefault(id(g), []).append((s, da, dc))
    num = dot([(1, c, _pairwise_kernel(inner))]
              + [(-1, operands[key].num, _pairwise_kernel(group))
                 for key, group in outer.items()])
    return first.over_den(num, 3)


def poisson_bracket(f: RatFunc, g: RatFunc) -> RatFunc:
    """Canonical bracket {f, g} of two rational functions in 2n variables
    ordered (x_1, xi_1, ..., x_n, xi_n), exact: ``bracket_sum`` of the one
    pair (1, f, g)."""
    return bracket_sum([(1, f, g)])


# ---------------------------------------------------------------------------
# Determinant Hamiltonians.


def _assert_independent(fs: list[RatFunc]) -> None:
    """Exact rank test on the coefficient vectors of the f_i times the lcm
    of their denominators: each numerator times its cofactor up to the lcm.
    Multiplying every f_i by one nonzero polynomial keeps their rank."""
    _, cofactors = _lcm_cofactors([f._factors for f in fs])
    cleared = [f.num if co is None else f.num * co for f, co in zip(fs, cofactors)]
    terms = [dict(p.terms()) for p in cleared]
    monomials = sorted(set().union(*terms))
    rows = [[t.get(m, 0) for m in monomials] for t in terms]
    if rank(QMatrix.from_rows(rows)) < len(fs):
        raise DependentFamily("functions are linearly dependent over Q")


def classical_hamiltonians(fs: list[RatFunc]) -> list[RatFunc]:
    """H_i = Delta_i / Delta_0 on the n-fold symplectic power, as rational
    functions in 2n variables ordered (x_1, xi_1, ..., x_n, xi_n).

    ``fs`` lists n+1 rational functions of one (x, xi) pair; Delta_i is the
    n x n determinant whose (row, leg) entry places f_row on symplectic leg
    ``leg``, rows running over all indices except i.  Raises
    ``DependentFamily`` or ``ZeroDelta0`` when the hypotheses fail.
    """
    n = len(fs) - 1
    if n < 1:
        raise ValueError("need at least two functions")
    for f in fs:
        if f.nvars != 2:
            raise ValueError("family functions live in two variables (x, xi)")
    _assert_independent(fs)
    entries = [[f.embed(2 * n, [2 * j, 2 * j + 1]) for j in range(n)] for f in fs]
    minors = maximal_minors(entries)
    if minors[0].is_zero:
        raise ZeroDelta0("Delta_0 = 0")
    return [m / minors[0] for m in minors[1:]]


def check_poisson_commute(hs: list[RatFunc]) -> CheckRecord:
    """Every pairwise bracket must vanish, decided by cross-multiplication;
    the witness is the first nonzero bracket, cut at 200 characters."""
    def witness(i: int, j: int) -> str | None:
        br = poisson_bracket(hs[i], hs[j])
        if br.is_zero:
            return None
        text = br.to_text()
        if len(text) > 200:
            text = text[:200] + "..."
        return f"{{H_{i + 1}, H_{j + 1}}} = {text}"

    return verdict("poisson-commute", ANCHOR_POISSON_COMMUTE,
                   first_witness(witness(i, j) for i, j in combinations(range(len(hs)), 2)))


# ---------------------------------------------------------------------------
# Grassmann identities (decided exactly; integer vectors give integer values).


@dataclass(frozen=True)
class WedgeForm:
    """Alternating k-form on a rational m-space, coefficients on increasing
    k-tuples of basis indices.

    The three-term, five-vector and six-vector identities decided by
    ``check_grassmann`` hold for forms arising as systems of minors, i.e.
    decomposable forms; ``from_covectors`` builds exactly these.
    """

    dim: int
    arity: int
    coeffs: dict[tuple[int, ...], int | Fraction]

    def __post_init__(self):
        for idx, c in self.coeffs.items():
            if len(idx) != self.arity or list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} must be strictly increasing")
            if not 0 <= idx[0] <= idx[-1] < self.dim:
                raise ValueError(f"index tuple {idx} out of range")
            if c == 0:
                raise ValueError("zero coefficients must not be stored")

    @classmethod
    def from_covectors(cls, ws: list[list[int | Fraction]]) -> "WedgeForm":
        """The decomposable form w_1 ^ ... ^ w_k."""
        m = len(ws[0])
        minors = signed_minors(list(zip(*ws)))
        coeffs = {_indices(mask, m): c for mask, c in minors.items() if c != 0}
        return cls(m, len(ws), coeffs)

    def __call__(self, *vectors) -> int | Fraction:
        if len(vectors) != self.arity:
            raise ValueError(f"form expects {self.arity} vectors")
        for v in vectors:
            if len(v) != self.dim:
                raise ValueError("vector dimension mismatch")
        minors = signed_minors(list(zip(*vectors)))
        return sum(c * minors[sum(1 << i for i in idx)] for idx, c in self.coeffs.items())


def _indices(mask: int, m: int) -> tuple[int, ...]:
    return tuple(i for i in range(m) if mask >> i & 1)


def check_grassmann(form: WedgeForm, vectors: list[list[int | Fraction]]) -> CheckRecord:
    """Evaluate the alternating-form identity for the form's arity; must be 0.
    The record is named ``grassmann-<arity>``."""
    k = form.arity
    L = form
    if k == 2:
        if len(vectors) != 4:
            raise ValueError("arity 2 takes four vectors")
        a, b, c, d = vectors
        value = L(a, b) * L(c, d) - L(a, c) * L(b, d) + L(a, d) * L(b, c)
    elif k == 3:
        if len(vectors) != 5:
            raise ValueError("arity 3 takes five vectors")
        a, b, c, bp, cp = vectors
        value = (L(b, c, cp) * L(a, c, bp) * L(b, bp, cp)
                 + L(b, c, bp) * L(c, bp, cp) * L(a, b, cp)
                 - L(b, c, bp) * L(a, c, cp) * L(b, bp, cp)
                 - L(b, c, cp) * L(c, bp, cp) * L(a, b, bp))
    elif k == 4:
        if len(vectors) != 6:
            raise ValueError("arity 4 takes six vectors")
        a, b, c, ap, bp, cp = vectors
        value = (L(b, c, bp, cp) * L(a, c, ap, cp) * L(a, b, ap, bp)
                 + L(b, c, ap, cp) * L(a, c, ap, bp) * L(a, b, bp, cp)
                 + L(b, c, ap, bp) * L(a, c, bp, cp) * L(a, b, ap, cp)
                 - L(b, c, bp, cp) * L(a, c, ap, bp) * L(a, b, ap, cp)
                 - L(b, c, ap, bp) * L(a, c, ap, cp) * L(a, b, bp, cp)
                 - L(b, c, ap, cp) * L(a, c, bp, cp) * L(a, b, ap, bp))
    else:
        raise ValueError("supported arities are 2, 3, 4")
    return verdict(f"grassmann-{k}", ANCHOR_GRASSMANN[k],
                   None if value == 0 else f"identity value = {value}")


def random_vector(rng: random.Random, m: int, bound: int = 5) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(m)]


def random_decomposable(rng: random.Random, m: int, k: int,
                        bound: int = 5) -> WedgeForm:
    """A nonzero decomposable k-form from random integer covectors."""
    while True:
        form = WedgeForm.from_covectors([random_vector(rng, m, bound) for _ in range(k)])
        if form.coeffs:
            return form


# ---------------------------------------------------------------------------
# Hyperplane through g points of affine g-space.


def hyperplane_coefficients(points: list[list]) -> list[Fraction]:
    """Exact (h_1, ..., h_g) with h_i = Delta_i / Delta_0.

    Delta_i deletes row i of the (g+1) x g array whose row 0 is all ones and
    whose row alpha >= 1 lists the alpha-th affine coordinate of each point.
    The affine coordinates of the spanned hyperplane are ((-1)^i h_i).  The
    minors of integer points are integers; each h_i is the ``Fraction`` that
    its one division forms.
    """
    g = len(points)
    if any(len(p) != g for p in points):
        raise ValueError("points must have g coordinates")
    rows = [[1] * g] + [[p[alpha] for p in points] for alpha in range(g)]
    minors = maximal_minors(rows)
    if minors[0] == 0:
        raise ZeroDelta0("the points do not span (Delta_0 = 0)")
    return [Fraction(minors[i], minors[0]) for i in range(1, g + 1)]


def check_hyperplane_incidence(points: list[list], hs: list[Fraction]) -> CheckRecord:
    """Each point satisfies 1 + sum_i (-1)^i h_i x_i = 0 exactly.

    This is the cofactor expansion of a determinant with a repeated column,
    so it is the defining property of the spanned hyperplane.
    """
    g = len(points)

    def witness(j: int, p: list) -> str | None:
        value = 1
        for i in range(1, g + 1):
            term = hs[i - 1] * p[i - 1]
            value += term if i % 2 == 0 else -term
        return None if value == 0 else f"point {j + 1}: incidence value = {value}"

    return verdict("hyperplane-incidence", ANCHOR_INCIDENCE,
                   first_witness(witness(j, p) for j, p in enumerate(points)))


# ---------------------------------------------------------------------------
# Cone bracket for rational differentials on the projective line.


@dataclass(frozen=True)
class ConeDifferential:
    """A rational weight-i differential f(z) (dz)^i on the line."""

    f: RatFunc  # one variable z
    weight: int

    def __post_init__(self):
        if self.f.nvars != 1:
            raise ValueError("cone differentials live on a single chart z")

    def __add__(self, other: "ConeDifferential") -> "ConeDifferential":
        if self.weight != other.weight:
            raise ValueError("weights differ")
        return ConeDifferential(self.f + other.f, self.weight)

    def __neg__(self) -> "ConeDifferential":
        return ConeDifferential(-self.f, self.weight)

    def __sub__(self, other: "ConeDifferential") -> "ConeDifferential":
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return self.f.is_zero


def nabla(alpha: ConeDifferential, omega: ConeDifferential) -> ConeDifferential:
    """grad_alpha(w) = alpha^i d(w / alpha^i): weight i in, weight i+1 out.

    Computed as d(w inv) / inv with inv = alpha^(-i).  For i > 0 inv keeps
    alpha as a denominator factor with exponent i, so the division cancels
    it instead of expanding alpha^i; i = 0 gives inv = 1.
    """
    if alpha.weight != 1:
        raise ValueError("the reference differential must have weight 1")
    if alpha.f.is_zero:
        raise ZeroAlpha("reference differential is zero")
    i = omega.weight
    inv = alpha.f ** -i
    return ConeDifferential((omega.f * inv).partial(0) / inv, i + 1)


def cone_bracket(omega: ConeDifferential, omega2: ConeDifferential,
                 alpha: ConeDifferential) -> ConeDifferential:
    """{w, w'} = i w grad_alpha(w') - i' w' grad_alpha(w), weight i + i' + 1.

    The value does not depend on the choice of alpha; under the substitution
    f(z)(dz)^i <-> f(z) xi^(-i) it agrees with the canonical (z, xi) bracket
    with no extra sign (see ``cone_to_symplectic``).
    """
    i, i2 = omega.weight, omega2.weight
    lhs = omega.f * nabla(alpha, omega2).f * i
    rhs = omega2.f * nabla(alpha, omega).f * i2
    return ConeDifferential(lhs - rhs, i + i2 + 1)


def cone_to_symplectic(omega: ConeDifferential) -> RatFunc:
    """f(z) (dz)^i -> f(x) xi^(-i) in the two variables (x, xi)."""
    lifted = omega.f.embed(2, [0])
    return lifted * (RatFunc.var(2, 1) ** (-omega.weight))


def check_alpha_independence(brackets: list[ConeDifferential]) -> CheckRecord:
    """One pair's brackets {w, w'}, each formed with its own reference
    differential alpha, all agree."""
    if len(brackets) < 2:
        raise ValueError("need at least two brackets to compare")
    first = brackets[0]
    return verdict("cone-alpha-independence", ANCHOR_CONE_ALPHA, first_witness(
        None if (first - other).is_zero
        else f"brackets differ: {first.f.to_text()} vs {other.f.to_text()}"
        for other in brackets[1:]))


def check_cone_antisymmetry(omega: ConeDifferential, alpha: ConeDifferential) -> CheckRecord:
    anti = cone_bracket(omega, omega, alpha)
    return verdict("cone-antisymmetry", ANCHOR_CONE_ANTISYM,
                   None if anti.is_zero else anti.f.to_text())


def check_cone_jacobi(a: ConeDifferential, b: ConeDifferential, c: ConeDifferential,
                      alpha: ConeDifferential) -> CheckRecord:
    jac = (cone_bracket(a, cone_bracket(b, c, alpha), alpha)
           + cone_bracket(b, cone_bracket(c, a, alpha), alpha)
           + cone_bracket(c, cone_bracket(a, b, alpha), alpha))
    return verdict("cone-jacobi", ANCHOR_CONE_JACOBI, None if jac.is_zero else jac.f.to_text())


def check_cone_vs_canonical(bracket: ConeDifferential, omega: ConeDifferential,
                            omega2: ConeDifferential) -> CheckRecord:
    """``bracket``, the cone bracket {w, w'} under any reference differential,
    carried to (x, xi), is the canonical bracket of w and w' carried there."""
    lhs = cone_to_symplectic(bracket)
    rhs = poisson_bracket(cone_to_symplectic(omega), cone_to_symplectic(omega2))
    return verdict("cone-vs-canonical", ANCHOR_CONE_CANONICAL,
                   None if lhs == rhs else f"cone - canonical = {(lhs - rhs).to_text()}")
