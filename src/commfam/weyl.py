"""Rational differential operators in N variables, exactly.

An operator is a finite sum  sum_a  f_a(z_1..z_N) D^a  over derivative
multi-indices a, with rational-function coefficients.  Composition follows
the multi-index Leibniz rule (f D^a)(g D^b) = sum_{c <= a} C(a, c) f (D^c g)
D^(a - c + b) and stays exact.  The commutator is the same sum over c != 0,
minus the sum with the operators swapped: the c = 0 terms f g D^(a + b)
cancel, so ``do_commutator`` never forms them (``exact._leibniz``).  Neither
forms its terms one by one: the products of each D^(a - c + b) are summed as
one ``exact.rat_dot``, one ``dot`` per denominator map and one over their lcm.
The symbol map sends the top total-degree part to a polynomial in
(xi_1..xi_N) over Q(z_1..z_N), matching the variable layout of the Poisson
module so symbols can be bracketed there.

Two constructions of commuting families live here:

* ``rational_hamiltonians`` -- the closed-form family attached to N distinct
  marked points P_1..P_N and a one-variable seed operator T:

      H_k = sum_i [prod_{(i',k'): i'=i or k'=k} (z_i' - P_k')
                   / prod_{i' != i} (z_i - z_i')] * T_{z_i}.

* ``hamiltonians_from_basis`` -- the function-determinant (cofactor) form
  built from N one-variable functions: with F = det(f_i(z_j)) and F_i^(j)
  the minor omitting f_i and leg j,

      H_i = sum_j (-1)^(j+1) (F_i^(j) / F) * T_{z_j}.

On the basis f_i = 1/(z - P_i) the two agree exactly up to the constant
c_k = (-1)^(k+1) prod_{l != k} (P_l - P_k) per index k, i.e.
``c_k * hamiltonians_from_basis(...)[k-1] == rational_hamiltonians(...)[k-1]``.
That constant is fixed by the marked points and is asserted, not normalised
away.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import (MPoly, RatFunc, SparseSum, _leibniz, collect, collect_products,
                    maximal_minors, signed_minors)
from .poisson import classical_hamiltonians, poisson_bracket
from .reports import CheckRecord, first_witness, verdict

ANCHOR_OP_COMMUTE = "[H_k, H_l] = 0"
ANCHOR_SYMBOL_MATCH = "symbol(H_k) = c_k * H_k^cl (c_k fixed by the points)"
ANCHOR_SYMBOL_COMMUTE = "{symbol(H_k), symbol(H_l)} = 0"
ANCHOR_BASIS_MATCH = ("sum_j (-1)^(j+1) (F_i^(j)/F) T_{z_j} matches the "
                      "closed form up to c_k")


class ZeroOperator(ValueError):
    """The zero operator has no symbol."""


class ZeroPhi(ArithmeticError):
    """The function determinant of the chosen basis vanishes."""


@dataclass(frozen=True, eq=False)
class RatDiffOp(SparseSum):
    """Finite map from derivative multi-indices to rational coefficients."""

    nvars: int
    coeffs: dict[tuple[int, ...], RatFunc]

    def __post_init__(self):
        for alpha, c in self.coeffs.items():
            if len(alpha) != self.nvars or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha}")
            if c.nvars != self.nvars:
                raise ValueError("coefficient variable count mismatch")
            if c.is_zero:
                raise ValueError("zero coefficients must not be stored")

    # -- constructors -------------------------------------------------------

    @classmethod
    def build(cls, nvars, items) -> "RatDiffOp":
        """Collect (multi-index, coefficient) pairs, dropping zero sums."""
        return cls(nvars, collect((tuple(alpha), c) for alpha, c in items))

    @classmethod
    def zero(cls, nvars: int) -> "RatDiffOp":
        return cls(nvars, {})

    @classmethod
    def identity(cls, nvars: int) -> "RatDiffOp":
        return cls.multiplication(RatFunc.const(nvars, 1))

    @classmethod
    def multiplication(cls, f: RatFunc) -> "RatDiffOp":
        if f.is_zero:
            return cls.zero(f.nvars)
        return cls(f.nvars, {(0,) * f.nvars: f})

    @classmethod
    def partial(cls, nvars: int, j: int, order: int = 1) -> "RatDiffOp":
        """The operator d^order/dz_j^order (legs are 1-based)."""
        alpha = tuple(order if t == j - 1 else 0 for t in range(nvars))
        return cls(nvars, {alpha: RatFunc.const(nvars, 1)})

    def lift_to_leg(self, leg: int, nvars: int) -> "RatDiffOp":
        """Embed a one-variable operator so it acts in variable z_leg."""
        if self.nvars != 1:
            raise ValueError("only one-variable operators can be lifted")
        if not 1 <= leg <= nvars:
            raise ValueError("leg out of range")
        out = {}
        for (k,), c in self.coeffs.items():
            alpha = tuple(k if t == leg - 1 else 0 for t in range(nvars))
            out[alpha] = c.embed(nvars, [leg - 1])
        return RatDiffOp(nvars, out)

    # -- ring operations ----------------------------------------------------

    def order(self) -> int:
        """Top total derivative degree; -1 for the zero operator."""
        return max((sum(a) for a in self.coeffs), default=-1)

    def _compat(self, other: "RatDiffOp") -> None:
        if self.nvars != other.nvars:
            raise ValueError("operator variable counts differ")

    def apply(self, f: RatFunc) -> RatFunc:
        """Act on a rational function: the defining action of the algebra."""
        if f.nvars != self.nvars:
            raise ValueError("function variable count mismatch")
        total = RatFunc.const(self.nvars, 0)
        for alpha, c in self.coeffs.items():
            g = f
            for j, k in enumerate(alpha):
                for _ in range(k):
                    g = g.partial(j)
            total = total + c * g
        return total

    def to_text(self) -> str:
        """One line per term: ``a_1 .. a_N | num | den`` (sparse polynomials)."""
        lines = []
        for alpha in sorted(self.coeffs):
            c = self.coeffs[alpha]
            idx = " ".join(str(a) for a in alpha)
            names = [f"z{i + 1}" for i in range(self.nvars)]
            lines.append(f"{idx} | {c.num.to_text(names)} | {c.den.to_text(names)}")
        return "\n".join(lines)

    def __repr__(self):
        if self.is_zero:
            return "RatDiffOp(0)"
        return f"RatDiffOp:\n{self.to_text()}"


def do_compose(a: RatDiffOp, b: RatDiffOp) -> RatDiffOp:
    """Operator composition by the multi-index Leibniz rule, exact."""
    a._compat(b)
    return RatDiffOp(a.nvars, collect_products(_leibniz(a.coeffs, b.coeffs)))


def do_commutator(a: RatDiffOp, b: RatDiffOp) -> RatDiffOp:
    """[a, b] by the Leibniz rule without its gamma = 0 terms, which cancel."""
    a._compat(b)
    return RatDiffOp(a.nvars, collect_products(_leibniz(a.coeffs, b.coeffs, commutator=True)))


def symbol(a: RatDiffOp) -> RatFunc:
    """Top-degree part with each d/dz_j replaced by xi_j.

    Returns a rational function in 2N variables laid out (z_1, xi_1, ...,
    z_N, xi_N), polynomial in the xi's, ready for the canonical bracket.
    """
    if a.is_zero:
        raise ZeroOperator("the zero operator has no symbol")
    top = a.order()
    nv = 2 * a.nvars
    total = RatFunc.const(nv, 0)
    for alpha, c in a.coeffs.items():
        if sum(alpha) != top:
            continue
        term = c.embed(nv, [2 * j for j in range(a.nvars)])
        for j, k in enumerate(alpha):
            if k:
                term = term * (RatFunc.var(nv, 2 * j + 1) ** k)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# The two families.


@dataclass(frozen=True)
class OpFamilySpec:
    """N distinct marked points, stored as ``Rat``, plus a one-variable seed
    operator; N is the number of points."""

    points: tuple[Fraction, ...]
    T: RatDiffOp

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(Fraction(p) for p in self.points))
        if len(set(self.points)) != self.N:
            raise ValueError("marked points must be pairwise distinct")
        if self.T.nvars != 1:
            raise ValueError("the seed operator acts on one variable")

    @property
    def N(self) -> int:
        return len(self.points)


def _linear(nvars: int, j: int, shift: Fraction) -> MPoly:
    """The polynomial z_j - shift (legs 1-based)."""
    return MPoly.from_terms(nvars, [
        (tuple(1 if t == j - 1 else 0 for t in range(nvars)), 1),
        ((0,) * nvars, -shift),
    ])


def closed_form_coefficient(spec: OpFamilySpec, i: int, k: int) -> RatFunc:
    """Coefficient of T_{z_i} in H_k, literally from the displayed product;
    dividing by each z_i - z_i' in turn keeps them as separate factors."""
    N = spec.N
    num = MPoly.one(N)
    for ip in range(1, N + 1):
        for kp in range(1, N + 1):
            if ip == i or kp == k:
                num = num * _linear(N, ip, spec.points[kp - 1])
    coeff = RatFunc(num)
    for ip in range(1, N + 1):
        if ip != i:
            coeff = coeff / (RatFunc.var(N, i - 1) - RatFunc.var(N, ip - 1))
    return coeff


def _leg_sum(qs: list[RatFunc], T: RatDiffOp) -> RatDiffOp:
    """sum_j q_j T_{z_j} (legs 1-based): each coefficient c of T, lifted to
    leg j, times q_j, collected once; a zero q_j adds nothing."""
    N = len(qs)
    return RatDiffOp.build(N, ((alpha, q * c)
                               for j, q in enumerate(qs, start=1) if not q.is_zero
                               for alpha, c in T.lift_to_leg(j, N).coeffs.items()))


def rational_hamiltonians(spec: OpFamilySpec) -> list[RatDiffOp]:
    """The closed-form commuting family H_1..H_N for the marked points."""
    N = spec.N
    return [_leg_sum([closed_form_coefficient(spec, i, k) for i in range(1, N + 1)], spec.T)
            for k in range(1, N + 1)]


def hamiltonians_from_basis(fs: list[RatFunc], T: RatDiffOp) -> list[RatDiffOp]:
    """Cofactor family from one-variable functions f_1..f_N and seed T.

    With F = det(f_i(z_j)) and F_i^(j) the minor omitting row i and leg j
    (rows and legs in increasing order), returns

        H_i = sum_j (-1)^(j+1) (F_i^(j) / F) * T_{z_j}.

    Raises ``ZeroPhi`` when F vanishes identically.
    """
    N = len(fs)
    for f in fs:
        if f.nvars != 1:
            raise ValueError("basis functions are one-variable")
    if T.nvars != 1:
        raise ValueError("the seed operator acts on one variable")
    table = [[fs[i].embed(N, [j]) for j in range(N)] for i in range(N)]
    one = RatFunc.const(N, 1)
    phi = signed_minors(table, one=one)[(1 << N) - 1]
    if phi.is_zero:
        raise ZeroPhi("function determinant det(f_i(z_j)) = 0")
    # cofactors[j][i] = F_i^(j): the maximal minors of the table without column j
    cofactors = [maximal_minors([row[:j] + row[j + 1:] for row in table], one=one)
                 for j in range(N)]
    quotients = [[cofactors[j][i] / phi for j in range(N)] for i in range(N)]
    return [_leg_sum([-q if j % 2 else q for j, q in enumerate(row)], T)
            for row in quotients]


def basis_match_constant(points, k: int) -> Fraction:
    """c_k = (-1)^(k+1) prod_{l != k} (P_l - P_k)."""
    c = Fraction(-1) ** (k + 1)
    for l, p in enumerate(points, start=1):
        if l != k:
            c *= Fraction(p) - Fraction(points[k - 1])
    return c


# ---------------------------------------------------------------------------
# Checks.


def check_commute(hs: list[RatDiffOp]) -> CheckRecord:
    """Every pairwise commutator must vanish; the witness is the least term
    of the first nonzero one, cut at 300 characters."""
    def witness(a: int, b: int) -> str | None:
        comm = do_commutator(hs[a], hs[b])
        if comm.is_zero:
            return None
        alpha = min(comm.coeffs)
        return f"[H_{a + 1}, H_{b + 1}] term {alpha}: {comm.coeffs[alpha].to_text()}"[:300]

    return verdict("operator-commute", ANCHOR_OP_COMMUTE,
                   first_witness(witness(a, b) for a, b in combinations(range(len(hs)), 2)))


def classical_family_for(spec: OpFamilySpec) -> list[RatFunc]:
    """f_0 = 1 and f_i = 1 / ((x - P_i) sigma(T)): the classical data whose
    determinant Hamiltonians the operator symbols must reproduce."""
    sigma = symbol(spec.T)
    one = RatFunc.const(2, 1)
    fs = [one]
    x = RatFunc.var(2, 0)
    for p in spec.points:
        fs.append(one / ((x - RatFunc.const(2, p)) * sigma))
    return fs


def check_symbol_matches_classical(hs: list[RatDiffOp],
                                   spec: OpFamilySpec) -> list[CheckRecord]:
    """symbol(H_k) equals c_k times the determinant Hamiltonian, plus the
    independent cross-check that the symbols Poisson-commute."""
    records = []
    classical = classical_hamiltonians(classical_family_for(spec))
    symbols = [symbol(h) for h in hs]
    for k in range(1, spec.N + 1):
        c_k = basis_match_constant(spec.points, k)
        records.append(verdict(f"symbol-vs-classical-H{k}", ANCHOR_SYMBOL_MATCH,
                               None if symbols[k - 1] == classical[k - 1] * c_k
                               else f"symbol(H_{k}) != c_{k} * H^cl_{k} with c_{k} = {c_k}"))
    for a, b in combinations(range(len(symbols)), 2):
        br = poisson_bracket(symbols[a], symbols[b])
        records.append(verdict(f"symbol-vs-classical-bracket-{a + 1}{b + 1}",
                               ANCHOR_SYMBOL_COMMUTE,
                               None if br.is_zero else f"bracket = {br.to_text()[:200]}"))
    return records


def check_basis_matches_closed_form(spec: OpFamilySpec) -> list[CheckRecord]:
    """On f_i = 1/(z - P_i) the cofactor family times c_k is the closed form."""
    one = RatFunc.const(1, 1)
    z = RatFunc.var(1, 0)
    fs = [one / (z - RatFunc.const(1, p)) for p in spec.points]
    from_basis = hamiltonians_from_basis(fs, spec.T)
    closed = rational_hamiltonians(spec)
    records = []
    for k in range(1, spec.N + 1):
        c_k = basis_match_constant(spec.points, k)
        records.append(verdict(f"basis-vs-closed-form-H{k}", ANCHOR_BASIS_MATCH,
                               None if from_basis[k - 1].scale(c_k) == closed[k - 1]
                               else f"mismatch at k = {k}, c_k = {c_k}"))
    return records
