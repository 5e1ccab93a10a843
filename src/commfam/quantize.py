"""Deformation bridge: dual-number quantization and truncated localization.

Two desk-scale renderings of first-order quantization live here.

* Dual numbers: on k[eps]/(eps^2) the product  f * g = fg + eps {f, g}  is
  associative because the bracket is a biderivation, and an element is
  invertible iff its body is nonzero.  Building the determinant family
  H_i = Delta_0^{-1} Delta_i inside this algebra and watching the commutators
  vanish is precisely the epsilon-route to Poisson commutativity: the soul of
  a commutator of body-only elements is 2 {body, body}.  A commutator
  ab - ba is summed in one pass (``dual_commutator``), never as two products.

* hbar-localization: the coefficient algebra A_h is the Rees construction on
  one-variable differential operators (each derivative carries one power of
  hbar, so the stored (order, power) pairs satisfy power >= order).  It
  composes by the Leibniz rule of ``exact._leibniz``, hbar powers adding:
  (a D^k)(b D^k') = sum_{i <= k} C(k, i) a b^(i) D^(k - i + k').  ad(f)(b) =
  f b - b f is the same sum over i != 0, minus the sum with f and b swapped:
  the i = 0 terms a b D^(k + k') cancel, so ``h_ad`` never forms them.  The
  products of each (order, power) key are summed as one ``exact.rat_dot``,
  with no product formed on its own; so is the soul a b' + a' b of a dual
  product.
  Adjoining a formal X with the rule

      (a X^n)(b X^m) = sum_{al >= 0} C(-n, al) a ad(f)^al(b) X^(n+m+al)

  makes X a two-sided inverse of the chosen lift f.  Iterating ad(f) strictly
  increases 2*(hbar power) - (derivative order), so the alpha-sum terminates
  at any finite truncation M.  Because f is already invertible inside A_h
  (its body is a nonzero rational function), the substitution X -> f^{-1} is
  a faithful algebra map mod hbar^M; it is the equality oracle for series.

Everything is truncated at a fixed hbar order M and asserted exactly there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .exact import (MPoly, RatFunc, SparseSum, _leibniz, collect, collect_products,
                    maximal_minors, rat_dot)
from .poisson import bracket_sum, poisson_bracket
from .reports import CheckRecord, verdict

ANCHOR_DUAL_ASSOC = "(a.b).c = a.(b.c) for a.b = ab + eps{a,b}"
ANCHOR_DUAL_COMM = "H_i H_j - H_j H_i = 0 in dual numbers (body and soul)"
ANCHOR_SOUL_FACTOR = "soul(a.b - b.a) = 2 {a, b}"
ANCHOR_SOUL_MATCH = "soul([H_i, H_j]) = 2 {H_i^cl, H_j^cl}"
ANCHOR_LOCAL_INV = "X f = f X = 1 (mod hbar^M)"
ANCHOR_LOCAL_ASSOC = "(u v) w = u (v w) (mod hbar^M)"
ANCHOR_XD = "X D = D X + hbar X^2 (D = hbar d/dz, f = z)"
ANCHOR_LIFT_FREE = "localization independent of the lift: X' inverts f + hbar g"
ANCHOR_DEGEN = "hbar^1 part of [F, G] = canonical bracket of the shadows"


class ZeroBody(ArithmeticError):
    """Dual number or hbar element with vanishing body is not invertible."""


class TruncationMismatch(ValueError):
    """Operands disagree on the truncation order or the localized element."""


# ---------------------------------------------------------------------------
# Dual numbers over the symplectic function field.


@dataclass(frozen=True)
class DualNum:
    """body + eps * soul over the 2n-variable symplectic function field: body
    and soul are ``RatFunc`` values in the same 2n variables, ordered
    (x_1, xi_1, ..., x_n, xi_n)."""

    body: RatFunc
    soul: RatFunc

    def __post_init__(self):
        if self.body.nvars != self.soul.nvars:
            raise ValueError("body and soul live on different symplectic powers")

    @classmethod
    def classical(cls, p: RatFunc) -> "DualNum":
        return cls(p, RatFunc.const(p.nvars, 0))

    def __add__(self, other: "DualNum") -> "DualNum":
        return DualNum(self.body + other.body, self.soul + other.soul)

    def __sub__(self, other: "DualNum") -> "DualNum":
        return DualNum(self.body - other.body, self.soul - other.soul)

    def __neg__(self) -> "DualNum":
        return DualNum(-self.body, -self.soul)

    @property
    def is_zero(self) -> bool:
        return self.body.is_zero and self.soul.is_zero


def dual_mul(a: DualNum, b: DualNum) -> DualNum:
    """The eps-deformed product: bodies multiply, souls pick up the bracket."""
    body = a.body * b.body
    soul = rat_dot([(1, a.body, b.soul), (1, a.soul, b.body)]) + poisson_bracket(a.body, b.body)
    return DualNum(body, soul)


def dual_commutator(a: DualNum, b: DualNum) -> DualNum:
    """ab - ba, with every product formed inside a fused sum and none on its
    own: the body a_0 b_0 - b_0 a_0 is one ``rat_dot``, the four body-soul
    products a_0 b_1 + a_1 b_0 - b_0 a_1 - b_1 a_0 one more, and
    {a_0, b_0} - {b_0, a_0} one ``bracket_sum`` over the signed pairs.  Only
    distributivity merges terms; neither commutativity nor antisymmetry is
    assumed, since the commutator is what the checks decide."""
    body = rat_dot([(1, a.body, b.body), (-1, b.body, a.body)])
    soul = (rat_dot([(1, a.body, b.soul), (1, a.soul, b.body),
                     (-1, b.body, a.soul), (-1, b.soul, a.body)])
            + bracket_sum([(1, a.body, b.body), (-1, b.body, a.body)]))
    return DualNum(body, soul)


def _nonzero_part(d: DualNum) -> str:
    """The first nonzero part of ``d`` and its text, as a failure witness."""
    part = "body" if not d.body.is_zero else "soul"
    return f"nonzero {part}: {getattr(d, part).to_text()}"


def check_dual_assoc(a: DualNum, b: DualNum, c: DualNum) -> CheckRecord:
    diff = dual_mul(dual_mul(a, b), c) - dual_mul(a, dual_mul(b, c))
    return verdict("dual-assoc", ANCHOR_DUAL_ASSOC, None if diff.is_zero else _nonzero_part(diff))


def check_soul_factor(a: RatFunc, b: RatFunc) -> CheckRecord:
    """The soul of the commutator of two body-only elements is 2 {a, b}."""
    soul = dual_commutator(DualNum.classical(a), DualNum.classical(b)).soul
    want = poisson_bracket(a, b) * 2
    return verdict("dual-soul-factor", ANCHOR_SOUL_FACTOR,
                   None if soul == want else f"soul - 2 {{a, b}} = {(soul - want).to_text()}")


def dual_inverse(a: DualNum) -> DualNum:
    """Two-sided inverse: (1/body, -soul/body^2).

    The bracket correction {body, 1/body} vanishes identically, so the naive
    commutative inverse works on both sides; raises ``ZeroBody`` otherwise.
    """
    if a.body.is_zero:
        raise ZeroBody("body vanishes; not invertible in dual numbers")
    inv_body = 1 / a.body
    soul = -(a.soul * inv_body * inv_body)
    return DualNum(inv_body, soul)


def dual_commuting_family(fs: list[RatFunc], classical: list[RatFunc]) -> list[CheckRecord]:
    """Build H_i = Delta_0^{-1} Delta_i inside dual numbers and check that
    each commutator [H_i, H_j] vanishes and that its soul is
    2 {H_i^cl, H_j^cl}, where ``classical`` is ``classical_hamiltonians(fs)``.

    Each commutator is one ``dual_commutator``, so H_i H_j and H_j H_i are
    never formed on their own.  The soul check compares two independent
    routes: the eps-route (dual minors, dual inverse, dual products, the
    fused commutator) and the classical route (``RatFunc`` minors and one
    bracket per pair)."""
    n = len(fs) - 1
    if n < 2:
        raise ValueError("need at least three functions")
    lifts = [[DualNum.classical(f.embed(2 * n, [2 * j, 2 * j + 1])) for j in range(n)]
             for f in fs]
    minors = maximal_minors(lifts, dual_mul)
    inv0 = dual_inverse(minors[0])  # ZeroBody propagates
    hs = [dual_mul(inv0, minors[i]) for i in range(1, n + 1)]
    records, soul_records = [], []
    for i, j in combinations(range(len(hs)), 2):
        comm = dual_commutator(hs[i], hs[j])
        records.append(verdict(f"dual-commutator-{i + 1}{j + 1}", ANCHOR_DUAL_COMM,
                               None if comm.is_zero else _nonzero_part(comm)))
        soul_records.append(verdict(
            f"dual-soul-vs-bracket-{i + 1}{j + 1}", ANCHOR_SOUL_MATCH,
            None if comm.soul == poisson_bracket(classical[i], classical[j]) * 2
            else "soul mismatch"))
    return records + soul_records


# ---------------------------------------------------------------------------
# The Rees coefficient algebra A_h.


@dataclass(frozen=True, eq=False)
class HElem(SparseSum):
    """Finite sum of c(z) hbar^m (d/dz)^k with m >= k, truncated at m <= M:
    ``coeffs`` maps (k, m) to c, a nonzero function; ``*`` composes."""

    trunc: int
    coeffs: dict[tuple[int, int], RatFunc]

    def __post_init__(self):
        for (k, m), c in self.coeffs.items():
            if k < 0 or m < k:
                raise ValueError(f"term ({k},{m}) violates the Rees condition m >= k")
            if m > self.trunc:
                raise ValueError(f"term ({k},{m}) exceeds truncation {self.trunc}")
            if c.nvars != 1 or c.is_zero:
                raise ValueError("coefficients are nonzero one-variable functions")

    @classmethod
    def build(cls, trunc: int, items) -> "HElem":
        """Collect ((k, m), c) pairs, dropping powers m > trunc and zero sums."""
        return cls(trunc, collect(item for item in items if item[0][1] <= trunc))

    @classmethod
    def zero(cls, trunc: int) -> "HElem":
        return cls(trunc, {})

    @classmethod
    def function(cls, f: RatFunc, trunc: int) -> "HElem":
        if f.is_zero:
            return cls.zero(trunc)
        return cls(trunc, {(0, 0): f})

    @classmethod
    def one(cls, trunc: int) -> "HElem":
        return cls.function(RatFunc.const(1, 1), trunc)

    @classmethod
    def hbar_derivative(cls, trunc: int) -> "HElem":
        """hbar d/dz."""
        return cls(trunc, {(1, 1): RatFunc.const(1, 1)})

    @classmethod
    def hbar(cls, trunc: int) -> "HElem":
        return cls(trunc, {(0, 1): RatFunc.const(1, 1)})

    def body(self) -> RatFunc:
        """The hbar^0 part (always a plain function by the Rees condition)."""
        return self.coeffs.get((0, 0), RatFunc.const(1, 0))

    def min_hbar_order(self) -> int | None:
        return min((m for (_, m) in self.coeffs), default=None)

    def shadow(self) -> RatFunc:
        """Classical limit in (z, xi): terms with m = k survive as c xi^k."""
        total = RatFunc.const(2, 0)
        for (k, m), c in self.coeffs.items():
            if m == k:
                total = total + c.embed(2, [0]) * (RatFunc.var(2, 1) ** k)
        return total

    def shift_hbar(self) -> "HElem":
        """Multiply by hbar (drops what leaves the truncation window)."""
        return HElem.build(self.trunc, (((k, m + 1), c)
                                        for (k, m), c in self.coeffs.items()))

    def __mul__(self, other: "HElem") -> "HElem":
        """Composition; hbar powers add, derivatives pass by Leibniz."""
        self._compat(other)
        return HElem(self.trunc, collect_products(_leibniz(self.coeffs, other.coeffs,
                                                           self.trunc)))

    def _compat(self, other: "HElem") -> None:
        if self.trunc != other.trunc:
            raise TruncationMismatch(
                f"truncation orders differ: {self.trunc} vs {other.trunc}")


def h_ad(f: HElem, b: HElem) -> HElem:
    """ad(f)(b) = f b - b f in A_h, without the Leibniz terms that cancel."""
    f._compat(b)
    return HElem(f.trunc, collect_products(_leibniz(f.coeffs, b.coeffs, f.trunc,
                                                    commutator=True)))


def h_inverse(f: HElem) -> HElem:
    """Inverse of f mod hbar^M via the geometric series around the body.

    Requires a nonzero body; the correction f - body carries at least one
    power of hbar, so the series stops at the truncation order.
    """
    b = f.body()
    if b.is_zero:
        raise ZeroBody("hbar element with zero body is not invertible")
    binv = HElem.function(RatFunc.const(1, 1) / b, f.trunc)
    higher = f - HElem.function(b, f.trunc)
    out = binv
    power = binv
    for _ in range(f.trunc):
        power = -(binv * (higher * power))
        if power.is_zero:
            break
        out = out + power
    return out


# ---------------------------------------------------------------------------
# Truncated localization: finite sums  sum_k a_k X^k  with a_k in A_h.


@dataclass(frozen=True, eq=False)
class LocalSeries(SparseSum):
    """Element of the localization of A_h at f, normal-ordered in X: ``coeffs``
    maps X-powers to nonzero elements of A_h truncated like ``f``.  Equal
    ``coeffs`` are not equality in the localization, so ``==`` is
    ``series_equal``."""

    f: HElem
    coeffs: dict[int, HElem]

    def __post_init__(self):
        if self.f.body().is_zero:
            raise ZeroBody("the localized element must have an invertible body")
        for k, a in self.coeffs.items():
            if k < 0:
                raise ValueError("X-powers are nonnegative")
            if a.trunc != self.trunc:
                raise TruncationMismatch(f"coefficient truncation {a.trunc}, f's {self.trunc}")
            if a.is_zero:
                raise ValueError("zero coefficients must not be stored")

    @property
    def trunc(self) -> int:
        return self.f.trunc

    @classmethod
    def build(cls, f: HElem, items) -> "LocalSeries":
        """Collect (X-power, coefficient) pairs, dropping zero sums."""
        return cls(f, collect(items))

    @classmethod
    def from_helem(cls, a: HElem, f: HElem) -> "LocalSeries":
        return cls.build(f, [(0, a)])

    @classmethod
    def x_power(cls, f: HElem) -> "LocalSeries":
        """X, the inverse of f."""
        return cls.build(f, [(1, HElem.one(f.trunc))])

    @classmethod
    def one(cls, f: HElem) -> "LocalSeries":
        return cls.build(f, [(0, HElem.one(f.trunc))])

    def __eq__(self, other):
        if not isinstance(other, LocalSeries):
            return NotImplemented
        return series_equal(self, other)

    def _compat(self, other: "LocalSeries") -> None:
        if self.f != other.f:
            raise TruncationMismatch("series localize different elements")

    def evaluate(self) -> HElem:
        """Faithful image under X -> f^{-1} in A_h, mod hbar^M."""
        inv = h_inverse(self.f)
        out = HElem.zero(self.trunc)
        power_cache = {0: HElem.one(self.trunc)}
        top = max(self.coeffs, default=0)
        for k in range(1, top + 1):
            power_cache[k] = power_cache[k - 1] * inv
        for k, a in self.coeffs.items():
            out = out + a * power_cache[k]
        return out


def _neg_binomial(n: int, alpha: int) -> int:
    """C(-n, alpha) = (-1)^alpha C(n + alpha - 1, alpha) for n >= 0."""
    value = math.comb(n + alpha - 1, alpha) if n > 0 else (1 if alpha == 0 else 0)
    return -value if alpha % 2 else value


def localize_product(u: LocalSeries, v: LocalSeries) -> LocalSeries:
    """Bilinear extension of the monomial rule; the ad(f)-sum terminates
    because each application strictly raises 2*(hbar power) - (order)."""
    u._compat(v)
    f = u.f
    cap = 2 * u.trunc + 16
    # chains[m][alpha] = ad(f)^alpha(b) for b = v.coeffs[m], up to its last
    # nonzero term; ad(f) is taken only when some X-power n >= 1 needs it
    need_ad = any(u.coeffs)
    chains = {}
    for m, b in v.coeffs.items():
        chain = chains[m] = [b]
        while need_ad and not (adb := h_ad(f, chain[-1])).is_zero:
            if len(chain) > cap:
                raise RuntimeError("ad(f) iteration failed to terminate")
            chain.append(adb)
    items = []
    for n, a in u.coeffs.items():
        for m, chain in chains.items():
            if n == 0:
                items.append((m, a * chain[0]))
                continue
            for alpha, adb in enumerate(chain):
                binom = _neg_binomial(n, alpha)
                if binom:
                    items.append((n + m + alpha, (a * adb).scale(binom)))
    return LocalSeries.build(f, items)


def _evaluated_difference(u: LocalSeries, v: LocalSeries) -> HElem:
    """The image of u - v under X -> f^{-1}: zero iff u = v."""
    diff = u - v
    return HElem.zero(u.trunc) if diff.is_zero else diff.evaluate()


def series_equal(u: LocalSeries, v: LocalSeries) -> bool:
    """Equality in the localization, decided through the X -> f^{-1} oracle."""
    return _evaluated_difference(u, v).is_zero


# ---------------------------------------------------------------------------
# Checks.


def _series_record(name: str, anchor: str, u: LocalSeries,
                   v: LocalSeries) -> CheckRecord:
    """Decide u = v; an evaluation that leaves the exponent packing range
    cannot decide it, so it fails that one record with an overflow witness."""
    try:
        diff = _evaluated_difference(u, v)
    except OverflowError as exc:
        witness = f"evaluation oracle overflowed: {exc}"
    else:
        witness = None if diff.is_zero else f"difference starts at hbar^{diff.min_hbar_order()}"
    return verdict(name, anchor, witness)


def check_localization_axioms(f: HElem, rng: random.Random) -> list[CheckRecord]:
    """X inverts f on both sides and the product rule is associative on one
    random triple, all decided mod hbar^M through the evaluation oracle."""
    X = LocalSeries.x_power(f)
    F = LocalSeries.from_helem(f, f)
    one = LocalSeries.one(f)
    records = [_series_record(f"localize-inverse-{label}", ANCHOR_LOCAL_INV, prod, one)
               for label, prod in (("X.f", localize_product(X, F)),
                                   ("f.X", localize_product(F, X)))]
    u = random_series(f, rng)
    v = random_series(f, rng)
    w = random_series(f, rng)
    lhs = localize_product(localize_product(u, v), w)
    rhs = localize_product(u, localize_product(v, w))
    return records + [_series_record("localize-assoc-0", ANCHOR_LOCAL_ASSOC, lhs, rhs)]


def check_x_derivative_identity(trunc: int) -> CheckRecord:
    """X D = D X + hbar X^2 for f = z and D = hbar d/dz, cross-checked
    against the explicit rational-operator identity with X -> 1/z."""
    z = RatFunc.var(1, 0)
    f = HElem.function(z, trunc)
    D = HElem.hbar_derivative(trunc)
    X = LocalSeries.x_power(f)
    lhs = localize_product(X, LocalSeries.from_helem(D, f))
    rhs = localize_product(LocalSeries.from_helem(D, f), X) + LocalSeries.build(
        f, [(2, HElem.hbar(trunc))])
    literal = (set(lhs.coeffs) == {1, 2}
               and lhs.coeffs[1] == D and lhs.coeffs[2] == HElem.hbar(trunc))
    # independent oracle: substitute X = 1/z and compare in A_h directly
    inv_z = HElem.function(RatFunc.const(1, 1) / z, trunc)
    oracle = (inv_z * D) == (D * inv_z + HElem.hbar(trunc) * (inv_z * inv_z))
    return verdict("localize-x-derivative", ANCHOR_XD,
                   None if literal and oracle and series_equal(lhs, rhs)
                   else f"literal={literal} oracle={oracle}")


def check_lift_independence(f: HElem, g: HElem) -> CheckRecord:
    """The geometric X-series for f' = f + hbar g inverts f' inside the
    f-localization, so both lifts generate the same algebra (spot check)."""
    trunc = f.trunc
    fprime = f + g.shift_hbar()
    X = LocalSeries.x_power(f)
    G = LocalSeries.from_helem(g.shift_hbar(), f)
    xg = localize_product(X, G)
    xprime = X
    power = X
    for _ in range(trunc):
        power = -localize_product(xg, power)
        if power.is_zero:
            break
        xprime = xprime + power
    return verdict("localize-lift-independence", ANCHOR_LIFT_FREE,
                   None if xprime.evaluate() == h_inverse(fprime)
                   else "series inverse does not match the lift")


def _truncate_xi_degree(f: RatFunc, bound: int) -> RatFunc:
    """Drop numerator terms of xi-degree > bound (denominators are xi-free)."""
    kept = {exps: c for exps, c in f.num.terms() if exps[1] <= bound}
    return f.over_den(MPoly.from_terms(2, kept))


def check_degeneration(a: HElem, b: HElem) -> CheckRecord:
    """The hbar-linear part of a commutator reproduces the canonical bracket
    of the classical shadows (with the operator orientation {xi, z} = +1,
    i.e. minus the (x, xi) convention of the Poisson module).

    Working mod hbar^M only determines shadow coefficients of xi-degree up to
    M - 1, so both sides are compared on that window; they agree exactly
    there.
    """
    comm = h_ad(a, b)
    linear = HElem.build(a.trunc, (((k, m - 1), c) for (k, m), c in comm.coeffs.items()
                                   if m >= 1))
    want = _truncate_xi_degree(poisson_bracket(b.shadow(), a.shadow()), a.trunc - 1)
    got = _truncate_xi_degree(linear.shadow(), a.trunc - 1)
    return verdict("hbar-degeneration", ANCHOR_DEGEN, None if got == want
                   else f"hbar-linear shadow {got.to_text()} vs {want.to_text()}")


def random_helem(rng: random.Random, trunc: int) -> HElem:
    """Random Rees element of derivative order at most 2 whose coefficients
    are quadratics with integer coefficients in [-3, 3]."""
    items = []
    for k in range(3):
        for m in range(k, min(trunc, k + 1) + 1):
            if rng.random() < 0.6:
                poly = MPoly.from_terms(1, [((e,), rng.randint(-3, 3)) for e in range(3)])
                if not poly.is_zero:
                    items.append(((k, m), RatFunc(poly)))
    elem = HElem.build(trunc, items)
    if elem.is_zero:
        return HElem.one(trunc)
    return elem


def random_series(f: HElem, rng: random.Random) -> LocalSeries:
    """Random series in X^0, X^1 and X^2 with ``random_helem`` coefficients."""
    items = []
    for k in range(3):
        if rng.random() < 0.7:
            items.append((k, random_helem(rng, f.trunc)))
    series = LocalSeries.build(f, items)
    if series.is_zero:
        return LocalSeries.one(f)
    return series
