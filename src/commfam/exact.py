"""Exact scalar and linear-algebra tower.

Everything downstream (tensor-leg families, Poisson brackets, differential
operators) reduces to arithmetic in this module, and every identity is decided
with zero tolerance:

* ``Rat`` -- arbitrary-precision rationals (``fractions.Fraction``), formed
  only where a division makes one; integer values stay ``int``.
* ``MPoly`` -- sparse multivariate polynomials with ``int`` or ``Rat``
  coefficients; any other coefficient, a float included, raises ``TypeError``.
  ``dot`` sums signed products of them as one product.
* ``RatFunc`` -- a polynomial over a denominator kept as a map from known
  factors to exponents.  Sums, differences and equality work over the lcm
  of the maps, products add exponents, and no polynomial gcd or division is
  ever taken: equality is decided by cross-multiplying with the cofactors,
  never by normalisation to a canonical form.  ``rat_dot`` sums signed
  products of them without forming any: one ``dot`` per factor map of the
  products, and one more over the lcm of those maps.
* ``QMatrix`` -- dense matrices over Q, stored as integer numerators over
  one canonical common denominator, so sums, products, Kronecker products,
  inverses and rank run in Python integers.  A product is one numpy
  ``dtype=object`` matmul of the numerators -- numpy's C loop over Python
  ints, never int64 or float -- and ``kron`` is one comprehension.
  ``mul_on_leg`` multiplies by a matrix placed on one tensor leg,
  I (x) b (x) I, by contracting that leg's index alone, without forming the
  Kronecker product.  Inverse and rank are one fraction-free Gauss-Jordan
  elimination (Bareiss), ``_eliminate``: the inverse reads its pivot rows
  and the rank counts them.  The determinant (``det``, by
  ``signed_minors``) shares no code with it and cross-checks it.
* ``signed_minors`` -- the one signed-bijection kernel: every determinant
  and every family of maximal minors Delta_0..Delta_k, whatever the entries
  (``Rat``, ``MPoly``, ``RatFunc``, dual numbers, Kronecker-placed matrices),
  is this column-ordered subset expansion with a caller-supplied product.
* ``collect`` and ``SparseSum`` -- the storage rule and the ``+``, ``-``,
  negation and ``scale`` of the sparse sums built on this tower:
  ``weyl.RatDiffOp``, ``quantize.HElem`` and ``quantize.LocalSeries``.
  ``_leibniz`` composes and commutes the first two by one Leibniz rule; it
  yields each term as a (scale, f, g) triple, and ``collect_products`` sums
  the triples of each key with one ``rat_dot``.

Normal form: a nonzero ``MPoly`` is ``content * primitive``, where the
primitive part maps packed exponent keys to integers with gcd one and a
positive coefficient on the largest packed key (the packed integer reads the
variables from the highest index down); zero has no terms and content 0.
The content is an ``int`` whenever its value is an integer, and a ``Rat``
with denominator > 1 only where a division formed it: ``from_terms`` or
``const`` given ``Rat`` values, a product with a ``Rat`` scalar, and the
``RatFunc`` paths that divide by a non-unit content.  So a polynomial built
from integer data carries no ``Rat`` at all.  Any fixed sign choice gives
the same equality decisions; this one costs a single ``max`` over the keys.
Every internal constructor must keep the form -- ``_build`` makes it, and
``embed`` re-signs when relabelling changes the largest key -- because
``==`` compares stored forms and the per-call paths of the product rely on
it:

* a one-term primitive part is exactly ``{key: 1}``, so a product with a
  monomial adds ``key`` to every key of the other factor, keeping its gcd
  and its largest key, with no ``_build``;
* each polynomial carries an upper bound on any single exponent (exact for
  ``var``/``const``/``one``/``zero``, summed by ``*``, the maximum for
  ``+``); the product walks the exact per-variable maxima only when two
  bounds add past ``_MAX_EXP``, so it raises ``OverflowError`` on exactly
  the products whose exponents leave the packing range;
* one kernel sums m_k a_k b_k over int multipliers and primitive parts:
  ``*`` is one product with m = 1, and in ``dot`` m_k is product k's content
  over the common denominator.  Its rules read the sum's totals.  From
  ``_NP_PAIR_CUTOFF`` term pairs it converts the operands to int64 arrays and
  reads the bound that guards numpy off them: a coefficient outside int64, or
  sum_k |m_k| max|a_k| max|b_k| min(|a_k|, |b_k|) >= ``_NP_COEF_BOUND``,
  sends the sum to the Python loop;
* from ``_NP_BOX_PAIR_CUTOFF`` pairs, a sum whose product exponents span a
  box of at most ``_NP_BOX_RATIO`` cells per pair is a dense Kronecker
  substitution: every term pair is scatter-added into one flat int64 array
  over that box, with no sort; other numpy sums sort the summed keys.

Graded lexicographic order -- total degree first, ties broken by the packed
key -- is used only to print terms.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction

import numpy as np

Rat = Fraction

__all__ = [
    "Rat",
    "Singular",
    "MPoly",
    "RatFunc",
    "QMatrix",
    "dot",
    "rat_dot",
    "mat_inverse",
    "det",
    "signed_minors",
    "maximal_minors",
    "rank",
    "kron",
    "collect",
    "collect_products",
    "SparseSum",
]


class Singular(ArithmeticError):
    """Matrix has no inverse (an invertibility hypothesis failed)."""


# ---------------------------------------------------------------------------
# Exponent packing.
#
# An exponent vector (e_0, ..., e_{k-1}) is packed into a single integer with
# _SHIFT bits per variable; monomial multiplication is then integer addition.
# Per-variable exponents must stay below 2**_SHIFT; public constructors check
# a safety margin so that one multiplication cannot overflow a field.

_SHIFT = 10
_MASK = (1 << _SHIFT) - 1
_MAX_EXP = _MASK  # 1023

# numpy thresholds of the product kernel, applied to a sum's totals; set on
# single products (2-core Xeon VM, numpy 2.4).  On one rational-ops and one
# small-algebra benchmark pass, numpy overtakes the Python double loop at
# 400-500 term pairs.  On the 2014 int64 products of at least 500 pairs in
# one seed-1 pass of each, the box route, its geometry included, ties the
# sort at about 2^12.25 ~ 4900 pairs and is 2.7x faster in total from 2^17
# pairs; at 1.5 to 2 box cells per pair the two tie, beyond 2 the sort wins.
_NP_PAIR_CUTOFF = 500
_NP_COEF_BOUND = 1 << 62
_NP_BOX_PAIR_CUTOFF = 5000
_NP_BOX_RATIO = 2


def _pack(exps: Sequence[int]) -> int:
    key = 0
    for i, e in enumerate(exps):
        key |= e << (_SHIFT * i)
    return key


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (_SHIFT * i)) & _MASK for i in range(nvars))


def _key_degree(key: int) -> int:
    deg = 0
    while key:
        deg += key & _MASK
        key >>= _SHIFT
    return deg


def _dot_py(products) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for m, a, b in products:
        if len(a) > len(b):
            a, b = b, a
        if m != 1:
            a = {k: m * v for k, v in a.items()}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + va * vb
    return out


def _dot_sort(arrays) -> dict[int, int]:
    keys = np.concatenate([np.add.outer(ka, kb).ravel() for ka, _, kb, _ in arrays])
    vals = np.concatenate([np.multiply.outer(va, vb).ravel() for _, va, _, vb in arrays])
    # Integer sums are exact in any order, so the sort need not be stable.
    order = np.argsort(keys)
    keys = keys[order]
    vals = vals[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(vals, starts)
    nonzero = sums != 0
    return dict(zip(keys[starts][nonzero].tolist(), sums[nonzero].tolist()))


def _dot_box(exps, lo, widths, shifts) -> dict[int, int]:
    """Kronecker substitution into the box of product exponents.

    ``exps`` holds each product's exponent vectors and coefficients, the box
    has corner ``lo`` and sides ``widths``.  With mixed-radix strides every
    exponent vector is one flat offset; offsets add without carries, as every
    product lands in the box, and order the cells as packed keys do, so the
    scatter-added cells come out in ascending key order.
    """
    strides = np.concatenate(([1], np.cumprod(widths[:-1])))
    box = np.zeros(int(strides[-1] * widths[-1]), dtype=np.int64)
    for ea, va, eb, vb in exps:
        np.add.at(box, np.add.outer(ea @ strides, (eb - lo) @ strides).ravel(),
                  np.multiply.outer(va, vb).ravel())
    cells = np.flatnonzero(box)
    keys = ((cells[:, None] // strides % widths + lo) << shifts).sum(axis=1)
    return dict(zip(keys.tolist(), box[cells].tolist()))


def _dot_kernel(nvars: int, products) -> dict[int, int]:
    """Sum of m * a * b over int multipliers and nonzero primitive parts,
    zero sums dropped by numpy and kept by the Python loop.  Every exponent
    must fit its field, as ``_product_ebound`` checks first."""
    pairs = sum(len(a) * len(b) for _, a, b in products)
    if pairs < _NP_PAIR_CUTOFF or _SHIFT * nvars > 62:
        return _dot_py(products)
    try:
        arrays = [(m, *(np.fromiter(it, dtype=np.int64, count=len(d))
                        for d in (a, b) for it in (d, d.values())))
                  for m, a, b in products]
    except OverflowError:  # a coefficient lies outside int64
        return _dot_py(products)
    # a cell sums at most min(|a|, |b|) products of each pair; int() before
    # negating, as -2**63 has no int64 negation
    if sum(abs(m) * max(int(va.max()), -int(va.min())) * max(int(vb.max()), -int(vb.min()))
           * min(len(va), len(vb)) for m, _, va, _, vb in arrays) >= _NP_COEF_BOUND:
        return _dot_py(products)
    arrays = [(ka, va if m == 1 else va * m, kb, vb) for m, ka, va, kb, vb in arrays]
    if pairs >= _NP_BOX_PAIR_CUTOFF:
        shifts = np.arange(0, _SHIFT * nvars, _SHIFT, dtype=np.int64)
        exps = [((ka[:, None] >> shifts) & _MASK, va, (kb[:, None] >> shifts) & _MASK, vb)
                for ka, va, kb, vb in arrays]
        lo = np.min([ea.min(axis=0) + eb.min(axis=0) for ea, _, eb, _ in exps], axis=0)
        hi = np.max([ea.max(axis=0) + eb.max(axis=0) for ea, _, eb, _ in exps], axis=0)
        if math.prod((hi - lo + 1).tolist()) <= _NP_BOX_RATIO * pairs:
            return _dot_box(exps, lo, hi - lo + 1, shifts)
    return _dot_sort(arrays)


def _product_ebound(a: "MPoly", b: "MPoly") -> int:
    """A bound on every exponent of the nonzero a * b; past ``_MAX_EXP`` the
    exact maxima decide, and raise ``OverflowError`` if they are past it too."""
    ebound = a._ebound + b._ebound
    if ebound > _MAX_EXP:
        ebound = max(x + y for x, y in zip(a._var_maxima(), b._var_maxima()))
        if ebound > _MAX_EXP:
            raise OverflowError("per-variable degree exceeds supported packing range")
    return ebound


def _check_coeff(c) -> None:
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"MPoly coefficients are int or Rat, got {type(c).__name__}")


def _canon(c: int | Fraction) -> int | Fraction:
    """A scalar with an integer value as an ``int``, any other ``Rat`` as it is."""
    return c.numerator if c.denominator == 1 else c


def _over(den: int) -> int | Fraction:
    """1 / den for a positive integer: 1 itself when den is 1."""
    return 1 if den == 1 else Fraction(1, den)


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Internally a polynomial is stored as ``content * primitive`` where
    ``content`` is a single scalar, ``int | Rat``, and ``primitive`` maps
    packed exponent keys to integers with gcd one and a positive coefficient
    on the largest packed key.  The content is an ``int`` unless a division
    formed it (``Rat`` input to ``from_terms``, ``const`` or ``*``, or a
    ``RatFunc`` divided by a non-unit content), and a ``Rat`` content always
    has denominator > 1.  This keeps the hot convolution kernels, and the
    contents of integer data, in machine/big integer arithmetic; ``terms()``
    exposes the conventional view of the polynomial as a map from exponent
    vectors to nonzero ``int`` or ``Rat`` coefficients.
    """

    __slots__ = ("nvars", "content", "_coeffs", "_ebound")

    def __init__(self, nvars: int, content: int | Fraction, coeffs: dict[int, int],
                 _internal: bool = False, *, ebound: int):
        if not _internal:
            raise TypeError("use MPoly.zero/const/var/from_terms to build polynomials")
        self.nvars = nvars
        self.content = content
        self._coeffs = coeffs
        # upper bound on every single exponent
        self._ebound = ebound

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _build(nvars: int, raw: dict[int, int], content: int | Fraction,
               ebound: int) -> "MPoly":
        if 0 in raw.values():
            raw = {k: v for k, v in raw.items() if v}
        if not raw or content == 0:
            return MPoly.zero(nvars)
        g = math.gcd(*raw.values())
        if raw[max(raw)] < 0:
            g = -g
        if g != 1:
            raw = {k: v // g for k, v in raw.items()}
            content = -content if g == -1 else content * g
        if type(content) is Fraction:
            content = _canon(content)
        return MPoly(nvars, content, raw, _internal=True, ebound=ebound)

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, 0, {}, _internal=True, ebound=0)

    @classmethod
    def one(cls, nvars: int) -> "MPoly":
        return cls(nvars, 1, {0: 1}, _internal=True, ebound=0)

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        _check_coeff(c)
        if c == 0:
            return cls.zero(nvars)
        return cls(nvars, _canon(c), {0: 1}, _internal=True, ebound=0)

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        return cls(nvars, 1, {1 << (_SHIFT * i): 1}, _internal=True, ebound=1)

    @classmethod
    def from_terms(cls, nvars: int, terms: Mapping[Sequence[int], object] |
                   Iterable[tuple[Sequence[int], object]]) -> "MPoly":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int | Fraction] = {}
        top = 0
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
            if any(e < 0 or e > _MAX_EXP for e in exps):
                raise ValueError(f"exponent vector {exps} out of supported range")
            _check_coeff(coeff)
            top = max(top, max(exps, default=0))
            key = _pack(exps)
            acc[key] = acc.get(key, 0) + coeff
        acc = {k: v for k, v in acc.items() if v}
        if not acc:
            return cls.zero(nvars)
        den = math.lcm(*(v.denominator for v in acc.values()))
        raw = {k: v.numerator * (den // v.denominator) for k, v in acc.items()}
        return cls._build(nvars, raw, _over(den), top)

    # -- views --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def term_count(self) -> int:
        return len(self._coeffs)

    def terms(self) -> Iterator[tuple[tuple[int, ...], int | Fraction]]:
        for k, v in self._coeffs.items():
            yield _unpack(k, self.nvars), self.content * v

    def coeff(self, exps: Sequence[int]) -> int | Fraction:
        return self.content * self._coeffs.get(_pack(exps), 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((_key_degree(k) for k in self._coeffs), default=-1)

    def _var_maxima(self) -> list[int]:
        """The largest exponent of each variable (of a nonzero polynomial)."""
        return [max(col) for col in zip(*(_unpack(k, self.nvars) for k in self._coeffs))]

    # -- arithmetic ---------------------------------------------------------

    def _check_compat(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if type(other) is not MPoly:
            if isinstance(other, (int, Fraction)):
                other = MPoly.const(self.nvars, other)
            elif not isinstance(other, MPoly):
                return NotImplemented
        self._check_compat(other)
        if not self._coeffs:
            return other
        if not other._coeffs:
            return self
        ebound = max(self._ebound, other._ebound)
        # copy the larger operand and merge the smaller one into it
        big, small = ((self, other) if len(self._coeffs) >= len(other._coeffs)
                      else (other, self))
        cb, cs = big.content, small.content
        if type(cb) is int and type(cs) is int:
            den, sb, ss = 1, cb, cs
        else:
            den = math.lcm(cb.denominator, cs.denominator)
            sb = cb.numerator * (den // cb.denominator)
            ss = cs.numerator * (den // cs.denominator)
        raw = big._coeffs.copy() if sb == 1 else {k: sb * v for k, v in big._coeffs.items()}
        get = raw.get
        if ss == 1:
            for k, v in small._coeffs.items():
                raw[k] = get(k, 0) + v
        else:
            for k, v in small._coeffs.items():
                raw[k] = get(k, 0) + ss * v
        return MPoly._build(self.nvars, raw, _over(den), ebound)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return MPoly(self.nvars, -self.content, self._coeffs, _internal=True,
                     ebound=self._ebound)

    def __sub__(self, other):
        if type(other) is not MPoly:
            if isinstance(other, (int, Fraction)):
                other = MPoly.const(self.nvars, other)
            elif not isinstance(other, MPoly):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not MPoly:
            if isinstance(other, (int, Fraction)):
                if other == 1:
                    return self
                if other == 0 or self.is_zero:
                    return MPoly.zero(self.nvars)
                return MPoly(self.nvars, _canon(self.content * other), self._coeffs,
                             _internal=True, ebound=self._ebound)
            if not isinstance(other, MPoly):
                return NotImplemented
        self._check_compat(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return MPoly.zero(self.nvars)
        ebound = _product_ebound(self, other)
        content = self.content * other.content
        if len(a) == 1 or len(b) == 1:
            # a primitive monomial has coefficient 1: multiplying by it adds
            # its key to every key, which keeps gcd 1 and the largest key
            if len(a) > len(b):
                a, b = b, a
            (shift,) = a
            if type(content) is Fraction:
                content = _canon(content)
            return MPoly(self.nvars, content, {k + shift: v for k, v in b.items()},
                         _internal=True, ebound=ebound)
        return MPoly._build(self.nvars, _dot_kernel(self.nvars, [(1, a, b)]), content, ebound)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        result = MPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def partial(self, i: int) -> "MPoly":
        """Exact partial derivative with respect to variable ``i``."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        shift = _SHIFT * i
        step = 1 << shift
        raw: dict[int, int] = {}
        for k, v in self._coeffs.items():
            e = (k >> shift) & _MASK
            if e:
                raw[k - step] = raw.get(k - step, 0) + e * v
        return MPoly._build(self.nvars, raw, self.content, self._ebound)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong number of coordinates")
        point = [Fraction(p) for p in point]
        total = Fraction(0)
        for k, v in self._coeffs.items():
            term = Fraction(v)
            i = 0
            while k:
                e = k & _MASK
                if e:
                    term *= point[i] ** e
                k >>= _SHIFT
                i += 1
            total += term
        return self.content * total

    def embed(self, nvars: int, var_map: Sequence[int]) -> "MPoly":
        """Relabel variables into a ring with ``nvars`` variables.

        ``var_map[i]`` is the new index of old variable ``i``.  Used to place
        a per-leg polynomial into the full tensor-product variable set.
        """
        if len(var_map) != self.nvars:
            raise ValueError("var_map must cover every old variable")
        if len(set(var_map)) != len(var_map):
            raise ValueError("var_map must be injective")
        if not all(0 <= j < nvars for j in var_map):
            raise ValueError(f"var_map entries must lie in 0..{nvars - 1}")
        raw: dict[int, int] = {}
        for k, v in self._coeffs.items():
            new_key = 0
            i = 0
            while k:
                e = k & _MASK
                if e:
                    new_key |= e << (_SHIFT * var_map[i])
                k >>= _SHIFT
                i += 1
            raw[new_key] = v
        content = self.content
        if raw and raw[max(raw)] < 0:  # relabelling can change the largest key
            raw = {k: -v for k, v in raw.items()}
            content = -content
        return MPoly(nvars, content, raw, _internal=True, ebound=self._ebound)

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other):
        if type(other) is not MPoly:
            if isinstance(other, (int, Fraction)):
                other = MPoly.const(self.nvars, other)
            elif not isinstance(other, MPoly):
                return NotImplemented
        return (self.nvars == other.nvars and self.content == other.content
                and self._coeffs == other._coeffs)

    __hash__ = None  # mutable-dict backed; not intended as a mapping key

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Sparse text form: ``c`` or ``c x1^2 x3`` terms joined by `` + ``."""
        if self.is_zero:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for key in sorted(self._coeffs, key=lambda k: (_key_degree(k), k), reverse=True):
            c = self.content * self._coeffs[key]
            factors = [str(c)]
            exps = _unpack(key, self.nvars)
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            parts.append(" ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MPoly({self.to_text()})"


def dot(products: Iterable[tuple[int | Fraction, MPoly, MPoly]]) -> MPoly:
    """Sum of sign * u * v over (sign, u, v) triples: the contents come over
    one common denominator, one kernel call sums every term pair, and one
    ``_build`` forms the result.  A zero sign or operand drops its product;
    an exponent leaving the packing range raises ``OverflowError``."""
    products = list(products)
    if not products:
        raise ValueError("dot needs at least one product")
    nvars = products[0][1].nvars
    live, ebound = [], 0
    for sign, u, v in products:
        _check_coeff(sign)
        if u.nvars != nvars or v.nvars != nvars:
            raise ValueError(f"variable-count mismatch: {u.nvars}, {v.nvars} vs {nvars}")
        if sign and u._coeffs and v._coeffs:
            ebound = max(ebound, _product_ebound(u, v))
            live.append((sign * u.content * v.content, u._coeffs, v._coeffs))
    if not live:
        return MPoly.zero(nvars)
    den = 1
    if any(type(c) is not int for c, _, _ in live):
        den = math.lcm(*(c.denominator for c, _, _ in live))
        live = [(c.numerator * (den // c.denominator), a, b) for c, a, b in live]
    return MPoly._build(nvars, _dot_kernel(nvars, live), _over(den), ebound)


# ---------------------------------------------------------------------------
# Rational functions.


class _Factor(frozenset):
    """One denominator factor: a polynomial in the normal form with content 1.

    As a frozenset of its (packed key, coefficient) terms it hashes and
    compares by value, so equal factors built apart share one entry of a
    factor map.  ``span`` is the bitwise or of its keys: field i is nonzero
    exactly when the factor contains variable i.
    """

    __slots__ = ("poly", "span")


def _factor(poly: MPoly) -> _Factor:
    fac = _Factor(poly._coeffs.items())
    fac.poly = poly
    fac.span = functools.reduce(operator.or_, poly._coeffs)
    return fac


# the factor map of every polynomial; shared, so never mutated
_NO_FACTORS: dict = {}


def _split(poly: MPoly) -> tuple[int | Fraction, dict]:
    """``poly = content * x^m * rest``: the content and the factor map of
    x^m * rest, with one factor x_i per variable of the monomial and ``rest``
    as one factor unless it is 1."""
    coeffs = poly._coeffs
    factors = {}
    shift = _common_monomial_key(poly)
    if shift:
        coeffs = {k - shift: v for k, v in coeffs.items()}
        for i, e in enumerate(_unpack(shift, poly.nvars)):
            if e:
                factors[_factor(MPoly.var(poly.nvars, i))] = e
    if len(coeffs) > 1:
        factors[_factor(MPoly(poly.nvars, 1, coeffs, _internal=True,
                              ebound=poly._ebound))] = 1
    return poly.content, factors


def _reduce(num: MPoly, factors: dict) -> tuple[MPoly, dict]:
    """Drop the factors of a zero numerator, and cancel each factor x_i
    against the power of x_i that divides every term of ``num`` (cheap, and
    it keeps substitutions like xi^-d small without a polynomial gcd).  The
    map is copied when it changes."""
    if not num._coeffs:
        return num, _NO_FACTORS
    if not factors or 0 in num._coeffs:
        return num, factors
    monos = [p for p in factors if len(p) == 1]
    if not monos:
        return num, factors
    common = _common_monomial_key(num)
    shift = 0
    for p in monos:
        bits = p.span.bit_length() - 1
        cut = min((common >> bits) & _MASK, factors[p])
        if cut:
            if not shift:
                factors = dict(factors)
            shift += cut << bits
            if factors[p] == cut:
                del factors[p]
            else:
                factors[p] -= cut
    return (_shift_down(num, shift) if shift else num), factors


def _product_map(fa: dict, fb: dict) -> dict:
    """The factor map of a product, exponents added; a map is shared, never
    copied, when the other is empty."""
    if not fa or not fb:
        return fa or fb
    out = dict(fa)
    for p, e in fb.items():
        out[p] = out.get(p, 0) + e
    return out


def _power_product(items: Iterable[tuple[_Factor, int]]) -> MPoly | None:
    """The product of ``p ** k`` over (factor, k) pairs; None for no pairs."""
    out = None
    for p, k in items:
        term = p.poly if k == 1 else p.poly ** k
        out = term if out is None else out * term
    return out


class RatFunc:
    """Quotient of a polynomial by a product of known factors.

    The denominator is a map from factors -- polynomials in the ``MPoly``
    normal form with content 1 -- to positive exponents.  The factors need
    not be irreducible or coprime, because only their product is the value.
    A monomial enters as one factor x_i per variable.  Every result, of the
    constructor or of ``_of``, passes through ``_reduce``, which cancels each
    factor x_i against the power of x_i dividing every numerator term, so no
    factor x_i of a map divides all of them.  The numerator carries the
    content.  Factors enter where they are born: a denominator passed to the
    constructor, or the numerator of a divisor.

    * ``+``, ``-`` and ``==`` work over the lcm of the two maps, which
      ``_lcm_cofactors`` forms with the cofactors for ``rat_dot`` too: each
      factor takes its larger exponent and each numerator is multiplied by
      its cofactor, so equal maps add or compare the numerators alone.
    * ``*`` adds exponents; ``/`` first cancels the factors the two
      denominators share.
    * ``partial(i)`` raises by one the exponent of each factor containing
      variable i (the quotient rule over R, the product of those factors).

    No polynomial gcd or division is ever taken, so a function is not
    reduced, and equality is decided by cross-multiplying with cofactors,
    which needs no canonical form.  ``den`` is the product of the factors,
    built each time it is read.
    """

    __slots__ = ("num", "_factors")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        factors = _NO_FACTORS
        if den is not None:
            if num.nvars != den.nvars:
                raise ValueError("numerator and denominator variable counts differ")
            if den.is_zero:
                raise ZeroDivisionError("zero denominator")
            c, factors = _split(den)
            if c != 1:
                num = num * Fraction(1, c)
        self.num, self._factors = _reduce(num, factors)

    @staticmethod
    def _of(num: MPoly, factors: dict) -> "RatFunc":
        """``num`` over ``factors``, built without ``__init__`` and, like
        every result, passed through ``_reduce``."""
        out = RatFunc.__new__(RatFunc)
        out.num, out._factors = _reduce(num, factors)
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, nvars: int, c) -> "RatFunc":
        return cls(MPoly.const(nvars, c))

    @classmethod
    def var(cls, nvars: int, i: int) -> "RatFunc":
        return cls(MPoly.var(nvars, i))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def den(self) -> MPoly:
        """The denominator: the product of the factors, in the ``MPoly``
        normal form with content 1."""
        den = _power_product(self._factors.items())
        return MPoly.one(self.nvars) if den is None else den

    def is_polynomial(self) -> bool:
        return not self._factors

    def same_den(self, other: "RatFunc") -> bool:
        """Whether both functions hold one factor map, and so one ``den``.
        Equal denominators held as different maps answer False."""
        fa, fb = self._factors, other._factors
        return fa is fb or fa == fb

    def over_den(self, num: MPoly, power: int = 1) -> "RatFunc":
        """``num / den ** power``, keeping this function's factors."""
        if num.nvars != self.nvars:
            raise ValueError("variable-count mismatch")
        return RatFunc._of(num, {p: e * power for p, e in self._factors.items()})

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MPoly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.nvars, other)
        return None

    def __add__(self, other):
        if type(other) is not RatFunc:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.same_den(other):
            return RatFunc._of(self.num + other.num, self._factors)
        lcm, cofactors = _lcm_cofactors([self._factors, other._factors])
        a, b = (f.num if c is None else f.num * c for f, c in zip((self, other), cofactors))
        return RatFunc._of(a + b, lcm)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._of(-self.num, self._factors)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not RatFunc:
            if isinstance(other, (int, Fraction)):
                return RatFunc._of(self.num * other, self._factors)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return RatFunc._of(self.num * other.num, _product_map(self._factors, other._factors))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable-count mismatch")
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        # (a / D_a) / (b / D_b) = (a D_b) / (D_a b): the factors of D_b that
        # D_a shares cancel, the rest multiply the numerator
        factors = dict(self._factors)
        lifted = []
        for p, e in other._factors.items():
            have = factors.pop(p, 0)
            if have > e:
                factors[p] = have - e
            elif e > have:
                lifted.append((p, e - have))
        num = self.num
        if lifted:
            num = num * _power_product(lifted)
        c, born = _split(other.num)
        for p, e in born.items():
            factors[p] = factors.get(p, 0) + e
        return RatFunc._of(num if c == 1 else num * Fraction(1, c), factors)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n == 0:
            return RatFunc.const(self.nvars, 1)
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return (1 / self) ** (-n)
        if n == 1:
            return self
        return RatFunc._of(self.num ** n, {p: e * n for p, e in self._factors.items()})

    def partial(self, i: int) -> "RatFunc":
        """Quotient-rule partial derivative, exact.  With R the product of the
        factors p that contain variable i,
        d(n / prod p^e) = (n' R - n sum e p' R/p) / (R prod p^e)."""
        dnum = self.num.partial(i)
        bits = _SHIFT * i
        moving = [(p, e) for p, e in self._factors.items() if (p.span >> bits) & _MASK]
        if not moving:
            return RatFunc._of(dnum, self._factors)
        total = None
        for j, (p, e) in enumerate(moving):
            term = p.poly.partial(i) * e
            for k, (q, _) in enumerate(moving):
                if k != j:
                    term = term * q.poly
            total = term if total is None else total + term
        num = dnum * _power_product((p, 1) for p, _ in moving) - self.num * total
        factors = dict(self._factors)
        for p, e in moving:
            factors[p] = e + 1
        return RatFunc._of(num, factors)

    def evaluate(self, point: Sequence) -> Fraction:
        den = Fraction(1)
        for p, e in self._factors.items():
            den *= p.poly.evaluate(point) ** e
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / den

    def embed(self, nvars: int, var_map: Sequence[int]) -> "RatFunc":
        num = self.num.embed(nvars, var_map)
        factors = {}
        for p, e in self._factors.items():
            q = p.poly.embed(nvars, var_map)
            if q.content != 1:  # relabelling changed the sign of the normal form
                q = -q
                if e % 2:
                    num = -num
            factors[_factor(q)] = e
        return RatFunc._of(num, factors or _NO_FACTORS)

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        _, cofactors = _lcm_cofactors([self._factors, other._factors])
        a, b = (f.num if c is None else f.num * c for f, c in zip((self, other), cofactors))
        return a == b

    __hash__ = None

    def to_text(self, names: Sequence[str] | None = None) -> str:
        return f"{self.num.to_text(names)} | {self.den.to_text(names)}"

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFunc({self.num.to_text()})"
        return f"RatFunc(({self.num.to_text()}) / ({self.den.to_text()}))"


def _lcm_cofactors(maps: Sequence[dict]) -> tuple[dict, list[MPoly | None]]:
    """The lcm of factor maps, each factor at its largest exponent, and each
    map's cofactor up to it: None where the map is the lcm."""
    lcm = dict(maps[0])
    for factors in maps[1:]:
        for p, e in factors.items():
            if e > lcm.get(p, 0):
                lcm[p] = e
    return lcm, [_power_product((p, e - own.get(p, 0)) for p, e in lcm.items()
                                if e > own.get(p, 0)) for own in maps]


def rat_dot(products: Iterable[tuple[int | Fraction, RatFunc, RatFunc]]) -> RatFunc:
    """Sum of s * f * g over (s, f, g) triples of a scalar and two ``RatFunc``
    values, with no product formed and no ``_reduce`` between terms.

    The triples are grouped by the factor map of f * g, and each group's
    numerators are summed by one ``dot``.  A second ``dot`` brings the group
    sums that do not vanish over the lcm of their maps, each distinct map's
    cofactor formed once; the sum whose map is the lcm joins by ``+``, with
    no product by 1.  One ``_reduce`` ends the sum.  A zero scale or operand
    drops its product; the empty sum raises ``ValueError``.
    """
    products = list(products)
    if not products:
        raise ValueError("rat_dot needs at least one product")
    groups: dict[frozenset, tuple[dict, list]] = {}
    for s, f, g in products:
        if s and f.num._coeffs and g.num._coeffs:
            factors = _product_map(f._factors, g._factors)
            _, triples = groups.setdefault(frozenset(factors.items()), (factors, []))
            triples.append((s, f.num, g.num))
    parts = [(num, factors) for factors, triples in groups.values()
             if (num := dot(triples))._coeffs]
    if not parts:
        return RatFunc._of(MPoly.zero(products[0][1].nvars), _NO_FACTORS)
    if len(parts) == 1:
        return RatFunc._of(*parts[0])
    lcm, cofactors = _lcm_cofactors([factors for _, factors in parts])
    num = dot((1, n, c) for (n, _), c in zip(parts, cofactors) if c is not None)
    num = sum((n for (n, _), c in zip(parts, cofactors) if c is None), num)
    return RatFunc._of(num, lcm)


def _common_monomial_key(poly: MPoly) -> int:
    """Packed exponent vector of the largest monomial dividing every term."""
    keys = poly._coeffs
    if 0 in keys:
        return 0
    return _pack([min((k >> s) & _MASK for k in keys)
                  for s in range(0, _SHIFT * poly.nvars, _SHIFT)])


def _shift_down(poly: MPoly, shift_key: int) -> MPoly:
    coeffs = {k - shift_key: v for k, v in poly._coeffs.items()}
    return MPoly(poly.nvars, poly.content, coeffs, _internal=True, ebound=poly._ebound)


# ---------------------------------------------------------------------------
# Sparse sums: finite maps from keys to nonzero coefficients.


def collect(items: Iterable[tuple[object, object]]) -> dict:
    """Sum the coefficients of equal keys and drop the sums that vanish.

    Keys keep the order of their first appearance and each sum adds its
    summands in the order given: ``RatFunc`` sums are not canonical, so that
    order fixes the stored forms and with them the cost of later arithmetic.
    Summands that are products come as triples to ``collect_products``.
    """
    acc = {}
    for key, c in items:
        acc[key] = acc[key] + c if key in acc else c
    return {k: c for k, c in acc.items() if not c.is_zero}


def collect_products(items: Iterable[tuple[object, tuple]]) -> dict:
    """The map from keys to nonzero sums of (key, (s, f, g)) items: the
    triples of each key are summed by one ``rat_dot``, and the sums that
    vanish are dropped.  Keys keep the order of their first appearance; the
    order of the triples does not change a sum's stored form, as ``rat_dot``
    forms it from exact integer sums over one map."""
    groups: dict = {}
    for key, product in items:
        groups.setdefault(key, []).append(product)
    return {key: c for key, products in groups.items()
            if not (c := rat_dot(products)).is_zero}


def _leibniz(a: dict, b: dict, trunc: int | None = None,
             commutator: bool = False) -> Iterator[tuple[tuple, tuple]]:
    """Items (key, (scale, f, D^gamma g)) that ``collect_products`` sums to
    the composition a b, or with ``commutator`` to a b - b a, of two maps
    from keys to ``RatFunc`` coefficients; no term's product is formed here.
    A key is a derivative multi-index, one entry per variable of the
    coefficients, then grades that add (``HElem``'s hbar power); a pair whose
    grades sum past ``trunc`` yields nothing.  By Leibniz,
    (f D^alpha)(g D^beta) = sum_{gamma <= alpha} C(alpha, gamma) f (D^gamma g)
    D^(alpha - gamma + beta), whose gamma = 0 term is the same in both
    orders: a commutator yields only the gamma != 0 terms of a b and, with
    negated scales, of b a.  Each D^gamma g is formed once, from
    D^(gamma - e_j) g, j the first nonzero index of gamma, which the gamma
    loop reaches first.
    """
    for left, right, sign in [(a, b, 1), (b, a, -1)][:1 + commutator]:
        derived = {(kb, (0,) * g.nvars): g for kb, g in right.items()}
        for ka, f in left.items():
            nd = f.nvars
            alpha = ka[:nd]
            # gamma = 0 comes first; a commutator drops it
            gammas = list(itertools.product(*(range(x + 1) for x in alpha)))[commutator:]
            for kb in right:
                grade = tuple(map(operator.add, ka[nd:], kb[nd:]))
                if trunc is not None and sum(grade) > trunc:
                    continue
                for gamma in gammas:
                    g = derived.get((kb, gamma))
                    if g is None:
                        j = next(i for i, x in enumerate(gamma) if x)
                        prev = gamma[:j] + (gamma[j] - 1,) + gamma[j + 1:]
                        g = derived[kb, gamma] = derived[kb, prev].partial(j)
                    if g.is_zero:
                        continue
                    scale = sign * math.prod(map(math.comb, alpha, gamma))
                    target = tuple(x - y + z for x, y, z in zip(alpha, gamma, kb))
                    yield target + grade, (scale, f, g)


class SparseSum:
    """Base of frozen dataclasses with a field ``coeffs``, a map from keys to
    nonzero coefficients.  Results are rebuilt through the dataclass, so
    ``__post_init__`` validates them; ``+`` and ``==`` first call the
    subclass's ``_compat``.  Because no stored coefficient is zero, two sums
    are equal iff their key sets and coefficients are; a subclass whose
    equal ``coeffs`` are not its equality overrides ``==``."""

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._compat(other)
        return (self.coeffs.keys() == other.coeffs.keys()
                and all(c == other.coeffs[k] for k, c in self.coeffs.items()))

    __hash__ = None

    def _with(self, coeffs: dict):
        return dataclasses.replace(self, coeffs=coeffs)

    def __add__(self, other):
        self._compat(other)
        return self._with(collect(itertools.chain(self.coeffs.items(),
                                                  other.coeffs.items())))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._with({k: -c for k, c in self.coeffs.items()})

    def scale(self, factor):
        """Multiply every coefficient by the rational scalar ``factor``."""
        if not factor:
            return self._with({})
        return self._with({k: c.scale(factor) if isinstance(c, SparseSum) else c * factor
                           for k, c in self.coeffs.items()})


# ---------------------------------------------------------------------------
# Dense exact matrices.


def _obj(nums: list[int], *shape: int) -> np.ndarray:
    """Python ints as an object-dtype array, so numpy's loops stay exact."""
    return np.array(nums, dtype=object).reshape(shape)


class QMatrix:
    """Dense matrix over Q, stored as integer numerators over one denominator.

    The entries are ``int`` or ``Rat``; anything else raises ``TypeError``.
    The numerators ``_nums`` (row-major) sit over one common denominator
    ``_den``, in the canonical form ``_den > 0`` and
    ``gcd(_den, *_nums) == 1``.  Sums, products, Kronecker products,
    inverses, rank, scaling by a ``Rat`` and comparisons work on these
    integers; because the form is canonical, ``==`` compares two integer
    lists and one denominator.  ``data``, ``row`` and ``[i, j]`` build the
    reduced ``Rat`` entries they return, anew on every read.
    """

    __slots__ = ("rows", "cols", "_nums", "_den")

    def __init__(self, rows: int, cols: int, data: Sequence):
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        bad = next((e for e in data if not isinstance(e, (int, Fraction))), None)
        if bad is not None:
            raise TypeError(f"QMatrix entries are int or Rat, got {type(bad).__name__}")
        self.rows = rows
        self.cols = cols
        # reduced entries over the lcm of their denominators are canonical
        den = math.lcm(*{x.denominator for x in data})
        self._nums = [x.numerator * (den // x.denominator) for x in data]
        self._den = den

    @classmethod
    def _of_ints(cls, rows: int, cols: int, nums: list[int], den: int) -> "QMatrix":
        """``nums / den`` brought to the canonical form."""
        if den < 0:
            nums = [-x for x in nums]
            den = -den
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._nums = nums
        m._den = den
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._of_ints(n, n, [int(i == j) for i in range(n) for j in range(n)], 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls._of_ints(rows, cols, [0] * (rows * cols), 1)

    @property
    def data(self) -> list:
        """The entries in row-major order, as a new list."""
        return [Fraction(x, self._den) for x in self._nums]

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return Fraction(self._nums[i * self.cols + j], self._den)

    def row(self, i: int) -> list:
        return [self[i, j] for j in range(self.cols)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _combine(self, other: "QMatrix", op) -> "QMatrix":
        """Entrywise ``op`` (``+`` or ``-``) of two equal-shape matrices."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        a, b = self._nums, other._nums
        # bring both over lcm(da, db) = da * sa = db * sb
        da, db = self._den, other._den
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        if sa != 1:
            a = [x * sa for x in a]
        if sb != 1:
            b = [x * sb for x in b]
        return QMatrix._of_ints(self.rows, self.cols, list(map(op, a, b)), da * sa)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "QMatrix":
        return QMatrix._of_ints(self.rows, self.cols, [-x for x in self._nums], self._den)

    def scale(self, c) -> "QMatrix":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"QMatrix scalars are int or Rat, got {type(c).__name__}")
        return QMatrix._of_ints(self.rows, self.cols,
                                [x * c.numerator for x in self._nums],
                                self._den * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch for matrix product")
        # one object-dtype matmul: numpy's C loop over the Python ints, never
        # a fixed width; an empty sum is the int 0, so m = 0 gives zeros
        n, p = self.rows, other.cols
        out = _obj(self._nums, n, self.cols) @ _obj(other._nums, other.rows, p)
        return QMatrix._of_ints(n, p, out.ravel().tolist(), self._den * other._den)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return self._den == other._den and self._nums == other._nums

    __hash__ = None

    def first_nonzero(self) -> tuple[int, int, object] | None:
        """Row-major first nonzero entry, as a failure witness."""
        k = next((k for k, x in enumerate(self._nums) if x), None)
        if k is None:
            return None
        return k // self.cols, k % self.cols, Fraction(self._nums[k], self._den)

    def __repr__(self):
        body = "; ".join(" ".join(str(self[i, j]) for j in range(self.cols))
                         for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def kron(a: QMatrix, b: QMatrix) -> QMatrix:
    """Kronecker product, first factor on the slower index."""
    arows = [a._nums[i * a.cols:(i + 1) * a.cols] for i in range(a.rows)]
    brows = [b._nums[k * b.cols:(k + 1) * b.cols] for k in range(b.rows)]
    out = [x * y for arow in arows for brow in brows for x in arow for y in brow]
    return QMatrix._of_ints(a.rows * b.rows, a.cols * b.cols, out, a._den * b._den)


def mul_on_leg(m: QMatrix, b: QMatrix, leg: int, n: int) -> QMatrix:
    """m (I_{d^(leg-1)} (x) b (x) I_{d^(n-leg)}) for a d x d matrix ``b``,
    without forming the d^n x d^n Kronecker product.

    Column (u, j, w) of m, j being the index of leg ``leg``, meets row j of
    b only: the numerators of m, reshaped to (rows, U, d, W) with
    U = d^(leg-1) and W = d^(n-leg), are contracted with those of b over j by
    one object-dtype ``tensordot``.  That is
    rows * d^(n+1) products in place of rows * d^(2n).
    """
    d = b.rows
    if b.cols != d:
        raise ValueError("leg matrices must be square")
    if not 1 <= leg <= n:
        raise ValueError(f"leg {leg} out of range 1..{n}")
    if m.cols != d ** n:
        raise ValueError("shape mismatch for matrix product")
    nums = _obj(m._nums, m.rows, d ** (leg - 1), d, d ** (n - leg))
    # axes (rows, U, W, d) -> (rows, U, d, W)
    out = np.tensordot(nums, _obj(b._nums, d, d), axes=(2, 0)).transpose(0, 1, 3, 2)
    return QMatrix._of_ints(m.rows, m.cols, out.ravel().tolist(), m._den * b._den)


def _eliminate(rows: list[list[int]], width: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the first ``width`` columns.

    ``rows`` are integer rows of one length.  Column k < ``width`` takes as
    its pivot the first row, in input order, not yet used as a pivot whose
    entry there is nonzero; a column with no such row is skipped.  Every
    other row r, earlier pivot rows included, becomes
    (pivot * r - r[k] * pivot row) / prev, prev being the previous pivot
    (1 at first).  Each entry is then a minor of the input on the pivot rows
    and columns, so every division is exact (Bareiss 1968, Math. Comp.
    22:565-578).  A column leaves every row once it is eliminated or skipped.

    Returns the pivot rows in pivot order, restricted to the columns past
    ``width``, the skipped columns, and the last pivot c.  A pivot row over c
    is that pivot's row of the reduced row echelon form.
    """
    rows = list(rows)
    skipped, prev, used = [], 1, 0
    for k in range(width):
        p = next((i for i in range(used, len(rows)) if rows[i][0]), None)
        if p is None:
            skipped.append(k)
            rows = [row[1:] for row in rows]
            continue
        rows.insert(used, rows.pop(p))
        pivot, tail = rows[used][0], rows[used][1:]
        rows = [tail if i == used
                else [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
                if row[0] else [pivot * x // prev for x in row[1:]]
                for i, row in enumerate(rows)]
        used += 1
        prev = pivot
    return rows[:used], skipped, prev


def mat_inverse(m: QMatrix) -> QMatrix:
    """Exact inverse by ``_eliminate`` on [N | I].

    N is the integer numerator matrix of m = N / den.  The elimination ends
    as [c I | c N^-1], c being the last pivot, so m^-1 = den * (c N^-1) / c
    needs no sign tracking for the row swaps: the result is the integer
    matrix den * (c N^-1) over c, brought to the canonical form.

    Raises ``Singular`` naming column k when no nonzero pivot exists there:
    k is the first column that depends on the earlier columns, whichever
    pivots were chosen before it.
    """
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    pivots, skipped, c = _eliminate(
        [m._nums[i * n:(i + 1) * n] + [int(i == j) for j in range(n)] for i in range(n)], n)
    if skipped:
        raise Singular(f"no nonzero pivot in column {skipped[0]}")
    return QMatrix._of_ints(n, n, [m._den * x for row in pivots for x in row], c)


def rank(m: QMatrix) -> int:
    """Exact rank: the number of pivot rows ``_eliminate`` finds in the
    numerators; the common denominator does not change the rank."""
    cols = m.cols
    return len(_eliminate([m._nums[i * cols:(i + 1) * cols] for i in range(m.rows)], cols)[0])


def signed_minors(a: Sequence[Sequence], mul=operator.mul, one=1) -> dict:
    """Signed bijection sums of an m x k array, one per k-subset of its rows.

    Maps the bitmask S of each k-subset of rows to

        sum_s sign(s) mul(...mul(a[s(0)][0], a[s(1)][1])..., a[s(k-1)][k-1])

    over the bijections s from the columns onto S, the sign taken relative to
    increasing row order.  With m = k the one value is the determinant; with
    m = k + 1 the subset omitting row i gives the maximal minor Delta_i.

    Dynamic programming over the columns: after column c, each (c+1)-subset
    holds the signed sum of the products that place exactly its rows.
    Extending a subset by row r multiplies by a[r][c] on the right, with the
    sign (-1)^(used rows after r).  O(2^m m) products in place of k! k per
    subset; factors meet in column order, so ``mul`` (``*``, ``kron``,
    ``dual_mul``) need not commute.  The first column enters as it is; ``one``
    is the value of the empty product, returned only when k = 0.
    """
    k = len(a[0]) if a else 0
    if any(len(row) != k for row in a):
        raise ValueError("ragged array")
    if k == 0:
        return {0: one}
    partial = {1 << r: row[0] for r, row in enumerate(a)}
    for c in range(1, k):
        nxt: dict[int, object] = {}
        for mask, acc in partial.items():
            for r, row in enumerate(a):
                bit = 1 << r
                if mask & bit:
                    continue
                term = mul(acc, row[c])
                odd = (mask >> r).bit_count() & 1
                key = mask | bit
                if key in nxt:
                    nxt[key] = nxt[key] - term if odd else nxt[key] + term
                else:
                    nxt[key] = -term if odd else term
        partial = nxt
    return partial


def maximal_minors(a: Sequence[Sequence], mul=operator.mul, one=1) -> list:
    """Delta_0..Delta_k of a (k+1) x k array: Delta_i omits row i."""
    if a and len(a[0]) != len(a) - 1:
        raise ValueError("need a (k+1) x k array")
    sums = signed_minors(a, mul, one)
    full = (1 << len(a)) - 1
    return [sums[full ^ (1 << i)] for i in range(len(a))]


def det(m: QMatrix):
    """Determinant by ``signed_minors`` (independent of elimination).

    With m = N / den, det(m) = det(N) / den^n: the expansion runs on the
    integer numerators and the one division forms the ``Rat``.  O(2^n n)
    integer operations.  Used as the oracle that cross-checks ``mat_inverse``
    singularity decisions.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    rows = [m._nums[i * n:(i + 1) * n] for i in range(n)]
    return Fraction(signed_minors(rows)[(1 << n) - 1], m._den ** n)
