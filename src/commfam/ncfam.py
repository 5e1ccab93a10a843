"""Commuting families in a concrete matrix tensor power.

The ambient algebra is M_d(Q)^{x n}, realised as M_{d^n}(Q) through iterated
Kronecker products.  Entries placed on distinct tensor legs commute, so an
(n+1) x n array a[i][j] of d x d matrices (row i on leg j) generates the
signed minor sums

    Delta_{I,J} = sum_{s: I -> J bijective} sign(s) prod_{i in I} a[i][s(i)]

and the family H_i = Delta_0^{-1} Delta_i (Delta_i omitting row i) multiplies
commutatively whenever Delta_0 is invertible.  Every identity used in the
derivation -- the Laplace expansion, the alternating one-leg sums, and the
three-factor symmetry Delta_i Delta_0^{-1} Delta_j = Delta_j Delta_0^{-1}
Delta_i -- is decided here exactly.

A caution inherent to the matrix stand-in: if a row is *constant* across legs
(a[i][j] = f_i for all j), the full bracket maps every power v^{x n} into the
antisymmetric subspace, whose dimension C(d, n) is strictly smaller than
dim Sym^n = C(d+n-1, n); such brackets are singular for every choice of
entries once n >= 2.  Matrix rings contain zero divisors and never embed in a
skew field, so the invertibility hypotheses can only be met by rows that vary
across legs.  The checks below accept both shapes: constant rows surface
``Singular`` honestly, varying rows exercise the identities.

Invertibility is checked lazily: only minors actually inverted can raise
``Singular``, and samplers report how many singular draws were discarded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exact import (QMatrix, Rat, Singular, kron, mat_inverse, maximal_minors,
                    signed_minors)
from .reports import CheckRecord, failed, passed
from .rng import resample

ANCHOR_COMMUTE = "H_i H_j = H_j H_i"
ANCHOR_MAIN_ID = "Delta_i Delta_0^-1 Delta_j = Delta_j Delta_0^-1 Delta_i"
ANCHOR_2A = ("sum_{i=1..n} (-1)^i [f_1,..,^f_i,..,f_n]^(1..n-1) "
             "[f_1,..,f_n]^-1 f_i^(n) = (-1)^n")
ANCHOR_2B = ("sum_{i=1..n} (-1)^i [f_1,..,^f_i,..,f_n]^(1..n-1) "
             "[f_1,..,f_n]^-1 f_i^(a) = 0")
ANCHOR_LAPLACE = ("[f_1,..,f_n] = sum_{j=1..n} (-1)^(j+n) f_j^(n) "
                  "[f_1,..,^f_j,..,f_n]^(1..n-1)")

MAX_LEGS = 6  # a k-leg bracket costs O(2^k k) Kronecker products; d^n dominates


@dataclass(frozen=True)
class TensorElem:
    """An element of M_d(Q)^{x n}: a d^n x d^n exact matrix."""

    n: int
    d: int
    mat: QMatrix

    def __post_init__(self):
        size = self.d ** self.n
        if self.mat.rows != size or self.mat.cols != size:
            raise ValueError(f"matrix must be {size} x {size}")

    def __mul__(self, other: "TensorElem") -> "TensorElem":
        self._compat(other)
        return TensorElem(self.n, self.d, self.mat * other.mat)

    def __add__(self, other: "TensorElem") -> "TensorElem":
        self._compat(other)
        return TensorElem(self.n, self.d, self.mat + other.mat)

    def __sub__(self, other: "TensorElem") -> "TensorElem":
        self._compat(other)
        return TensorElem(self.n, self.d, self.mat - other.mat)

    def __neg__(self) -> "TensorElem":
        return TensorElem(self.n, self.d, -self.mat)

    def scale(self, c) -> "TensorElem":
        return TensorElem(self.n, self.d, self.mat.scale(c))

    def inverse(self) -> "TensorElem":
        return TensorElem(self.n, self.d, mat_inverse(self.mat))

    def is_zero(self) -> bool:
        return self.mat.first_nonzero() is None

    def __eq__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return self.n == other.n and self.d == other.d and self.mat == other.mat

    __hash__ = None

    def _compat(self, other: "TensorElem") -> None:
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("tensor shapes differ")

    @classmethod
    def identity(cls, n: int, d: int) -> "TensorElem":
        return cls(n, d, QMatrix.identity(d ** n))


def embed_legs(mats_by_leg: dict[int, QMatrix], n: int, d: int) -> TensorElem:
    """Kronecker-embed ``{leg j: b_j}`` (1-based legs), identity elsewhere.

    Equals the product of the individual leg embeddings, built as one
    Kronecker chain.
    """
    eye = QMatrix.identity(d)
    acc = None
    for j in range(1, n + 1):
        factor = mats_by_leg.get(j, eye)
        acc = factor if acc is None else kron(acc, factor)
    if acc is None:
        acc = QMatrix.identity(1)
    return TensorElem(n, d, acc)


def leg_embed(b: QMatrix, leg: int, n: int) -> TensorElem:
    """Place the d x d matrix ``b`` on tensor leg ``leg`` of n legs:
    I_{d^(leg-1)} (x) b (x) I_{d^(n-leg)}."""
    if not 1 <= leg <= n:
        raise ValueError(f"leg {leg} out of range 1..{n}")
    if b.rows != b.cols:
        raise ValueError("leg matrices must be square")
    return embed_legs({leg: b}, n, b.rows)


def bracket(ms: list[QMatrix], legs: list[int], n: int) -> TensorElem:
    """Antisymmetrised sum over placements of ``ms`` on the given legs.

    bracket(ms, legs) = sum_{s in S_k} sign(s) prod_m ms[s(m)] on leg legs[m];
    the factors act on distinct legs, so the product order inside one term is
    immaterial.
    """
    k = len(ms)
    if len(legs) != k:
        raise ValueError("one leg per matrix required")
    rows = [[m] * n for m in ms] if n else []
    return _general_bracket(rows, list(range(k)), list(legs), n,
                            ms[0].rows if ms else 1)


def _general_bracket(rows: list[list[QMatrix]], indices: list[int],
                     legs: list[int], n: int, d: int) -> TensorElem:
    """Signed sum over bijections indices -> legs of leg-placed row entries.

    ``rows[i][j-1]`` is the matrix row i contributes on leg j; the sign of a
    bijection is taken relative to the increasing enumerations of ``indices``
    and ``legs``.  One ``signed_minors`` call with ``kron`` as the product
    builds the sum leg by leg: O(2^k k) Kronecker products for k legs.  A leg
    outside ``legs`` contributes I_d, folded into the entries of the next
    placed leg, or once onto the result after the last one.
    """
    if len(indices) != len(legs):
        raise ValueError("row and leg subsets must have equal cardinality")
    if len(set(legs)) != len(legs):
        raise ValueError("legs must be distinct")
    if n > MAX_LEGS:
        raise ValueError(f"leg count {n} exceeds supported maximum {MAX_LEGS}")
    if legs and not all(1 <= j <= n for j in legs):
        raise ValueError("leg index out of range")
    indices = sorted(indices)
    columns = []
    placed = 0
    for j in sorted(legs):
        column = [rows[i][j - 1] for i in indices]
        if j > placed + 1:  # legs placed+1 .. j-1 carry I_d
            pad = QMatrix.identity(d ** (j - placed - 1))
            column = [kron(pad, m) for m in column]
        columns.append(column)
        placed = j
    entries = list(zip(*columns))
    total = signed_minors(entries, kron, QMatrix.identity(1))[(1 << len(indices)) - 1]
    if placed < n:
        total = kron(total, QMatrix.identity(d ** (n - placed)))
    return TensorElem(n, d, total)


@dataclass(frozen=True)
class LegFamily:
    """An (n+1) x n array of d x d matrices; entry a[i][j] sits on leg j.

    The single-generator shape a[i][j] = f_i for every j is the formal
    skew-field specialisation; see the module docstring for why its minors
    are singular in the matrix stand-in once n >= 2.
    """

    n: int
    d: int
    entries: tuple[tuple[QMatrix, ...], ...]  # entries[i][j-1], i = 0..n

    def __post_init__(self):
        if self.n > MAX_LEGS:
            raise ValueError(f"leg count {self.n} exceeds supported maximum {MAX_LEGS}")
        if len(self.entries) != self.n + 1:
            raise ValueError(f"need {self.n + 1} rows")
        for row in self.entries:
            if len(row) != self.n:
                raise ValueError(f"need {self.n} legs per row")
            for m in row:
                if m.rows != self.d or m.cols != self.d:
                    raise ValueError("entries must be d x d")

    @classmethod
    def from_generators(cls, fs: list[QMatrix], n: int) -> "LegFamily":
        """Constant-in-leg family a[i][j] = fs[i]."""
        if len(fs) != n + 1:
            raise ValueError(f"need n+1 = {n + 1} generators")
        d = fs[0].rows
        return cls(n, d, tuple(tuple(f for _ in range(n)) for f in fs))

    @classmethod
    def from_rows(cls, rows) -> "LegFamily":
        rows = [_normalize_row(r, len(rows) - 1) for r in rows]
        d = rows[0][0].rows
        return cls(len(rows) - 1, d, tuple(tuple(r) for r in rows))

    def entry(self, i: int, j: int) -> QMatrix:
        """Row i (0..n), leg j (1..n)."""
        return self.entries[i][j - 1]


def _normalize_row(row, n: int) -> list[QMatrix]:
    """A row is one matrix (constant across legs) or a list of n matrices."""
    if isinstance(row, QMatrix):
        return [row] * n
    row = list(row)
    if len(row) != n:
        raise ValueError(f"per-leg row needs {n} matrices, got {len(row)}")
    return row


def delta(fam: LegFamily, rows, legs) -> TensorElem:
    """Delta_{I,J}: signed sum over bijections I -> J of leg-placed entries."""
    rows = sorted(rows)
    if rows and not 0 <= rows[0] <= rows[-1] <= fam.n:
        raise ValueError("row indices out of range 0..n")
    return _general_bracket(list(fam.entries), rows, sorted(legs), fam.n, fam.d)


def family_minors(fam: LegFamily) -> list[TensorElem]:
    """The maximal minors Delta_0..Delta_n (Delta_i omits row i)."""
    return [TensorElem(fam.n, fam.d, m)
            for m in maximal_minors(fam.entries, kron, QMatrix.identity(1))]


def hamiltonians(fam: LegFamily) -> list[TensorElem]:
    """H_i = Delta_0^{-1} Delta_i for i = 1..n.

    Raises ``Singular`` when Delta_0 is not invertible (the invertibility
    hypothesis fails for this sample; the caller may resample).  Only
    Delta_0 is inverted: minors are checked lazily, when actually used.
    """
    minors = family_minors(fam)
    inv0 = minors[0].inverse()
    return [inv0 * minors[i] for i in range(1, fam.n + 1)]


# ---------------------------------------------------------------------------
# Identity checks.  Each accepts rows that are either a single matrix
# (constant across legs) or a list of n per-leg matrices, and returns a
# CheckRecord whose anchor is the decided identity; the witness is the first
# counterexample entry on failure.


def _witness(elem: TensorElem, label: str) -> str:
    spot = elem.mat.first_nonzero()
    if spot is None:
        return f"{label}: zero"
    i, j, v = spot
    return f"{label}: first nonzero entry ({i},{j}) = {v}"


def check_pairwise_commute(hs: list[TensorElem],
                           name: str = "pairwise-commute") -> CheckRecord:
    """Exact test H_i H_j - H_j H_i = 0 for every pair."""
    for a in range(len(hs)):
        for b in range(a + 1, len(hs)):
            comm = hs[a] * hs[b] - hs[b] * hs[a]
            if not comm.is_zero():
                return failed(name, ANCHOR_COMMUTE,
                              _witness(comm, f"[H_{a + 1}, H_{b + 1}]"))
    return passed(name, ANCHOR_COMMUTE)


def _alternating_sum(fs, leg: int) -> TensorElem:
    """sum_i (-1)^i [f_1,..,^f_i,..,f_n]^(1..n-1) [f_1,..,f_n]^-1 f_i^(leg).

    The full bracket and each rest bracket are separate expansions, so the
    identities built on this sum are not tautologies."""
    n = len(fs)
    rows = [_normalize_row(r, n) for r in fs]
    d = rows[0][0].rows
    full = _general_bracket(rows, list(range(n)), list(range(1, n + 1)), n, d)
    inv = full.inverse()  # Singular propagates to the caller
    total = None
    for i in range(1, n + 1):
        rest = _general_bracket(rows, [t for t in range(n) if t != i - 1],
                                list(range(1, n)), n, d)
        term = rest * inv * leg_embed(rows[i - 1][leg - 1], leg, n)
        if i % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def check_identity_2a(fs) -> CheckRecord:
    """Alternating one-leg expansion against the full bracket: the sum
    equals (-1)^n.  ``fs`` lists n rows (constant or per-leg)."""
    n = len(fs)
    total = _alternating_sum(fs, n)
    expect = TensorElem.identity(n, total.d)
    if n % 2 == 1:
        expect = -expect
    diff = total - expect
    if diff.is_zero():
        return passed(f"identity-2a-n{n}", ANCHOR_2A)
    return failed(f"identity-2a-n{n}", ANCHOR_2A, _witness(diff, "lhs - (-1)^n"))


def check_identity_2b(fs, a: int) -> CheckRecord:
    """Same alternating sum with the last factor on leg ``a``; equals 0.

    Admissible legs: a = 1..n-2 for n >= 3, plus the two-leg variant a = 1.
    """
    n = len(fs)
    if not (1 <= a <= n - 2 or (n == 2 and a == 1)):
        raise ValueError(f"leg {a} not admissible for n = {n}")
    total = _alternating_sum(fs, a)
    if total.is_zero():
        return passed(f"identity-2b-n{n}-a{a}", ANCHOR_2B)
    return failed(f"identity-2b-n{n}-a{a}", ANCHOR_2B, _witness(total, "lhs"))


def check_main_id(fs) -> CheckRecord:
    """Delta_i Delta_0^{-1} Delta_j symmetric in (i, j), all pairs incl. 0.

    ``fs`` lists n+1 rows (constant or per-leg).
    """
    fam = LegFamily.from_rows(fs)
    n = fam.n
    minors = family_minors(fam)
    inv0 = minors[0].inverse()
    for i in range(len(minors)):
        for j in range(i + 1, len(minors)):
            lhs = minors[i] * inv0 * minors[j]
            rhs = minors[j] * inv0 * minors[i]
            diff = lhs - rhs
            if not diff.is_zero():
                return failed(f"main-id-n{n}", ANCHOR_MAIN_ID,
                              _witness(diff, f"pair ({i},{j})"))
    return passed(f"main-id-n{n}", ANCHOR_MAIN_ID)


def check_laplace_expansion(fs) -> CheckRecord:
    """Expansion of the full bracket along the last leg, exact equality.

    No inverses are involved, so constant rows are fine here.
    """
    n = len(fs)
    rows = [_normalize_row(r, n) for r in fs]
    d = rows[0][0].rows
    lhs = _general_bracket(rows, list(range(n)), list(range(1, n + 1)), n, d)
    total = None
    for j in range(1, n + 1):
        rest = _general_bracket(rows, [t for t in range(n) if t != j - 1],
                                list(range(1, n)), n, d)
        term = leg_embed(rows[j - 1][n - 1], n, n) * rest
        if (j + n) % 2 == 1:
            term = -term
        total = term if total is None else total + term
    diff = lhs - total
    if diff.is_zero():
        return passed(f"laplace-n{n}", ANCHOR_LAPLACE)
    return failed(f"laplace-n{n}", ANCHOR_LAPLACE, _witness(diff, "lhs - rhs"))


# ---------------------------------------------------------------------------
# Random sampling.  Entries are integers in [-bound, bound]; draws with a
# singular Delta_0 are resampled (up to ``retries``) and the count reported.


@dataclass
class SampleOutcome:
    family: LegFamily | None
    resamples: int
    exhausted: bool = False


def random_matrix(rng: random.Random, d: int, bound: int = 5) -> QMatrix:
    return QMatrix(d, d, [Rat(rng.randint(-bound, bound)) for _ in range(d * d)])


def sample_family(rng: random.Random, n: int, d: int, bound: int = 5,
                  constant_legs: bool = False, retries: int = 20) -> SampleOutcome:
    """Draw a LegFamily with invertible Delta_0, resampling on singularity.

    ``constant_legs = True`` requests the skew-field specialisation, whose
    Delta_0 is singular for every draw once n >= 2; it exists so callers can
    demonstrate that the failure is reported, not silently passed.
    """
    def attempt():
        if constant_legs:
            fam = LegFamily.from_generators(
                [random_matrix(rng, d, bound) for _ in range(n + 1)], n)
        else:
            fam = LegFamily(n, d, tuple(
                tuple(random_matrix(rng, d, bound) for _ in range(n))
                for _ in range(n + 1)))
        delta(fam, range(1, n + 1), range(1, n + 1)).inverse()
        return fam

    fam, resamples = resample(attempt, Singular, retries)
    return SampleOutcome(fam, resamples, exhausted=fam is None)
