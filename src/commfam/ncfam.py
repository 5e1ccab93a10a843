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
across legs.  The identity checks therefore take per-leg rows only (a list
of n matrices, entry j on leg j+1), and ``sample_family`` draws per-leg
rows only.  The constant-leg trial of the CLI inverts the bracket
[f_1..f_n] = Delta_0 of its generators alone and surfaces ``Singular``
honestly.

Every Delta is one ``maximal_minors`` expansion with ``kron`` as the
product: ``family_minors`` for Delta_0..Delta_n of a ``LegFamily`` and
``rest_brackets`` for the n brackets of n - 1 rows on legs 1..n-1.

Elements of the tensor power are plain d^n x d^n ``QMatrix`` values.
2a, 2b and the Laplace expansion are one alternating sum,
``_alternating_sum``, which applies each leg factor f_i^(leg) with
``exact.mul_on_leg``, a contraction over that leg's index alone; no leg
factor is ever embedded as a d^n x d^n matrix.
Only Delta_0 is ever inverted, once per draw: ``sample_family``
builds the minors and Delta_0^{-1} together, redraws while Delta_0 is
``Singular`` and reports how many draws it discarded.  The Hamiltonians,
the pairwise check and the identity checks take the minors and
Delta_0^{-1} from the sample and invert nothing themselves.

``check_pairwise_commute`` forms no big-integer product on a pass.  With
Delta_0^{-1} = N / den and Delta_j = M_j / e_j over integers,
den^2 e_a e_b (H_a H_b - H_b H_a) = N M_a N M_b - N M_b N M_a is an integer
matrix with entries of at most 2 D^3 A^2 max|N|^2 (D = d^n, A the largest
|M_j| entry).  The check takes the largest primes below 2^28 that divide
no e_j and not den, as few as make their product exceed twice that bound
(``exact.residue_primes``), and decides every commutator modulo all of them
in int64: ``hamiltonians`` multiplies ``exact.residues`` stacks with
``exact.residue_mul`` (D is at most 64, so a dot stays below 2^62).  Zero
modulo every prime is zero (Chinese remaindering).  Any nonzero residue
reruns the exact products of ``hamiltonians``, whose first nonzero
commutator entry is the witness.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .exact import (QMatrix, Singular, kron, mat_inverse, maximal_minors, mul_on_leg,
                    residue_mul, residue_primes, residues, signed_minors)
from .reports import CheckRecord, first_witness, verdict
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


def bracket(ms: list[QMatrix]) -> QMatrix:
    """Antisymmetrised sum over placements of the k matrices ``ms`` on k legs.

    bracket(ms) = sum_{s in S_k} sign(s) prod_m ms[s(m)] on leg m; the
    factors act on distinct legs, so the product order inside one term is
    immaterial.  One ``signed_minors`` call on the constant rows.
    """
    rows = [[m] * len(ms) for m in ms]
    return signed_minors(rows, kron, QMatrix.identity(1))[(1 << len(ms)) - 1]


@dataclass(frozen=True)
class LegFamily:
    """An (n+1) x n array of d x d matrices; entry a[i][j] sits on leg j.

    n and d are read off ``entries``.  The single-generator shape
    a[i][j] = f_i for every j is the formal skew-field specialisation, whose
    Delta_0 is ``bracket([f_1..f_n])``; see the module docstring for why it is
    singular in the matrix stand-in once n >= 2.
    """

    entries: tuple[tuple[QMatrix, ...], ...]  # entries[i][j-1], i = 0..n

    def __post_init__(self):
        n = len(self.entries) - 1
        if n > MAX_LEGS:
            raise ValueError(f"leg count {n} exceeds supported maximum {MAX_LEGS}")
        if any(len(row) != n for row in self.entries):
            raise ValueError(f"need {n} legs per row")
        shapes = {(m.rows, m.cols) for row in self.entries for m in row}
        if len(shapes) > 1 or any(r != c for r, c in shapes):
            raise ValueError("entries must be d x d for one d")


def family_minors(fam: LegFamily) -> list[QMatrix]:
    """The maximal minors Delta_0..Delta_n (Delta_i omits row i)."""
    return maximal_minors(fam.entries, kron, QMatrix.identity(1))


def hamiltonians(minors: list, inv0, mul=operator.mul) -> list:
    """H_i = Delta_0^{-1} Delta_i for i = 1..n, ``mul`` being the product.

    ``minors`` and ``inv0`` = Delta_0^{-1} are those of a ``SampleOutcome``,
    as ``QMatrix`` values or as ``exact.residues`` stacks with
    ``exact.residue_mul`` as the product; nothing is built or inverted here.
    """
    return [mul(inv0, m) for m in minors[1:]]


def rest_brackets(fs: list[list[QMatrix]]) -> list[QMatrix]:
    """[f_1,..,^f_i,..,f_n]^(1..n-1) for i = 1..n, with I_d on leg n.

    ``fs`` lists n per-leg rows.  Their first n - 1 legs form an
    n x (n-1) array whose maximal minor omitting row i is the rest of
    f_{i+1}, so one ``maximal_minors`` call builds all n rests.  They are
    the brackets that 2a, 2b and the Laplace expansion share.
    """
    n = len(fs)
    eye = QMatrix.identity(fs[0][0].rows)
    rests = maximal_minors([row[:n - 1] for row in fs], kron, QMatrix.identity(1))
    return [kron(rest, eye) for rest in rests]


# ---------------------------------------------------------------------------
# Identity checks.  Each takes rows f_1..f_n as lists of n per-leg matrices
# (f_i[j-1] on leg j) and the brackets and the inverse it needs from its
# caller, and returns a CheckRecord whose anchor is the decided identity; the
# witness is the first counterexample entry on failure.  The full bracket
# [f_1,..,f_n] = Delta_0 comes from ``family_minors`` over n + 1 rows and n
# legs, the rests from ``rest_brackets`` over n rows and n - 1 legs: separate
# expansions, so no identity below is a tautology.


def _witness(diff: QMatrix, label: str) -> str | None:
    """The first nonzero entry of ``diff``; None when ``diff`` is zero."""
    spot = diff.first_nonzero()
    if spot is None:
        return None
    i, j, v = spot
    return f"{label}: first nonzero entry ({i},{j}) = {v}"


def _commute_on_residues(minors: list[QMatrix], inv0: QMatrix) -> bool:
    """True exactly when H_a H_b = H_b H_a for every pair, decided on
    word-size residues under the bound of the module docstring: an entry of
    N M_a N M_b - N M_b N M_a is two sums of D^3 products, each at most
    max|N|^2 A^2.  A residue of H_a H_b - H_b H_a is that integer matrix
    times the unit (den^2 e_a e_b)^-1, so both vanish together.
    """
    bound = (2 * inv0.rows ** 3 * max(m.height() for m in minors[1:]) ** 2
             * inv0.height() ** 2)
    primes = residue_primes(bound, skip=inv0.den * math.prod(m.den for m in minors))
    mul = functools.partial(residue_mul, primes=primes)
    hs = hamiltonians([residues(m, primes) for m in minors], residues(inv0, primes), mul)
    return all(np.array_equal(mul(hs[a], hs[b]), mul(hs[b], hs[a]))
               for a, b in combinations(range(len(hs)), 2))


def check_pairwise_commute(minors: list[QMatrix], inv0: QMatrix) -> CheckRecord:
    """H_i H_j - H_j H_i = 0 for every pair, H_i = Delta_0^{-1} Delta_i.

    ``minors`` lists Delta_0..Delta_n and ``inv0`` is Delta_0^{-1}, as a
    ``SampleOutcome`` holds them, and d^n is at most 64.  A pass is proved on
    residues (``_commute_on_residues``); otherwise the exact products of
    ``hamiltonians`` give the witness, the first nonzero commutator entry.
    """
    if _commute_on_residues(minors, inv0):
        return verdict("pairwise-commute", ANCHOR_COMMUTE, None)
    hs = hamiltonians(minors, inv0)
    return verdict("pairwise-commute", ANCHOR_COMMUTE, first_witness(
        _witness(hs[a] * hs[b] - hs[b] * hs[a], f"[H_{a + 1}, H_{b + 1}]")
        for a, b in combinations(range(len(hs)), 2)))


def _alternating_sum(fs, lefts: list[QMatrix], leg: int) -> QMatrix:
    """sum_i (-1)^i lefts[i-1] f_i^(leg).

    ``lefts[i-1]`` is the rest bracket [f_1,..,^f_i,..,f_n]^(1..n-1) of f_i
    (the Laplace expansion) or that rest times Delta_0^{-1} (2a and 2b).
    Only the leg factor f_i^(leg) is multiplied here, by ``mul_on_leg``: a
    contraction over the index of leg ``leg`` alone, so f_i^(leg) is never
    embedded as a d^n x d^n matrix."""
    n = len(fs)
    total = None
    for i, (row, left) in enumerate(zip(fs, lefts), start=1):
        term = mul_on_leg(left, row[leg - 1], leg, n)
        if i % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def check_identity_2a(fs, quotients: list[QMatrix]) -> CheckRecord:
    """Alternating one-leg expansion against the full bracket: the sum
    equals (-1)^n.  ``fs`` lists n per-leg rows and
    ``quotients[i-1]`` = [f_1,..,^f_i,..,f_n]^(1..n-1) Delta_0^{-1}."""
    n = len(fs)
    total = _alternating_sum(fs, quotients, n)
    expect = QMatrix.identity(total.rows)
    if n % 2 == 1:
        expect = -expect
    return verdict(f"identity-2a-n{n}", ANCHOR_2A,
                   _witness(total - expect, "lhs - (-1)^n"))


def check_identity_2b(fs, quotients: list[QMatrix], a: int) -> CheckRecord:
    """Same alternating sum with the last factor on leg ``a``; equals 0.

    Admissible legs: a = 1..n-2 for n >= 3, plus the two-leg variant a = 1.
    """
    n = len(fs)
    if not (1 <= a <= n - 2 or (n == 2 and a == 1)):
        raise ValueError(f"leg {a} not admissible for n = {n}")
    return verdict(f"identity-2b-n{n}-a{a}", ANCHOR_2B,
                   _witness(_alternating_sum(fs, quotients, a), "lhs"))


def check_main_id(minors: list[QMatrix], inv0: QMatrix) -> CheckRecord:
    """Delta_i Delta_0^{-1} Delta_j symmetric in (i, j), all pairs incl. 0.

    ``minors`` lists Delta_0..Delta_n and ``inv0`` is Delta_0^{-1}; each
    Delta_0^{-1} Delta_j is formed once, so a pair costs two products.
    """
    n = len(minors) - 1
    quotients = [inv0 * m for m in minors]
    return verdict(f"main-id-n{n}", ANCHOR_MAIN_ID, first_witness(
        _witness(minors[i] * quotients[j] - minors[j] * quotients[i], f"pair ({i},{j})")
        for i, j in combinations(range(n + 1), 2)))


def check_laplace_expansion(fs, full: QMatrix, rests: list[QMatrix]) -> CheckRecord:
    """Expansion of the full bracket ``full`` = [f_1,..,f_n] along the last
    leg over ``rests`` (from ``rest_brackets``), exact equality.

    Each rest carries I_d on leg n, so it commutes with f_j^(n) and the
    right-hand side is (-1)^n times the alternating sum of 2a over the rests.
    No inverses are involved, so rows constant across legs are fine here.
    """
    n = len(fs)
    total = _alternating_sum(fs, rests, n)
    if n % 2 == 1:
        total = -total
    return verdict(f"laplace-n{n}", ANCHOR_LAPLACE,
                   _witness(full - total, "lhs - rhs"))


# ---------------------------------------------------------------------------
# Random sampling.  Entries are integers in [-bound, bound]; a draw with a
# singular Delta_0 is resampled, at most 20 times, and the count reported.


@dataclass
class SampleOutcome:
    """An accepted draw with its minors Delta_0..Delta_n and ``inv0`` =
    Delta_0^{-1}, each built once; all three are None when every draw was
    singular."""

    family: LegFamily | None
    minors: list[QMatrix] | None
    inv0: QMatrix | None
    resamples: int


def random_matrix(rng: random.Random, d: int, bound: int = 5) -> QMatrix:
    return QMatrix(d, d, [rng.randint(-bound, bound) for _ in range(d * d)])


def sample_family(rng: random.Random, n: int, d: int, bound: int = 5) -> SampleOutcome:
    """Draw a per-leg LegFamily with invertible Delta_0, resampling on
    singularity.

    Each draw builds its minors and inverts Delta_0; the accepted draw's
    minors and inverse are returned for ``hamiltonians`` and the identity
    checks, so a trial inverts exactly once.
    """
    def attempt():
        fam = LegFamily(tuple(
            tuple(random_matrix(rng, d, bound) for _ in range(n))
            for _ in range(n + 1)))
        minors = family_minors(fam)
        return fam, minors, mat_inverse(minors[0])

    drawn, resamples = resample(attempt, Singular, retries=20)
    fam, minors, inv0 = drawn or (None, None, None)
    return SampleOutcome(fam, minors, inv0, resamples)
