"""Tensor-leg families: brackets, minors, Hamiltonians, proof identities."""

import itertools
import random

import pytest

from commfam import cli, exact, ncfam
from commfam.cli import run_scenario, scenario_from_config
from commfam.exact import QMatrix, Rat, Singular, kron, mat_inverse, mul_on_leg
from commfam.ncfam import (LegFamily, bracket, check_identity_2a,
                           check_identity_2b, check_laplace_expansion,
                           check_main_id, check_pairwise_commute,
                           family_minors, hamiltonians, rest_brackets,
                           sample_family)
from leg_oracle import leg_embed
from permutation_oracle import perm_sign

E11 = QMatrix.from_rows([[1, 0], [0, 0]])
E12 = QMatrix.from_rows([[0, 1], [0, 0]])
E21 = QMatrix.from_rows([[0, 0], [1, 0]])
E22 = QMatrix.from_rows([[0, 0], [0, 1]])


def rand_mat(rng, d=2, bound=5):
    return ncfam.random_matrix(rng, d, bound)


def varying_rows(rng, count, n, d=2, bound=5):
    return [[rand_mat(rng, d, bound) for _ in range(n)] for _ in range(count)]


def is_zero(m):
    return m.first_nonzero() is None


def suite_rows(outcome):
    """Rows f_1..f_n of a sampled family, their rest brackets and the
    quotients rest_i Delta_0^{-1}, as the identity-suite trial builds them."""
    rows = [list(r) for r in outcome.family.entries[1:]]
    rests = rest_brackets(rows)
    return rows, rests, [rest * outcome.inv0 for rest in rests]


def test_leg_embed_identity_and_single_leg():
    eye = QMatrix.identity(2)
    assert leg_embed(eye, 2, 3) == QMatrix.identity(8)
    b = QMatrix.from_rows([[1, 2], [3, 4]])
    assert leg_embed(b, 1, 1) == b
    # explicit Kronecker: b on leg 1 of 2 is b (x) I
    assert leg_embed(b, 1, 2) == kron(b, QMatrix.identity(2))
    assert leg_embed(b, 2, 2) == kron(QMatrix.identity(2), b)


def test_mul_on_leg_is_the_product_with_the_embedded_leg():
    # the contraction against its oracle m * leg_embed(b, leg, n), on every
    # leg; Rat entries and entries past 2^70 keep it honest about exactness
    rng = random.Random(37)
    big = 2 ** 70
    for d in (1, 2, 3):
        for n in range(1, 5):
            for leg in range(1, n + 1):
                rows = rng.choice((1, 3))
                m = QMatrix(rows, d ** n, [Rat(rng.randint(-9, 9), rng.randint(1, 4))
                                           for _ in range(rows * d ** n)])
                m = m + QMatrix(rows, d ** n, [big * rng.randint(-1, 1)
                                               for _ in range(rows * d ** n)])
                b = QMatrix(d, d, [Rat(rng.randint(-9, 9), rng.randint(1, 4))
                                   for _ in range(d * d)])
                b = b + QMatrix(d, d, [big + 1] + [0] * (d * d - 1))
                assert mul_on_leg(m, b, leg, n) == m * leg_embed(b, leg, n), (d, n, leg)


def test_mul_on_leg_refuses_bad_shapes():
    b = QMatrix.identity(2)
    for m, leg, n, match in [(QMatrix.zeros(1, 8), 0, 3, "out of range"),
                             (QMatrix.zeros(1, 8), 4, 3, "out of range"),
                             (QMatrix.zeros(1, 4), 1, 3, "shape mismatch")]:
        with pytest.raises(ValueError, match=match):
            mul_on_leg(m, b, leg, n)
    with pytest.raises(ValueError, match="square"):
        mul_on_leg(QMatrix.zeros(1, 8), QMatrix.zeros(2, 3), 1, 3)


def test_leg_embed_distinct_legs_commute():
    a = leg_embed(E11, 1, 2)
    b = leg_embed(E22, 2, 2)
    assert is_zero(a * b - b * a)
    # and the product is the Kronecker product of the pieces
    assert a * b == kron(E11, E22)


def test_bracket_scalar_collapse():
    f = QMatrix.from_rows([[3]])
    g = QMatrix.from_rows([[5]])
    assert is_zero(bracket([f, g]))


def test_bracket_frozen_expansion():
    # [E11, E22] = E11 (x) E22 - E22 (x) E11 = diag(0, 1, -1, 0)
    br = bracket([E11, E22])
    want = QMatrix.from_rows([[0, 0, 0, 0],
                              [0, 1, 0, 0],
                              [0, 0, -1, 0],
                              [0, 0, 0, 0]])
    assert br == want


def test_bracket_alternating_and_multilinear():
    rng = random.Random(7)
    for _ in range(10):
        f, g, h = (rand_mat(rng) for _ in range(3))
        fg = bracket([f, g])
        gf = bracket([g, f])
        assert is_zero(fg + gf)
        assert is_zero(bracket([f, f]))
        c = Rat(rng.randint(-5, 5))
        lhs = bracket([f.scale(c) + g, h])
        rhs = bracket([f, h]).scale(c) + bracket([g, h])
        assert lhs == rhs


def test_delta_singletons_and_constant_shape():
    rng = random.Random(9)
    fs = [rand_mat(rng) for _ in range(3)]
    # one leg: Delta_i is the one remaining entry
    assert family_minors(LegFamily(((fs[0],), (fs[1],)))) == [fs[1], fs[0]]
    # Delta_0 over rows 1..n equals the antisymmetrised bracket
    fam = LegFamily(tuple((f, f) for f in fs))
    assert family_minors(fam)[0] == bracket([fs[1], fs[2]])


def test_delta_repeated_row_vanishes():
    rng = random.Random(13)
    row = [rand_mat(rng) for _ in range(2)]
    other = [rand_mat(rng) for _ in range(2)]
    fam = LegFamily((tuple(row), tuple(other), tuple(row)))
    # Delta_1 omits row 1 and keeps two equal rows
    assert is_zero(family_minors(fam)[1])


def test_hamiltonians_single_leg_closed_form():
    outcome = sample_family(random.Random(15), 1, 2)
    (f0,), (f1,) = outcome.family.entries
    assert outcome.minors == [f1, f0]
    assert hamiltonians(outcome.minors, outcome.inv0) == [mat_inverse(f1) * f0]


def test_sample_family_returns_its_minors_and_the_inverse_of_delta0():
    rng = random.Random(16)
    for n, d in ((2, 2), (3, 2), (2, 3)):
        outcome = sample_family(rng, n, d)
        assert outcome.minors == family_minors(outcome.family)
        assert outcome.minors[0] * outcome.inv0 == QMatrix.identity(d ** n)


def test_hamiltonians_scalar_legs_commute():
    rng = random.Random(17)
    fam = LegFamily(tuple(
        tuple(QMatrix.from_rows([[rng.randint(1, 9)]]) for _ in range(3))
        for _ in range(4)))
    minors = family_minors(fam)
    assert check_pairwise_commute(minors, mat_inverse(minors[0])).status == "pass"


def test_hamiltonians_commute_varying_legs():
    rng = random.Random(19)
    for n, d in ((2, 2), (3, 2), (2, 3)):
        outcome = sample_family(rng, n, d)
        assert outcome.family is not None
        assert check_pairwise_commute(outcome.minors, outcome.inv0).status == "pass"


def test_constant_leg_family_is_structurally_singular():
    # squares span Sym^n but the bracket lands in the smaller antisymmetric
    # part, so the skew-field-shaped family can never satisfy invertibility
    rng = random.Random(21)
    for _ in range(5):
        fs = [rand_mat(rng, 2, 9) for _ in range(3)]
        fam = LegFamily(tuple((f, f) for f in fs))
        with pytest.raises(Singular):
            mat_inverse(family_minors(fam)[0])


def test_pairwise_commute_diagonal_passes():
    # with Delta_0 = I the Hamiltonians are the minors themselves
    diag1 = QMatrix.from_rows([[2, 0], [0, 3]])
    diag2 = QMatrix.from_rows([[5, 0], [0, 7]])
    eye = QMatrix.identity(2)
    assert check_pairwise_commute([eye, diag1, diag2], eye).status == "pass"


def test_pairwise_commute_detects_failure_with_witness():
    eye = QMatrix.identity(2)
    record = check_pairwise_commute([eye, E12, E21], eye)
    assert record.status == "fail"
    assert record.witness == "[H_1, H_2]: first nonzero entry (0,0) = 1"


def exact_commute_witness(minors, inv0):
    """The first nonzero commutator entry of the exact Hamiltonians, as the
    check words it; None when every pair commutes."""
    hs = hamiltonians(minors, inv0)
    for a, b in itertools.combinations(range(len(hs)), 2):
        spot = (hs[a] * hs[b] - hs[b] * hs[a]).first_nonzero()
        if spot is not None:
            return f"[H_{a + 1}, H_{b + 1}]: first nonzero entry ({spot[0]},{spot[1]}) = {spot[2]}"
    return None


def assert_decided_as_exactly(minors, inv0):
    """The check's verdict and witness are those of the exact products."""
    want = exact_commute_witness(minors, inv0)
    record = check_pairwise_commute(minors, inv0)
    assert ncfam._commute_on_residues(minors, inv0) == (want is None)
    assert (record.status, record.witness) == ("pass" if want is None else "fail", want)
    return record


def perturbed_draws(minors, inv0):
    """A minor off by one, then Delta_0^{-1} off by one."""
    yield [off_by_one(m) if i == 2 else m for i, m in enumerate(minors)], inv0
    yield minors, off_by_one(inv0)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_residue_verdict_is_the_exact_verdict(n, d):
    outcome = sample_family(random.Random(10 * n + d), n, d)
    assert assert_decided_as_exactly(outcome.minors, outcome.inv0).status == "pass"
    for minors, inv0 in perturbed_draws(outcome.minors, outcome.inv0):
        assert assert_decided_as_exactly(minors, inv0).status == "fail"


def test_only_a_failing_check_forms_the_exact_products(monkeypatch, sample_n3):
    products = []
    mul = QMatrix.__mul__
    monkeypatch.setattr(QMatrix, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert check_pairwise_commute(sample_n3.minors, sample_n3.inv0).status == "pass"
    assert products == []
    minors, inv0 = next(perturbed_draws(sample_n3.minors, sample_n3.inv0))
    assert check_pairwise_commute(minors, inv0).status == "fail"
    assert products  # the exact route found the witness


def spy_primes(monkeypatch):
    """(bound, primes) of each prime choice the pairwise check makes, in
    call order."""
    taken = []
    choose = ncfam.residue_primes

    def spy(bound, skip):
        taken.append((bound, choose(bound, skip)))
        return taken[-1][1]

    monkeypatch.setattr(ncfam, "residue_primes", spy)
    return taken


def test_a_denominator_that_is_the_first_prime_skips_it(monkeypatch):
    # Delta_0 = p I with p the largest prime below 2^28 gives inv0 = I / p;
    # H_1 = Delta_1 / p and H_2 = (Delta_1^2 + 3 Delta_1) / p commute, and
    # Delta_1 and a perturbed Delta_2 do not
    p = exact._prime(0)
    rng = random.Random(43)
    delta1 = rand_mat(rng, 4, 9)
    delta0 = QMatrix.identity(4).scale(p)
    inv0 = mat_inverse(delta0)
    assert inv0.den == p
    taken = spy_primes(monkeypatch)
    commuting = [delta0, delta1, delta1 * delta1 + delta1.scale(3)]
    assert assert_decided_as_exactly(commuting, inv0).status == "pass"
    assert assert_decided_as_exactly([delta0, delta1, off_by_one(commuting[2])],
                                     inv0).status == "fail"
    # a rational minor whose denominator is the next prime skips that one too
    q = exact._prime(1)
    assert assert_decided_as_exactly([delta0, delta1.scale(Rat(1, q)), commuting[2]],
                                     inv0).status == "pass"
    # each assert_decided_as_exactly call chooses primes twice
    assert [primes[0] for _, primes in taken] == [exact._prime(1)] * 4 + [exact._prime(2)] * 2


def test_minor_entries_past_2_70_are_decided_as_exactly(sample_n3):
    big = [m.scale(2 ** 70 + 1) for m in sample_n3.minors]
    assert min(m.height() for m in big[1:]) >= 2 ** 70
    assert assert_decided_as_exactly(big, sample_n3.inv0).status == "pass"
    for minors, inv0 in perturbed_draws(big, sample_n3.inv0):
        assert assert_decided_as_exactly(minors, inv0).status == "fail"


def test_the_stated_bound_bounds_the_integer_commutators(monkeypatch, sample_n3):
    # den^2 e_a e_b [H_a, H_b] = N M_a N M_b - N M_b N M_a over the numerators
    taken = spy_primes(monkeypatch)
    for minors, inv0 in perturbed_draws(sample_n3.minors, sample_n3.inv0):
        assert check_pairwise_commute(minors, inv0).status == "fail"
        big_n = inv0.scale(inv0.den)
        ms = [m.scale(m.den) for m in minors[1:]]
        height = max((big_n * a * big_n * b - big_n * b * big_n * a).height()
                     for a, b in itertools.combinations(ms, 2))
        assert 0 < height <= taken[-1][0]


def test_a_seed_1_draw_at_3_3_takes_its_pinned_prime_count(monkeypatch):
    outcome = sample_family(random.Random(1), 3, 3)
    taken = spy_primes(monkeypatch)
    assert check_pairwise_commute(outcome.minors, outcome.inv0).status == "pass"
    assert [len(primes) for _, primes in taken] == [14]


def test_identity_2a_n2_per_leg_and_singular_cases():
    rng = random.Random(23)
    outcome = sample_family(rng, 2, 2)
    rows, _, quotients = suite_rows(outcome)
    assert check_identity_2a(rows, quotients).status == "pass"
    # constant rows: the full bracket is singular, so there is no Delta_0^{-1}
    # to form the quotients with; the inverse reports it, not fudged
    f = QMatrix.from_rows([[1, 1], [0, 1]])
    g = QMatrix.from_rows([[1, 0], [1, 1]])
    with pytest.raises(Singular):
        mat_inverse(bracket([f, g]))
    # repeated rows are singular as well ([f, f] = 0)
    repeated = LegFamily((tuple(rows[1]), tuple(rows[0]), tuple(rows[0])))
    with pytest.raises(Singular):
        mat_inverse(family_minors(repeated)[0])


def test_identity_2b_admissible_legs():
    rng = random.Random(29)
    rows, _, quotients = suite_rows(sample_family(rng, 2, 2))
    assert check_identity_2b(rows, quotients, 1).status == "pass"
    with pytest.raises(ValueError):
        check_identity_2b(rows, quotients, 2)


def test_identity_suite_n3_d2():
    rng = random.Random(31)
    outcome = sample_family(rng, 3, 2)
    rows, rests, quotients = suite_rows(outcome)
    assert check_identity_2a(rows, quotients).status == "pass"
    assert check_identity_2b(rows, quotients, 1).status == "pass"
    assert check_laplace_expansion(rows, outcome.minors[0], rests).status == "pass"
    assert check_main_id(outcome.minors, outcome.inv0).status == "pass"


def test_laplace_expansion_constant_rows():
    # no inverses involved: the expansion holds verbatim for constant rows
    rng = random.Random(37)
    for n in (1, 2, 3):
        fs = [rand_mat(rng) for _ in range(n)]
        rows = [[f] * n for f in fs]
        assert check_laplace_expansion(rows, bracket(fs),
                                       rest_brackets(rows)).status == "pass"


def test_main_id_trivial_equal_indices():
    rng = random.Random(41)
    outcome = sample_family(rng, 2, 2)
    minors, inv0 = outcome.minors, outcome.inv0
    lhs = minors[1] * inv0 * minors[1]
    assert is_zero(lhs - lhs)


def test_constant_leg_trial_inverts_delta0_alone(monkeypatch):
    # every constant-leg draw is singular: all 21 draws invert their 4 x 4
    # Delta_0 = [f_1, f_2] and nothing else, and no per-leg family is built
    sizes = []

    def counting_inverse(m):
        sizes.append(m.rows)
        return mat_inverse(m)

    def per_leg(*args, **kwargs):
        raise AssertionError("the constant-leg trial built a per-leg family")

    monkeypatch.setattr(cli, "mat_inverse", counting_inverse)
    monkeypatch.setattr(ncfam, "family_minors", per_leg)
    monkeypatch.setattr(ncfam, "sample_family", per_leg)
    report = run_scenario(scenario_from_config(
        {"kind": "corollary-legs", "seed": 43, "n": 2, "d": 2, "trials": 1,
         "legs": "constant"}))
    assert [(c.name, c.status) for c in report.checks] == [("singular-reported-t0", "pass")]
    assert sizes == [4] * 21


@pytest.mark.parametrize("kind,n,d", [("identity-suite", 3, 2), ("identity-suite", 4, 2),
                                      ("corollary-legs", 4, 2), ("corollary-legs", 3, 3)])
def test_one_trial_inverts_delta0_once(monkeypatch, kind, n, d):
    sizes = []

    def counting_inverse(m):
        sizes.append(m.rows)
        return mat_inverse(m)

    monkeypatch.setattr(ncfam, "mat_inverse", counting_inverse)
    report = run_scenario(scenario_from_config(
        {"kind": kind, "seed": 1, "n": n, "d": d, "trials": 1}))
    assert report.all_passed()
    assert not any(c.name.startswith("resample-log") for c in report.checks)
    assert sizes == [d ** n]


# ---------------------------------------------------------------------------
# rest_brackets and family_minors (exact.maximal_minors with kron as the
# product) against the n!-term permutation expansion they replaced, kept here
# as the reference.  Each placement is a product of leg embeddings, not a
# Kronecker chain, so the reference shares no expansion with the code.


def bracket_by_permutations(rows, indices, legs, n, d):
    indices, legs = sorted(indices), sorted(legs)
    k = len(indices)
    total = None
    for perm in itertools.permutations(range(k)):
        term = QMatrix.identity(d ** n)
        for t in range(k):
            leg = legs[perm[t]]
            term = term * leg_embed(rows[indices[t]][leg - 1], leg, n)
        if perm_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    if total is None:
        total = QMatrix.identity(d ** n)
    return total


def test_rest_brackets_match_permutation_expansion():
    rng = random.Random(71)
    for n in range(1, 5):
        for d in (1, 2):
            rows = varying_rows(rng, n, n, d, bound=3)
            want = [bracket_by_permutations(rows, [t for t in range(n) if t != i],
                                            list(range(1, n)), n, d)
                    for i in range(n)]
            assert rest_brackets(rows) == want, (n, d)


def test_family_minors_match_permutation_expansion():
    rng = random.Random(73)
    for n in range(0, 5):
        for d in (1, 2):
            fam = LegFamily(tuple(map(tuple, varying_rows(rng, n + 1, n, d, 3))))
            want = [bracket_by_permutations(list(fam.entries),
                                            [r for r in range(n + 1) if r != i],
                                            list(range(1, n + 1)), n, d)
                    for i in range(n + 1)]
            assert family_minors(fam) == want, (n, d)


def rows_of(m, n):
    """n + 1 rows of n copies of m."""
    return tuple((m,) * n for _ in range(n + 1))


@pytest.mark.parametrize("entries,match", [
    (rows_of(QMatrix.identity(1), ncfam.MAX_LEGS + 1), "exceeds"),
    (rows_of(QMatrix.identity(2), 2)[:2] + ((QMatrix.identity(2),),), "legs per row"),
    (rows_of(QMatrix.identity(2), 3)[:3] + ((QMatrix.identity(2),) * 4,), "legs per row"),
    (rows_of(QMatrix.zeros(2, 3), 2), "d x d"),
    (rows_of(QMatrix.identity(2), 2)[:2] + ((QMatrix.identity(2), QMatrix.identity(3)),),
     "d x d"),
    (rows_of(QMatrix.identity(2), 2)[:2] + ((QMatrix.identity(3),) * 2,), "d x d"),
], ids=["above-max-legs", "short-row", "long-row", "not-square", "mixed-in-row",
        "mixed-across-rows"])
def test_leg_family_refuses_bad_shapes(entries, match):
    with pytest.raises(ValueError, match=match):
        LegFamily(entries)


# ---------------------------------------------------------------------------
# Negative controls: one Delta or leg factor off by one in one entry must turn
# each identity check into a failure whose witness names the entry.


def off_by_one(m):
    data = list(m.data)
    data[0] += 1
    return QMatrix(m.rows, m.cols, data)


def perturb_leg(rows, leg):
    """``rows`` with the leg-``leg`` factor of f_1 off by one in one entry."""
    first = list(rows[0])
    first[leg - 1] = off_by_one(first[leg - 1])
    return [first, *rows[1:]]


@pytest.fixture
def sample_n3():
    return sample_family(random.Random(31), 3, 2)


def assert_fails_with_entry(record):
    assert record.status == "fail"
    assert "entry" in record.witness


def test_negative_control_identity_2a(sample_n3):
    rows, _, quotients = suite_rows(sample_n3)
    assert check_identity_2a(rows, quotients).status == "pass"
    # 2a multiplies by f_i on leg n only; the quotients are left as built
    assert_fails_with_entry(check_identity_2a(perturb_leg(rows, 3), quotients))


def test_negative_control_identity_2b(sample_n3):
    rows, _, quotients = suite_rows(sample_n3)
    assert check_identity_2b(rows, quotients, 1).status == "pass"
    assert_fails_with_entry(check_identity_2b(perturb_leg(rows, 1), quotients, 1))


def test_negative_control_laplace_expansion(sample_n3):
    rows, rests, _ = suite_rows(sample_n3)
    full = sample_n3.minors[0]
    assert check_laplace_expansion(rows, full, rests).status == "pass"
    assert_fails_with_entry(check_laplace_expansion(rows, off_by_one(full), rests))


def test_negative_control_laplace_expansion_summed_side(sample_n3):
    # f_1's leg-n factor enters the shared alternating sum only: the rests
    # are built from legs 1..n-1 and the full bracket is left as sampled
    rows, rests, _ = suite_rows(sample_n3)
    record = check_laplace_expansion(perturb_leg(rows, 3), sample_n3.minors[0], rests)
    assert record.name == "laplace-n3" and record.status == "fail"
    assert record.witness.startswith("lhs - rhs: first nonzero entry")


def test_negative_control_main_id(sample_n3):
    minors, inv0 = sample_n3.minors, sample_n3.inv0
    assert check_main_id(minors, inv0).status == "pass"
    perturbed = [off_by_one(m) if i == 1 else m for i, m in enumerate(minors)]
    assert_fails_with_entry(check_main_id(perturbed, inv0))


def test_negative_control_pairwise_commute(sample_n3):
    minors, inv0 = sample_n3.minors, sample_n3.inv0
    assert check_pairwise_commute(minors, inv0).status == "pass"
    perturbed = [off_by_one(m) if i == 1 else m for i, m in enumerate(minors)]
    assert_fails_with_entry(check_pairwise_commute(perturbed, inv0))


def test_negative_control_shared_inverse(sample_n3):
    # the checks trust the Delta_0^{-1} they are handed; a wrong one must
    # not pass 2a, main-id or the commutation of the Hamiltonians built on it
    wrong = off_by_one(sample_n3.inv0)
    rows, rests, _ = suite_rows(sample_n3)
    assert_fails_with_entry(check_identity_2a(rows, [rest * wrong for rest in rests]))
    assert_fails_with_entry(check_main_id(sample_n3.minors, wrong))
    assert_fails_with_entry(check_pairwise_commute(sample_n3.minors, wrong))


# anchor -> its negative control above, for the anchor-coverage test in
# test_negative_controls.py
NEGATIVE_CONTROLS = {
    ncfam.ANCHOR_2A: test_negative_control_identity_2a,
    ncfam.ANCHOR_2B: test_negative_control_identity_2b,
    ncfam.ANCHOR_LAPLACE: test_negative_control_laplace_expansion,
    ncfam.ANCHOR_MAIN_ID: test_negative_control_main_id,
    ncfam.ANCHOR_COMMUTE: test_negative_control_pairwise_commute,
}
