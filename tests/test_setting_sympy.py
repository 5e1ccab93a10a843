"""Setting-layer oracles outside the exact tower (test-only; skipped when
sympy is missing): sympy rebuilds the inputs a report's checks drew, read
through their public ``terms()``, and re-decides the report's identity with
its own arithmetic, so no verdict rests on ``exact`` alone.

Dual numbers: each family that the dual-number scenario draws at n = 2 is
rebuilt in sympy's polynomial ring Z[x_1, xi_1, x_2, xi_2].  An element of
the eps-algebra maps each power of eps to a quotient num / D^k, where D is
the body of Delta_0, and the eps-product u.v = uv + eps {u, v} drops every
term of eps^2 or higher without forming it.  Brackets differentiate by
``PolyElement.diff`` and the quotient rule.  No gcd is taken, so
[H_1, H_2] = 0 exactly when the numerator of its body and of its soul is
the zero polynomial.  (Cancelling each quotient as it is formed, in sympy's
fraction field, takes about 1.2 s per family; the expression tree with one
``sympy.cancel`` at the end, minutes.)
"""

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.rings import ring

from commfam import cli, quantize
from commfam.exact import RatFunc

N = 2
RING, *GENS = ring("x1 xi1 x2 xi2", sympy.ZZ)
# leg j holds the pair (x_j, xi_j)
LEGS = [GENS[2 * j:2 * j + 2] for j in range(N)]


def leg_polynomial(f: RatFunc, leg):
    """A polynomial of one (x, xi) pair with integer coefficients, placed on
    ``leg``; the draws are polynomials, and a ``Fraction`` fails ``ZZ``."""
    assert f.is_polynomial()
    x, xi = leg
    return sum((sympy.ZZ.convert(c) * x ** ex * xi ** exi for (ex, exi), c in f.num.terms()),
               RING.zero)


class EpsAlgebra:
    """Dual numbers {eps power: (num, k)} over the quotients num / D^k."""

    def __init__(self, D):
        self.D = D

    def add(self, a, b):
        (n, k), (m, j) = a, b
        top = max(k, j)
        return n * self.D ** (top - k) + m * self.D ** (top - j), top

    def mul(self, a, b):
        return a[0] * b[0], a[1] + b[1]

    def diff(self, a, x):
        """d(n / D^k) = (n' D - k n D') / D^(k+1)."""
        n, k = a
        if k == 0:
            return n.diff(x), 0
        return n.diff(x) * self.D - k * n * self.D.diff(x), k + 1

    def bracket(self, a, b):
        """The canonical bracket, {x_j, xi_j} = +1."""
        out = RING.zero, 0
        for x, xi in LEGS:
            n, k = self.mul(self.diff(a, xi), self.diff(b, x))
            out = self.add(out, self.add(self.mul(self.diff(a, x), self.diff(b, xi)), (-n, k)))
        return out

    def product(self, u, v):
        """u.v = uv + eps {u, v}, with eps^2 = 0."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for power, op in ((i + j, self.mul), (i + j + 1, self.bracket)):
                    if power < 2:
                        term = op(a, b)
                        out[power] = self.add(out[power], term) if power in out else term
        return out

    def sub(self, u, v):
        out = dict(u)
        for power, (n, k) in v.items():
            out[power] = self.add(out[power], (-n, k)) if power in out else (-n, k)
        return out


def commutator_vanishes(fs: list[RatFunc]) -> bool:
    """Build H_i = Delta_0^{-1} Delta_i from the n + 1 = 3 leg functions in
    the eps-algebra and decide H_1.H_2 - H_2.H_1 = 0."""
    lifts = [[{0: (leg_polynomial(f, leg), 0)} for leg in LEGS] for f in fs]
    polynomials = EpsAlgebra(RING.one)
    minors = []
    for skip in range(N + 1):
        top, bottom = (lifts[r] for r in range(N + 1) if r != skip)
        minors.append(polynomials.sub(polynomials.product(top[0], bottom[1]),
                                      polynomials.product(bottom[0], top[1])))
    (D, _), soul = minors[0][0], minors[0].get(1, (RING.zero, 0))
    algebra = EpsAlgebra(D)
    # the eps-series of 1 / (D + eps s), cut at eps^2: 1/D - eps s/D^2
    inverse = {0: (RING.one, 1), 1: (-soul[0], 2)}
    h1, h2 = (algebra.product(inverse, minor) for minor in minors[1:])
    comm = algebra.sub(algebra.product(h1, h2), algebra.product(h2, h1))
    return all(num == 0 for num, _ in comm.values())


def test_eps_oracle_sees_the_bracket_in_a_commutator():
    # x_1.xi_1 - xi_1.x_1 = 2 eps {x_1, xi_1} = 2 eps
    x, xi = LEGS[0]
    algebra = EpsAlgebra(RING.one)
    u, v = {0: (x, 0)}, {0: (xi, 0)}
    comm = algebra.sub(algebra.product(u, v), algebra.product(v, u))
    assert comm == {0: (RING.zero, 0), 1: (2 * RING.one, 0)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sympy_redecides_each_dual_number_family(monkeypatch, seed):
    drawn = []
    original = quantize.dual_commuting_family

    def recording(fs, classical):
        drawn.append(fs)
        return original(fs, classical)

    monkeypatch.setattr(quantize, "dual_commuting_family", recording)
    report = cli.run_scenario(cli.scenario_from_config(
        {"kind": "dual-number", "seed": seed, "n": N}))
    verdicts = [r.status for r in report.checks if r.name.startswith("dual-commutator-12-")]
    assert len(drawn) == len(verdicts) == 5  # trials 50, a family every 10th
    assert verdicts == ["pass" if commutator_vanishes(fs) else "fail" for fs in drawn]
