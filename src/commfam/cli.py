"""Scenario runner: seeded verification suites with machine-readable reports.

A scenario is a kind plus a flat parameter map and a seed.  Config files are
plain text, one ``key = value`` per line (``#`` comments allowed); lists are
written in brackets, rationals as ``p/q``.  Example::

    kind = weyl-rational
    seed = 3
    N = 2
    T = d1
    points = [0, 1]
    trials = 5

A bad config raises ``ConfigError`` in ``scenario_from_config``, before any
trial runs.  Each kind has a per-trial function ``(params, rng, t) -> records``;
``run_scenario`` alone seeds each trial through SplitMix64, appends ``-t<k>``
to its record names, turns a declared precondition error of trial k into one
skipped record ``precondition-t<k>``, and with ``--jobs`` fans trials out
across processes.  hbar-localization also runs its one-time checks after
trial 0, with that trial's generator, under untagged names.  Reports are
JSON documents (see ``reports``); identical (kind, params, seed) give
byte-identical reports apart from the duration field, whatever the job
count.

Seed-operator grammar for ``T``: ``d`` or ``d<k>`` for the k-th derivative
(k = 1..8), ``z*d1+<c>`` for the first-order operator z d/dz + c with
rational c.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import __version__, exact, ncfam, poisson, quantize, weyl
from .exact import QMatrix, RatFunc, Singular, det, mat_inverse
from .reports import CheckRecord, Report, emit_report, failed, skipped, verdict
from .rng import resample, trial_rng


class ConfigError(ValueError):
    """A scenario configuration is invalid; the message names the field."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: dict
    seed: int


# ---------------------------------------------------------------------------
# Config parsing.


def _parse_scalar(text: str):
    text = text.strip()
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    return text  # rationals stay strings; runners convert with Fraction


def parse_config_text(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            out[key] = [_parse_scalar(v) for v in inner.split(",")] if inner else []
        else:
            out[key] = _parse_scalar(value)
    return out


def scenario_from_config(config: dict, seed_override: int | None = None,
                         trials_override: int | None = None) -> Scenario:
    config = dict(config)
    kind = config.pop("kind", None)
    if kind is None:
        raise ConfigError("field 'kind' is required")
    if kind not in RUNNERS:
        raise ConfigError(f"field 'kind': unknown scenario kind {kind!r}")
    seed = config.pop("seed", None)
    if seed_override is not None:
        seed = seed_override
    if seed is None:
        raise ConfigError("field 'seed' is required")
    if not isinstance(seed, int):
        raise ConfigError("field 'seed': expected an integer")
    if trials_override is not None:
        config["trials"] = trials_override
    spec = SCENARIO_PARAMS[kind]
    params = {}
    for key, value in config.items():
        if key not in spec:
            raise ConfigError(f"field {key!r}: not a parameter of kind {kind!r}")
        # each parameter has the type of its default; required ones are integers
        expected = int if spec[key] is REQUIRED else type(spec[key])
        if not isinstance(value, expected):
            raise ConfigError(f"field {key!r}: expected {expected.__name__}, got {value!r}")
        params[key] = value
    for key, default in spec.items():
        if key not in params:
            if default is REQUIRED:
                raise ConfigError(f"field {key!r}: required for kind {kind!r}")
            params[key] = default
    _check_params(kind, params)
    return Scenario(kind, params, seed)


# Least and greatest value of each integer parameter (None: unbounded).
# Outside them a trial crashes, never ends (grassmann at bound 0 redraws an
# all-zero form; skew-matrix's det is an O(2^size size) subset expansion, and
# at size 40 its subset dict exhausts memory), or passes without deciding
# anything (n = 1 is one Hamiltonian; d, size, g, N or M = 0 leave nothing to
# check).  One skew-matrix trial took 0.06 s at size 14, 0.3 s at 16 and
# 1.8 s at 18 (2-core Xeon VM), so size stops at 16.  A degree-0 leg function
# is a constant, so no family is ever independent; the classical brackets grow
# steeply with degree: at n = 3 one poisson-classical trial took 0.04 s at
# degree 2 and 0.9 s at 3, one dual-number trial drawing its family 3.0 s at 3;
# at degree 4 one poisson-classical trial took 17.8 s and asked numpy for a
# 1.7 GiB array, at 8 for 33 GiB (2-core Xeon VM), so degree stops at 3.  The
# brackets of n + 1 leg functions grow steeply with n too: one
# poisson-classical trial took 0.04 s at n = 3, and neither it nor a
# dual-number trial gave a result within 60 s at n = 4, so n stops at 3 for
# both.  One hyperplane trial took 0.021, 0.095, 0.468 and 2.43 s at g = 12,
# 14, 16 and 18 (seed 1, 2-core Xeon VM; ``signed_minors`` is O(2^g g)), so g
# stops at 16.  One weyl-rational trial (seed 1, T = d1) took 1.8-2.3 s at
# N = 4 and gave no result within 95 s at N = 5, so N stops at 4 there; one
# weyl-basis trial took 0.9 s at N = 6 and gave no result within 150 s at
# N = 7, so N stops at 6 there (2-core Xeon VM).
PARAM_RANGES = {
    "trials": (1, None), "n": (2, None), "d": (1, None), "size": (1, None),
    "g": (1, None), "N": (1, None), "M": (1, None), "bound": (0, None),
    "family_every": (1, None), "degree": (1, 3),
}
KIND_RANGES = {
    "corollary-legs": {"n": (2, ncfam.MAX_LEGS)},
    "identity-suite": {"n": (2, ncfam.MAX_LEGS)},
    "cone-p1": {"bound": (1, None)},
    "grassmann": {"bound": (1, None)},
    "skew-matrix": {"size": (1, 16)},
    "poisson-classical": {"n": (2, 3)},
    "dual-number": {"n": (2, 3)},
    "hyperplane": {"g": (1, 16)},
    "weyl-rational": {"N": (1, 4)},
    "weyl-basis": {"N": (1, 6)},
}
# Without configured points, weyl-rational and weyl-basis draw N distinct
# integers in [-POINT_BOUND, POINT_BOUND]; the caps on N leave room for them.
POINT_BOUND = 6
# corollary-legs and identity-suite work on d^n x d^n matrices, so d^n stops
# at MAX_LEG_DIM.  One corollary-legs trial at d^n = 64 took 12.7 s at n = 6,
# d = 2 and 0.6 s at n = 2, d = 8; past the cap it took 9.3 s at n = 4,
# d = 3 (81) and 2.7 s at n = 2, d = 10 (100), and the matrices grow with no
# bound in d (2-core Xeon VM).
MAX_LEG_DIM = 64


def _check_params(kind: str, params: dict) -> None:
    """The checks of one kind's parameters that need no random draw."""
    for key, (least, greatest) in {**PARAM_RANGES, **KIND_RANGES.get(kind, {})}.items():
        if key not in params:
            continue
        if params[key] < least:
            raise ConfigError(f"field {key!r}: must be at least {least}")
        if greatest is not None and params[key] > greatest:
            raise ConfigError(f"field {key!r}: must be at most {greatest}")
    if kind in ("corollary-legs", "identity-suite") and params["d"] ** params["n"] > MAX_LEG_DIM:
        raise ConfigError(f"field 'd': d^n must be at most {MAX_LEG_DIM}, "
                          f"got {params['d']}^{params['n']}")
    # n + 1 leg functions of degree <= D in (x, xi) lie in a space of
    # dimension (D+1)(D+2)/2, so past it every draw is dependent
    if "degree" in params:
        n, degree = params["n"], params["degree"]
        if n + 1 > (degree + 1) * (degree + 2) // 2:
            raise ConfigError(f"field 'degree': n + 1 = {n + 1} leg functions of degree "
                              f"at most {degree} are never independent")
    if kind == "grassmann":
        if params["arity"] not in (2, 3, 4):
            raise ConfigError("field 'arity': supported arities are 2, 3, 4")
        if params["dim"] < params["arity"]:
            raise ConfigError("field 'dim': must be at least the arity")
    elif kind == "corollary-legs" and params["legs"] not in ("varying", "constant"):
        raise ConfigError("field 'legs': expected varying or constant")
    elif kind == "hbar-localization":
        _localized_element(params["f"])
    elif "T" in params:  # weyl-rational, weyl-basis
        T = parse_operator_spec(params["T"])
        if params["points"]:
            try:
                if len(params["points"]) != params["N"]:
                    raise ValueError("need one point per leg")
                weyl.OpFamilySpec(params["points"], T)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                # not rationals, a zero denominator, wrong count, repeated
                raise ConfigError(f"field 'points': {exc} (N = {params['N']})") from exc


def load_scenario(path, seed_override=None, trials_override=None) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return scenario_from_config(parse_config_text(handle.read()),
                                    seed_override, trials_override)


def parse_operator_spec(text: str) -> weyl.RatDiffOp:
    """One-variable seed operators: ``d``/``d<k>`` or ``z*d1+<c>``."""
    s = str(text).replace(" ", "")
    m = re.fullmatch(r"d(\d*)", s)
    if m:
        order = int(m.group(1)) if m.group(1) else 1
        # one weyl-rational trial (seed 1) took 5.3 s with d2 and 8.2 s with
        # d8 at N = 4, and 0.5 s with d16 and 14.4 s with d48 at N = 3 (2-core
        # Xeon VM); at N = 2, d1023 and d1024 overflowed the 10-bit exponent
        # packing.  So the order stops at 8.
        if not 1 <= order <= 8:
            raise ConfigError(f"field 'T': derivative order must be 1 to 8, got {order}")
        return weyl.RatDiffOp.partial(1, 1, order)
    m = re.fullmatch(r"z\*?d1?\+(-?\d+(?:/0*[1-9]\d*)?)", s)  # no zero denominator
    if m:
        c = Fraction(m.group(1))
        z = RatFunc.var(1, 0)
        zd = weyl.do_compose(weyl.RatDiffOp.multiplication(z),
                             weyl.RatDiffOp.partial(1, 1))
        return zd + weyl.RatDiffOp.multiplication(RatFunc.const(1, c))
    raise ConfigError(f"field 'T': cannot parse operator spec {text!r}")


def _localized_element(text) -> RatFunc:
    """The localized element f of hbar-localization: ``x`` or ``x^2+1``."""
    f_text = str(text).replace(" ", "")
    z = RatFunc.var(1, 0)
    if f_text == "x":
        return z
    if f_text in ("x^2+1", "x**2+1"):
        return z * z + RatFunc.const(1, 1)
    raise ConfigError(f"field 'f': supported localized elements are x and x^2+1, got {text!r}")


# ---------------------------------------------------------------------------
# Per-trial runners.  Each takes the validated params, the trial's own
# generator and the trial index, and returns that trial's records with
# untagged names; ``run_scenario`` appends the ``-t<k>`` suffix.


def _resample_log(anchor: str, resamples: int, found: bool) -> list[CheckRecord]:
    """The record of a trial that had to redraw its family; none otherwise."""
    if not resamples:
        return []
    return [CheckRecord("resample-log", anchor, "pass" if found else "fail",
                        f"resamples = {resamples}")]


def _trial_skew_matrix(params, rng, t) -> list[CheckRecord]:
    size, bound = params["size"], params["bound"]
    m = QMatrix(size, size, [rng.randint(-bound, bound) for _ in range(size * size)])
    if det(m) == 0:
        try:
            mat_inverse(m)
        except Singular:
            witness = None
        else:
            witness = "inverse returned for a singular matrix"
        return [verdict("inverse", "det(m) = 0 => Singular", witness)]
    inv = mat_inverse(m)
    return [verdict("inverse", "m m^-1 = m^-1 m = 1",
                    None if m * inv == QMatrix.identity(size) == inv * m
                    else "product is not the identity")]


def _trial_identity_suite(params, rng, t) -> list[CheckRecord]:
    n = params["n"]
    outcome = ncfam.sample_family(rng, n, params["d"], params["bound"])
    records = _resample_log("invertible [f_1..f_n] found", outcome.resamples,
                            outcome.family is not None)
    if outcome.family is None:
        return records + [failed("identity-suite", "precondition",
                                 f"no invertible bracket after {outcome.resamples} draws")]
    # Delta_0 = [f_1..f_n] and its inverse come from the sample; the checks
    # share each rest bracket and its quotient by Delta_0
    minors, inv0 = outcome.minors, outcome.inv0
    fs = [list(outcome.family.entries[i]) for i in range(1, n + 1)]
    rests = ncfam.rest_brackets(fs)
    quotients = [rest * inv0 for rest in rests]
    records.append(ncfam.check_identity_2a(fs, quotients))
    admissible = list(range(1, n - 1)) if n >= 3 else [1]
    records.extend(ncfam.check_identity_2b(fs, quotients, a) for a in admissible)
    records.append(ncfam.check_laplace_expansion(fs, minors[0], rests))
    records.append(ncfam.check_main_id(minors, inv0))
    return records


def _trial_corollary_legs(params, rng, t) -> list[CheckRecord]:
    n, d, bound = params["n"], params["d"], params["bound"]
    if params["legs"] == "constant":
        # structural: with f_0..f_n constant across legs, Delta_0 is the
        # bracket [f_1..f_n], singular for every draw; the required behaviour
        # is an explicit Singular report
        def attempt():
            fs = [ncfam.random_matrix(rng, d, bound) for _ in range(n + 1)]
            return mat_inverse(ncfam.bracket(fs[1:]))

        inv0, resamples = resample(attempt, Singular, retries=20)
        return [verdict("singular-reported", "constant-leg Delta_0 raises Singular",
                        None if inv0 is None
                        else f"Delta_0 inverted after {resamples} singular draws")]
    outcome = ncfam.sample_family(rng, n, d, bound)
    if outcome.family is None:
        return [failed("commute", ncfam.ANCHOR_COMMUTE,
                       f"Delta_0 singular for all {outcome.resamples} draws")]
    return (_resample_log("invertible Delta_0 found", outcome.resamples, True)
            + [ncfam.check_pairwise_commute(outcome.minors, outcome.inv0)])


def _random_poly_2vars(rng, degree, bound) -> RatFunc:
    terms = {}
    for dx in range(degree + 1):
        for dxi in range(degree + 1 - dx):
            c = rng.randint(-bound, bound)
            if c:
                terms[(dx, dxi)] = c
    if not terms:
        terms[(0, 0)] = 1
    return RatFunc(exact.MPoly.from_terms(2, terms))


def _classical_family(rng, n, degree, bound, retries):
    """Draw n + 1 leg functions until they are independent with Delta_0 != 0:
    ``((fs, hs) or None, rejected draws)``."""
    def attempt():
        fs = [_random_poly_2vars(rng, degree, bound) for _ in range(n + 1)]
        return fs, poisson.classical_hamiltonians(fs)

    return resample(attempt, (poisson.DependentFamily, poisson.ZeroDelta0), retries)


def _trial_poisson_classical(params, rng, t) -> list[CheckRecord]:
    drawn, rejected = _classical_family(rng, params["n"], params["degree"],
                                        params["bound"], retries=20)
    records = _resample_log("independent family with Delta_0 != 0", rejected,
                            drawn is not None)
    if drawn is None:
        return records + [failed("poisson-commute", poisson.ANCHOR_POISSON_COMMUTE,
                                 f"no usable family after {rejected} draws")]
    return records + [poisson.check_poisson_commute(drawn[1])]


def _trial_grassmann(params, rng, t) -> list[CheckRecord]:
    arity, dim, bound = params["arity"], params["dim"], params["bound"]
    form = poisson.random_decomposable(rng, dim, arity, bound)
    vectors = [poisson.random_vector(rng, dim, bound) for _ in range(arity + 2)]
    return [poisson.check_grassmann(form, vectors)]


def _trial_hyperplane(params, rng, t) -> list[CheckRecord]:
    g, bound = params["g"], params["bound"]

    def attempt():
        points = [[rng.randint(-bound, bound) for _ in range(g)] for _ in range(g)]
        return points, poisson.hyperplane_coefficients(points)

    drawn, rejected = resample(attempt, poisson.ZeroDelta0, retries=20)
    records = _resample_log("points in general position found", rejected,
                            drawn is not None)
    if drawn is None:
        return records + [failed("hyperplane", poisson.ANCHOR_INCIDENCE,
                                 f"degenerate points in all {rejected} draws")]
    return records + [poisson.check_hyperplane_incidence(*drawn)]


def _random_cone_diff(rng, bound) -> poisson.ConeDifferential:
    weight = rng.randint(-2, 3)
    num = exact.MPoly.from_terms(1, [((e,), rng.randint(-bound, bound)) for e in range(3)])
    if num.is_zero:
        num = exact.MPoly.one(1)
    den_choice = rng.randint(0, 2)
    den = exact.MPoly.one(1)
    if den_choice == 1:
        den = exact.MPoly.from_terms(1, {(1,): 1, (0,): rng.randint(1, bound)})
    return poisson.ConeDifferential(RatFunc(num, den), weight)


def _trial_cone_p1(params, rng, t) -> list[CheckRecord]:
    bound = params["bound"]
    z = RatFunc.var(1, 0)
    w1 = _random_cone_diff(rng, bound)
    w2 = _random_cone_diff(rng, bound)
    alphas = [
        poisson.ConeDifferential(RatFunc.const(1, 1), 1),
        poisson.ConeDifferential(z + RatFunc.const(1, rng.randint(1, bound)), 1),
        poisson.ConeDifferential(z * z + RatFunc.const(1, 1), 1),
    ]
    brackets = [poisson.cone_bracket(w1, w2, alpha) for alpha in alphas]
    records = [poisson.check_alpha_independence(brackets),
               poisson.check_cone_antisymmetry(w1, alphas[0])]
    w3 = _random_cone_diff(rng, bound)
    return records + [poisson.check_cone_jacobi(w1, w2, w3, alphas[0]),
                      poisson.check_cone_vs_canonical(brackets[1], w1, w2)]


def _trial_dual_number(params, rng, t) -> list[CheckRecord]:
    n, degree, bound = params["n"], params["degree"], params["bound"]
    elems = []
    for _ in range(3):
        body = _random_poly_2vars(rng, degree, bound).embed(2 * n, [0, 1])
        soul = _random_poly_2vars(rng, degree, bound).embed(2 * n, [0, 1])
        elems.append(quantize.DualNum(body, soul))
    a, b, c = elems
    records = [quantize.check_dual_assoc(a, b, c),
               quantize.check_soul_factor(a.body, b.body)]
    if t % params["family_every"] == 0:
        drawn, rejected = _classical_family(rng, n, degree, bound, retries=19)
        if drawn is None:
            records.append(failed("dual-family", quantize.ANCHOR_DUAL_COMM,
                                  f"no usable family after {rejected} draws"))
        else:
            records.extend(quantize.dual_commuting_family(*drawn))
    return records


def _distinct_points(rng, count) -> list[int]:
    points: set[int] = set()
    while len(points) < count:
        points.add(rng.randint(-POINT_BOUND, POINT_BOUND))
    return sorted(points)


def _op_family_spec(params, rng) -> weyl.OpFamilySpec:
    """The configured marked points, or N distinct ones drawn, with seed T."""
    points = params["points"] or _distinct_points(rng, params["N"])
    return weyl.OpFamilySpec(points, parse_operator_spec(params["T"]))


def _trial_weyl_rational(params, rng, t) -> list[CheckRecord]:
    spec = _op_family_spec(params, rng)
    hs = weyl.rational_hamiltonians(spec)
    records = [weyl.check_commute(hs)]
    if params["symbols"]:
        records.extend(weyl.check_symbol_matches_classical(hs, spec))
    return records


def _trial_weyl_basis(params, rng, t) -> list[CheckRecord]:
    spec = _op_family_spec(params, rng)
    records = weyl.check_basis_matches_closed_form(spec)
    one = RatFunc.const(1, 1)
    z = RatFunc.var(1, 0)
    f = one / (z - RatFunc.const(1, spec.points[0]))
    # det(f_i(z_j)) vanishes for a repeated function; with one function, only
    # the zero function makes it vanish.
    degenerate = [f] * spec.N if spec.N > 1 else [f * 0]
    try:
        weyl.hamiltonians_from_basis(degenerate, spec.T)
    except weyl.ZeroPhi:
        witness = None
    else:
        witness = "degenerate basis accepted"
    return records + [verdict("zero-phi", "repeated f_i => ZeroPhi", witness)]


def _trial_hbar_localization(params, rng, t) -> list[CheckRecord]:
    f = quantize.HElem.function(_localized_element(params["f"]), params["M"])
    return quantize.check_localization_axioms(f, rng)


def _trial_zero_hbar_localization(params, rng) -> list[CheckRecord]:
    """One-time checks: they run once, after trial 0 with its generator, so
    ``--jobs`` cannot duplicate them, and keep their untagged names."""
    trunc = params["M"]
    f = quantize.HElem.function(_localized_element(params["f"]), trunc)
    records = [quantize.check_x_derivative_identity(trunc)]
    g = quantize.random_helem(rng, trunc)
    records.append(quantize.check_lift_independence(f, g))
    a = quantize.random_helem(rng, trunc)
    b = quantize.random_helem(rng, trunc)
    records.append(quantize.check_degeneration(a, b))
    return records


REQUIRED = object()

SCENARIO_PARAMS: dict[str, dict] = {
    "skew-matrix": {"size": 8, "trials": 5, "bound": 9},
    "corollary-legs": {"n": REQUIRED, "d": REQUIRED, "trials": 10, "bound": 5,
                       "legs": "varying"},
    "identity-suite": {"n": REQUIRED, "d": REQUIRED, "trials": 10, "bound": 5},
    "poisson-classical": {"n": REQUIRED, "degree": 2, "trials": 20, "bound": 5},
    "grassmann": {"arity": REQUIRED, "dim": 6, "trials": 100, "bound": 5},
    "hyperplane": {"g": REQUIRED, "trials": 20, "bound": 7},
    "cone-p1": {"trials": 20, "bound": 4},
    "dual-number": {"n": REQUIRED, "degree": 2, "trials": 50, "bound": 4,
                    "family_every": 10},
    "weyl-rational": {"N": REQUIRED, "T": "d1", "points": [], "trials": 10,
                      "symbols": 1},
    "weyl-basis": {"N": REQUIRED, "T": "d1", "points": [], "trials": 5},
    "hbar-localization": {"f": "x", "M": 5, "trials": 20},
}

RUNNERS = {
    "skew-matrix": _trial_skew_matrix,
    "corollary-legs": _trial_corollary_legs,
    "identity-suite": _trial_identity_suite,
    "poisson-classical": _trial_poisson_classical,
    "grassmann": _trial_grassmann,
    "hyperplane": _trial_hyperplane,
    "cone-p1": _trial_cone_p1,
    "dual-number": _trial_dual_number,
    "weyl-rational": _trial_weyl_rational,
    "weyl-basis": _trial_weyl_basis,
    "hbar-localization": _trial_hbar_localization,
}

# Errors a library function raises when a drawn sample breaks a stated
# hypothesis.  The trial that raises one becomes a single skipped record.
DECLARED_ERRORS = (Singular, poisson.DependentFamily, poisson.ZeroDelta0,
                   poisson.ZeroAlpha, weyl.ZeroOperator, weyl.ZeroPhi,
                   quantize.ZeroBody, quantize.TruncationMismatch)


def _run_trials(kind: str, params: dict, seed: int,
                trials) -> list[tuple[int, list[CheckRecord]]]:
    """``(t, records)`` for each trial t, every trial with its own generator."""
    out = []
    for t in trials:
        rng = trial_rng(seed, t)
        try:
            records = [replace(r, name=f"{r.name}-t{t}")
                       for r in RUNNERS[kind](params, rng, t)]
            if t == 0 and kind == "hbar-localization":
                records += _trial_zero_hbar_localization(params, rng)
        except DECLARED_ERRORS as exc:
            records = [skipped(f"precondition-t{t}", "declared error surfaced",
                               f"{type(exc).__name__}: {exc}")]
        out.append((t, records))
    return out


def run_scenario(scenario: Scenario, jobs: int = 1) -> Report:
    """Execute a scenario deterministically; a trial whose sample breaks a
    precondition gives one skipped record, never an exception."""
    start = time.monotonic()
    trials = range(scenario.params["trials"])
    job = (scenario.kind, scenario.params, scenario.seed)
    if jobs > 1 and len(trials) > 1:
        # imported here: the process pool costs an import of
        # concurrent.futures.process that a one-process run never uses
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(trials))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = [pool.submit(_run_trials, *job, trials[i::workers])
                      for i in range(workers)]
            by_trial = sorted((pair for chunk in chunks for pair in chunk.result()),
                              key=lambda pair: pair[0])
    else:
        by_trial = _run_trials(*job, trials)
    duration_ms = int((time.monotonic() - start) * 1000)
    return Report(scenario={"kind": scenario.kind, "params": scenario.params,
                            "seed": scenario.seed},
                  seed=scenario.seed,
                  checks=[r for _, records in by_trial for r in records],
                  duration_ms=duration_ms, version=__version__)


# ---------------------------------------------------------------------------
# The acceptance grid: rows (criterion, kind, params).  ``--verify-all`` runs
# every row at one seed; acceptance test k runs criterion k's rows at seed
# 101 k.  The trailing skew-matrix row belongs to no criterion.

_LEG_GRID = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))

ACCEPTANCE_GRID: tuple[tuple[int | None, str, dict], ...] = (
    *((1, "corollary-legs", {"n": n, "d": d, "trials": 30}) for n, d in _LEG_GRID),
    *((2, "identity-suite", {"n": n, "d": 2, "trials": 10}) for n in (2, 3, 4)),
    # fresh samples for the per-leg generalization, plus the structural
    # singular witness (constant legs) that must be reported, never passed
    *((3, "corollary-legs", {"n": n, "d": d, "trials": 30}) for n, d in _LEG_GRID),
    (3, "corollary-legs", {"n": 2, "d": 2, "trials": 3, "legs": "constant"}),
    *((4, "poisson-classical", {"n": n, "trials": 20}) for n in (2, 3)),
    *((5, "grassmann", {"arity": arity, "dim": 6, "trials": 100})
      for arity in (2, 3, 4)),
    *((6, "hyperplane", {"g": g, "trials": 20}) for g in (1, 2, 3, 4)),
    (7, "dual-number", {"n": 2, "trials": 50}),
    (7, "dual-number", {"n": 3, "trials": 10, "family_every": 5}),
    *((8, "weyl-rational", {"N": N, "T": T, "trials": 10})
      for N in (2, 3) for T in ("d1", "d2", "z*d1+1")),
    *((9, "weyl-basis", {"N": N, "trials": 5}) for N in (2, 3)),
    *((10, "hbar-localization", {"f": f, "M": M, "trials": 20})
      for f in ("x", "x^2+1") for M in (3, 4, 5)),
    (11, "cone-p1", {"trials": 20}),
    (None, "skew-matrix", {"trials": 5}),
)


def verify_all_scenarios(seed: int = 1, criterion: int | None = None) -> list[Scenario]:
    """The grid's rows at ``seed``, or only criterion ``criterion``'s.  A row
    repeating an earlier one (criterion 3 re-runs criterion 1's grid) draws
    fresh samples at seed + 1."""
    out: list[Scenario] = []
    for number, kind, params in ACCEPTANCE_GRID:
        if criterion in (None, number):
            scenario = scenario_from_config({"kind": kind, "seed": seed, **params})
            if scenario in out:
                scenario = scenario_from_config({"kind": kind, "seed": seed + 1, **params})
            out.append(scenario)
    return out


# ---------------------------------------------------------------------------
# Entry point.


def _print_summary(report: Report) -> None:
    counts = report.counts()
    kind = report.scenario["kind"]
    for check in report.checks:
        if check.status != "pass":
            print(f"  {check.status.upper():7s} {check.name}: {check.witness}")
    print(f"{kind}: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['skipped']} skipped ({report.duration_ms} ms)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="commfam",
        description="Seeded exact verification of commuting Hamiltonian families.")
    parser.add_argument("--verify-all", action="store_true",
                        help="run the full acceptance sweep across all scenario kinds")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the trials of each scenario "
                             "(--verify-all runs its scenarios one after another)")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run one scenario from a config file")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--out", default=None, help="write the JSON report here")
    run_p.add_argument("--trials", type=int, default=None,
                       help="override the trial count")
    # given after ``run``, these override the top-level options
    run_p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    run_p.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    sub.add_parser("list-scenarios", help="list scenario kinds and parameters")
    args = parser.parse_args(argv)

    if args.verify_all:
        all_ok = True
        for scenario in verify_all_scenarios(seed=args.seed if args.seed is not None else 1):
            report = run_scenario(scenario, jobs=args.jobs)
            _print_summary(report)
            all_ok = all_ok and report.all_passed()
        print("VERIFY-ALL:", "PASS" if all_ok else "FAIL")
        return 0 if all_ok else 1

    if args.command == "list-scenarios":
        for kind in sorted(SCENARIO_PARAMS):
            spec = SCENARIO_PARAMS[kind]
            rendered = ", ".join(
                f"{k} (required)" if v is REQUIRED else f"{k}={v!r}"
                for k, v in spec.items())
            print(f"{kind}: {rendered}")
        return 0

    if args.command == "run":
        try:
            scenario = load_scenario(args.config, seed_override=args.seed,
                                     trials_override=args.trials)
            report = run_scenario(scenario, jobs=args.jobs)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if args.out:
            emit_report(report, args.out)
        _print_summary(report)
        return 0 if report.all_passed() else 1

    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
