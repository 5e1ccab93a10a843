"""Scenario runner: configs, dispatch, reports, determinism, exit codes."""

import json

import pytest

from commfam import cli, poisson
from commfam.cli import (ConfigError, parse_config_text, parse_operator_spec,
                         run_scenario, scenario_from_config)
from commfam.exact import QMatrix
from commfam.reports import emit_report, parse_report
from commfam.rng import resample


def make_scenario(kind, seed=1, **params):
    return scenario_from_config({"kind": kind, "seed": seed, **params})


def test_parse_config_text():
    text = """
    # a comment
    kind = grassmann
    seed = 7
    arity = 4
    dim = 6          # trailing comment
    points = [0, 1, -3]
    ratio = 2/3
    name = hello
    empty = []
    """
    out = parse_config_text(text)
    assert out["kind"] == "grassmann"
    assert out["seed"] == 7
    assert out["points"] == [0, 1, -3]
    assert out["ratio"] == "2/3"
    assert out["name"] == "hello"
    assert out["empty"] == []


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("just some words")
    with pytest.raises(ConfigError):
        parse_config_text("= 3")


def test_scenario_validation():
    with pytest.raises(ConfigError):
        scenario_from_config({"seed": 1})
    with pytest.raises(ConfigError):
        scenario_from_config({"kind": "no-such-kind", "seed": 1})
    with pytest.raises(ConfigError):
        scenario_from_config({"kind": "grassmann", "seed": 1})  # arity required
    with pytest.raises(ConfigError):
        scenario_from_config({"kind": "grassmann", "seed": 1, "arity": 2,
                              "bogus": 5})
    with pytest.raises(ConfigError):
        scenario_from_config({"kind": "grassmann", "arity": 2})  # seed required
    s = scenario_from_config({"kind": "grassmann", "seed": 1, "arity": 2})
    assert s.params["dim"] == 6 and s.params["trials"] == 100


def test_parse_operator_spec():
    d1 = parse_operator_spec("d1")
    assert d1.order() == 1 and d1 == parse_operator_spec("d")
    d2 = parse_operator_spec("d2")
    assert d2.order() == 2
    zd = parse_operator_spec("z*d1+1/2")
    assert zd.order() == 1
    assert (0,) in zd.coeffs and (1,) in zd.coeffs
    with pytest.raises(ConfigError):
        parse_operator_spec("e3")
    with pytest.raises(ConfigError):
        parse_operator_spec("d0")


SMOKE = [
    ("skew-matrix", {"size": 4, "trials": 2}),
    ("corollary-legs", {"n": 2, "d": 2, "trials": 2}),
    ("corollary-legs", {"n": 2, "d": 2, "trials": 2, "legs": "constant"}),
    ("identity-suite", {"n": 2, "d": 2, "trials": 2}),
    ("poisson-classical", {"n": 2, "trials": 2}),
    ("grassmann", {"arity": 3, "dim": 5, "trials": 3}),
    ("hyperplane", {"g": 2, "trials": 3}),
    ("cone-p1", {"trials": 2}),
    ("dual-number", {"n": 2, "trials": 3, "family_every": 3}),
    ("weyl-rational", {"N": 2, "T": "d1", "trials": 2}),
    ("weyl-basis", {"N": 2, "trials": 1}),
    ("hbar-localization", {"f": "x", "M": 3, "trials": 2}),
]


@pytest.mark.parametrize("kind,params", SMOKE, ids=[f"{k}-{i}" for i, (k, _) in enumerate(SMOKE)])
def test_every_scenario_kind_passes(kind, params):
    report = run_scenario(make_scenario(kind, **params))
    assert report.checks, "scenario produced no checks"
    assert report.all_passed(), [c for c in report.checks if c.status != "pass"]
    assert report.version


def test_report_round_trip(tmp_path):
    report = run_scenario(make_scenario("grassmann", arity=2, dim=4, trials=3))
    path = tmp_path / "report.json"
    emit_report(report, path)
    back = parse_report(path)
    assert back == report


def test_emit_report_unwritable_path(tmp_path):
    report = run_scenario(make_scenario("grassmann", arity=2, dim=4, trials=1))
    with pytest.raises(OSError):
        emit_report(report, tmp_path / "no-such-dir" / "report.json")


def test_empty_report_round_trip(tmp_path):
    from commfam.reports import Report
    empty = Report(scenario={"kind": "grassmann", "params": {}, "seed": 0},
                   seed=0, checks=[], duration_ms=0, version="0.1.0")
    path = tmp_path / "empty.json"
    emit_report(empty, path)
    assert parse_report(path) == empty


def test_report_determinism_modulo_duration():
    s = make_scenario("poisson-classical", n=2, trials=3, seed=9)
    a = run_scenario(s)
    b = run_scenario(s)
    a.duration_ms = b.duration_ms = 0
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("kind,params", SMOKE, ids=[f"{k}-{i}" for i, (k, _) in enumerate(SMOKE)])
def test_jobs_preserve_records(kind, params):
    s = make_scenario(kind, seed=5, **params)
    serial = run_scenario(s, jobs=1)
    parallel = run_scenario(s, jobs=2)
    serial.duration_ms = parallel.duration_ms = 0
    assert serial.to_json() == parallel.to_json()


@pytest.mark.parametrize("jobs", [1, 2])
def test_declared_error_skips_only_its_trial(monkeypatch, jobs):
    s = make_scenario("grassmann", arity=2, dim=4, trials=5, seed=5)
    clean = run_scenario(s).checks
    runner = cli.RUNNERS["grassmann"]

    def raise_at_trial_3(params, rng, t):
        if t == 3:
            raise poisson.ZeroDelta0("injected at trial 3")
        return runner(params, rng, t)

    # worker processes are forked after the patch, so they see it too
    monkeypatch.setitem(cli.RUNNERS, "grassmann", raise_at_trial_3)
    checks = run_scenario(s, jobs=jobs).checks
    assert [c.name for c in checks] == ["grassmann-2-t0", "grassmann-2-t1",
                                        "grassmann-2-t2", "precondition-t3",
                                        "grassmann-2-t4"]
    assert checks[3].status == "skipped"
    assert checks[3].witness == "ZeroDelta0: injected at trial 3"
    assert checks[:3] + checks[4:] == clean[:3] + clean[4:]


@pytest.mark.parametrize("kind,params,witness", [
    ("poisson-classical", {"n": 2}, "no usable family after 21 draws"),
    ("hyperplane", {"g": 2}, "degenerate points in all 21 draws"),
    ("identity-suite", {"n": 2, "d": 2}, "no invertible bracket after 21 draws"),
], ids=["poisson-classical", "hyperplane", "identity-suite"])
def test_exhaustion_witness_states_the_draw_count(kind, params, witness):
    # bound = 0 makes every draw degenerate: the budget of 21 draws is spent
    report = run_scenario(make_scenario(kind, bound=0, trials=1, **params))
    log, verdict = report.checks
    assert (log.name, log.status, log.witness) == ("resample-log-t0", "fail",
                                                   "resamples = 21")
    assert verdict.status == "fail" and verdict.witness == witness


def test_zero_phi_record_passes_on_the_zero_function_at_n1():
    # one function makes det(f_i(z_j)) vanish only if it is zero
    report = run_scenario(make_scenario("weyl-basis", N=1, trials=1))
    assert report.checks[-1].name == "zero-phi-t0"
    assert report.checks[-1].status == "pass"


@pytest.mark.parametrize("N", [1, 2])
def test_zero_phi_record_fails_when_degenerate_basis_is_accepted(monkeypatch, N):
    original = cli.weyl.hamiltonians_from_basis

    def never_raises_zero_phi(fs, T):
        try:
            return original(fs, T)
        except cli.weyl.ZeroPhi:
            return []

    monkeypatch.setattr(cli.weyl, "hamiltonians_from_basis", never_raises_zero_phi)
    report = run_scenario(make_scenario("weyl-basis", N=N, trials=1))
    zero_phi = report.checks[-1]
    assert (zero_phi.name, zero_phi.status, zero_phi.witness) == (
        "zero-phi-t0", "fail", "degenerate basis accepted")


def test_skew_matrix_inverse_fails_on_a_wrong_inverse(monkeypatch):
    s = make_scenario("skew-matrix", size=4, trials=2)
    assert all(c.status == "pass" for c in run_scenario(s).checks)
    original = cli.mat_inverse

    def one_numerator_off(m):
        inv = original(m)
        return QMatrix._of_ints(inv.rows, inv.cols, [inv._nums[0] + 1] + inv._nums[1:],
                                inv._den)

    monkeypatch.setattr(cli, "mat_inverse", one_numerator_off)
    checks = run_scenario(s).checks
    assert [(c.name, c.status, c.witness) for c in checks] == [
        (f"inverse-t{t}", "fail", "product is not the identity") for t in range(2)]


def test_singular_reported_fails_when_a_constant_leg_draw_is_inverted(monkeypatch):
    s = make_scenario("corollary-legs", n=2, d=2, trials=1, legs="constant")
    assert [(c.name, c.status) for c in run_scenario(s).checks] == [
        ("singular-reported-t0", "pass")]
    monkeypatch.setattr(cli, "mat_inverse", lambda m: QMatrix.identity(m.rows))
    checks = run_scenario(s).checks
    assert [(c.name, c.status, c.witness) for c in checks] == [
        ("singular-reported-t0", "fail", "Delta_0 inverted after 0 singular draws")]


def test_skew_matrix_inverse_fails_when_a_singular_matrix_is_inverted(monkeypatch):
    # size 1, bound 0 draws the zero matrix [0], whose inverse must raise
    s = make_scenario("skew-matrix", size=1, bound=0, trials=1)
    assert [c.status for c in run_scenario(s).checks] == ["pass"]
    monkeypatch.setattr(cli, "mat_inverse", lambda m: QMatrix.identity(m.rows))
    checks = run_scenario(s).checks
    assert [(c.name, c.status, c.witness) for c in checks] == [
        ("inverse-t0", "fail", "inverse returned for a singular matrix")]


def test_resample_counts_rejected_draws():
    draws = iter(range(10))

    def attempt():
        value = next(draws)
        if value < 3:
            raise ZeroDivisionError
        return value

    assert resample(attempt, ZeroDivisionError, retries=5) == (3, 3)
    assert resample(attempt, ZeroDivisionError, retries=0) == (4, 0)

    def never():
        raise ZeroDivisionError

    assert resample(never, ZeroDivisionError, retries=4) == (None, 5)


BAD_CONFIGS = {
    "trials-not-integer": "kind = grassmann\nseed = 1\narity = 2\ntrials = x\n",
    "trials-zero": "kind = grassmann\nseed = 1\narity = 2\ntrials = 0\n",
    "points-fewer-than-N": "kind = weyl-rational\nseed = 1\nN = 3\npoints = [0, 1]\n",
    "points-repeated": "kind = weyl-rational\nseed = 1\nN = 2\npoints = [0, 0]\n",
    "points-not-rational": "kind = weyl-basis\nseed = 1\nN = 2\npoints = [0, a]\n",
    "points-zero-denominator": "kind = weyl-rational\nseed = 1\nN = 2\npoints = [1, 1/0]\n",
    "legs-unknown": "kind = corollary-legs\nseed = 1\nn = 2\nd = 2\nlegs = constnat\n",
    "grassmann-arity": "kind = grassmann\nseed = 1\narity = 5\n",
    "grassmann-dim": "kind = grassmann\nseed = 1\narity = 4\ndim = 3\n",
    "hbar-f": "kind = hbar-localization\nseed = 1\nf = x^3\n",
    "T-grammar": "kind = weyl-basis\nseed = 1\nN = 2\nT = e3\n",
    "T-zero-denominator": "kind = weyl-rational\nseed = 1\nN = 2\nT = z*d1+1/0\n",
    # one trial with d8 took 8.2 s at N = 4, with d48 14.4 s at N = 3
    "T-order-above-cap": "kind = weyl-rational\nseed = 1\nN = 2\nT = d9\n",
    # size parameters out of range: each crashed in trial 0, passed without
    # deciding anything, or (grassmann bound = 0) never finished drawing
    "poisson-n-0": "kind = poisson-classical\nseed = 1\nn = 0\n",
    "poisson-n-1": "kind = poisson-classical\nseed = 1\nn = 1\n",
    "poisson-bound-negative": "kind = poisson-classical\nseed = 1\nn = 2\nbound = -1\n",
    "dual-n-0": "kind = dual-number\nseed = 1\nn = 0\n",
    "dual-n-1": "kind = dual-number\nseed = 1\nn = 1\n",
    "dual-family-every-0": "kind = dual-number\nseed = 1\nn = 2\nfamily_every = 0\n",
    "identity-n-0": "kind = identity-suite\nseed = 1\nn = 0\nd = 2\n",
    "identity-n-1": "kind = identity-suite\nseed = 1\nn = 1\nd = 2\n",
    "identity-n-above-max-legs": "kind = identity-suite\nseed = 1\nn = 7\nd = 1\n",
    "identity-d-0": "kind = identity-suite\nseed = 1\nn = 2\nd = 0\n",
    "legs-n-1": "kind = corollary-legs\nseed = 1\nn = 1\nd = 2\n",
    "legs-n-above-max-legs": "kind = corollary-legs\nseed = 1\nn = 7\nd = 1\n",
    "legs-d-0": "kind = corollary-legs\nseed = 1\nn = 2\nd = 0\n",
    # d^n x d^n matrices: one trial at n = 4, d = 3 (81) took 9 s
    "legs-d-power-above-cap": "kind = corollary-legs\nseed = 1\nn = 4\nd = 3\n",
    "identity-d-power-above-cap": "kind = identity-suite\nseed = 1\nn = 2\nd = 9\n",
    "weyl-rational-N-0": "kind = weyl-rational\nseed = 1\nN = 0\n",
    "weyl-basis-N-0": "kind = weyl-basis\nseed = 1\nN = 0\n",
    # without points, N distinct points are drawn from the 13 integers in
    # [-6, 6]: at N = 14 the draw never ended
    "weyl-rational-N-14-drawn": "kind = weyl-rational\nseed = 1\nN = 14\n",
    "weyl-basis-N-14-drawn": "kind = weyl-basis\nseed = 1\nN = 14\n",
    # with points too: no trial gave a result within 95 s at N = 5
    # (weyl-rational) or within 150 s at N = 7 (weyl-basis)
    "weyl-rational-N-above-cap-with-points":
        "kind = weyl-rational\nseed = 1\nN = 5\npoints = [0, 1, 2, 3, 4]\n",
    "weyl-basis-N-above-cap-with-points":
        "kind = weyl-basis\nseed = 1\nN = 7\npoints = [0, 1, 2, 3, 4, 5, 6]\n",
    "hbar-M-0": "kind = hbar-localization\nseed = 1\nM = 0\n",
    "hyperplane-g-0": "kind = hyperplane\nseed = 1\ng = 0\n",
    "skew-size-0": "kind = skew-matrix\nseed = 1\nsize = 0\n",
    # det's subset expansion grows about x5 per +2; size 40 exhausted memory
    "skew-size-above-cap": "kind = skew-matrix\nseed = 1\nsize = 17\n",
    "skew-bound-negative": "kind = skew-matrix\nseed = 1\nbound = -1\n",
    # a constant leg function never gives an independent family; at degree
    # 8, n = 3 numpy asked for 33 GiB, and at 1100 a trial raised ValueError
    "poisson-degree-0": "kind = poisson-classical\nseed = 1\nn = 2\ndegree = 0\n",
    "poisson-degree-negative": "kind = poisson-classical\nseed = 1\nn = 2\ndegree = -1\n",
    "poisson-degree-above-cap": "kind = poisson-classical\nseed = 1\nn = 3\ndegree = 8\n",
    "dual-degree-0": "kind = dual-number\nseed = 1\nn = 2\ndegree = 0\n",
    "dual-degree-above-cap": "kind = dual-number\nseed = 1\nn = 2\ndegree = 1100\n",
    # one trial at n = 4 gave no result within 60 s; one hyperplane trial
    # took 2.4 s at g = 18
    "poisson-n-above-cap": "kind = poisson-classical\nseed = 1\nn = 4\n",
    "dual-n-above-cap": "kind = dual-number\nseed = 1\nn = 4\n",
    "hyperplane-g-above-cap": "kind = hyperplane\nseed = 1\ng = 17\n",
    # four leg functions of degree 1 span at most a 3-space: every draw
    # was dependent
    "poisson-degree-1-n-3": "kind = poisson-classical\nseed = 1\nn = 3\ndegree = 1\n",
    "dual-degree-1-n-3": "kind = dual-number\nseed = 1\nn = 3\ndegree = 1\n",
    "cone-bound-0": "kind = cone-p1\nseed = 1\nbound = 0\n",
    "grassmann-bound-0": "kind = grassmann\nseed = 1\narity = 2\nbound = 0\n",
}


@pytest.mark.parametrize("kind,params", [
    ("corollary-legs", {"n": 6, "d": 1}), ("identity-suite", {"n": 2, "d": 1}),
    ("poisson-classical", {"n": 2, "bound": 1}), ("dual-number", {"n": 2, "family_every": 1}),
    ("poisson-classical", {"n": 2, "degree": 1}), ("dual-number", {"n": 2, "degree": 1}),
    ("weyl-basis", {"N": 1}), ("hbar-localization", {"M": 1}), ("hyperplane", {"g": 1}),
    ("skew-matrix", {"size": 1, "bound": 0}), ("cone-p1", {"bound": 1}),
    ("grassmann", {"arity": 2, "bound": 1})],
    ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}{x}" for k, x in v.items()))
def test_least_accepted_sizes_run_and_pass(kind, params):
    report = run_scenario(make_scenario(kind, trials=1, **params))
    assert report.checks and report.all_passed()


@pytest.mark.parametrize("kind,field", [
    ("skew-matrix", "size"), ("poisson-classical", "n"), ("dual-number", "n"),
    ("hyperplane", "g"), ("weyl-rational", "N"), ("weyl-basis", "N")])
def test_size_stops_at_its_measured_cap(kind, field):
    cap = cli.KIND_RANGES[kind][field][1]
    assert run_scenario(make_scenario(kind, trials=1, **{field: cap})).all_passed()
    with pytest.raises(ConfigError, match=f"^field '{field}': must be at most {cap}$"):
        make_scenario(kind, **{field: cap + 1})


@pytest.mark.parametrize("kind", ["poisson-classical", "dual-number"])
def test_degree_must_give_room_for_n_plus_1_independent_functions(kind):
    # (D+1)(D+2)/2 monomials of degree <= D in (x, xi): 3 at D = 1, 6 at D = 2
    make_scenario(kind, n=2, degree=1)
    make_scenario(kind, n=3, degree=2)
    with pytest.raises(ConfigError, match="^field 'degree': n \\+ 1 = 4 leg functions "
                                          "of degree at most 1 are never independent$"):
        make_scenario(kind, n=3, degree=1)


@pytest.mark.parametrize("kind", ["poisson-classical", "dual-number"])
def test_degree_stops_at_its_measured_cap(kind):
    cap = cli.PARAM_RANGES["degree"][1]
    assert run_scenario(make_scenario(kind, trials=1, n=2, degree=cap)).all_passed()
    with pytest.raises(ConfigError, match=f"^field 'degree': must be at most {cap}$"):
        make_scenario(kind, n=2, degree=cap + 1)


@pytest.mark.parametrize("kind", ["corollary-legs", "identity-suite"])
def test_leg_dimension_stops_at_its_measured_cap(kind):
    cap = cli.MAX_LEG_DIM
    for n, d in [(2, 8), (3, 4), (6, 2)]:  # the largest d with d^n <= cap
        assert d ** n <= cap < (d + 1) ** n
        make_scenario(kind, n=n, d=d)
        with pytest.raises(ConfigError, match=rf"^field 'd': d\^n must be at most {cap}, "
                                              rf"got {d + 1}\^{n}$"):
            make_scenario(kind, n=n, d=d + 1)
    # every size the acceptance grid and the benchmark send stays allowed
    for n, d in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        make_scenario(kind, n=n, d=d)
    assert run_scenario(make_scenario(kind, trials=1, n=2, d=8)).all_passed()


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_is_refused_before_any_trial(tmp_path, monkeypatch, capsys, text):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_run_trials", no_trials)
    cfg = tmp_path / "bad.conf"
    cfg.write_text(text)
    with pytest.raises(ConfigError):
        cli.load_scenario(cfg)
    assert cli.main(["run", str(cfg)]) == 2
    assert "config error: field" in capsys.readouterr().err


@pytest.mark.parametrize("field,params", [
    ("T", {"T": "z*d1+1/0"}), ("points", {"points": [1, "1/0"]}), ("N", {"N": 14})])
def test_config_error_names_the_field(field, params):
    with pytest.raises(ConfigError, match=f"^field '{field}'"):
        make_scenario("weyl-rational", **{"N": 2, **params})


def test_explicit_points_are_accepted_at_the_cap_and_refused_past_it():
    for kind in ("weyl-rational", "weyl-basis"):
        cap = cli.KIND_RANGES[kind]["N"][1]
        assert make_scenario(kind, N=cap, points=list(range(cap))).params["N"] == cap
        with pytest.raises(ConfigError, match=f"^field 'N': must be at most {cap}$"):
            make_scenario(kind, N=cap + 1, points=list(range(cap + 1)))


def test_derivative_order_stops_at_its_measured_cap():
    assert run_scenario(make_scenario("weyl-rational", N=2, T="d8", trials=1)).all_passed()
    # d1023 and d1024 overflowed the exponent packing inside a trial
    for order in (0, 9, 1023, 1024):
        with pytest.raises(ConfigError, match=f"^field 'T': derivative order must be "
                                              f"1 to 8, got {order}$"):
            make_scenario("weyl-rational", N=2, T=f"d{order}")


def test_every_check_has_anchor():
    report = run_scenario(make_scenario("identity-suite", n=2, d=2, trials=1))
    for check in report.checks:
        assert check.anchor


def test_failing_scenario_reports_witness_and_exit_code(tmp_path):
    # bound = 0 makes every hyperplane draw degenerate: the scenario must
    # surface the failure (with the resample log), never pass silently
    cfg = tmp_path / "degenerate.conf"
    cfg.write_text("kind = hyperplane\nseed = 2\ng = 2\ntrials = 1\nbound = 0\n")
    out = tmp_path / "report.json"
    code = cli.main(["run", str(cfg), "--out", str(out)])
    assert code == 1
    report = parse_report(out)
    assert not report.all_passed()
    failing = [c for c in report.checks if c.status == "fail"]
    assert failing and failing[0].witness


def test_main_run_and_exit_codes(tmp_path):
    cfg = tmp_path / "ok.conf"
    cfg.write_text("kind = grassmann\nseed = 3\narity = 2\ndim = 4\ntrials = 2\n")
    assert cli.main(["run", str(cfg)]) == 0
    bad = tmp_path / "bad.conf"
    bad.write_text("kind = grassmann\nseed = 3\n")
    assert cli.main(["run", str(bad)]) == 2


def test_main_seed_and_trials_overrides(tmp_path):
    cfg = tmp_path / "ok.conf"
    cfg.write_text("kind = grassmann\nseed = 3\narity = 2\ndim = 4\ntrials = 2\n")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["run", str(cfg), "--seed", "8", "--trials", "4",
                     "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg), "--seed", "8", "--trials", "4",
                     "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["seed"] == 8
    assert len(a["checks"]) == 4
    a["duration_ms"] = b["duration_ms"] = 0
    assert a == b


def test_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for kind in cli.SCENARIO_PARAMS:
        assert kind in out


def test_verify_all_scenario_list_covers_all_kinds():
    kinds = {s.kind for s in cli.verify_all_scenarios()}
    assert kinds == set(cli.SCENARIO_PARAMS)
