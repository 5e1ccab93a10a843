"""The benchmark's correctness gate can fail.

Each case breaks one thing and requires a nonzero exit, ``correct: false``
and a nonzero fail ratio in the result line.  The runs use the small mixes
so that the whole module takes seconds.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from commfam import poisson, weyl  # noqa: E402
from commfam.reports import failed  # noqa: E402


@pytest.fixture
def small_bench(monkeypatch, tmp_path, capsys):
    """Run the small mixes, writing outputs to a scratch directory."""
    monkeypatch.setattr(workloads, "WORKLOADS", workloads.SMALL)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)

    def bench(seed=5, digests=None):
        if digests is not None:
            path = tmp_path / "digests.json"
            path.write_text(json.dumps({"seed": run.DEFAULT_SEED, "digests": digests}))
            monkeypatch.setattr(run, "DIGESTS", path)
        code = run.main(["--workload", "small-algebra", "--seed", str(seed),
                         "--seconds", "1", "--trace", "0"])
        return code, json.loads(capsys.readouterr().out.splitlines()[-1])

    return bench


def assert_refused(code, result):
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] > 0 and result["failed"] > 0


def test_clean_run_passes(small_bench):
    code, result = small_bench()
    assert code == 0 and result["correct"] is True and result["failed"] == 0


def test_check_returning_fail_is_caught(small_bench, monkeypatch):
    def broken(*args, **kwargs):
        return failed("grassmann", "injected", "check forced to fail")

    monkeypatch.setattr(poisson, "check_grassmann", broken)
    assert_refused(*small_bench())


def test_declared_precondition_error_is_caught(small_bench, monkeypatch):
    def raising(*args, **kwargs):
        raise weyl.ZeroPhi("injected precondition failure")

    monkeypatch.setattr(weyl, "check_basis_matches_closed_form", raising)
    assert_refused(*small_bench())


def test_altered_digest_is_caught(small_bench):
    seed = run.DEFAULT_SEED
    code, result = small_bench(seed=seed, digests={})
    assert code == 0
    digest = json.loads((run.OUT / f"small-algebra-seed{seed}-trace0.json")
                        .read_text())["passes"][0]["digest"]
    code, result = small_bench(seed=seed, digests={"small-algebra": digest})
    assert code == 0
    altered = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert_refused(*small_bench(seed=seed, digests={"small-algebra": altered}))
