"""The one decision rule of the check records: ``verdict`` and ``first_witness``."""

import pytest

from commfam.reports import CheckRecord, first_witness, verdict


def test_verdict_passes_only_without_a_witness():
    assert verdict("c", "a = a", None) == CheckRecord("c", "a = a", "pass", None)
    for witness in ("x = 1", "0", " "):
        assert verdict("c", "a = a", witness) == CheckRecord("c", "a = a", "fail", witness)


def test_verdict_fails_on_the_empty_witness():
    assert verdict("c", "a = a", "").status == "fail"


def test_first_witness_of_no_witness_is_none():
    assert first_witness([]) is None
    assert first_witness(None for _ in range(3)) is None


def test_first_witness_skips_none_but_keeps_the_empty_witness():
    assert first_witness([None, "", "later"]) == ""
    assert first_witness([None, None, "pair (1,2)", "pair (1,3)"]) == "pair (1,2)"


def test_first_witness_reads_a_generator_no_further_than_its_witness():
    def cases():
        yield None
        yield "pair (0,2)"
        raise AssertionError("read past the first witness")

    walk = cases()
    assert first_witness(walk) == "pair (0,2)"
    with pytest.raises(AssertionError, match="read past"):
        next(walk)
