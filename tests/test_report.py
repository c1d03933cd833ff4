"""The verification result types behave as value types."""

import pickle

import pytest

from permfact import CaseResult, CheckReport


def test_reprs_name_every_field():
    assert repr(CaseResult("a", True)) == "CaseResult(label='a', ok=True, detail='')"
    assert (repr(CaseResult(label="b", ok=False, detail="x"))
            == "CaseResult(label='b', ok=False, detail='x')")
    report = CheckReport("n")
    assert repr(report) == "CheckReport(name='n', cases=[])"
    report.add("q", 0, "d")
    assert repr(report) == (
        "CheckReport(name='n', cases=[CaseResult(label='q', ok=False, detail='d')])")


def test_defaults_and_keyword_construction():
    assert CaseResult("a", True).detail == ""
    first, second = CheckReport("x"), CheckReport(name="x")
    assert first.cases == [] and first.cases is not second.cases


def test_equality_holds_only_within_one_class():
    assert CaseResult("a", True) == CaseResult("a", True, "")
    assert CaseResult("a", True) != CaseResult("a", False)
    assert CaseResult("a", True) != ("a", True, "")
    assert CheckReport("n", [CaseResult("a", True)]) == CheckReport("n", [CaseResult("a", True)])
    assert CheckReport("n") != CheckReport("m")


def test_frozen_types_hash_and_reject_assignment():
    assert hash(CaseResult("a", True)) == hash(CaseResult("a", True, ""))
    value = CaseResult("a", True)
    with pytest.raises(AttributeError):
        value.ok = 1
    with pytest.raises(AttributeError):
        del value.ok
    with pytest.raises(TypeError):
        hash(CheckReport("n"))
    report = CheckReport("n")
    report.name = "m"
    assert report.name == "m"


def test_values_survive_pickling():
    report = CheckReport("n", [CaseResult("a", False, "d")])
    for value in (CaseResult("a", True), report):
        assert pickle.loads(pickle.dumps(value)) == value
