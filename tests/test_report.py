"""The verification result types and HZTableRow behave as value types."""

import pickle

import pytest

from permfact import CaseResult, CheckReport, HZTableRow, hz_table


def test_reprs_name_every_field():
    assert repr(CaseResult("a", True)) == "CaseResult(label='a', ok=True, detail='')"
    assert (repr(CaseResult(label="b", ok=False, detail="x"))
            == "CaseResult(label='b', ok=False, detail='x')")
    report = CheckReport("n")
    assert repr(report) == "CheckReport(name='n', cases=[])"
    report.add("q", 0, "d")
    assert repr(report) == (
        "CheckReport(name='n', cases=[CaseResult(label='q', ok=False, detail='d')])")
    assert repr(hz_table(3)) == (
        "[HZTableRow(n_edges=3, genus=0, count=5), HZTableRow(n_edges=3, genus=1, count=10)]")


def test_defaults_and_keyword_construction():
    assert CaseResult("a", True).detail == ""
    first, second = CheckReport("x"), CheckReport(name="x")
    assert first.cases == [] and first.cases is not second.cases
    row = HZTableRow(n_edges=4, genus=1, count=70)
    assert (row.n_edges, row.genus, row.count) == (4, 1, 70)


def test_equality_holds_only_within_one_class():
    assert CaseResult("a", True) == CaseResult("a", True, "")
    assert CaseResult("a", True) != CaseResult("a", False)
    assert CaseResult("a", True) != ("a", True, "")
    assert HZTableRow(2, 0, 2) == hz_table(2)[0]
    assert HZTableRow(2, 0, 2) != (2, 0, 2)
    assert HZTableRow(2, 0, 2) != CaseResult(2, 0, 2)
    assert CheckReport("n", [CaseResult("a", True)]) == CheckReport("n", [CaseResult("a", True)])
    assert CheckReport("n") != CheckReport("m")


def test_frozen_types_hash_and_reject_assignment():
    assert hash(CaseResult("a", True)) == hash(CaseResult("a", True, ""))
    assert len({HZTableRow(2, 0, 2), HZTableRow(2, 0, 2), HZTableRow(2, 1, 1)}) == 2
    for value, name in ((CaseResult("a", True), "ok"), (HZTableRow(2, 0, 2), "count")):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(TypeError):
        hash(CheckReport("n"))
    report = CheckReport("n")
    report.name = "m"
    assert report.name == "m"


def test_values_survive_pickling():
    report = CheckReport("n", [CaseResult("a", False, "d")])
    for value in (CaseResult("a", True), HZTableRow(2, 1, 1), report):
        assert pickle.loads(pickle.dumps(value)) == value
