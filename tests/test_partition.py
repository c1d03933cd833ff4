import pytest
from hypothesis import given, strategies as st

from permfact import partition
from permfact.exactnum import factorial
from permfact.partition import (
    Partition,
    PartitionParseError,
    all_partitions,
    aut_lambda,
    class_size,
    parse_partition,
    remove_part,
    z_lambda,
)

part_lists = st.lists(st.integers(min_value=1, max_value=9), max_size=8)


def test_canonical_order_and_views():
    p = Partition([1, 3, 2, 3])
    assert p.parts == (3, 3, 2, 1)
    assert p.n == 9
    assert p.length == 4
    assert p.multiplicities() == {3: 2, 2: 1, 1: 1}
    assert list(p) == [3, 3, 2, 1]
    assert p[0] == 3


def test_empty_partition_is_valid():
    p = Partition()
    assert p.n == 0 and p.length == 0
    assert str(p) == "()"


def test_invalid_parts_rejected():
    with pytest.raises(ValueError):
        Partition([0, 1])
    with pytest.raises(ValueError):
        Partition([-2])
    with pytest.raises(ValueError):
        Partition([True, 2])


@pytest.mark.parametrize(
    "text,parts",
    [
        ("3,1,1", (3, 1, 1)),
        ("1^2,3", (3, 1, 1)),
        ("2^3", (2, 2, 2)),
        ("()", ()),
        (" 4 , 1 ", (4, 1)),
        ("2,1^3,2", (2, 2, 1, 1, 1)),
    ],
)
def test_parse_partition(text, parts):
    assert parse_partition(text).parts == parts


@pytest.mark.parametrize(
    "text", ["", "a", "1,,2", "0", "3^0", "-1", "2^-1", "1^x", "1_0", "+3", "\u0663"]
)
def test_parse_errors_name_the_token(text):
    with pytest.raises(PartitionParseError):
        parse_partition(text)


def test_decimal_takes_ascii_digits_and_an_optional_minus():
    assert partition._decimal("042") == 42
    assert partition._decimal("-7", signed=True) == -7
    for text in ["-7", "+7", " 7", "7 ", "1_0", "\u0663", "\uff17", "", "-"]:
        with pytest.raises(ValueError, match="invalid literal"):
            partition._decimal(text)
    for text in ["+7", "--7", "- 7", "-1_0", "-\u0663", "-"]:
        with pytest.raises(ValueError, match="invalid literal"):
            partition._decimal(text, signed=True)


@given(part_lists)
def test_parse_format_round_trip(parts):
    p = Partition(parts)
    assert parse_partition(str(p)) == p


def test_all_partitions_counts_and_order():
    assert len(all_partitions(4)) == 5
    assert len(all_partitions(0)) == 1
    assert len(all_partitions(6)) == 11
    assert [p.parts for p in all_partitions(5)] == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_all_partitions_complete_and_distinct():
    # p(n) for n = 0..12
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, expected in enumerate(counts):
        ps = all_partitions(n)
        assert len(ps) == expected
        assert len(set(ps)) == expected
        assert all(p.n == n for p in ps)


@pytest.mark.parametrize(
    "parts,expected", [((2, 2, 2), 48), ((5,), 5), ((2, 1), 2), ((), 1)]
)
def test_z_lambda(parts, expected):
    assert z_lambda(Partition(parts)) == expected


@pytest.mark.parametrize("parts,expected", [((2, 1), 3), ((4,), 6), ((2, 2, 2), 15)])
def test_class_size(parts, expected):
    assert class_size(Partition(parts)) == expected


@pytest.mark.parametrize("parts,expected", [((2, 2, 2), 6), ((3, 1, 1), 2), ((4,), 1)])
def test_aut_lambda(parts, expected):
    assert aut_lambda(Partition(parts)) == expected


def test_class_sizes_partition_the_group():
    for n in range(11):
        assert sum(class_size(p) for p in all_partitions(n)) == factorial(n)


@given(part_lists)
def test_z_from_runs_matches_the_multiplicity_formula(parts):
    lam = Partition(parts)
    z = 1
    for i, m in lam.multiplicities().items():
        z *= i ** m * factorial(m)
    assert z_lambda(lam) == z
    assert class_size(lam) == factorial(lam.n) // z


def test_class_size_cache_is_bounded():
    info = partition._class_size.cache_info()
    assert info.maxsize is not None
    for n in range(16):
        for lam in all_partitions(n):
            class_size(lam)
    assert partition._class_size.cache_info().currsize <= info.maxsize


def test_remove_part():
    assert remove_part(Partition([2, 2]), 2) == Partition([2])
    assert remove_part(Partition([3, 1, 1]), 1) == Partition([3, 1])
    with pytest.raises(ValueError):
        remove_part(Partition([3, 1, 1]), 2)


@given(part_lists.filter(bool), st.data())
def test_remove_then_reinsert_round_trips(parts, data):
    p = Partition(parts)
    i = data.draw(st.sampled_from(sorted(set(p.parts))))
    reduced = remove_part(p, i)
    assert reduced.n == p.n - i
    assert reduced.length == p.length - 1
    assert Partition(reduced.parts + (i,)) == p
