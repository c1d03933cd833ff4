import hashlib
from itertools import permutations, product

import pytest

from permfact import countcore, oracle
from permfact.countcore import mu, xi
from permfact.oracle import (
    _mu_table,
    _xi2_table,
    _xi3_table,
    brute_mu,
    brute_xi,
    class_representative,
)
from permfact.partition import Partition, all_partitions, class_size
from permfact.verify import suite_oracle


def _cycle_type(images):
    """Cycle type of the permutation x -> images[x] of {0, ..., n-1}."""
    seen = set()
    lengths = []
    for start in range(len(images)):
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = images[x]
            length += 1
        if length:
            lengths.append(length)
    return Partition(lengths)


def _members(n, gamma):
    return [p for p in permutations(range(n)) if _cycle_type(p) == gamma]


def test_class_representative_and_members():
    for n in range(1, 6):
        for gamma in all_partitions(n):
            rep = class_representative(n, gamma)
            assert _cycle_type(rep) == gamma
            members = _members(n, gamma)
            assert len(members) == class_size(gamma)
            assert rep in members


def test_brute_xi_examples():
    assert brute_xi((Partition([2]), Partition([2])), 2) == 1
    assert brute_xi((Partition([3]), Partition([3])), 3) == 2
    assert brute_xi((Partition([3]), Partition([3]), Partition([3])), 3) == 2
    assert brute_xi((Partition([3]), Partition([3]), Partition([3])), 1) == 6


def test_brute_mu_examples():
    assert brute_mu(Partition([2, 1]), 2) == 3
    assert brute_mu(Partition([3]), 3) == 1
    assert brute_mu(Partition([2, 2]), 1) == 1


def test_size_guards():
    with pytest.raises(ValueError):
        brute_xi((Partition([10]), Partition([10])), 1)
    with pytest.raises(ValueError):
        brute_xi((Partition([7]), Partition([7]), Partition([7])), 1)
    with pytest.raises(ValueError):
        brute_xi(tuple(Partition([2]) for _ in range(4)), 1)
    with pytest.raises(ValueError):
        brute_mu(Partition([10]), 1)
    with pytest.raises(ValueError):
        brute_xi((Partition([]), Partition([])), 0)


def test_pair_totals():
    for n in range(1, 6):
        classes = all_partitions(n)
        for a in classes:
            for g in classes:
                total = sum(brute_xi((a, g), m) for m in range(1, n + 1))
                assert total == class_size(a) * class_size(g)


def test_triple_totals():
    for n in range(1, 5):
        classes = all_partitions(n)
        for a in classes:
            for b in classes:
                for g in classes:
                    total = sum(
                        brute_xi((a, b, g), m) for m in range(1, n + 1)
                    )
                    expected = class_size(a) * class_size(b) * class_size(g)
                    assert total == expected


def test_mu_is_xi_with_full_cycle_fixed():
    for n in range(1, 8):
        full = Partition([n])
        for gamma in all_partitions(n):
            for m in range(1, n + 1):
                lhs = brute_mu(gamma, m) * class_size(full)
                assert lhs == brute_xi((full, gamma), m)


def test_fixed_points_scale_the_enumerated_one_face_counts():
    # m_1 mu(gamma, m) = n mu(gamma minus one part 1, m), m_1 the number of
    # parts 1: the identity the database build scales rows by, here on the
    # enumerated tables alone.  89 of the 284 cases are nonzero.
    nonzero = 0
    for n in range(2, 9):
        table, smaller = _mu_table(n), _mu_table(n - 1)
        for gamma in all_partitions(n):
            parts = gamma.parts
            if parts[-1] != 1:
                continue
            for m in range(1, n + 1):
                count = table.get((parts, m), 0)
                assert parts.count(1) * count == n * smaller.get((parts[:-1], m), 0), (
                    parts, m,
                )
                nonzero += count != 0
    assert nonzero == 89


def _count_with_fixed_first(sigma1, c2, m):
    # The product sigma1 * sigma2 applies sigma2 first.
    n = len(sigma1)
    return sum(
        1
        for sigma2 in _members(n, c2)
        if _cycle_type(tuple(sigma1[x] for x in sigma2)).length == m
    )


def test_count_independent_of_representative():
    # The restricted count is the same whichever class member is fixed.
    for n in (4, 5, 6):
        c1 = Partition([n - 1, 1])
        c2 = Partition([2] + [1] * (n - 2))
        members = _members(n, c1)[:3]
        for m in range(1, n + 1):
            counts = {_count_with_fixed_first(s, c2, m) for s in members}
            assert len(counts) == 1


def _digest(table):
    return hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()


def test_tables_are_pinned():
    # Digests of the tables as direct enumeration of every pair and
    # triple, and of every factorization of the full cycle, computed them.
    pairs = _xi2_table(7)
    assert len(pairs) == 559
    assert _digest(pairs) == (
        "37999ccaa64c3fe3ff7a5647629ddd0d51353b202eeef95c09b0cb46a9225cf9"
    )
    triples = _xi3_table(5)
    assert len(triples) == 781
    assert _digest(triples) == (
        "44002267e7730666c7c9444956ddc108fc3c91f4e1eeb1c4bb3897a1dab556cd"
    )
    by_product_type = oracle._pair_type_table(6)
    assert len(by_product_type) == 447
    assert _digest(by_product_type) == (
        "c8aac44aa7b5866f435c2fe6a031225c3ed54679fab2117843a47c04fa38e18e"
    )
    one_face = _mu_table(7)
    assert len(one_face) == 37
    assert _digest(one_face) == (
        "5fb4bb5fd7822b03fafe8fc5aefc0231fe5339115972cf72c3be0421fc01c773"
    )


def test_composed_triples_match_enumeration():
    for n in range(1, 5):
        classes = all_partitions(n)
        members = {c: _members(n, c) for c in classes}
        direct = {}
        for c1, c2, c3 in product(classes, repeat=3):
            rep = class_representative(n, c1)
            for s2 in members[c2]:
                first_two = tuple(rep[x] for x in s2)
                for s3 in members[c3]:
                    m = _cycle_type(tuple(first_two[x] for x in s3)).length
                    key = (c1.parts, c2.parts, c3.parts, m)
                    direct[key] = direct.get(key, 0) + class_size(c1)
        assert _xi3_table(n) == direct, n


def test_xi_matches_brute_force_on_every_triple_at_n6():
    classes = all_partitions(6)
    for triple in product(classes, repeat=3):
        for m in range(1, 7):
            assert xi(triple, m) == brute_xi(triple, m), (triple, m)


def _per_m_failures(n):
    """suite_oracle's failing cases at n, found by one public call per
    (classes, m) on each side, in the suite's order."""
    classes = all_partitions(n)
    pairs = [
        f"({a};{g};m={m})"
        for a, g, m in product(classes, classes, range(1, n + 1))
        if xi((a, g), m) != brute_xi((a, g), m)
    ]
    one_face = [
        f"({g};m={m})"
        for g, m in product(classes, range(1, n + 1))
        if mu(g, m) != brute_mu(g, m)
    ]
    return pairs, one_face


def test_suite_oracle_computes_one_engine_row_per_class_multiset():
    countcore._xi_cached.cache_clear()
    assert suite_oracle(5).ok
    # The suite compares 88 ordered pairs and 504 ordered triples at n <= 5.
    # The key of a product leaves out the identity class 1^n (1^n alone if
    # every class is 1^n), so the rows are those of the 18 single classes,
    # 35 pairs and 81 triples up to order without 1^n.
    assert countcore._xi_cached.cache_info().misses == 134


def _patched_at_4(table, entries):
    """Stand-in for an oracle table function that returns a copy of the
    n = 4 table with entries(copy) applied."""

    def patched(n):
        if n != 4:
            return table(n)
        copy = dict(table(n))
        copy.update(entries(copy))
        return copy

    return patched


def test_oracle_tables_are_read_only(monkeypatch):
    tables = (oracle._pair_type_table, _xi2_table, _xi3_table, _mu_table)
    for build in tables:
        table = build(4)
        with pytest.raises(TypeError):
            table[next(iter(table))] += 1
    cached = _xi3_table(4)
    # A fresh build, from pair tables enumerated again.
    for build in tables:
        monkeypatch.setattr(oracle, build.__name__, build.__wrapped__)
    assert cached == _xi3_table.__wrapped__(4)


def test_suite_oracle_reports_a_wrong_pair_entry_by_its_classes_and_m(monkeypatch):
    # The triple table is composed from the pair table: build it unpatched.
    _xi3_table(4)
    monkeypatch.setattr(oracle, "_xi2_table", _patched_at_4(_xi2_table, lambda table: {
        ((2, 1, 1), (2, 2), 3): table[(2, 1, 1), (2, 2), 3] + 1,
        ((3, 1), (2, 1, 1), 2): 1,  # parity forces 0 here
    }))
    pairs, one_face = _per_m_failures(4)
    assert pairs == ["(3,1;2,1,1;m=2)", "(2,1,1;2,2;m=3)"] and one_face == []
    report = suite_oracle(4)
    assert [(c.label, c.detail) for c in report.failures] == [
        ("pairs n=4", ", ".join(pairs))
    ]
    assert sum(c.ok for c in report.cases) == len(report.cases) - 1


def test_suite_oracle_reports_a_wrong_one_face_entry(monkeypatch):
    monkeypatch.setattr(oracle, "_mu_table", _patched_at_4(_mu_table, lambda table: {
        ((2, 2), 3): table[(2, 2), 3] - 1,
    }))
    pairs, one_face = _per_m_failures(4)
    assert pairs == [] and one_face == ["(2,2;m=3)"]
    failures = [c.line() for c in suite_oracle(4).failures]
    assert failures == ["FAIL one-face n=4: (2,2;m=3)"]


@pytest.mark.parametrize("m", [True, 2.0])
def test_brute_force_rejects_an_m_that_is_not_an_int(m):
    # True answered for m = 1: 1 for brute_mu of (1), and 6 for the pair
    # of (2,1) classes.
    with pytest.raises(TypeError, match=rf"^m must be an int, got {m!r}$"):
        brute_mu(Partition([1]), m)
    with pytest.raises(TypeError, match=rf"^m must be an int, got {m!r}$"):
        brute_xi((Partition([2, 1]),) * 2, m)
