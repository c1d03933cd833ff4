from itertools import permutations

import pytest

from permfact.oracle import brute_mu, brute_xi, class_representative
from permfact.partition import Partition, all_partitions, class_size


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
