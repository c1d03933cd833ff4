from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from random import Random

import pytest

from permfact import symfun
from permfact.charkit import character, dimension
from permfact.countcore import ConsistencyError
from permfact.partition import Partition, all_partitions, z_lambda
from permfact.symfun import (
    _det,
    _grid,
    _monomial_value,
    _power_sum_value,
    _schur_value,
    verify_m1_identities,
    verify_schur_identity,
)


def _leibniz_det(rows) -> int:
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(row[j] for row, j in zip(rows, perm))
    return total


def test_det_matches_leibniz_expansion():
    rng = Random(0)
    for size in range(1, 6):
        for _ in range(30):
            entries = [rng.choice([0, 0, 1, -1, 2, -3, 7]) for _ in range(size * size)]
            rows = [entries[i : i + size] for i in range(0, size * size, size)]
            assert _det(rows) == _leibniz_det(rows), rows


def test_power_sum_examples():
    assert _power_sum_value((1,), (2, 3)) == 5
    assert _power_sum_value((2,), (2, 3)) == 13
    assert _power_sum_value((1, 1), (2,)) == 4
    assert _power_sum_value((2, 1), (1, -2, 3)) == 14 * 2


def test_schur_examples():
    assert _schur_value((1,), (2, 3, 5)) == 10
    assert _schur_value((2,), (2, 3)) == 4 + 6 + 9
    assert _schur_value((1, 1), (2, 3)) == 6
    # s_21 = m_21 + 2 m_111
    assert _schur_value((2, 1), (1, 2, 3)) == 48 + 2 * 6
    x = (1, -2, 3)
    assert _schur_value((2, 1), x) == _monomial_value((2, 1), x) + 2 * -6


def test_monomial_examples():
    assert _monomial_value((2, 1), (2, 3)) == 4 * 3 + 2 * 9
    assert _monomial_value((1,), (1, 2, 3)) == 6
    assert _monomial_value((3,), (2, 3)) == 8 + 27
    assert _monomial_value((1, 1, 1), (2, 3)) == 0


def test_schur_positivity():
    for n in range(1, 7):
        for lam in all_partitions(n):
            for k in range(lam.length, 7):
                point = tuple(Random(k).sample(range(1, 3 * k), k))
                assert _schur_value(lam.parts, point) > 0, (lam, point)


def test_schur_sum_weighted_by_dimension():
    for n in range(1, 7):
        for x in _grid(n):
            total = sum(
                dimension(lam) * _schur_value(lam.parts, x) for lam in all_partitions(n)
            )
            assert total == sum(x) ** n, (n, x)


def test_bialternant_matches_character_expansion():
    # Characters enter only here, as the reference: s_lam = sum chi p / z.
    for n in range(1, 7):
        classes = all_partitions(n)
        for x in _grid(n):
            for lam in classes:
                expansion = sum(
                    Fraction(character(lam, a) * _power_sum_value(a.parts, x))
                    / z_lambda(a)
                    for a in classes
                )
                assert _schur_value(lam.parts, x) == expansion, (lam, x)


def test_monomial_matches_enumeration():
    rng = Random(1)
    for n in range(1, 7):
        for k in range(1, 6):
            x = tuple(rng.randint(-4, 4) for _ in range(k))
            for lam in all_partitions(n):
                if lam.length > k:
                    continue
                padded = lam.parts + (0,) * (k - lam.length)
                want = sum(
                    prod(v ** e for v, e in zip(x, exps))
                    for exps in set(permutations(padded))
                )
                assert _monomial_value(lam.parts, x) == want, (lam, x)


def test_monomial_vanishes_with_too_few_variables():
    for n in range(2, 7):
        for lam in all_partitions(n):
            for k in range(1, lam.length):
                assert _monomial_value(lam.parts, tuple(range(2, k + 2))) == 0


@pytest.mark.parametrize(
    "value",
    [_power_sum_value, _schur_value, _monomial_value],
    ids=["power_sum", "schur", "monomial_sym"],
)
def test_symmetry_under_variable_transpositions(value):
    point = (2, -3, 5, 7)
    for n in range(1, 6):
        for lam in all_partitions(n):
            if lam.length > len(point):
                continue
            base = value(lam.parts, point)
            for i, j in combinations(range(len(point)), 2):
                swapped = list(point)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert value(lam.parts, tuple(swapped)) == base, (lam, i, j)


def test_grid_is_seeded_and_unisolvent():
    for n in range(1, 12):
        points = _grid(n)
        assert points == _grid(n)
        assert len(points) == len(all_partitions(n))
        assert all(len(set(x)) == n for x in points)
        symfun._power_sum_values(all_partitions(n), points)  # raises if singular


def test_verify_schur_identity_small():
    for n in range(1, 4):
        report = verify_schur_identity(n)
        assert report.ok, [c.label for c in report.failures]


def test_verify_m1_identities_small():
    for n in range(1, 5):
        report = verify_m1_identities(n)
        assert report.ok, [c.label for c in report.failures]


def test_perturbed_count_fails_both_verifiers(monkeypatch):
    target = ((Partition([3, 1, 1]), Partition([2, 2, 1])), 1)
    real_xi = symfun.xi

    def perturbed(classes, m):
        return real_xi(classes, m) + ((tuple(classes), m) == target)

    monkeypatch.setattr(symfun, "xi", perturbed)
    schur = verify_schur_identity(5)
    assert [c.label for c in schur.failures] == [f"n=5 z={z}" for z in range(1, 6)]
    m1 = verify_m1_identities(5)
    assert [c.label for c in m1.failures] == [
        "n=5 direct == shape expansion",
        "n=5 direct == monomial expression",
    ]


def test_singular_grid_raises(monkeypatch):
    def repeated_point(n):
        points = _grid(n)
        return points[:-1] + points[:1]

    monkeypatch.setattr(symfun, "_grid", repeated_point)
    for verifier in (verify_schur_identity, verify_m1_identities):
        with pytest.raises(ConsistencyError, match="singular"):
            verifier(4)
