from math import prod

import pytest

from permfact import charkit
from permfact.charkit import (
    _bead_parts,
    _char_column,
    _content_sums,
    _hook_column,
    _shape_characters,
    _hook_product,
    character,
    dimension,
    hook_character_poly,
)
from permfact.partition import Partition, all_partitions, z_lambda


def test_diagram_cells():
    # Each shape's cell contents and hook lengths, read off its diagram.
    cells = [
        ((2, 1), [-1, 0, 1], [1, 1, 3]),
        ((3,), [0, 1, 2], [1, 2, 3]),
        ((1, 1, 1), [-2, -1, 0], [1, 2, 3]),
        ((), [], []),
    ]
    for parts, contents, hooks in cells:
        n = len(contents)
        if n:
            expected = [prod(z + c for c in contents) for z in range(n + 1)]
            assert _content_sums(n, [(parts, 1)], n) == expected, parts
        assert _hook_product(parts) == prod(hooks)


@pytest.mark.parametrize("parts,expected", [((2, 1), 2), ((5,), 1), ((3, 2), 5)])
def test_dimension(parts, expected):
    assert dimension(Partition(parts)) == expected


# Full character table of S_3: shapes x classes in the all_partitions order.
S3_TABLE = {
    (3,): {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
    (2, 1): {(3,): -1, (2, 1): 0, (1, 1, 1): 2},
    (1, 1, 1): {(3,): 1, (2, 1): -1, (1, 1, 1): 1},
}


def test_character_s3_table():
    for shape, row in S3_TABLE.items():
        for cls, value in row.items():
            assert character(Partition(shape), Partition(cls)) == value


def test_character_known_values():
    assert character(Partition([2, 1]), Partition([3])) == -1
    assert character(Partition([1, 1, 1]), Partition([2, 1])) == -1
    assert character(Partition([3, 1]), Partition([2, 2])) == -1


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character(Partition([2, 1]), Partition([2, 2]))


def test_sign_character():
    # Shape (1^n) evaluates to the sign of the class.
    for n in range(1, 7):
        sign_shape = Partition([1] * n)
        for cls in all_partitions(n):
            sign = (-1) ** (n - cls.length)
            assert character(sign_shape, cls) == sign


def test_first_column_is_dimension():
    for n in range(1, 9):
        identity = Partition([1] * n)
        for lam in all_partitions(n):
            assert character(lam, identity) == dimension(lam)


def test_long_identity_class_does_not_recurse_per_part():
    identity = Partition([1] * 1100)
    assert character(Partition([1100]), identity) == 1
    assert character(Partition([1] * 1100), identity) == 1


def test_long_two_cycle_class_does_not_recurse_per_part():
    twos = Partition([2] * 1100)
    assert character(Partition([2200]), twos) == 1
    assert character(Partition([1] * 2200), twos) == 1


def test_char_cache_keeps_one_entry_per_query():
    # Only the finished value is kept, not the shapes the walk passes.
    charkit._char_cache.clear()
    assert character(Partition([1] * 2200), Partition([2] * 1100)) == 1
    assert charkit._char_cache == {((1,) * 2200, (2,) * 1100): 1}


def test_char_column_matches_character():
    classes = [c for n in range(1, 13) for c in all_partitions(n)]
    classes += [Partition([2] * 7), Partition([3] + [1] * 13)]
    for cls in classes:
        column = {_bead_parts(mask, cls.n): v for mask, v in _char_column(cls.parts).items()}
        assert 0 not in column.values()
        for lam in all_partitions(cls.n):
            assert column.get(lam.parts, 0) == character(lam, cls), (lam, cls)


def test_hook_column_is_the_hook_part_of_the_column():
    for n in range(1, 15):
        # On n beads the hook (n-j, 1^j) is bit 2n-1-j and the low n bits
        # but bit n-j-1.
        hooks = {(1 << 2 * n - 1 - j) | ((1 << n) - 1) ^ (1 << n - j - 1) for j in range(n)}
        assert {_bead_parts(mask, n) for mask in hooks} == {
            (n - j,) + (1,) * j for j in range(n)
        }
        for cls in all_partitions(n):
            column = _char_column(cls.parts)
            expected = {mask: v for mask, v in column.items() if mask in hooks}
            assert _hook_column(cls.parts) == expected, cls


def test_shape_characters_are_the_products_of_characters():
    # Pairs and triples, with and without a full cycle, at every row cap.
    for n in range(1, 8):
        shapes = all_partitions(n)
        for k, cls in enumerate(shapes):
            for classes in [(cls,), (cls, shapes[-1 - k]), (shapes[0], cls, cls)]:
                parts_tuple = tuple(c.parts for c in classes)
                for top in range(1, n + 1):
                    expected = {}
                    for lam in shapes:
                        chi = prod(character(lam, c) for c in classes)
                        if chi and lam.length <= top:
                            expected[lam.parts] = chi
                    assert dict(_shape_characters(parts_tuple, top)) == expected, (classes, top)


def test_content_sums_match_content_polynomials():
    for n in range(1, 9):
        terms = [(lam.parts, 3 * k - 7) for k, lam in enumerate(all_partitions(n))]
        expected = [
            sum(
                w * prod(z + j - i for i, row in enumerate(s) for j in range(row))
                for s, w in terms
            )
            for z in range(n + 1)
        ]
        assert _content_sums(n, terms, n) == expected


def test_column_orthogonality():
    for n in range(1, 9):
        for cls in all_partitions(n):
            total = sum(character(lam, cls) ** 2 for lam in all_partitions(n))
            assert total == z_lambda(cls)


def test_regular_character_vanishes_off_identity():
    for n in range(1, 9):
        for cls in all_partitions(n):
            if cls.length == n:
                continue
            total = sum(
                dimension(lam) * character(lam, cls) for lam in all_partitions(n)
            )
            assert total == 0


@pytest.mark.parametrize(
    "parts,expected",
    [((3,), [1, -1, 1]), ((1, 1, 1), [1, 2, 1]), ((2, 1), [1, 0, -1])],
)
def test_hook_character_poly_examples(parts, expected):
    assert hook_character_poly(Partition(parts)) == expected


def test_hook_character_poly_matches_direct_characters():
    for n in range(1, 9):
        for alpha in all_partitions(n):
            coeffs = hook_character_poly(alpha)
            for j in range(n):
                hook = Partition([n - j] + [1] * j)
                assert coeffs[j] == character(hook, alpha), (alpha, j)
