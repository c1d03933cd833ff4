import pytest
from hypothesis import given, strategies as st

from permfact.exactnum import (
    binomial,
    double_factorial_odd,
    factorial,
    stirling_first_signed,
    stirling_first_unsigned,
    stirling_second,
)


@pytest.mark.parametrize("n,expected", [(0, 1), (5, 120), (10, 3628800)])
def test_factorial(n, expected):
    assert factorial(n) == expected


@pytest.mark.parametrize("n,expected", [(0, 1), (3, 15), (4, 105)])
def test_double_factorial_odd(n, expected):
    assert double_factorial_odd(n) == expected


@pytest.mark.parametrize(
    "a,k,expected",
    [(5, 2, 10), (3, 5, 0), (0, 3, 0), (-1, 2, 1), (0, 0, 1), (4, -1, 0), (-2, 3, -4)],
)
def test_binomial(a, k, expected):
    assert binomial(a, k) == expected


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-5, max_value=30))
def test_binomial_pascal_recurrence(a, k):
    assert binomial(a, k) == binomial(a - 1, k) + binomial(a - 1, k - 1)


def test_binomial_matches_factorials_in_classical_range():
    for a in range(21):
        for k in range(a + 1):
            assert binomial(a, k) == factorial(a) // (factorial(k) * factorial(a - k))


def test_binomial_matches_the_falling_factorial():
    # The falling factorial a(a-1)...(a-k+1)/k!, independent of math.comb,
    # on both signs of a and past k > a >= 0.
    for a in range(-40, 121):
        for k in range(-3, 131):
            if k < 0 or 0 <= a < k:
                expected = 0
            else:
                falling = 1
                for i in range(k):
                    falling *= a - i
                expected = falling // factorial(k)
            assert binomial(a, k) == expected, (a, k)


@pytest.mark.parametrize("n,k,expected", [(4, 2, 11), (6, 6, 1), (6, 3, 225), (0, 0, 1)])
def test_stirling_first_unsigned(n, k, expected):
    assert stirling_first_unsigned(n, k) == expected


@pytest.mark.parametrize("n,k,expected", [(3, 2, -3), (4, 4, 1), (4, 1, -6)])
def test_stirling_first_signed(n, k, expected):
    assert stirling_first_signed(n, k) == expected


@pytest.mark.parametrize("n,k,expected", [(4, 2, 7), (5, 1, 1), (2, 3, 0), (0, 0, 1)])
def test_stirling_second(n, k, expected):
    assert stirling_second(n, k) == expected


def test_out_of_range_indices_are_zero():
    assert stirling_first_unsigned(5, -1) == 0
    assert stirling_first_unsigned(5, 6) == 0
    assert stirling_second(5, -2) == 0
    assert stirling_second(5, 9) == 0
    assert binomial(2, 7) == 0


def test_stirling_first_row_sums_count_permutations():
    for n in range(13):
        assert sum(stirling_first_unsigned(n, k) for k in range(n + 1)) == factorial(n)


def test_stirling_first_generates_falling_factorial():
    # sum_k (-1)^(n-k) c(n,k) x^k = x (x-1) ... (x-n+1) at x = 0..n
    for n in range(13):
        for x in range(n + 1):
            poly = sum(
                stirling_first_signed(n, k) * x ** k for k in range(n + 1)
            )
            falling = 1
            for i in range(n):
                falling *= x - i
            assert poly == falling


def test_stirling_inversion():
    for n in range(11):
        for k in range(11):
            total = sum(
                stirling_first_signed(n, j) * stirling_second(j, k)
                for j in range(n + 1)
            )
            assert total == (1 if n == k else 0)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        stirling_first_unsigned(-1, 0)
    with pytest.raises(ValueError):
        stirling_second(-3, 1)
    with pytest.raises(ValueError):
        double_factorial_odd(-1)
