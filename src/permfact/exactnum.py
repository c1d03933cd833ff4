"""Exact integer number families: factorials, binomials, Stirling numbers.

Everything here is computed in arbitrary-precision integer arithmetic.
The Stirling families are memoized in triangular tables grown on demand,
since the counting formulas evaluate them repeatedly.  Out-of-range
indices return 0 rather than raising, matching the usual convention for
generalized binomial/Stirling coefficients.
"""

import math

factorial = math.factorial


def double_factorial_odd(n: int) -> int:
    """Product of the first n odd numbers, (2n-1)!! = 1*3*...*(2n-1).

    Returns 1 for n = 0 (empty product).
    """
    if n < 0:
        raise ValueError("double_factorial_odd requires n >= 0")
    result = 1
    for i in range(1, 2 * n, 2):
        result *= i
    return result


def binomial(a: int, k: int) -> int:
    """Binomial coefficient C(a, k) via the falling factorial.

    Defined for any integer a, including negative (C(-1, 2) = 1).
    Returns 0 for k < 0 and for 0 <= a < k, the latter without running
    the falling factorial (it would pass through the factor 0).
    """
    if k < 0 or 0 <= a < k:
        return 0
    num = 1
    for i in range(k):
        num *= a - i
    # a(a-1)...(a-k+1) is always divisible by k!
    return num // factorial(k)


# Triangular memo tables; row n holds the coefficients for 0 <= k <= n.
_STIRLING1_ROWS: list[list[int]] = [[1]]
_STIRLING2_ROWS: list[list[int]] = [[1]]


def _stirling1_row(n: int) -> list[int]:
    while len(_STIRLING1_ROWS) <= n:
        m = len(_STIRLING1_ROWS)
        prev = _STIRLING1_ROWS[m - 1]
        row = [0] * (m + 1)
        for k in range(1, m + 1):
            # c(n,k) = c(n-1,k-1) + (n-1)*c(n-1,k)
            row[k] = prev[k - 1] + (m - 1) * (prev[k] if k <= m - 1 else 0)
        _STIRLING1_ROWS.append(row)
    return _STIRLING1_ROWS[n]


def _stirling2_row(n: int) -> list[int]:
    while len(_STIRLING2_ROWS) <= n:
        m = len(_STIRLING2_ROWS)
        prev = _STIRLING2_ROWS[m - 1]
        row = [0] * (m + 1)
        for k in range(1, m + 1):
            # S(n,k) = S(n-1,k-1) + k*S(n-1,k)
            row[k] = prev[k - 1] + k * (prev[k] if k <= m - 1 else 0)
        _STIRLING2_ROWS.append(row)
    return _STIRLING2_ROWS[n]


def stirling_first_unsigned(n: int, k: int) -> int:
    """Signless Stirling number of the first kind c(n, k).

    Counts permutations of n elements with exactly k cycles; c(0,0) = 1
    and the value is 0 outside 0 <= k <= n.
    """
    if n < 0:
        raise ValueError("stirling_first_unsigned requires n >= 0")
    if k < 0 or k > n:
        return 0
    return _stirling1_row(n)[k]


def stirling_first_signed(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k) = (-1)^(n-k) c(n, k)."""
    c = stirling_first_unsigned(n, k)
    return c if (n - k) % 2 == 0 else -c


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k).

    Counts set partitions of an n-set into k nonempty blocks; S(0,0) = 1
    and the value is 0 outside 0 <= k <= n.
    """
    if n < 0:
        raise ValueError("stirling_second requires n >= 0")
    if k < 0 or k > n:
        return 0
    return _stirling2_row(n)[k]
