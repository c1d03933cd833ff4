"""Exact integer arithmetic: number families, checked division, elimination.

The Stirling families are memoized in triangular tables grown on demand,
each read by rows or by columns, since the counting formulas evaluate
them repeatedly.  Binomials and factorials come from math.comb and
math.factorial, with no Python-level loop; binomial extends math.comb to
a negative upper index.  Out-of-range indices return 0 rather than
raising, matching the usual convention for generalized binomial/Stirling
coefficients.  Counts end in one division checked by _exact_quotient,
exact linear algebra runs on _echelon, and _check_m is the one type
check of a cycle count m (mu, xi, zagier_stanley, Database.lookup).
"""

from itertools import repeat
from math import comb, factorial
from operator import add, mul


class ConsistencyError(ArithmeticError):
    """A count came out non-integral or negative, or an exact check could not
    be set up (a singular evaluation grid): an implementation bug."""


def _exact_quotient(num: int, den: int, what: str, *where) -> int:
    """num / den (den > 0) as a count; a remainder or a negative quotient
    raises ConsistencyError.  what, formatted with where, names the count
    and is formatted only on failure, so a passing division builds no text.
    """
    q, r = divmod(num, den)
    if r or q < 0:
        raise ConsistencyError(f"{what.format(*where)} came out {num}/{den}")
    return q


def _check_m(m) -> None:
    """Reject a cycle count m that is a bool or not an int with TypeError."""
    # bool is an int subclass, and a float compares like one.
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"m must be an int, got {m!r}")


def _echelon(rows: list, ncols: int) -> tuple:
    """Echelon form of integer rows over their first ncols columns, in place.

    Fraction-free (Bareiss) elimination that skips columns with no pivot
    left: each row update divides exactly by the previous pivot, so every
    entry stays an integer minor.  Returns (rank, sign of the row swaps);
    a square matrix of full rank ends with sign * determinant.
    """
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        lead = rows[rank][col]
        tail = rows[rank][col + 1 :]
        zeros = [0] * (col + 1)
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            factor = row[col]
            rows[r] = zeros + [
                (lead * a - factor * b) // prev for a, b in zip(row[col + 1 :], tail)
            ]
        prev = lead
        rank += 1
    return rank, sign


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
    """Binomial coefficient C(a, k) = a(a-1)...(a-k+1)/k!, from math.comb.

    Defined for any integer a, including negative: for a < 0 the
    reflection C(a, k) = (-1)^k C(k-a-1, k) (so C(-1, 2) = 1).  Returns 0
    for k < 0 and for 0 <= a < k.
    """
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    c = comb(k - a - 1, k)
    return -c if k & 1 else c


# Triangular memo tables; row n holds the coefficients for 0 <= k <= n.
_STIRLING1_ROWS: list[list[int]] = [[1]]
_STIRLING2_ROWS: list[list[int]] = [[1]]
# Their column views, holding the same ints: column k holds T(k, k), T(k+1, k),
# ..., down to the table's last row, so a sum over rows n >= k of T(n, k)
# times a list indexed by n is one map over column k and that list from k on.
_STIRLING1_COLS: list[list[int]] = [[1]]
_STIRLING2_COLS: list[list[int]] = [[1]]


def _grow_triangle(rows: list, columns: list, n: int, weights) -> None:
    """Grow a triangular table and its column view to hold rows 0..n: row m
    follows from row m-1 by T(m,k) = T(m-1,k-1) + w_k T(m-1,k) for k = 1..m,
    weights(m) giving w_1..w_m.
    """
    while len(rows) <= n:
        m = len(rows)
        prev = rows[-1]
        row = [0, *map(add, prev, map(mul, weights(m), prev[1:] + [0]))]
        rows.append(row)
        for column, value in zip(columns, row):
            column.append(value)
        columns.append([row[m]])


def _stirling1_table(n: int) -> list[list[int]]:
    """The table _STIRLING1_ROWS itself, grown to hold rows 0..n at least,
    so that a caller reading many rows pays for one call."""
    if len(_STIRLING1_ROWS) <= n:
        # c(m,k) = c(m-1,k-1) + (m-1) c(m-1,k)
        _grow_triangle(_STIRLING1_ROWS, _STIRLING1_COLS, n, lambda m: repeat(m - 1))
    return _STIRLING1_ROWS


def _stirling1_columns(n: int) -> list[list[int]]:
    """_STIRLING1_COLS itself, the table grown to hold rows 0..n at least."""
    _stirling1_table(n)
    return _STIRLING1_COLS


def _stirling2_table(n: int) -> list[list[int]]:
    """The table _STIRLING2_ROWS itself, grown to hold rows 0..n at least."""
    if len(_STIRLING2_ROWS) <= n:
        # S(m,k) = S(m-1,k-1) + k S(m-1,k)
        _grow_triangle(_STIRLING2_ROWS, _STIRLING2_COLS, n, lambda m: range(1, m + 1))
    return _STIRLING2_ROWS


def _stirling2_columns(n: int) -> list[list[int]]:
    """_STIRLING2_COLS itself, the table grown to hold rows 0..n at least."""
    _stirling2_table(n)
    return _STIRLING2_COLS


def stirling_first_unsigned(n: int, k: int) -> int:
    """Signless Stirling number of the first kind c(n, k).

    Counts permutations of n elements with exactly k cycles; c(0,0) = 1
    and the value is 0 outside 0 <= k <= n.
    """
    if n < 0:
        raise ValueError("stirling_first_unsigned requires n >= 0")
    if k < 0 or k > n:
        return 0
    return _stirling1_table(n)[n][k]


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
    return _stirling2_table(n)[n][k]
