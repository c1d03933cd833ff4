"""Exact integer arithmetic: number families and checked division.

The Stirling families are memoized in triangular tables grown on demand
and read by rows.  Binomials, factorials and double factorials come from
math.comb, math.factorial and math.prod, with no Python-level loop;
binomial extends math.comb to a negative upper index.  Out-of-range
indices return 0 rather than raising, as usual for generalized
binomial/Stirling numbers.  Counts end in one division checked by
_exact_quotient, _byte_slots reads back a polynomial evaluated at
256^width (a Kronecker substitution), and _check_int is the one type
check of an integer argument: a cycle count m, a size n, n_max or
n_edges, or a genus g.
"""

from itertools import repeat
from math import comb, factorial, perm, prod
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


def _check_int(value, name: str) -> None:
    """Reject a value that is a bool or not an int with TypeError, naming
    the argument it was passed as."""
    # bool is an int subclass, and a float compares like one.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _byte_slots(value: int, width: int, count: int, keep: int) -> list:
    """The top keep of the count digits of value in base 256^width,
    highest first, for 0 <= value < 256^(width * count)."""
    raw = value.to_bytes(width * count, "big")
    return [int.from_bytes(raw[i : i + width], "big") for i in range(0, width * keep, width)]


def _falling_horner(d: list, n: int, width: int) -> int:
    """Q(B) / B at B = 256^width for Q(y) = sum_k d_k (n!/k!) y(y-1)...(y-k+1),
    d = [d_1, .., d_top], by Horner from k = top: acc (B - k) + d_k n!/k!."""
    shift = 8 * width
    acc, scale = 0, perm(n, n - len(d))
    for k in range(len(d), 0, -1):
        acc = (acc << shift) - k * acc + d[k - 1] * scale
        scale *= k
    return acc


def double_factorial_odd(n: int) -> int:
    """Product of the first n odd numbers, (2n-1)!! = 1*3*...*(2n-1).

    Returns 1 for n = 0 (empty product).
    """
    if n < 0:
        raise ValueError("double_factorial_odd requires n >= 0")
    return prod(range(1, 2 * n, 2))


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


def _grow_triangle(rows: list, n: int, weights) -> None:
    """Grow a triangular table to hold rows 0..n: row m follows from row
    m-1 by T(m,k) = T(m-1,k-1) + w_k T(m-1,k) for k = 1..m, weights(m)
    giving w_1..w_m.
    """
    while len(rows) <= n:
        prev = rows[-1]
        rows.append([0, *map(add, prev, map(mul, weights(len(rows)), prev[1:] + [0]))])


def stirling_first_unsigned(n: int, k: int) -> int:
    """Signless Stirling number of the first kind c(n, k).

    Counts permutations of n elements with exactly k cycles; c(0,0) = 1
    and the value is 0 outside 0 <= k <= n.
    """
    if n < 0:
        raise ValueError("stirling_first_unsigned requires n >= 0")
    if k < 0 or k > n:
        return 0
    if len(_STIRLING1_ROWS) <= n:
        # c(m,k) = c(m-1,k-1) + (m-1) c(m-1,k)
        _grow_triangle(_STIRLING1_ROWS, n, lambda m: repeat(m - 1))
    return _STIRLING1_ROWS[n][k]


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
    if len(_STIRLING2_ROWS) <= n:
        # S(m,k) = S(m-1,k-1) + k S(m-1,k)
        _grow_triangle(_STIRLING2_ROWS, n, lambda m: range(1, m + 1))
    return _STIRLING2_ROWS[n][k]
