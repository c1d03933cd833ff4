"""Specialized closed forms for one-face bipartite map counts.

Each formula here is an independent route to values that the general
engine (countcore.mu) also computes, so every function doubles as a
cross-check.  Covered: the genus-zero quotient, the Zagier-Stanley
two-full-cycles formula, near-hook and two/three-part class types, the
one-face map numbers by genus with their Harer-Zagier table, power-block
classes and the by-part-count aggregation.  The checks that compare
these routes (the generating-function identities of the map numbers and
the polynomial dependence of weighted counts on the parts) live in
verify.  Every formula but one_face_map_count sums in integers, ending
in one checked division.
"""

from .exactnum import (
    _check_m,
    _exact_quotient,
    binomial,
    double_factorial_odd,
    factorial,
    stirling_first_signed,
    stirling_first_unsigned,
)
from .partition import Partition, class_size
from .report import _Frozen


class HZTableRow(_Frozen):
    """One-face map count for a fixed edge number and genus."""

    __slots__ = ("n_edges", "genus", "count")

    def __init__(self, n_edges: int, genus: int, count: int) -> None:
        self._set_fields(n_edges, genus, count)


def mu_genus_zero(gamma: Partition) -> int:
    """Planar one-face count for class gamma: n! / (prod a_i! * (n+1-len)!).

    This is the count at the maximal cycle number m = n + 1 - len(gamma).
    """
    n = gamma.n
    if n < 1:
        raise ValueError("mu_genus_zero requires a partition of n >= 1")
    denom = factorial(n + 1 - gamma.length)
    for m_i in gamma.multiplicities().values():
        denom *= factorial(m_i)
    return _exact_quotient(factorial(n), denom, "mu_genus_zero({})", gamma)


def zagier_stanley(n: int, m: int) -> int:
    """Factorizations of a fixed n-cycle into an n-cycle and an m-cycle permutation.

    c(n+1, m) / C(n+1, 2) when n - m is even, 0 otherwise.  An m that is
    a bool or not an int raises TypeError.
    """
    _check_m(m)
    if n < 1 or not 1 <= m <= n:
        raise ValueError("zagier_stanley requires 1 <= m <= n")
    if (n - m) % 2 != 0:
        return 0
    c = stirling_first_unsigned(n + 1, m)
    return _exact_quotient(c, binomial(n + 1, 2), "zagier_stanley({},{})", n, m)


def mu_one_p(n: int, p: int, m: int) -> int:
    """Count for class type [1^p, n-p] (one long cycle plus p fixed points).

    Symmetric two-term form 2 c(n+1-p, m) / (n+1-p)! times the class size
    when n - p - m is even; the two terms cancel to 0 for odd parity.
    """
    if not 0 <= p < n:
        raise ValueError("mu_one_p requires 0 <= p < n")
    if m < 1:
        raise ValueError("mu_one_p requires m >= 1")
    gamma = Partition([1] * p + [n - p])
    c = stirling_first_unsigned(n + 1 - p, m)
    sign = -1 if (n + 1 - p - m) % 2 else 1
    total = (c - sign * c) * class_size(gamma)
    return _exact_quotient(total, factorial(n + 1 - p), "mu_one_p({},{},{})", n, p, m)


def mu_t_p(n: int, t: int, p: int, m: int) -> int:
    """Count for class type [1^t, p, n-p-t] (two long cycles plus t fixed points).

    Single sum over j of ((-1)^(n-j-t) - (-1)^(j-m)) / j! * C(p, n+1-j-t)
    * c(j, m), times the class size.  Every term cancels when n - m - t
    is even, since the two signs are then equal, so that parity returns 0
    without summing.  The sum runs in integers scaled by (n-t)!, with one
    exact division at the end.
    """
    if p < 1 or t < 0 or n - p - t < 1 or m < 1:
        raise ValueError("mu_t_p requires p >= 1, t >= 0, n-p-t >= 1, m >= 1")
    if (n - m - t) % 2 == 0:
        return 0
    gamma = Partition([1] * t + [p, n - p - t])
    scale = factorial(n - t)
    total = 0
    for j in range(1, n - t + 1):
        c = stirling_first_unsigned(j, m)
        if c == 0:
            continue
        b = binomial(p, n + 1 - j - t)
        if b == 0:
            continue
        sign1 = -1 if (n - j - t) % 2 else 1
        sign2 = -1 if (j - m) % 2 else 1
        total += (sign1 - sign2) * b * c * (scale // factorial(j))
    return _exact_quotient(
        total * class_size(gamma), scale, "mu_t_p({},{},{},{})", n, t, p, m
    )


def mu_two_parts(n: int, p: int, m: int) -> int:
    """Count for a two-part class [p, n-p].

    -2 sum_{j=m}^{n} C(p, n+1-j) s(j, m) / j! times the class size when
    n - m is odd, and 0 when n - m is even; summed in integers scaled by
    n!, with one exact division at the end.
    """
    if not 1 <= p <= n - 1:
        raise ValueError("mu_two_parts requires 1 <= p <= n-1")
    if m < 1:
        raise ValueError("mu_two_parts requires m >= 1")
    if (n - m) % 2 == 0:
        return 0
    gamma = Partition([p, n - p])
    scale = factorial(n)
    total = 0
    for j in range(m, n + 1):
        b = binomial(p, n + 1 - j)
        if b == 0:
            continue
        total += b * stirling_first_signed(j, m) * (scale // factorial(j))
    return _exact_quotient(
        -2 * total * class_size(gamma), scale, "mu_two_parts({},{},{})", n, p, m
    )


def one_face_map_count(n_edges: int, g: int) -> int:
    """Number of rooted one-face maps with n_edges edges and genus g.

    (2n-1)!! times an alternating Stirling-binomial sum with
    m = n + 1 - 2g; equals the pairing-class count mu([2^n], m) on 2n
    points.
    """
    if n_edges < 0:
        raise ValueError("one_face_map_count requires n_edges >= 0")
    if g < 0 or 2 * g > n_edges:
        raise ValueError(f"genus {g} not realizable with {n_edges} edges")
    # Only this sum is rational; keep fractions off every command's start.
    from fractions import Fraction

    n = n_edges
    m = n + 1 - 2 * g
    total = Fraction(0)
    for k in range(2 * g + 1):
        b = binomial(n, m + k - 1)
        if b == 0:
            continue
        term = Fraction(
            stirling_first_unsigned(m + k, m) * b * 2 ** (m + k - 1),
            factorial(m + k),
        )
        total += -term if k % 2 else term
    total *= double_factorial_odd(n)
    return _exact_quotient(
        total.numerator, total.denominator, "one_face_map_count({},{})", n, g
    )


def mu_p_power(n_blocks: int, p: int, m: int) -> int:
    """Count for the rectangular class [p^n_blocks] on n_blocks*p points.

    Runs the alternating Stirling sum over the W-numbers of equal parts,
    w(j) = (N-1)! N! / (j! k! p^k) * sum_i (-1)^i C(k, i) C(p(k-i), N-j+1)
    with N = kp and k = n_blocks, then divides by (N-1)!.  The sum is
    kept in integers scaled by k! p^k, so the only division is one exact
    division by k! p^k at the end.  At the extreme m = n_blocks*(p-1)+1
    this is the generalized Catalan number C(np, n) / (n(p-1)+1).
    """
    if n_blocks < 1 or p < 1 or m < 1:
        raise ValueError("mu_p_power requires positive arguments")
    big_n = n_blocks * p
    if m > big_n:
        return 0

    def w_scaled(j: int) -> int:
        """w(j) * k! p^k / (N-1)!, an integer."""
        inner = 0
        for i in range(n_blocks + 1):
            term = binomial(n_blocks, i) * binomial(p * (n_blocks - i), big_n - j + 1)
            inner += -term if i % 2 else term
        return factorial(big_n) // factorial(j) * inner

    total = 0
    for k in range(big_n - m + 1):
        term = stirling_first_unsigned(m + k, m) * w_scaled(m + k)
        total += -term if k % 2 else term
    scale = factorial(n_blocks) * p ** n_blocks
    return _exact_quotient(total, scale, "mu_p_power({},{},{})", n_blocks, p, m)


def jackson_by_length(n: int, m: int, d: int) -> int:
    """Total count over all classes of n with exactly d parts.

    The closed single sum
    n! sum_k (-1)^(k-m) c(k,m)/k! C(n-1,k-1) c(n-k+1,d)/(n-k+1)!,
    summed in integers as sum_k (-1)^(k-m) c(k,m) C(n-1,k-1) c(n-k+1,d)
    C(n+1,k) and divided exactly by n+1, since n!/(k!(n-k+1)!) equals
    C(n+1,k)/(n+1).  verify's jackson suite and the tests compare it with
    the direct sum of mu over the length-d classes.
    """
    if n < 1 or not 1 <= m <= n or not 1 <= d <= n:
        raise ValueError("jackson_by_length requires 1 <= m, d <= n")
    closed = 0
    for k in range(1, n + 1):
        c1 = stirling_first_unsigned(k, m)
        if c1 == 0:
            continue
        b = binomial(n - 1, k - 1)
        c2 = stirling_first_unsigned(n - k + 1, d)
        if b == 0 or c2 == 0:
            continue
        term = c1 * b * c2 * binomial(n + 1, k)
        closed += -term if (k - m) % 2 else term
    return _exact_quotient(closed, n + 1, "jackson_by_length({},{},{})", n, m, d)


def hz_table(n_edges: int) -> list[HZTableRow]:
    """One-face map counts for all genera at the given edge number.

    Built by the Harer-Zagier recursion
    (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2)
    from e_0(0) = 1, iteratively, keeping two rows of counts; each
    division by n+1 is checked exact.  This takes O(n_edges^2) integer
    steps for the whole table.  one_face_map_count is the independent
    per-value route, and hz_series_check compares the two.
    """
    if n_edges < 0:
        raise ValueError("hz_table requires n_edges >= 0")
    older: list[int] = []
    row = [1]
    for n in range(1, n_edges + 1):
        a = 2 * (2 * n - 1)
        b = (n - 1) * (2 * n - 1) * (2 * n - 3)
        new = []
        for g in range(n // 2 + 1):
            total = a * row[g] if g < len(row) else 0
            if g:
                total += b * older[g - 1]
            new.append(_exact_quotient(total, n + 1, "hz_table at ({}, {})", n, g))
        older, row = row, new
    return [HZTableRow(n_edges, g, count) for g, count in enumerate(row)]
