"""Closed forms on the production routes: the database's base case and the
one-face map numbers.

zagier_stanley, the two-full-cycles formula, gives the one-part rows of
the database build.  The one-face map numbers by genus come from the
Harer-Zagier recursion as a whole table (hz_table) and from the explicit
sum one value at a time (one_face_map_count); verify's hz_series_check
compares the two.  The closed forms that only cross-check mu (the
genus-zero quotient, the near-hook, two/three-part and power-block
classes, and the by-part-count aggregation) live in verify, which only
the checks load.  Every formula but one_face_map_count sums in integers,
ending in one checked division.  A size, genus or cycle count that is a
bool or not an int raises TypeError.
"""

from .exactnum import (
    _check_int,
    _exact_quotient,
    binomial,
    double_factorial_odd,
    factorial,
    stirling_first_unsigned,
)


def zagier_stanley(n: int, m: int) -> int:
    """Factorizations of a fixed n-cycle into an n-cycle and an m-cycle permutation.

    c(n+1, m) / C(n+1, 2) when n - m is even, 0 otherwise.
    """
    _check_int(n, "n")
    _check_int(m, "m")
    if n < 1 or not 1 <= m <= n:
        raise ValueError("zagier_stanley requires 1 <= m <= n")
    if (n - m) % 2 != 0:
        return 0
    c = stirling_first_unsigned(n + 1, m)
    return _exact_quotient(c, binomial(n + 1, 2), "zagier_stanley({},{})", n, m)


def one_face_map_count(n_edges: int, g: int) -> int:
    """Number of rooted one-face maps with n_edges edges and genus g.

    (2n-1)!! times an alternating Stirling-binomial sum with
    m = n + 1 - 2g; equals the pairing-class count mu([2^n], m) on 2n
    points.
    """
    _check_int(n_edges, "n_edges")
    _check_int(g, "g")
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


def hz_table(n_edges: int) -> list[int]:
    """One-face map counts at the given edge number, as a list indexed by genus.

    Built by the Harer-Zagier recursion
    (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2)
    from e_0(0) = 1, iteratively, keeping two rows of counts; each
    division by n+1 is checked exact.  This takes O(n_edges^2) integer
    steps for the whole table.  one_face_map_count is the independent
    per-value route, and hz_series_check compares the two.
    """
    _check_int(n_edges, "n_edges")
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
    return row
