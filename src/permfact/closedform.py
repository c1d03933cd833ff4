"""Specialized closed forms for one-face bipartite map counts.

Each formula here is an independent route to values that the general
engine (countcore.mu) also computes, so every function doubles as a
cross-check.  Covered: the genus-zero quotient, the Zagier-Stanley
two-full-cycles formula, near-hook and two/three-part class types, the
one-face map numbers by genus with their generating-function identities,
power-block classes, the by-part-count aggregation, and the polynomial
dependence of weighted counts on the parts.  Every formula but
one_face_map_count sums in integers, ending in one checked division.
"""

from fractions import Fraction

from .exactnum import (
    _echelon,
    _exact_quotient,
    binomial,
    double_factorial_odd,
    factorial,
    stirling_first_signed,
    stirling_first_unsigned,
)
from .partition import Partition, all_partitions, aut_lambda, class_size
from .countcore import mu
from .report import CheckReport, _Frozen


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

    c(n+1, m) / C(n+1, 2) when n - m is even, 0 otherwise.
    """
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
    is even, so the parity branch is automatic.  The sum runs in integers
    scaled by (n-t)!, with one exact division at the end.
    """
    if p < 1 or t < 0 or n - p - t < 1 or m < 1:
        raise ValueError("mu_t_p requires p >= 1, t >= 0, n-p-t >= 1, m >= 1")
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


def _series_ratio_power(x: int, limit: int) -> list[int]:
    """Coefficients of ((1+y)/(1-y))^x up to y^limit, for integer x >= 0."""
    plus = [binomial(x, j) for j in range(limit + 1)]
    minus = [binomial(x + j - 1, j) for j in range(limit + 1)]
    out = [0] * (limit + 1)
    for a, ca in enumerate(plus):
        if ca == 0:
            continue
        for b in range(limit + 1 - a):
            out[a + b] += ca * minus[b]
    return out


def hz_series_check(n_max: int) -> CheckReport:
    """Verify both one-face-map generating-function identities up to n_max.

    Identity 1 (per edge number n): sum_g count(n,g) x^(n+1-2g) equals
    (2n-1)!! sum_i C(x,i) C(n,i-1) 2^(i-1); compared coefficient by
    coefficient in x, so a failure names (n, g).  Identity 2: the
    bivariate series 1 + 2 sum_{n,g} count(n,g)/(2n-1)!! x^(n+1-2g)
    y^(n+1) equals ((1+y)/(1-y))^x up to y^(n_max+1); the y-coefficients
    are polynomials in x of degree <= n_max+1, so they are compared
    exactly via evaluation at the integer points x = 0..n_max+2.  Both
    identities are compared in integers after clearing denominators.
    The counts come from hz_table, and each per-n case also compares
    every table row with one_face_map_count.
    """
    if n_max < 0:
        raise ValueError("hz_series_check requires n_max >= 0")
    report = CheckReport("hz")
    xs = range(n_max + 3)
    counts = {n: hz_table(n) for n in range(n_max + 1)}

    for n in range(1, n_max + 1):
        detail = ""
        # Both sides times (n+1)!, so that each C(x,i)/i! term is an integer.
        scale = factorial(n + 1)
        odd = double_factorial_odd(n)
        lhs_coeffs = {n + 1 - 2 * row.genus: row.count * scale for row in counts[n]}
        for m in range(n + 2):
            # Coefficient of x^m on the right: expand C(x,i) over x-powers.
            rhs = odd * sum(
                binomial(n, i - 1)
                * 2 ** (i - 1)
                * stirling_first_signed(i, m)
                * (scale // factorial(i))
                for i in range(1, n + 2)
            )
            if lhs_coeffs.get(m, 0) != rhs:
                detail = f"coefficient at n={n}, g={(n + 1 - m) // 2}"
                break
        else:
            for row in counts[n]:
                if row.count != one_face_map_count(n, row.genus):
                    detail = f"table row at n={n}, g={row.genus} vs explicit sum"
                    break
        report.add(f"single-variable identity n={n}", not detail, detail)

    limit = n_max + 1
    # The y^(n+1) coefficients times (2n-1)!!, so that the left side is an integer.
    odds = [1] + [double_factorial_odd(n) for n in range(n_max + 1)]
    for x in xs:
        series = _series_ratio_power(x, limit)
        lhs = [1] + [
            sum(2 * row.count * x ** (n + 1 - 2 * row.genus) for row in counts[n])
            for n in range(n_max + 1)
        ]
        for deg in range(limit + 1):
            rhs = series[deg] * odds[deg]
            if lhs[deg] != rhs:
                report.add(
                    f"bivariate identity n={deg - 1}",
                    False,
                    f"x={x}, y^{deg}: {lhs[deg]} != {rhs} (both times (2n-1)!!)",
                )
                return report
    report.add(f"bivariate identity n<={n_max} at {len(list(xs))} x-points", True)
    return report


def _power_sum_value(exponents: tuple, point: tuple) -> int:
    value = 1
    for e in exponents:
        value *= sum(x ** e for x in point)
    return value


def _solvable(matrix: list[list[int]], rhs: list[int]) -> bool:
    """Whether A c = v admits a solution (rank(A) == rank([A|v])).

    [A|v] is eliminated over A's columns; the rows past A's rank are then
    zero in A, so the system is consistent iff they are zero in v too.
    """
    rows = [row + [val] for row, val in zip(matrix, rhs)]
    rank, _ = _echelon(rows, len(matrix[0]) if matrix else 0)
    return not any(row[-1] for row in rows[rank:])


def polynomiality_check(n: int, d: int, g: int) -> CheckReport:
    """Check that weighted counts are a symmetric polynomial in the parts.

    For m = 1 - 2g + n - d, gathers aut(gamma)/n! * mu(gamma, m) over all
    gamma of n with d parts and tests whether these values extend to a
    symmetric polynomial of total degree <= 2g in the parts (fit in the
    power-sum product basis, exact rank test).  For g = 0 additionally
    requires the constant value 1/(n+1-d)!.  The values are scaled by n!
    (so they are the integers aut(gamma) * mu(gamma, m)), which changes
    neither test.
    """
    if not 1 <= d <= n or g < 0:
        raise ValueError("polynomiality_check requires 1 <= d <= n and g >= 0")
    m = 1 - 2 * g + n - d
    if m < 1:
        raise ValueError(f"no valid cycle number for (n={n}, d={d}, g={g})")
    report = CheckReport("polynomiality")
    points = [lam for lam in all_partitions(n) if lam.length == d]
    values = [aut_lambda(lam) * mu(lam, m) for lam in points]
    label = f"(n={n}, d={d}, g={g})"

    if g == 0:
        expected = factorial(n) // factorial(n + 1 - d)
        bad = [
            f"{lam}: {val}/{n}!" for lam, val in zip(points, values) if val != expected
        ]
        report.add(
            f"constant 1/{n + 1 - d}! at {label}",
            not bad,
            "; ".join(bad[:3]),
        )
        return report

    basis: list[tuple] = []
    for weight in range(2 * g + 1):
        basis.extend(lam.parts for lam in all_partitions(weight))
    matrix = [[_power_sum_value(b, lam.parts) for b in basis] for lam in points]
    ok = _solvable(matrix, values)
    report.add(f"degree<={2 * g} symmetric fit at {label}", ok)
    return report
