"""Symmetric-function identity checks by exact evaluation at integer points.

Both sides of each identity are bilinear forms, symmetric of degree n in
each of two families of n variables.  The power sums p_alpha (alpha a
partition of n) are a basis of the degree-n symmetric polynomials in n
variables, so such a form is the sum of C[alpha][beta] p_alpha(x)
p_beta(y), and its values at all pairs (x_i, x_j) of a grid of p(n)
points are the matrix P^T C P with P = [p_alpha(x_i)].  When P is
invertible those values determine C, so two forms are equal exactly when
they agree at every grid pair.  Each grid is checked for that with an
exact integer determinant before it is used; a singular grid raises
ConsistencyError instead of passing.  The cycle-count marker z is
handled the same way: both sides are polynomials of degree <= n in z, so
equality at z = 0..n is equivalence.  Both sides of each identity are
multiplied by one known factor, so that everything runs in integers.
The determinants, and verify's rank test, come from one fraction-free
elimination, _echelon.

Schur values come from the bialternant det(x_i^(lam_j + n - j)) /
det(x_i^(n - j)) (Macdonald, Symmetric Functions and Hall Polynomials,
I.3), not from the characters the counting engine uses; monomial
symmetric values come from a dynamic program over the variables.
"""

from math import lcm
from operator import mul
from random import Random

from .exactnum import ConsistencyError, factorial
from .partition import all_partitions
from .charkit import _content_sums
from .countcore import xi
from .report import CheckReport


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


def _det(rows) -> int:
    """Exact determinant of a square integer matrix."""
    a = [list(row) for row in rows]
    rank, sign = _echelon(a, len(a))
    return sign * a[-1][-1] if rank == len(a) else 0


def _grid(n: int) -> list:
    """p(n) seeded points of Z^n, each with distinct coordinates."""
    rng = Random(n)
    span = range(-2 * n, 2 * n + 1)
    return [tuple(rng.sample(span, n)) for _ in all_partitions(n)]


def _power_sum_value(exponents: tuple, point: tuple) -> int:
    value = 1
    for e in exponents:
        value *= sum(x ** e for x in point)
    return value


def _power_sum_values(shapes, points) -> list:
    """Rows [p_alpha(x_i)] over the points; raises if they are not a basis."""
    values = [[_power_sum_value(a.parts, x) for x in points] for a in shapes]
    if _det(values) == 0:
        raise ConsistencyError(
            f"the {len(points)} grid points do not determine a symmetric "
            "form: the power-sum matrix is singular"
        )
    return values


def _schur_value(parts: tuple, point: tuple) -> int:
    """s_lam at a point with distinct coordinates, no fewer than lam's parts."""
    k = len(point)
    padded = parts + (0,) * (k - len(parts))
    num = _det([[x ** (padded[j] + k - 1 - j) for j in range(k)] for x in point])
    den = _det([[x ** (k - 1 - j) for j in range(k)] for x in point])
    # Not _exact_quotient: both determinants, and s_lam itself, may be negative.
    value, rest = divmod(num, den)
    if rest:
        raise ConsistencyError(f"bialternant of {parts} at {point} is not exact")
    return value


def _monomial_value(parts: tuple, point: tuple) -> int:
    """m_lam at a point: one term per distinct exponent vector.

    A dynamic program over the variables whose state is the sub-multiset
    of lam's parts not yet given out; each variable takes no part or one
    distinct part value, so every exponent vector is reached once.
    """
    states = {tuple(parts): 1}
    for x in point:
        after = dict(states)
        for unused, value in states.items():
            for i, part in enumerate(unused):
                if i and unused[i - 1] == part:
                    continue
                rest = unused[:i] + unused[i + 1 :]
                after[rest] = after.get(rest, 0) + value * x ** part
        states = after
    return states.get((), 0)


def _form(values, coeffs) -> list:
    """Values [sum over a, b of coeffs[a][b] f_a(x_i) f_b(x_j)] at grid pairs.

    values[a][i] is f_a at point i; values and coefficients are integers.
    """
    columns = list(zip(*values))
    right = list(zip(*([sum(map(mul, r, col)) for col in columns] for r in coeffs)))
    return [[sum(map(mul, x, y)) for y in right] for x in columns]


def _content_products(n: int, shapes) -> list:
    """Per shape, prod over its cells of (z + content) at z = 0..n.

    Divided by n! = dim * H this is the hook-content product over the
    dimension, the weight of s_lam(x) s_lam(y) in the shape expansions.
    """
    return [_content_sums(n, [(lam.parts, 1)], n) for lam in shapes]


def _diagonal(weights) -> list:
    size = len(weights)
    return [[w if a == b else 0 for b in range(size)] for a, w in enumerate(weights)]


def _mismatch(lhs, rhs, points) -> str:
    """Empty when the two grid-value matrices agree, else the first difference."""
    for x, left_row, right_row in zip(points, lhs, rhs):
        for y, left, right in zip(points, left_row, right_row):
            if left != right:
                return f"first mismatch at x={x}, y={y}: {left} != {right}"
    return ""


def verify_schur_identity(n: int) -> CheckReport:
    """Check the two-class generating function against its shape expansion.

    The left side, (1/n!^2) sum of xi((alpha, gamma), m) z^m p_alpha(x)
    p_gamma(y), comes from the counting engine; the right side, the sum
    over shapes lam of prod_cells (z + content) / n! s_lam(x) s_lam(y),
    from content products and bialternant Schur values, both times n!^2.
    One case per z = 0..n, each comparing every pair of grid points.
    """
    if n < 1:
        raise ValueError("verify_schur_identity requires n >= 1")
    report = CheckReport("schur-identity")
    shapes = all_partitions(n)
    points = _grid(n)
    p_values = _power_sum_values(shapes, points)
    s_values = [[_schur_value(lam.parts, x) for x in points] for lam in shapes]
    rows = [[[xi((a, g), m) for m in range(1, n + 1)] for g in shapes] for a in shapes]
    products = _content_products(n, shapes)
    n_fact = factorial(n)
    for z in range(n + 1):
        counts = [
            [sum(v * z ** m for m, v in enumerate(row, 1)) for row in r] for r in rows
        ]
        weights = [n_fact * values[z] for values in products]
        lhs = _form(p_values, counts)
        rhs = _form(s_values, _diagonal(weights))
        detail = _mismatch(lhs, rhs, points)
        report.add(f"n={n} z={z}", not detail, detail)
    return report


def verify_m1_identities(n: int) -> CheckReport:
    """Compare the three routes to the single-cycle generating function.

    (a) direct counts, (b) the alternating hook-content weights on Schur
    pairs, (c) the monomial-basis expression with factorial weights; each
    evaluated at every pair of grid points.  The weight of a shape is
    sum_k (-1)^(k-1) D_k / (k n!) over k = 1..n, with D_k the k-th forward
    difference at 0 of its content product prod_cells (z + content).  All
    three are times L n!^2 with L = lcm(1..n), which makes the weights
    integers, and the monomial coefficients L n! (n-v)! (n-l)!/(n+1-l-v)!
    for shapes of lengths l and v.
    """
    if n < 1:
        raise ValueError("verify_m1_identities requires n >= 1")
    report = CheckReport("m1-identities")
    shapes = all_partitions(n)
    points = _grid(n)
    big_l = lcm(*range(1, n + 1))
    n_fact = factorial(n)
    direct = _form(
        _power_sum_values(shapes, points),
        [[big_l * xi((a, g), 1) for g in shapes] for a in shapes],
    )

    weights = []
    for values in _content_products(n, shapes):
        weight = 0
        for k in range(1, n + 1):
            values = [b - a for a, b in zip(values, values[1:])]
            term = values[0] * (big_l // k)
            weight += term if k % 2 else -term
        weights.append(n_fact * weight)
    s_values = [[_schur_value(lam.parts, x) for x in points] for lam in shapes]
    shape_side = _form(s_values, _diagonal(weights))

    coeffs = [
        [
            big_l * n_fact * factorial(n - nu.length) * factorial(n - lam.length)
            // factorial(n + 1 - lam.length - nu.length)
            if lam.length + nu.length <= n + 1
            else 0
            for nu in shapes
        ]
        for lam in shapes
    ]
    m_values = [[_monomial_value(lam.parts, x) for x in points] for lam in shapes]
    monomial_side = _form(m_values, coeffs)

    for label, lhs, rhs in (
        ("direct == shape expansion", direct, shape_side),
        ("direct == monomial expression", direct, monomial_side),
        ("shape == monomial", shape_side, monomial_side),
    ):
        detail = _mismatch(lhs, rhs, points)
        report.add(f"n={n} {label}", not detail, detail)
    return report
