"""Named verification suites driven by the CLI.

Each suite cross-checks one family of results, usually formula versus
brute force or two independent formulas against each other, and returns
a CheckReport with one case per unit of work.  Suite sizes are capped by
the brute-force guards where applicable.  The checks that only a suite
runs live here too: the closed forms that only cross-check mu (the
genus-zero quotient, the near-hook, two/three-part and power-block
classes, and the by-part-count aggregation), the one-face map
generating-function identities (hz_series_check) and the polynomiality
of weighted counts (polynomiality_check).  The CLI imports this module
only for its verify command.
"""

from itertools import product

from .exactnum import (
    _exact_quotient,
    binomial,
    double_factorial_odd,
    factorial,
    stirling_first_signed,
    stirling_first_unsigned,
)
from .partition import Partition, all_partitions, aut_lambda, class_size, remove_part
from .countcore import _mu_cached, _xi_row, mu
from . import closedform, dimred, oracle, symfun
from .report import CheckReport

DEFAULT_N_MAX = {
    "oracle": 5,
    "closedform": 10,
    "schur": 3,
    "m1": 4,
    "jackson": 8,
    "hz": 8,
    "dimred": 8,
    "polynomiality": 10,
}


def suite_oracle(n_max: int) -> CheckReport:
    """Counting engine versus exhaustive enumeration.

    For pairs, triples and one-face counts in turn, each class tuple's
    whole row m = 1..n is fetched from the engine's cache, which computes
    it once per multiset of classes, and compared entry by entry with the
    oracle's table for n, read once; a failing case is labelled by its
    classes and m, in that order.
    """
    report = CheckReport("oracle")
    for label, limit, build, arity, engine_row in (
        ("pairs", oracle._T2_LIMIT, oracle._xi2_table, 2, _xi_row),
        ("triples", oracle._T3_LIMIT, oracle._xi3_table, 3, _xi_row),
        ("one-face", oracle._T2_LIMIT, oracle._mu_table, 1, lambda key: _mu_cached(*key)),
    ):
        for n in range(1, min(n_max, limit) + 1):
            table = build(n)
            bad = []
            for classes in product(all_partitions(n), repeat=arity):
                key = tuple(c.parts for c in classes)
                for m, value in enumerate(engine_row(key), start=1):
                    if value != table.get((*key, m), 0):
                        bad.append(f"({';'.join(map(str, classes))};m={m})")
            report.add(f"{label} n={n}", not bad, ", ".join(bad[:3]))
    return report


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


def _closedform_cases(n: int):
    """(family, tag template, [(tag fields, closed form, mu value)]) for each
    specialized formula at n; a tag is formatted only for a failing case.
    The mu values are read from each class's cached row m = 1..n, and each
    closed form is computed once."""
    ms = range(1, n + 1)
    cycle = _mu_cached((n,))
    yield "zagier-stanley", "m={}", [
        ((m,), closedform.zagier_stanley(n, m), cycle[m - 1]) for m in ms
    ]
    yield "near-hook", "(p={},m={})", [
        ((p, m), mu_one_p(n, p, m), row[m - 1])
        for p in range(n)
        for row in [_mu_cached(Partition([1] * p + [n - p]).parts)]
        for m in ms
    ]
    three_block = [
        ((t, p, m), mu_t_p(n, t, p, m), row[m - 1])
        for t in range(n - 1)
        for p in range(1, n - t)
        for row in [_mu_cached(Partition([1] * t + [p, n - p - t]).parts)]
        for m in ms
    ]
    yield "three-block", "(t={},p={},m={})", three_block
    # The two-part forms are also compared with the three-block ones at t = 0.
    t_zero = {(p, m): closed for (t, p, m), closed, _ in three_block if t == 0}
    two_part = []
    for p in range(1, n):
        row = _mu_cached(Partition([p, n - p]).parts)
        for m in ms:
            closed = mu_two_parts(n, p, m)
            two_part.append(((p, m, ""), closed, row[m - 1]))
            two_part.append(((p, m, " vs three-block"), closed, t_zero[p, m]))
    yield "two-part", "(p={},m={}){}", two_part
    yield "genus-zero", "{}", [
        ((gamma,), mu_genus_zero(gamma), _mu_cached(gamma.parts)[n - gamma.length])
        for gamma in all_partitions(n)
    ]
    yield "equal-part", "(p={},m={})", [
        ((p, m), mu_p_power(n // p, p, m), row[m - 1])
        for p in range(1, n + 1)
        if n % p == 0
        for row in [_mu_cached(Partition([p] * (n // p)).parts)]
        for m in ms
    ]


def suite_closedform(n_max: int) -> CheckReport:
    """Every specialized formula against the general explicit one."""
    report = CheckReport("closedform")
    for n in range(1, n_max + 1):
        for family, tag, cases in _closedform_cases(n):
            bad = [tag.format(*fields) for fields, closed, value in cases if closed != value]
            report.add(f"{family} n={n}", not bad, ", ".join(bad[:3]))
    return report


def suite_schur(n_max: int) -> CheckReport:
    report = CheckReport("schur")
    for n in range(1, n_max + 1):
        report.extend(symfun.verify_schur_identity(n))
    return report


def suite_m1(n_max: int) -> CheckReport:
    report = CheckReport("m1")
    for n in range(1, n_max + 1):
        report.extend(symfun.verify_m1_identities(n))
    return report


def jackson_by_length(n: int, m: int, d: int) -> int:
    """Total count over all classes of n with exactly d parts.

    The closed single sum
    n! sum_k (-1)^(k-m) c(k,m)/k! C(n-1,k-1) c(n-k+1,d)/(n-k+1)!,
    summed in integers as sum_k (-1)^(k-m) c(k,m) C(n-1,k-1) c(n-k+1,d)
    C(n+1,k) and divided exactly by n+1, since n!/(k!(n-k+1)!) equals
    C(n+1,k)/(n+1).  suite_jackson and the tests compare it with
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


def suite_jackson(n_max: int) -> CheckReport:
    """By-part-count aggregation: closed vs direct sum, and the bivariate identity."""
    report = CheckReport("jackson")
    for n in range(1, n_max + 1):
        # Direct totals over the classes with d parts, from each class's mu row.
        totals = dict.fromkeys(product(range(1, n + 1), repeat=2), 0)
        for gamma in all_partitions(n):
            for m, count in enumerate(_mu_cached(gamma.parts), start=1):
                totals[m, gamma.length] += count
        bad = []
        for (m, d), direct in totals.items():
            closed = jackson_by_length(n, m, d)
            if closed != direct:
                bad.append(f"(m={m}, d={d}): direct {direct}, closed {closed}")
        report.add(f"direct vs closed sum n={n}", not bad, "; ".join(bad[:2]))

        # Bivariate identity with the n! normalization, at integer points.
        bad = []
        for x in range(n + 1):
            for y in range(n + 1):
                lhs = sum(
                    v * x ** m * y ** d for (m, d), v in totals.items()
                )
                rhs = factorial(n) * sum(
                    binomial(n - 1, k - 1)
                    * binomial(x, k)
                    * binomial(y + n - k, n - k + 1)
                    for k in range(1, n + 1)
                )
                if lhs != rhs:
                    bad.append(f"(x={x},y={y}): {lhs} != {rhs}")
        report.add(f"generating identity n={n}", not bad, "; ".join(bad[:2]))
    return report


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
    counts = {n: closedform.hz_table(n) for n in range(n_max + 1)}

    for n in range(1, n_max + 1):
        detail = ""
        # Both sides times (n+1)!, so that each C(x,i)/i! term is an integer.
        scale = factorial(n + 1)
        odd = double_factorial_odd(n)
        lhs_coeffs = {n + 1 - 2 * g: count * scale for g, count in enumerate(counts[n])}
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
            for g, count in enumerate(counts[n]):
                if count != closedform.one_face_map_count(n, g):
                    detail = f"table row at n={n}, g={g} vs explicit sum"
                    break
        report.add(f"single-variable identity n={n}", not detail, detail)

    limit = n_max + 1
    # The y^(n+1) coefficients times (2n-1)!!, so that the left side is an integer.
    odds = [1] + [double_factorial_odd(n) for n in range(n_max + 1)]
    for x in xs:
        series = _series_ratio_power(x, limit)
        lhs = [1] + [
            sum(2 * count * x ** (n + 1 - 2 * g) for g, count in enumerate(counts[n]))
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


def suite_hz(n_max: int) -> CheckReport:
    """One-face map counts: generating identities, pairing classes, Catalan."""
    report = CheckReport("hz")
    report.extend(hz_series_check(n_max))
    for n in range(1, min(n_max, 5) + 1):
        gamma = Partition([2] * n)
        bad = []
        for g in range(n // 2 + 1):
            if closedform.one_face_map_count(n, g) != mu(gamma, n + 1 - 2 * g):
                bad.append(f"g={g}")
        report.add(f"map counts vs pairing class n={n}", not bad, ", ".join(bad))
    bad = []
    for n in range(1, n_max + 1):
        catalan = binomial(2 * n, n) // (n + 1)
        if closedform.one_face_map_count(n, 0) != catalan:
            bad.append(f"n={n}")
    report.add(f"genus-0 column is Catalan n<={n_max}", not bad, ", ".join(bad))
    return report


def suite_dimred(n_max: int) -> CheckReport:
    """Reduction recursion versus the explicit formula, plus a build."""
    report = CheckReport("dimred")
    for n in range(2, n_max + 1):
        bad = []
        for gamma in all_partitions(n):
            if gamma.length < 2:
                continue
            for i in sorted(set(gamma.parts)):
                reduced = _mu_cached(remove_part(gamma, i).parts)
                row = dimred._reduced_row(gamma, i, reduced)
                expected = _mu_cached(gamma.parts)
                if tuple(row) != expected:
                    bad.extend(
                        f"({gamma};m={m};i={i})"
                        for m in range(1, n + 1)
                        if row[m - 1] != expected[m - 1]
                    )
        report.add(f"recursion vs explicit n={n}", not bad, ", ".join(bad[:3]))
    try:
        db = dimred.build_database(n_max)
        records = sum(len(row) - row.count(0) for row in db.rows.values())
        report.add(f"database build n_max={n_max} ({records} records)", True)
    except dimred.DatabaseBuildError as exc:
        report.add(f"database build n_max={n_max}", False, str(exc))
    return report


def _solvable(matrix: list[list[int]], rhs: list[int]) -> bool:
    """Whether A c = v admits a solution (rank(A) == rank([A|v])).

    [A|v] is eliminated over A's columns; the rows past A's rank are then
    zero in A, so the system is consistent iff they are zero in v too.
    """
    rows = [row + [val] for row, val in zip(matrix, rhs)]
    rank, _ = symfun._echelon(rows, len(matrix[0]) if matrix else 0)
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
    matrix = [[symfun._power_sum_value(b, lam.parts) for b in basis] for lam in points]
    ok = _solvable(matrix, values)
    report.add(f"degree<={2 * g} symmetric fit at {label}", ok)
    return report


def suite_polynomiality(n_max: int) -> CheckReport:
    """Weighted counts as bounded-degree symmetric polynomials of the parts."""
    report = CheckReport("polynomiality")
    for n in range(1, n_max + 1):
        for d in (2, 3):
            if d > n:
                continue
            for g in range(0, 3):
                if 1 - 2 * g + n - d < 1:
                    continue
                report.extend(polynomiality_check(n, d, g))
    return report


SUITES = {
    "oracle": suite_oracle,
    "closedform": suite_closedform,
    "schur": suite_schur,
    "m1": suite_m1,
    "jackson": suite_jackson,
    "hz": suite_hz,
    "dimred": suite_dimred,
    "polynomiality": suite_polynomiality,
}


def run_suite(name: str, n_max=None) -> CheckReport:
    """Run one named suite (or 'all') and return the combined report."""
    if name == "all":
        report = CheckReport("all")
        for sub in SUITES:
            cap = n_max if n_max is not None else DEFAULT_N_MAX[sub]
            report.extend(run_suite(sub, cap))
        return report
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    cap = n_max if n_max is not None else DEFAULT_N_MAX[name]
    return SUITES[name](cap)
