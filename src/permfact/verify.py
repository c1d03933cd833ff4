"""Named verification suites driven by the CLI.

Each suite cross-checks one family of results, usually formula versus
brute force or two independent formulas against each other, and returns
a CheckReport with one case per unit of work.  Suite sizes are capped by
the brute-force guards where applicable.
"""

from itertools import product

from .exactnum import binomial, factorial
from .partition import Partition, all_partitions, remove_part
from .countcore import _mu_cached, mu, xi
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
    """Counting engine versus exhaustive enumeration."""
    report = CheckReport("oracle")
    for n in range(1, min(n_max, oracle._T2_LIMIT) + 1):
        classes = all_partitions(n)
        bad = []
        for a, g, m in product(classes, classes, range(1, n + 1)):
            if xi((a, g), m) != oracle.brute_xi((a, g), m):
                bad.append(f"({a};{g};m={m})")
        report.add(f"pairs n={n}", not bad, ", ".join(bad[:3]))
    for n in range(1, min(n_max, oracle._T3_LIMIT) + 1):
        classes = all_partitions(n)
        bad = []
        for a, b, g in product(classes, repeat=3):
            for m in range(1, n + 1):
                if xi((a, b, g), m) != oracle.brute_xi((a, b, g), m):
                    bad.append(f"({a};{b};{g};m={m})")
        report.add(f"triples n={n}", not bad, ", ".join(bad[:3]))
    for n in range(1, min(n_max, oracle._MU_LIMIT) + 1):
        bad = []
        for g in all_partitions(n):
            for m in range(1, n + 1):
                if mu(g, m) != oracle.brute_mu(g, m):
                    bad.append(f"({g};m={m})")
        report.add(f"one-face n={n}", not bad, ", ".join(bad[:3]))
    return report


def _closedform_cases(n: int):
    """(family, tag template, [(tag fields, closed form, mu value)]) for each
    specialized formula at n; a tag is formatted only for a failing case."""
    ms = range(1, n + 1)
    cycle = Partition([n])
    yield "zagier-stanley", "m={}", [
        ((m,), closedform.zagier_stanley(n, m), mu(cycle, m)) for m in ms
    ]
    yield "near-hook", "(p={},m={})", [
        ((p, m), closedform.mu_one_p(n, p, m), mu(gamma, m))
        for p in range(n)
        for gamma in [Partition([1] * p + [n - p])]
        for m in ms
    ]
    yield "three-block", "(t={},p={},m={})", [
        ((t, p, m), closedform.mu_t_p(n, t, p, m), mu(gamma, m))
        for t in range(n - 1)
        for p in range(1, n - t)
        for gamma in [Partition([1] * t + [p, n - p - t])]
        for m in ms
    ]
    two_part = []
    for p in range(1, n):
        gamma = Partition([p, n - p])
        for m in ms:
            closed = closedform.mu_two_parts(n, p, m)
            two_part.append(((p, m, ""), closed, mu(gamma, m)))
            two_part.append(((p, m, " vs three-block"), closed, closedform.mu_t_p(n, 0, p, m)))
    yield "two-part", "(p={},m={}){}", two_part
    yield "genus-zero", "{}", [
        ((gamma,), closedform.mu_genus_zero(gamma), mu(gamma, n + 1 - gamma.length))
        for gamma in all_partitions(n)
    ]
    yield "equal-part", "(p={},m={})", [
        ((p, m), closedform.mu_p_power(n // p, p, m), mu(gamma, m))
        for p in range(1, n + 1)
        if n % p == 0
        for gamma in [Partition([p] * (n // p))]
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
            closed = closedform.jackson_by_length(n, m, d)
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


def suite_hz(n_max: int) -> CheckReport:
    """One-face map counts: generating identities, pairing classes, Catalan."""
    report = CheckReport("hz")
    report.extend(closedform.hz_series_check(n_max))
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
                report.extend(closedform.polynomiality_check(n, d, g))
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
