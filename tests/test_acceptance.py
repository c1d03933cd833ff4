"""Acceptance suite: one test per criterion, every check exact (tolerance zero).

Each test prints a PASS line on success (visible with pytest -s or -v);
any failure is a hard assertion with the offending case in the message.
"""

from itertools import product

from permfact.closedform import one_face_map_count, zagier_stanley
from permfact.countcore import _mu_cached, mu, xi
from permfact.dimred import _reduced_row, build_database
from permfact.exactnum import binomial
from permfact.oracle import brute_mu, brute_xi, _cycle_type_raw
from permfact.partition import Partition, all_partitions, class_size, remove_part
from permfact.symfun import verify_m1_identities, verify_schur_identity
from permfact.verify import (
    hz_series_check,
    jackson_by_length,
    mu_genus_zero,
    mu_one_p,
    mu_p_power,
    mu_t_p,
    mu_two_parts,
    polynomiality_check,
)


def _ok(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS {text}")


def test_criterion_01_oracle_equivalence_xi_pairs():
    for n in range(1, 7):
        classes = all_partitions(n)
        for alpha, gamma in product(classes, classes):
            for m in range(1, n + 1):
                expected = brute_xi((alpha, gamma), m)
                got = xi((alpha, gamma), m)
                assert got == expected, (alpha, gamma, m, got, expected)
    _ok(1, "xi equals brute force for all class pairs, n <= 6, all m")


def test_criterion_02_oracle_equivalence_xi_triples():
    for n in range(1, 6):
        classes = all_partitions(n)
        for triple in product(classes, repeat=3):
            for m in range(1, n + 1):
                expected = brute_xi(triple, m)
                got = xi(triple, m)
                assert got == expected, (triple, m, got, expected)
    _ok(2, "xi equals brute force for all class triples, n <= 5, all m")


def test_criterion_03_oracle_equivalence_mu():
    for n in range(1, 9):
        for gamma in all_partitions(n):
            for m in range(1, n + 1):
                expected = brute_mu(gamma, m)
                got = mu(gamma, m)
                assert got == expected, (gamma, m, got, expected)
    _ok(3, "mu equals the fixed-cycle brute force for all gamma, n <= 8, all m")


def test_criterion_04_closed_form_coherence():
    for n in range(1, 13):
        for m in range(1, n + 1):
            assert zagier_stanley(n, m) == mu(Partition([n]), m), ("zs", n, m)
            for p in range(n):
                gamma = Partition([1] * p + [n - p])
                assert mu_one_p(n, p, m) == mu(gamma, m), ("one_p", n, p, m)
            for p in range(1, n):
                gamma = Partition([p, n - p])
                assert mu_two_parts(n, p, m) == mu(gamma, m), ("two", n, p, m)
            for t in range(n - 1):
                for p in range(1, n - t):
                    if n - p - t < 1:
                        continue
                    gamma = Partition([1] * t + [p, n - p - t])
                    assert mu_t_p(n, t, p, m) == mu(gamma, m), ("t_p", n, t, p, m)
        for gamma in all_partitions(n):
            m0 = n + 1 - gamma.length
            assert mu_genus_zero(gamma) == mu(gamma, m0), ("g0", gamma)
        for p in range(1, n + 1):
            if n % p:
                continue
            blocks = n // p
            gamma = Partition([p] * blocks)
            for m in range(1, n + 1):
                assert mu_p_power(blocks, p, m) == mu(gamma, m), ("pow", p, m)
    _ok(4, "all specialized formulas match the general one for n <= 12")


def _matchings(points: tuple):
    """All perfect matchings of the given points, as pair lists."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k, partner in enumerate(rest):
        for sub in _matchings(rest[:k] + rest[k + 1:]):
            yield [(first, partner)] + sub


def _map_counts_by_genus(n: int) -> dict:
    """One-face map counts via fixed-point-free involutions against a full cycle."""
    size = 2 * n
    omega = tuple(list(range(1, size)) + [0])
    counts: dict = {}
    for matching in _matchings(tuple(range(size))):
        sigma = [0] * size
        for a, b in matching:
            sigma[a], sigma[b] = b, a
        pi = tuple(sigma[x] for x in omega)  # sigma^-1 = sigma
        m = len(_cycle_type_raw(pi))
        genus = (n + 1 - m) // 2
        counts[genus] = counts.get(genus, 0) + 1
    return counts


def test_criterion_05_harer_zagier_table():
    expected_table = {
        1: {0: 1},
        2: {0: 2, 1: 1},
        3: {0: 5, 1: 10},
        4: {0: 14, 1: 70, 2: 21},
        5: {0: 42, 1: 420, 2: 483},
    }
    for n, per_genus in expected_table.items():
        brute = _map_counts_by_genus(n)
        assert brute == per_genus, (n, brute)
        for g, value in per_genus.items():
            assert one_face_map_count(n, g) == value, (n, g)
        # Genus-0 column is the Catalan number.
        assert one_face_map_count(n, 0) == binomial(2 * n, n) // (n + 1)
    _ok(5, "one-face map table reproduced and confirmed by involution brute force")


def test_criterion_06_harer_zagier_generating_identities():
    report = hz_series_check(8)
    assert report.ok, [c.line() for c in report.failures]
    _ok(6, "both generating-function identities hold exactly for n <= 8")


def test_criterion_07_jackson_formula():
    for n in range(1, 9):
        for m in range(1, n + 1):
            for d in range(1, n + 1):
                direct = sum(mu(g, m) for g in all_partitions(n) if g.length == d)
                assert jackson_by_length(n, m, d) == direct, (n, m, d)
    assert jackson_by_length(2, 2, 1) == 1  # the x^2 y record
    assert jackson_by_length(2, 1, 2) == 1  # the x y^2 record
    _ok(7, "direct sum equals the closed sum (n! normalization) for n <= 8")


def test_criterion_08_schur_identity():
    for n in range(1, 7):
        report = verify_schur_identity(n)
        assert report.ok, [c.line() for c in report.failures]
    _ok(8, "two-class generating function equals its shape expansion, n <= 6")


def test_criterion_09_m1_identities():
    for n in range(1, 7):
        report = verify_m1_identities(n)
        assert report.ok, [c.line() for c in report.failures]
    _ok(9, "all three single-cycle generating expressions agree, n <= 6")


def test_criterion_10_dimension_reduction(tmp_path):
    for n in range(2, 11):
        for gamma in all_partitions(n):
            if gamma.length < 2:
                continue
            expected = _mu_cached(gamma.parts)
            for i in sorted(set(gamma.parts)):
                reduced = _mu_cached(remove_part(gamma, i).parts)
                got = tuple(_reduced_row(gamma, i, reduced))
                assert got == expected, (gamma, i, got, expected)
    db = build_database(10)  # validates every record internally
    assert db.n_max == 10 and db.rows
    from permfact.cli import main

    out_path = tmp_path / "counts.tsv"
    assert main(["db", "build", "--n-max", "10", "--out", str(out_path)]) == 0
    assert out_path.exists()
    _ok(10, "recursion matches the explicit formula for n <= 10; build validated")


def test_criterion_11_structural_properties():
    # Parity vanishing for n <= 8.
    for n in range(1, 9):
        for gamma in all_partitions(n):
            for m in range(1, n + 1):
                if (n + 1 - gamma.length - m) % 2:
                    assert mu(gamma, m) == 0, (gamma, m)

    # Integrality and nonnegativity of the public counts.
    for n in range(1, 7):
        classes = all_partitions(n)
        for alpha, gamma in product(classes, classes):
            for m in range(1, n + 1):
                value = xi((alpha, gamma), m)
                assert isinstance(value, int) and value >= 0
        for gamma in classes:
            for m in range(1, n + 1):
                value = mu(gamma, m)
                assert isinstance(value, int) and value >= 0

    # Row sums: the counts over all m exhaust the class product.
    for n in range(1, 7):
        classes = all_partitions(n)
        for alpha, gamma in product(classes, classes):
            total = sum(xi((alpha, gamma), m) for m in range(1, n + 1))
            assert total == class_size(alpha) * class_size(gamma)

    # Polynomial dependence on the parts, and the planar constants.
    for n in range(1, 13):
        for d in (2, 3):
            if d > n:
                continue
            for g in range(3):
                if 1 - 2 * g + n - d < 1:
                    continue
                report = polynomiality_check(n, d, g)
                assert report.ok, [c.line() for c in report.failures]
    for n in range(1, 11):
        for d in range(1, n + 1):
            report = polynomiality_check(n, d, 0)
            assert report.ok, [c.line() for c in report.failures]
    _ok(11, "parity, integrality, totals, and polynomiality all hold")
