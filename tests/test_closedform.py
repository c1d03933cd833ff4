import pytest

from permfact import closedform, verify
from permfact.closedform import hz_table, one_face_map_count, zagier_stanley
from permfact.verify import (
    _solvable,
    hz_series_check,
    jackson_by_length,
    mu_genus_zero,
    mu_one_p,
    mu_p_power,
    mu_t_p,
    mu_two_parts,
    polynomiality_check,
    suite_closedform,
)
from permfact.countcore import ConsistencyError, mu
from permfact.exactnum import _exact_quotient, binomial, stirling_first_unsigned
from permfact.partition import Partition, all_partitions


def test_mu_genus_zero_examples():
    assert mu_genus_zero(Partition([2, 1])) == 3
    assert mu_genus_zero(Partition([2, 2, 2])) == 5  # Catalan C_3
    assert mu_genus_zero(Partition([4])) == 1


def test_mu_genus_zero_matches_general(n_max=9):
    for n in range(1, n_max + 1):
        for gamma in all_partitions(n):
            assert mu_genus_zero(gamma) == mu(gamma, n + 1 - gamma.length)


def test_zagier_stanley_examples():
    assert zagier_stanley(3, 1) == 1
    assert zagier_stanley(3, 2) == 0
    assert zagier_stanley(5, 3) == 15


@pytest.mark.parametrize("m", [True, 2.0, 3.0])
def test_zagier_stanley_rejects_an_m_that_is_not_an_int(m):
    # True answered for m = 1, 2.0 returned 0 and 3.0 failed on a list index.
    with pytest.raises(TypeError, match=rf"^m must be an int, got {m!r}$"):
        zagier_stanley(5, m)


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: zagier_stanley(True, 1), "n", True),
        (lambda: zagier_stanley(3.0, 1), "n", 3.0),
        (lambda: one_face_map_count(4, True), "g", True),
        (lambda: one_face_map_count(4.0, 1), "n_edges", 4.0),
        (lambda: one_face_map_count(True, 0), "n_edges", True),
        (lambda: hz_table(True), "n_edges", True),
        (lambda: hz_table(4.0), "n_edges", 4.0),
    ],
    ids=["zs-n-bool", "zs-n-float", "ofmc-g-bool", "ofmc-edges-float", "ofmc-edges-bool",
         "hz-bool", "hz-float"],
)
def test_size_and_genus_arguments_must_be_ints(call, name, value):
    # True answered as 1: one_face_map_count(4, True) gave the genus-1
    # count 70, hz_table(True) a row with n_edges=True, and
    # zagier_stanley(True, 1) the count for n = 1.
    with pytest.raises(TypeError, match=rf"^{name} must be an int, got {value!r}$"):
        call()


def test_zagier_stanley_matches_general(n_max=10):
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            assert zagier_stanley(n, m) == mu(Partition([n]), m)


def test_mu_one_p_examples():
    assert mu_one_p(3, 1, 2) == 3
    assert mu_one_p(3, 0, 1) == 1  # reduces to two full cycles
    assert mu_one_p(4, 1, 1) == 4
    assert mu_one_p(4, 1, 2) == 0  # parity


def test_mu_one_p_matches_general(n_max=9):
    for n in range(1, n_max + 1):
        for p in range(n):
            gamma = Partition([1] * p + [n - p])
            for m in range(1, n + 1):
                assert mu_one_p(n, p, m) == mu(gamma, m), (n, p, m)


def test_mu_one_p_at_p0_is_zagier_stanley(n_max=10):
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            assert mu_one_p(n, 0, m) == zagier_stanley(n, m)


def test_mu_t_p_examples():
    assert mu_t_p(3, 0, 1, 2) == 3
    for m in range(1, 5):
        assert mu_t_p(4, 1, 1, m) == mu(Partition([2, 1, 1]), m)
    assert mu_t_p(4, 0, 3, 1) == mu(Partition([3, 1]), 1) == 4
    assert mu_t_p(4, 0, 3, 2) == 0  # parity


def test_mu_t_p_matches_general(n_max=9):
    for n in range(2, n_max + 1):
        for t in range(n - 1):
            for p in range(1, n - t):
                if n - p - t < 1:
                    continue
                gamma = Partition([1] * t + [p, n - p - t])
                for m in range(1, n + 1):
                    assert mu_t_p(n, t, p, m) == mu(gamma, m), (n, t, p, m)


def test_boccara_case(n_max=10):
    # Class (n-1, 1): count is 2/(n-1) c(n, m) for odd n-m.
    for n in range(3, n_max + 1):
        for m in range(1, n + 1):
            if (n - m) % 2:
                expected = 2 * stirling_first_unsigned(n, m) // (n - 1)
                assert 2 * stirling_first_unsigned(n, m) % (n - 1) == 0
            else:
                expected = 0
            assert mu_t_p(n, 0, 1, m) == expected


def test_mu_two_parts_examples():
    assert mu_two_parts(3, 1, 2) == 3
    assert mu_two_parts(4, 2, 2) == 0  # n - m even
    for m in range(1, 5):
        assert mu_two_parts(4, 2, m) == mu(Partition([2, 2]), m)


def test_mu_two_parts_matches_mu_t_p(n_max=10):
    for n in range(2, n_max + 1):
        for p in range(1, n):
            for m in range(1, n + 1):
                assert mu_two_parts(n, p, m) == mu_t_p(n, 0, p, m)


def test_one_face_map_counts():
    assert one_face_map_count(1, 0) == 1
    assert one_face_map_count(3, 0) == 5
    assert one_face_map_count(2, 1) == 1
    assert one_face_map_count(3, 1) == 10
    with pytest.raises(ValueError):
        one_face_map_count(2, 2)


def test_one_face_genus_zero_is_catalan():
    for n in range(1, 13):
        assert one_face_map_count(n, 0) == binomial(2 * n, n) // (n + 1)


def test_one_face_matches_pairing_class(n_max=5):
    for n in range(1, n_max + 1):
        gamma = Partition([2] * n)
        for g in range(n // 2 + 1):
            assert one_face_map_count(n, g) == mu(gamma, n + 1 - 2 * g)


def test_hz_table_shape():
    assert hz_table(4) == [14, 70, 21]


def test_hz_table_rejects_negative_edges():
    with pytest.raises(ValueError):
        hz_table(-1)
    assert hz_table(0) == [1]


def test_hz_table_recursion_matches_explicit_sum():
    # Every edge count of perfbench's session workload (up to 80), and beyond.
    for n in [*range(81), 100, 150, 200]:
        assert hz_table(n) == [one_face_map_count(n, g) for g in range(n // 2 + 1)], n


def test_exact_quotient_rejects_remainder_and_negative():
    assert _exact_quotient(12, 4, "q") == 3
    assert _exact_quotient(0, 5, "q") == 0
    with pytest.raises(ConsistencyError):
        _exact_quotient(7, 2, "q")
    with pytest.raises(ConsistencyError):
        _exact_quotient(-6, 3, "q")


def test_solvable_rank_test():
    assert _solvable([[1, 2], [2, 4]], [1, 2])  # consistent, singular
    assert not _solvable([[1, 2], [2, 4]], [1, 3])
    assert _solvable([[0, 1], [0, 2], [0, 3]], [2, 4, 6])  # empty column
    assert not _solvable([[0, 1], [0, 2], [0, 3]], [2, 4, 7])
    assert _solvable([[2, 3], [4, 5]], [7, 11])  # invertible
    assert _solvable([[0, 1], [1, 0], [1, 1]], [2, 3, 5])  # needs a row swap
    assert not _solvable([[0, 1], [1, 0], [1, 1]], [2, 3, 6])


def test_hz_series_check_catches_perturbed_table(monkeypatch):
    true_table = closedform.hz_table

    def perturbed(n_edges):
        rows = true_table(n_edges)
        if n_edges == 4:
            rows[1] += 1
        return rows

    monkeypatch.setattr(closedform, "hz_table", perturbed)
    report = hz_series_check(6)
    labels = [c.label for c in report.failures]
    assert "single-variable identity n=4" in labels
    assert any(label.startswith("bivariate identity") for label in labels)


def test_hz_series_check_compares_table_with_explicit_sum(monkeypatch):
    true_count = closedform.one_face_map_count

    def perturbed(n_edges, g):
        return true_count(n_edges, g) + ((n_edges, g) == (3, 1))

    monkeypatch.setattr(closedform, "one_face_map_count", perturbed)
    report = hz_series_check(6)
    assert [(c.label, c.detail) for c in report.failures] == [
        ("single-variable identity n=3", "table row at n=3, g=1 vs explicit sum")
    ]


def test_mu_p_power_examples():
    assert mu_p_power(2, 3, 5) == 3  # generalized Catalan C(6,2)/5
    assert mu_p_power(3, 2, 4) == 5
    assert mu_p_power(2, 2, 1) == one_face_map_count(2, 1)


def test_mu_p_power_matches_general():
    for blocks in range(1, 5):
        for p in range(1, 5):
            if blocks * p > 12:
                continue
            gamma = Partition([p] * blocks)
            for m in range(1, blocks * p + 1):
                assert mu_p_power(blocks, p, m) == mu(gamma, m), (blocks, p, m)


def test_mu_p_power_extreme_is_generalized_catalan():
    for blocks in range(1, 5):
        for p in range(2, 5):
            m = blocks * (p - 1) + 1
            expected = binomial(blocks * p, blocks) // m
            assert mu_p_power(blocks, p, m) == expected


def test_jackson_by_length_examples():
    assert jackson_by_length(2, 2, 1) == 1
    assert jackson_by_length(2, 1, 2) == 1
    assert jackson_by_length(3, 1, 1) == 1


def test_jackson_by_length_internal_agreement(n_max=7):
    # The closed sum equals the direct sum of mu over the length-d classes;
    # the grand total over m and d counts every possible class factor
    # exactly once.
    from permfact.exactnum import factorial

    for n in range(1, n_max + 1):
        total = 0
        for m in range(1, n + 1):
            for d in range(1, n + 1):
                closed = jackson_by_length(n, m, d)
                direct = sum(mu(g, m) for g in all_partitions(n) if g.length == d)
                assert closed == direct, (n, m, d)
                total += closed
        assert total == factorial(n)


def test_hz_series_check_passes():
    assert hz_series_check(0).ok
    assert hz_series_check(1).ok
    report = hz_series_check(6)
    assert report.ok, [c.label for c in report.failures]


def test_polynomiality_check():
    assert polynomiality_check(6, 2, 0).ok
    assert polynomiality_check(8, 2, 1).ok
    assert polynomiality_check(5, 5, 0).ok
    assert polynomiality_check(10, 3, 2).ok
    with pytest.raises(ValueError):
        polynomiality_check(3, 2, 3)  # no valid cycle number


def test_suite_closedform_computes_each_three_block_form_once(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return mu_t_p(*args)

    monkeypatch.setattr(verify, "mu_t_p", spy)
    report = suite_closedform(10)
    assert report.ok, [c.label for c in report.failures]
    # The two-part family reads its t = 0 values from the three-block one.
    assert len(calls) == len(set(calls)) == 1320
