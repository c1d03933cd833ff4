import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from permfact.charkit import character, dimension
from permfact import charkit, countcore, exactnum
from permfact.countcore import _edge_choice_poly, _mu_cached, genus_of, mu, xi
from permfact.exactnum import (
    ConsistencyError, _exact_quotient, binomial, factorial, stirling_first_signed,
    stirling_first_unsigned,
)
from permfact.oracle import brute_mu, brute_xi
from permfact.dimred import build_database
from permfact.partition import Partition, _z, all_partitions, class_size


def w_numbers(classes):
    """Reference W-numbers W(C, m) for m = 1..n, from single characters.

    W(C, m) is prod|C_i| / m! times the sum over shapes lam of
    frak_c(lam, m) dim(lam)^(1-t) prod_i chi_lam(C_i), where
    frak_c(lam, m) = D_m / H_lam and D_m = sum_d (-1)^d C(m, d) P(m - d),
    with P(z) = prod over the cells (i, j) of (z + j - i).  Since
    H dim = n!, the summand is D_m H^(t-2) chi / (n!)^(t-1) for t >= 2 and
    D_m dim chi / n! for t = 1, so m! (n!)^max(t-1, 1) W is a sum of
    integers; it is divided exactly.
    """
    n = classes[0].n
    t = len(classes)
    sizes = prod(class_size(c) for c in classes)
    terms = []
    for lam in all_partitions(n):
        chi = prod(character(lam, c) for c in classes)
        if chi:
            dim = dimension(lam)
            weight = dim if t == 1 else (factorial(n) // dim) ** (t - 2)
            cells = [j - i for i, row in enumerate(lam.parts) for j in range(row)]
            values = [prod(z + c for c in cells) for z in range(n + 1)]
            terms.append((chi * weight, values))
    row = []
    for m in range(1, n + 1):
        total = sum(
            weight * (-1) ** d * comb(m, d) * values[m - d]
            for weight, values in terms
            for d in range(m + 1)
        )
        value, rest = divmod(sizes * total, factorial(m) * factorial(n) ** max(t - 1, 1))
        assert rest == 0, (classes, m)
        row.append(value)
    return row


def xi_by_w_numbers(classes):
    """Reference xi row: alternating Stirling transform of the W-numbers."""
    n = classes[0].n
    w = w_numbers(classes)
    return [
        sum(
            (-1) ** k * stirling_first_unsigned(m + k, m) * w[m + k - 1]
            for k in range(n - m + 1)
        )
        for m in range(1, n + 1)
    ]


def edge_choice_by_parts(parts):
    """prod over every part g of ((1+y)^g - 1), multiplied out from [1]."""
    poly = [1]
    for g in parts:
        prod = [0] * (len(poly) + g)
        for a, ca in enumerate(poly):
            for b in range(1, g + 1):
                prod[a + b] += ca * binomial(g, b)
        poly = prod
    return poly


def mu_row_by_parts(parts):
    """Reference mu row m = 1..n: the edge-choice polynomial multiplied out
    part by part and the alternating Stirling sum term by term,
    class_size(gamma) sum_{j=m..n} (-1)^(j-m) c(j, m) e_(n-j+1) n!/j!
    divided exactly by n!.
    """
    gamma = Partition(parts)
    n = gamma.n
    poly = edge_choice_by_parts(gamma.parts)
    row = []
    for m in range(1, n + 1):
        total = sum(
            (-1) ** (j - m)
            * stirling_first_unsigned(j, m)
            * poly[n - j + 1]
            * (factorial(n) // factorial(j))
            for j in range(m, n + 1)
        )
        value, rest = divmod(class_size(gamma) * total, factorial(n))
        assert rest == 0 and value >= 0, (gamma, m)
        row.append(value)
    return tuple(row)


def mu_by_fractions(gamma, m):
    """Reference mu: the alternating Stirling sum in exact rationals.

    class_size(gamma) times the sum over k of (-1)^k c(m+k, m) e_(n-m-k+1)
    / (m+k)!, with e_j the coefficients of prod over parts g of ((1+y)^g - 1).
    """
    poly = edge_choice_by_parts(gamma.parts)
    n = gamma.n
    total = Fraction(0)
    for k in range(n - m + 1):
        term = Fraction(
            stirling_first_unsigned(m + k, m) * poly[n - m - k + 1], factorial(m + k)
        )
        total += -term if k % 2 else term
    return class_size(gamma) * total


def test_xi_examples():
    assert xi((Partition([2]), Partition([2])), 2) == 1
    assert xi((Partition([3]), Partition([3])), 1) == 2
    assert xi((Partition([3]), Partition([3]), Partition([3])), 1) == 6


def test_xi_matches_oracle_small():
    for n in range(1, 6):
        classes = all_partitions(n)
        for a in classes:
            for g in classes:
                for m in range(1, n + 1):
                    assert xi((a, g), m) == brute_xi((a, g), m), (a, g, m)


def test_xi_single_class():
    for n in range(1, 6):
        for c in all_partitions(n):
            for m in range(1, n + 1):
                expected = class_size(c) if c.length == m else 0
                assert xi((c,), m) == expected


def test_xi_class_order_invariance():
    # Every order is computed afresh: xi reads one cached row for all of them.
    row = countcore._xi_cached.__wrapped__
    for n in range(2, 5):
        for triple in combinations_with_replacement(all_partitions(n), 3):
            orders = set(permutations(c.parts for c in triple))
            base = row(orders.pop())
            for order in orders:
                assert row(order) == base, order


def test_xi_reads_one_cached_row_for_every_order_of_the_classes():
    classes = tuple(Partition(p) for p in ((3, 1, 1), (2, 2, 1), (4, 1)))
    countcore._xi_cached.cache_clear()
    xi(classes, 1)
    before = countcore._xi_cached.cache_info()
    assert [xi(order, 3) for order in permutations(classes)] == [xi(classes, 3)] * 6
    after = countcore._xi_cached.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def xi_row(classes):
    return [xi(classes, m) for m in range(1, classes[0].n + 1)]


def test_xi_matches_w_number_route():
    for n in range(1, 8):
        for classes in product(all_partitions(n), repeat=2):
            assert xi_row(classes) == xi_by_w_numbers(classes), classes
    for n in range(1, 6):
        for classes in product(all_partitions(n), repeat=3):
            assert xi_row(classes) == xi_by_w_numbers(classes), classes


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_xi_matches_w_number_route_sampled(data):
    n = data.draw(st.integers(min_value=8, max_value=12))
    classes = all_partitions(n)
    pair = (data.draw(st.sampled_from(classes)), data.draw(st.sampled_from(classes)))
    assert xi_row(pair) == xi_by_w_numbers(pair), pair


def check_xi_identities(classes):
    """Sum over m, parity vanishing and class-order invariance of one xi row."""
    n = classes[0].n
    row = [xi(classes, m) for m in range(1, n + 1)]
    sizes = 1
    for c in classes:
        sizes *= class_size(c)
    assert sum(row) == sizes
    # The product of the classes has sign prod (-1)^(n - length).
    sign = sum(n - c.length for c in classes)
    for m, value in enumerate(row, start=1):
        if (sign + n - m) % 2:
            assert value == 0, (classes, m)
    # xi computed the row from the sorted parts; other orders are computed afresh.
    parts = tuple(c.parts for c in classes)
    for order in {parts, parts[::-1]} - {tuple(sorted(parts))}:
        assert list(countcore._xi_cached.__wrapped__(order)) == row, order


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_xi_identities_past_brute_force(data):
    n = data.draw(st.integers(min_value=10, max_value=16))
    t = data.draw(st.integers(min_value=2, max_value=3))
    classes = tuple(
        data.draw(st.sampled_from(all_partitions(n))) for _ in range(t)
    )
    check_xi_identities(classes)


@settings(deadline=None, max_examples=10)
@given(st.data())
def test_xi_pair_identities_at_large_n(data):
    n = data.draw(st.integers(min_value=17, max_value=24))
    classes = all_partitions(n)
    pair = (data.draw(st.sampled_from(classes)), data.draw(st.sampled_from(classes)))
    check_xi_identities(pair)


def _seeded_class(n, rng):
    """Parts drawn uniformly from 1..7 until n is filled (the last one cut)."""
    parts = []
    while sum(parts) < n:
        parts.append(min(rng.randint(1, 7), n - sum(parts)))
    return Partition(parts)


def test_xi_rows_past_the_references_are_pinned():
    # The W-number reference stops at n = 12 and the identities sample
    # n <= 24, so these digests pin whole xi rows beyond them: general
    # pairs at n = 26..32, a triple without a full cycle at n = 27, and
    # hook-path pairs at n = 40 and 60.
    cases = []
    for seed, n in [(1, 26), (2, 28), (3, 30), (4, 32)]:
        rng = random.Random(seed)
        cases.append((_seeded_class(n, rng), _seeded_class(n, rng)))
    rng = random.Random(5)
    cases.append(tuple(_seeded_class(27, rng) for _ in range(3)))
    for n in (40, 60):
        cases.append((Partition([n]), _seeded_class(n, random.Random(n))))
    digest = hashlib.sha256()
    for classes in cases:
        digest.update(repr(xi_row(classes)).encode())
    assert digest.hexdigest() == (
        "0138f3c359f3e034e6b3980b96fb37e814ea6aecc30012d6b2c575af6c02e135"
    )


def test_xi_row_of_a_seeded_pair_at_n_40_is_pinned():
    # The first seeded pair of n = 40, where the half-node mirror does most
    # of its work; the digest was computed when xi evaluated every node.
    rng = random.Random(1)
    classes = (_seeded_class(40, rng), _seeded_class(40, rng))
    digest = hashlib.sha256(repr(xi_row(classes)).encode()).hexdigest()
    assert digest == "19fdbdb877392261c4e3998ef0cbac3102fd7f9a164fc330e8a8d6694fa80785"


def test_xi_evaluates_content_sums_only_at_the_half_nodes(monkeypatch):
    calls = []
    content_sums = countcore._content_sums

    def spy(n, terms, top):
        terms = list(terms)  # a stream is read once; the sums need it too
        calls.append((n, top, max(len(shape) for shape, _ in terms)))
        return content_sums(n, terms, top)

    monkeypatch.setattr(countcore, "_content_sums", spy)
    cases = [
        ((5, 3, 1), (2, 2, 2, 1, 1, 1)),
        ((4, 4, 2, 2), (3, 3, 2, 2, 1, 1), (2, 2, 2, 2, 2, 2)),
        ((1,) * 11,),
        ((3, 3, 1, 1, 1),),
    ]
    cases += [((n,), (2,) * (n // 2) + (1,) * (n % 2)) for n in (12, 13)]
    for parts_tuple in cases:
        row = countcore._xi_cached.__wrapped__(parts_tuple)
        # Every tuple of class members has a product with some cycle count.
        assert sum(row) == prod(class_size(Partition(p)) for p in parts_tuple)
    # A single class is read off in closed form, with no content sums.
    assert len(calls) == 4
    for k, (n, top, rows) in enumerate(calls):
        assert top == (n + 1) // 2
        if k < 2:  # the column path keeps only shapes with at most top rows
            assert rows <= top


def test_xi_keeps_no_shapes_beside_the_columns(monkeypatch):
    # The character products are streamed from the columns into the content
    # sums, so the row costs little memory beyond the columns themselves: a
    # dict or list of the surviving shapes would take more than half of it.
    rng = random.Random(1)
    parts_tuple = tuple(_seeded_class(36, rng).parts for _ in range(2))
    for parts in parts_tuple:
        charkit._identity_column(parts.count(1))  # shared levels, not columns
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        columns = {p: charkit._char_column.__wrapped__(p) for p in parts_tuple}
        base = tracemalloc.get_traced_memory()[0]
        monkeypatch.setattr(charkit, "_char_column", columns.__getitem__)
        tracemalloc.reset_peak()
        row = countcore._xi_cached.__wrapped__(parts_tuple)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Every pair of class members has a product with some number of cycles.
    assert sum(row) == prod(class_size(Partition(p)) for p in parts_tuple)
    assert peak - base < 0.25 * (base - start), (peak - base, base - start)


def xi_row_from_all_nodes(classes):
    """xi row from the content sums at every node z = 0..n, characters
    from character(): the route without the conjugation mirror."""
    n = classes[0].n
    t = len(classes)
    terms = []
    for lam in all_partitions(n):
        chi = prod(character(lam, c) for c in classes)
        if chi:
            dim = dimension(lam)
            weight = dim if t == 1 else (factorial(n) // dim) ** (t - 2)
            terms.append((lam.parts, chi * weight))
    values = countcore._content_sums(n, terms, n)
    differences = []
    for _ in range(n):
        values = [b - a for a, b in zip(values, values[1:])]
        differences.append(values[0])
    return list(
        countcore._finish_row(
            differences,
            n,
            sum(n - c.length for c in classes) + n,
            factorial(n) ** max(t, 2) // prod(class_size(c) for c in classes),
            "xi({}, {})",
            classes,
        )
    )


def test_xi_matches_the_rows_from_all_nodes():
    # Single classes, every unordered pair (those with a full cycle take
    # the hook path) up to n = 9 and every unordered triple up to n = 6.
    for n in range(1, 10):
        shapes = all_partitions(n)
        cases = [(c,) for c in shapes]
        cases += combinations_with_replacement(shapes, 2)
        if n <= 6:
            cases += combinations_with_replacement(shapes, 3)
        for classes in cases:
            assert xi_row(classes) == xi_row_from_all_nodes(classes), classes


def test_xi_drops_the_identity_class_and_reads_one_class_in_closed_form():
    # The class 1^n has one member, the identity, so adding it to a product
    # changes no count; the all-node route keeps it as a class of its own.
    rng = random.Random(3)
    a, b = _seeded_class(12, rng), _seeded_class(12, rng)
    identity = Partition([1] * 12)
    assert xi_row((a, identity, b)) == xi_row_from_all_nodes((a, identity, b))
    assert xi_row((a, identity, b)) == xi_row((a, b))
    assert xi_row((identity, a, identity)) == xi_row_from_all_nodes((a,))
    # Every member of one class has as many cycles as the class has parts.
    c = Partition([7, 6, 5, 5, 4, 3, 3, 2, 2, 1, 1, 1])
    assert xi_row((c,)) == [class_size(c) if m == 12 else 0 for m in range(1, 41)]


def test_xi_keys_a_product_without_its_identity_classes():
    # The row cache's key leaves 1^n out, so every product that differs
    # only by identity classes reads one row: one miss, one entry.
    a, b = Partition([3, 2, 1]), Partition([2, 2, 2])
    identity = Partition([1] * 6)
    countcore._xi_cached.cache_clear()
    products = [(a, b), (a, identity, b), (a, b, identity, identity)]
    rows = {tuple(xi_row(classes)) for classes in products}
    assert len(rows) == 1
    info = countcore._xi_cached.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # A product of identity classes alone is keyed by 1^n: the identity.
    assert xi_row((identity, identity)) == xi_row((identity,)) == [0] * 5 + [1]
    assert countcore._xi_cached.cache_info().misses == 2


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_xi_pair_totals(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    classes = all_partitions(n)
    a = data.draw(st.sampled_from(classes))
    g = data.draw(st.sampled_from(classes))
    total = sum(xi((a, g), m) for m in range(1, n + 1))
    assert total == class_size(a) * class_size(g)


def stirling_finish(d, n, parity, divisor, what, where):
    """Reference finish by the signed Stirling numbers of the first kind:
    entry m sums s(k, m) d_k n!/k! over k = m..top and divides it exactly
    by divisor; an m whose parity differs from parity's is 0."""
    row = [0] * n
    for m in range(2 - parity % 2, len(d) + 1, 2):
        total = sum(
            stirling_first_signed(k, m) * d[k - 1] * (factorial(n) // factorial(k))
            for k in range(m, len(d) + 1)
        )
        row[m - 1] = _exact_quotient(total, divisor, what, where, m)
    return tuple(row)


def test_finish_row_rejects_a_total_its_divisor_does_not_divide():
    # mu's finish for the class 2,1, whose centralizer order is 2: divided
    # by 4 instead, the m = 2 entry is no longer a whole count.
    gamma = Partition([2, 1])
    d = edge_choice_by_parts(gamma.parts)[:1:-1]
    assert countcore._finish_row(d, 3, 2, 2, "mu({}, {})", gamma) == _mu_cached((2, 1))
    with pytest.raises(ConsistencyError, match=r"^mu\(2,1, 2\) came out 6/4$"):
        countcore._finish_row(d, 3, 2, 4, "mu({}, {})", gamma)
    # With d_2 raised by 1, Q(y) = 9y^2 - 3y: at y = 256 the -3 borrows
    # from slot 2, whose 8 the divisor divides, and leaves 253 in slot 1,
    # which parity rules out.
    d[1] += 1
    with pytest.raises(ConsistencyError, match=r"^mu\(2,1, 1\) read 253, past 0$"):
        countcore._finish_row(d, 3, 2, 2, "mu({}, {})", gamma)
    # d = [1, -1] gives Q(y) = 6y - 3y(y-1) = -3y^2 + 9y, negative at 256.
    with pytest.raises(ConsistencyError, match=r"^mu\(2,1, all m\) overflows its byte slots$"):
        countcore._finish_row([1, -1], 3, 2, 2, "mu({}, {})", gamma)
    # d = [1, 1] gives Q(y) = 3y^2 + 3y, whose y^1 parity rules out.
    with pytest.raises(ConsistencyError, match=r"^mu\(2,1, 1\) read 3, past 0$"):
        countcore._finish_row([1, 1], 3, 2, 2, "mu({}, {})", gamma)
    # d = [1, 92, 6] gives Q(y) = 6y^3 + 258y^2 - 258y, summing to Q(1) = 6:
    # at y = 256 it is 7 * 256^3 + 254 * 256, with slots (7, 0, 254) that
    # pass both checks above but not the total.
    with pytest.raises(ConsistencyError, match=r"^mu\(3, 1\) read 254, past 6$"):
        countcore._finish_row([1, 92, 6], 3, 3, 3, "mu({}, {})", Partition([3]))


def test_finish_row_matches_the_stirling_finish(monkeypatch):
    # Every finish of a core or identity class to n = 22, and of a pair of
    # classes to n = 9, against the reference.  A single class, or a pair
    # with the identity class 1^n, which xi keys as the other class alone,
    # is read off in closed form, with no finish.
    finish = countcore._finish_row
    calls = []
    countcore._xi_cached.cache_clear()  # every distinct key finishes once

    def compared(d, n, parity, divisor, what, where):
        calls.append(where)
        row = finish(d, n, parity, divisor, what, where)
        assert row == stirling_finish(d, n, parity, divisor, what, where), where
        return row

    monkeypatch.setattr(countcore, "_finish_row", compared)
    for n in range(1, 23):
        shapes = all_partitions(n)
        for gamma in shapes:
            if gamma.parts[-1] != 1 or gamma.length == n:
                _mu_cached.__wrapped__(gamma.parts)
        if n <= 9:
            cases = [(c,) for c in shapes] + list(combinations_with_replacement(shapes, 2))
            for classes in cases:
                countcore._xi_row(tuple(c.parts for c in classes))
    # 1 023 cores and identity classes, 861 pairs without 1^n.
    assert len(calls) == 1884


def test_mu_and_xi_leave_the_stirling_table_as_they_found_it(monkeypatch):
    # The finish reads no Stirling numbers, so no cold mu row (n = 60, and
    # one with 16 fixed points at n = 40) and no cold xi row (a pair at
    # n = 30, a triple at n = 10) grows either kind's table.  Nor does the
    # reduction recursion grow the second kind's, as it solves in the
    # falling-factorial basis: a database build and a chain leave it one
    # row long.  (Both ground one-part classes in Zagier-Stanley, which
    # reads the first kind.)
    from test_dimred import _row_along_the_chain

    monkeypatch.setattr(exactnum, "_STIRLING1_ROWS", [[1]])
    monkeypatch.setattr(exactnum, "_STIRLING2_ROWS", [[1]])
    _mu_cached.__wrapped__((12, 10, 9, 8, 7, 5, 4, 3, 2))
    _mu_cached.__wrapped__((9, 7, 5, 3) + (1,) * 16)
    countcore._xi_cached.__wrapped__(((8, 7, 5, 4, 3, 2, 1), (10, 6, 4, 4, 3, 3)))
    countcore._xi_cached.__wrapped__(((3, 3, 2, 2), (4, 3, 3), (5, 5)))
    assert len(exactnum._STIRLING1_ROWS) == len(exactnum._STIRLING2_ROWS) == 1
    build_database(12)
    _row_along_the_chain((2,) * 30)
    assert len(exactnum._STIRLING2_ROWS) == 1


def test_mu_examples():
    assert mu(Partition([3]), 1) == 1
    assert mu(Partition([2, 1]), 2) == 3
    assert mu(Partition([2, 2]), 3) == 2


def test_mu_degenerate_inputs_return_zero():
    assert mu(Partition([2, 1]), 4) == 0
    assert mu(Partition([2, 1]), 0) == 0
    assert mu(Partition([2, 1]), -1) == 0


def test_mu_matches_oracle_small():
    for n in range(1, 8):
        for gamma in all_partitions(n):
            for m in range(1, n + 1):
                assert mu(gamma, m) == brute_mu(gamma, m), (gamma, m)


def test_mu_parity_vanishing():
    for n in range(1, 9):
        for gamma in all_partitions(n):
            for m in range(1, n + 1):
                if (n + 1 - gamma.length - m) % 2:
                    assert mu(gamma, m) == 0, (gamma, m)


def test_mu_matches_fraction_route():
    for n in range(1, 13):
        for gamma in all_partitions(n):
            for m in range(1, n + 1):
                assert mu(gamma, m) == mu_by_fractions(gamma, m), (gamma, m)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_mu_matches_fraction_route_sampled(data):
    n = data.draw(st.integers(min_value=13, max_value=30))
    gamma = data.draw(st.sampled_from(all_partitions(n)))
    for m in range(1, n + 1):
        assert mu(gamma, m) == mu_by_fractions(gamma, m), (gamma, m)


def test_mu_rows_match_reference_rows():
    for n in range(1, 17):
        for gamma in all_partitions(n):
            assert _mu_cached(gamma.parts) == mu_row_by_parts(gamma.parts), gamma


def test_mu_rows_match_reference_rows_sampled():
    rng = random.Random(14)
    for _ in range(40):
        left, parts = rng.randint(20, 40), []
        while left:
            parts.append(rng.randint(1, left))
            left -= parts[-1]
        gamma = Partition(parts)
        assert _mu_cached(gamma.parts) == mu_row_by_parts(gamma.parts), gamma


def mu_row_by_finish(parts):
    """mu row of the class with these parts by the per-class route: the
    Stirling finish of its own edge-choice coefficients, divided by its
    centralizer order, fixed points or not."""
    n, length = sum(parts), len(parts)
    d = edge_choice_by_parts(parts)[: length - 1 : -1]
    return countcore._finish_row(
        d, n, n + 1 - length, _z(parts), "mu({}, {})", Partition(parts)
    )


def test_fixed_point_rows_match_the_per_class_finish():
    # mu scales a class with fixed points from its core's row; the finish
    # of the class's own coefficients is the route that scaling replaced.
    checked = 0
    for n in range(1, 27):
        for gamma in all_partitions(n):
            if gamma.parts[-1] == 1:
                assert _mu_cached(gamma.parts) == mu_row_by_finish(gamma.parts), gamma
                checked += 1
    assert checked == 9296


def test_fixed_point_rows_match_reference_rows_at_large_n():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(41, 80)
        fixed = rng.randint(5, n - 2)
        left, parts = n - fixed, [1] * fixed
        while left:
            part = rng.randint(2, min(left, 9))
            if left - part != 1:
                parts.append(part)
                left -= part
        gamma = Partition(parts)
        assert _mu_cached(gamma.parts) == mu_row_by_parts(gamma.parts), gamma


def test_build_finishes_only_cores_and_identity_classes(monkeypatch):
    calls = []
    finish = countcore._finish_row

    def counted(d, n, parity, divisor, what, where):
        calls.append(where)
        return finish(d, n, parity, divisor, what, where)

    monkeypatch.setattr(countcore, "_finish_row", counted)
    _mu_cached.cache_clear()
    build_database(12)
    # 76 classes of n <= 12 without a part 1 and 12 identity classes; the
    # per-class route took all 271.
    assert len(calls) == 88
    assert all(
        gamma.parts[-1] != 1 or gamma.length == gamma.n for gamma in calls
    )


def test_a_cold_mu_of_a_class_with_fixed_points_caches_its_core():
    _mu_cached.cache_clear()
    assert mu(Partition([3, 1, 1]), 1) == 10 * mu(Partition([3]), 1) == 10
    info = _mu_cached.cache_info()
    # (3, 1, 1) missed, its core (3,) missed and was cached, then hit.
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_mu_and_xi_reject_an_m_that_is_not_an_int():
    with pytest.raises(TypeError, match=r"^m must be an int, got 5\.5$"):
        mu(Partition([2, 1]), 5.5)
    with pytest.raises(TypeError, match=r"^m must be an int, got True$"):
        mu(Partition([3]), True)
    with pytest.raises(TypeError, match=r"^m must be an int, got 2\.0$"):
        mu(Partition([2, 1]), 2.0)
    with pytest.raises(TypeError, match=r"^m must be an int, got 1\.5$"):
        xi((Partition([2, 1]), Partition([3])), 1.5)
    with pytest.raises(TypeError, match=r"^m must be an int, got False$"):
        xi((Partition([2, 1]), Partition([3])), False)


def test_edge_choice_poly_of_a_long_class():
    # (1+y)^2 - 1 = y (2 + y), to the 1100th power, from y^2200 down to y^1100.
    k = 1100
    poly = _edge_choice_poly((2,) * k)
    assert poly == [comb(k, i) * 2 ** (k - i) for i in range(k, -1, -1)]


def test_edge_choice_poly_matches_the_product_by_parts():
    # Every core of n <= 30, and the one-part cores, whose coefficients sum
    # to 2^n - 1 and so fill their byte slots the most.
    cores = [
        gamma.parts
        for n in range(31)
        for gamma in all_partitions(n)
        if not gamma.parts or gamma.parts[-1] != 1
    ]
    cores += [(n,) for n in range(31, 201)]
    for core in cores:
        nonzero = edge_choice_by_parts(core)[: len(core) - 1 : -1] if core else [1]
        assert _edge_choice_poly(core) == nonzero, core


def test_countcore_keeps_no_module_level_store():
    build_database(12)
    mu(Partition([5, 3, 1, 1]), 2)
    xi((Partition([4, 2]), Partition([3, 3])), 2)
    stores = [
        name
        for name, value in vars(countcore).items()
        if isinstance(value, (dict, list)) and not name.startswith("__")
    ]
    assert stores == []


def mu_at_two_matches(gamma):
    """sum_m 2^m mu(gamma, m) == class_size(gamma) (n + 2 - m_1).

    sum_m mu(gamma, m) x^m = |C_gamma| sum_j e_(n-j+1) C(x, j), with e the
    coefficients of prod over parts g of ((1+y)^g - 1).  At x = 2 only
    j = 1, 2 survive, with e_n = 1 and e_(n-1) = n - m_1, m_1 the number
    of parts equal to 1.
    """
    n = gamma.n
    weighted = sum(2**m * mu(gamma, m) for m in range(1, n + 1))
    return weighted == class_size(gamma) * (n + 2 - gamma.parts.count(1))


def test_mu_generating_function_at_two():
    for n in range(1, 15):
        for gamma in all_partitions(n):
            assert mu_at_two_matches(gamma), gamma


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_mu_generating_function_at_two_sampled(data):
    n = data.draw(st.integers(min_value=15, max_value=30))
    gamma = data.draw(st.sampled_from(all_partitions(n)))
    assert mu_at_two_matches(gamma), gamma


def test_mu_is_xi_with_fixed_full_cycle():
    for n in range(1, 13):
        full = Partition([n])
        for gamma in all_partitions(n):
            for m in range(1, n + 1):
                assert mu(gamma, m) * factorial(n - 1) == xi((full, gamma), m)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_mu_is_xi_with_fixed_full_cycle_sampled(data):
    n = data.draw(st.integers(min_value=13, max_value=20))
    gamma = data.draw(st.sampled_from(all_partitions(n)))
    full = Partition([n])
    for m in range(1, n + 1):
        assert mu(gamma, m) * factorial(n - 1) == xi((gamma, full), m)


def test_genus_of():
    assert genus_of(4, 2, 3) == 0
    assert genus_of(4, 2, 1) == 1
    assert genus_of(3, 1, 2) is None
    assert genus_of(3, 3, 3) is None  # negative Euler defect
    assert genus_of(1, 1, 1) == 0
    with pytest.raises(ValueError):
        genus_of(0, 1, 1)
