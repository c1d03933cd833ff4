"""The central counting engine.

Counts tuples of permutations from prescribed conjugacy classes whose
product has a given number of cycles (xi), and factorizations of a fixed
full cycle into a class member times a permutation with m cycles (mu,
which is the one-face bipartite map count).  xi is computed in integers
from content polynomials; mu from an alternating Stirling sum scaled by n!
so that it is integer too.  Each is cached as one row m = 1..n per class
tuple (xi) or class (mu); every value in a row is divided exactly once,
and asserted integral and nonnegative there.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactnum import _stirling1_row, factorial
from .partition import Partition, all_partitions, class_size
from .charkit import _content_poly, character, dimension, frak_c, hook_character_poly


class ConsistencyError(ArithmeticError):
    """A count came out non-integral or negative, or an exact check could not
    be set up (a singular evaluation grid): an implementation bug."""


def _check_classes(classes) -> tuple:
    classes = tuple(classes)
    if not classes:
        raise ValueError("at least one conjugacy class is required")
    n = classes[0].n
    if n < 1:
        raise ValueError("classes must partition n >= 1")
    for c in classes[1:]:
        if c.n != n:
            raise ValueError(
                f"inconsistent class sizes: {classes[0]} and {c} partition different n"
            )
    return classes


def _character_product(values) -> int:
    """Product of character values, stopping at the first zero."""
    prod = 1
    for chi in values:
        if chi == 0:
            return 0
        prod *= chi
    return prod


def w_number(classes, m: int) -> Fraction:
    """Character-weighted class-product sum over all shapes.

    For classes C_1..C_t of S_n and 1 <= m <= n this is
    prod|C_i| / m! times the sum over shapes lam of
    frak_c(lam, m) * dim(lam)^(1-t) * prod_i character(lam, C_i).
    Together with an alternating Stirling transform it gives xi by a
    route independent of the content polynomials; tests compare the two.
    """
    classes = _check_classes(classes)
    n = classes[0].n
    if not 1 <= m <= n:
        raise ValueError(f"m = {m} out of range 1..{n}")
    t = len(classes)
    total = Fraction(0)
    for lam in all_partitions(n):
        chi_prod = _character_product(character(lam, c) for c in classes)
        if chi_prod == 0:
            continue
        total += frak_c(lam, m) * Fraction(chi_prod, dimension(lam) ** (t - 1))
    sizes = 1
    for c in classes:
        sizes *= class_size(c)
    return Fraction(sizes, factorial(m)) * total


def xi(classes, m: int) -> int:
    """Number of tuples (s_1..s_t), s_i in class C_i, whose product has m cycles.

    Read off the generating function (Stanley, EC2 7.21; Jackson 1988)
    sum_m xi(C, m) z^m = prod|C_i| / (n!)^t times the sum over shapes lam
    of prod_i chi_lam(C_i) * dim(lam) * H_lam^(t-1) * prod_cells (z + content),
    with H_lam the hook-length product.  All arithmetic is integer, and
    one pass over the shapes gives the whole row m = 1..n.  When some
    class is the full cycles only the hook shapes survive, and their
    characters come from the hook-character polynomials.
    """
    classes = _check_classes(classes)
    n = classes[0].n
    if not 1 <= m <= n:
        raise ValueError(f"m = {m} out of range 1..{n}")
    return _xi_cached(tuple(c.parts for c in classes))[m - 1]


@lru_cache(maxsize=None)
def _xi_cached(parts_tuple: tuple) -> tuple:
    classes = [Partition._from_sorted(p) for p in parts_tuple]
    n = classes[0].n
    t = len(classes)
    if (n,) in parts_tuple:
        others = list(parts_tuple)
        others.remove((n,))
        hooks = [hook_character_poly(Partition._from_sorted(p)) for p in others]
        shapes = [Partition._from_sorted((n - j,) + (1,) * j) for j in range(n)]
        chis = [(-1) ** j * _character_product(h[j] for h in hooks) for j in range(n)]
    else:
        shapes = all_partitions(n)
        chis = (_character_product(character(lam, c) for c in classes) for lam in shapes)
    n_fact = factorial(n)
    coeffs = [0] * (n + 1)
    for lam, chi_prod in zip(shapes, chis):
        if chi_prod == 0:
            continue
        dim = dimension(lam)
        weight = chi_prod * dim * (n_fact // dim) ** (t - 1)
        for k, a in enumerate(_content_poly(lam.parts)):
            coeffs[k] += weight * a
    sizes = 1
    for c in classes:
        sizes *= class_size(c)
    denominator = n_fact ** t
    row = []
    for m in range(1, n + 1):
        value, rest = divmod(sizes * coeffs[m], denominator)
        if rest or value < 0:
            raise ConsistencyError(
                f"xi came out {sizes * coeffs[m]}/{denominator} "
                f"for classes={parts_tuple}, m={m}"
            )
        row.append(value)
    return tuple(row)


def _edge_choice_poly(gamma_parts: tuple) -> list:
    """Coefficients of prod over parts g of ((1+y)^g - 1), dense and exact."""
    poly = [1]
    for g in gamma_parts:
        if g == 1:
            continue  # the factor y, applied at the end as a shift
        binomials = [comb(g, b) for b in range(1, g + 1)]
        prod = [0] * (len(poly) + g)
        for a, ca in enumerate(poly):
            if ca:
                for b, c in enumerate(binomials, start=a + 1):
                    prod[b] += ca * c
        poly = prod
    return [0] * gamma_parts.count(1) + poly


def mu(gamma: Partition, m: int) -> int:
    """One-face bipartite map count: factorizations of a fixed full cycle.

    Counts pairs (sigma, pi) with sigma of cycle type gamma, pi having m
    cycles and sigma*pi equal to the fixed cycle (1 2 ... n).  Degenerate
    inputs (m outside 1..n, or parity making the count vanish) return 0.
    The first call for a class computes its whole row m = 1..n, which is
    cached: with e the coefficients of prod over parts g of
    ((1+y)^g - 1), mu(gamma, m) = |C_gamma| / n! times
    sum_{j=m..n} (-1)^(j-m) c(j, m) e_(n-j+1) n!/j!, all in integers.
    """
    n = gamma.n
    if n < 1:
        raise ValueError("mu requires a partition of n >= 1")
    if m < 1 or m > n:
        return 0
    return _mu_cached(gamma.parts)[m - 1]


@lru_cache(maxsize=None)
def _mu_cached(gamma_parts: tuple) -> tuple:
    n = sum(gamma_parts)
    poly = _edge_choice_poly(gamma_parts)
    # a[j] = (-1)^j e_(n-j+1) n!/j!, the alternating Stirling sum's terms
    # scaled by n! so that they are integers; one exact division per m.
    # e_k vanishes below the part count, so a[j] vanishes above top.
    top = n + 1 - len(gamma_parts)
    a = [0] * (n + 1)
    falling = 1
    for j in range(n, 0, -1):
        term = poly[n - j + 1] * falling
        a[j] = -term if j % 2 else term
        falling *= j
    n_fact = falling
    stirling = [_stirling1_row(j) for j in range(top + 1)]
    gamma = Partition._from_sorted(gamma_parts)
    size = class_size(gamma)
    row = []
    for m in range(1, n + 1):
        if (top - m) % 2:
            row.append(0)  # sgn(sigma) sgn(pi) differs from the n-cycle's sign
            continue
        total = sum(stirling[j][m] * a[j] for j in range(m, top + 1))
        if m % 2:
            total = -total
        result, rest = divmod(size * total, n_fact)
        if rest or result < 0:
            raise ConsistencyError(
                f"mu came out {size * total}/{n_fact} for gamma={gamma}, m={m}"
            )
        row.append(result)
    return tuple(row)


def genus_of(n: int, d: int, m: int):
    """Genus from the Euler relation, or None when it is not realizable.

    For a one-face map on n edges whose factor cycle counts are d and m,
    2 - 2g = 1 + d + m - n.  Returns the nonnegative integer g, or None
    when 1 + n - d - m is negative or odd (the count vanishes there).
    """
    if n < 1 or d < 1 or m < 1:
        raise ValueError("genus_of requires positive n, d, m")
    g2 = 1 + n - d - m
    if g2 < 0 or g2 % 2 != 0:
        return None
    return g2 // 2
