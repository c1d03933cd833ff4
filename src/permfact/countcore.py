"""The central counting engine.

Counts tuples of permutations from prescribed conjugacy classes whose
product has a given number of cycles (xi), and factorizations of a fixed
full cycle into a class member times a permutation with m cycles (mu,
which is the one-face bipartite map count).  xi is computed in integers
from whole character columns and the content products evaluated at
z = 0..ceil(n/2), the shapes streamed from the columns into those sums
and none kept; the conjugation symmetry of the shape sum gives its
values at the negative nodes, and the forward differences of all of
them give the shape sum in falling factorials.  mu's edge-choice
coefficients are such coefficients already.  One finish, _finish_row,
turns either into the row m = 1..n, scaled by n! so that it stays in
integers: it reads the coefficient of each z^m off one evaluation at
256^w, and divides each entry once by the classes' centralizer orders.
Each is cached as one row m = 1..n per multiset of classes (xi) or class
(mu); every value in a row that parity does not force to 0 is divided
exactly once, and asserted integral and nonnegative there.
xi drops an identity class 1^n from a product first, since its one
member changes no product.  If one class is left, xi needs no pass:
every member has as many cycles as the class has parts, so the row is
|C| there and 0 elsewhere.
A class with fixed points is not finished: a part 1 only multiplies the
edge-choice polynomial by y, so mu(gamma, m) = C(n, m_1) mu(core, m),
m_1 the number of parts 1 (see mu), and its row is its core's cached
row times that binomial, padded with m_1 zeros.  Only the cores and the
identity classes 1^n run the finish; every entry of a scaled row is a
checked core count times a positive integer.  The tests keep the
per-class finish as the check of this scaling, and dimred's build
compares it with the recursion's own scaling by n/m_1.
xi's generating function is a product over the classes' characters, so
it does not depend on their order: _xi_row keys the cache by the
classes' parts sorted, 1^n left out, and every order of the same classes,
with or without identity classes, reads one row.
These are the only production routes to xi and mu; the independent
routes that check them (the W-number transform of single characters,
the brute-force oracle, the closed forms) live in verify and the tests.
"""

from functools import lru_cache
from itertools import repeat
from math import comb, prod
from operator import add, mul, sub

from .exactnum import _byte_slots, _check_int, _exact_quotient, _falling_horner, factorial
from .exactnum import ConsistencyError
from .partition import Partition, _z
from .charkit import _content_sums, _hook_product, _shape_characters


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


def xi(classes, m: int) -> int:
    """Number of tuples (s_1..s_t), s_i in class C_i, whose product has m cycles.

    Read off the generating function (Stanley, EC2 7.21; Jackson 1988)
    sum_m xi(C, m) z^m = prod|C_i| / (n!)^t times the sum over shapes lam
    of prod_i chi_lam(C_i) * dim(lam) * H_lam^(t-1) * prod_cells (z + content),
    with H_lam the hook-length product.  The character products stream
    from charkit._shape_characters, one shape at a time, into the shape
    sum P, evaluated at z = 0..ceil(n/2), one rising factorial per row, on
    the shapes with at most ceil(n/2) rows (the others vanish there).
    Conjugating a shape negates its contents, keeps dim and H and
    multiplies each character by its class's sign, so P(-z) = +-P(z),
    with the sign of the class product times (-1)^n.  That gives the
    values at -ceil(n/2)..-1, and these n + 1 or more points fix P.  Its
    forward differences at 0 are its coefficients in the falling factorials
    z(z-1)...(z-k+1)/k!, which _finish_row turns into powers of z, all in
    integers.  One pass gives the whole row m = 1..n,
    in which the m that parity rules out are 0.  The product over the
    classes does not depend on their order, so the row is cached once per
    multiset of classes, under their parts sorted (_xi_row).  A product
    of one class, after dropping the identity classes 1^n, is read off in
    closed form (see the module docstring).  An m outside 1..n raises
    ValueError, and one that is a bool or not an int raises TypeError.
    """
    _check_int(m, "m")
    classes = _check_classes(classes)
    n = classes[0].n
    if not 1 <= m <= n:
        raise ValueError(f"m = {m} out of range 1..{n}")
    return _xi_row(tuple(c.parts for c in classes))[m - 1]


def _xi_row(parts_tuple: tuple) -> tuple:
    """xi's cached row m = 1..n for the classes with these parts, in any
    order: the row depends only on their multiset (see xi), so the cache
    key is the parts sorted.  The class 1^n has one member, the identity,
    which changes no product, so the key leaves it out, unless every
    class is 1^n: the key is then 1^n alone."""
    classes = [parts for parts in parts_tuple if parts[0] != 1] or parts_tuple[:1]
    return _xi_cached(tuple(sorted(classes)))


@lru_cache(maxsize=None)
def _xi_cached(parts_tuple: tuple) -> tuple:
    n = sum(parts_tuple[0])
    # Every member of one class has as many cycles as the class has parts.
    if len(parts_tuple) < 2:
        row = [0] * n
        row[len(parts_tuple[0]) - 1] = factorial(n) // _z(parts_tuple[0])
        return tuple(row)
    t = len(parts_tuple)
    half = (n + 1) // 2
    # dim * H^(t-1) = n! * H^(t-2): the n! joins the (n!)^t of the
    # generating function, and pairs need no hook products at all.  The
    # finish carries one more factor n!.  Against prod |C_i| = prod n!/z_i
    # that leaves the divisor prod z_i.
    divisor = prod(map(_z, parts_tuple))
    terms = _shape_characters(parts_tuple, half)
    if t > 2:
        terms = ((s, chi * _hook_product(s) ** (t - 2)) for s, chi in terms)
    # The product of the classes has sign (-1)^(sum of n - parts), and a
    # permutation with m cycles has sign (-1)^(n - m).
    parity = sum(n - len(p) for p in parts_tuple) + n
    # The shape sum has P(-z) = (-1)^parity P(z) (see xi), so its values at
    # z = 0..half give those at -half..-1.  The forward differences at
    # -half, moved half steps by D^k P(z+1) = D^k P(z) + D^(k+1) P(z), are
    # the D_k at 0 with P = sum_k D_k z(z-1)...(z-k+1)/k!; D_0 = P(0) = 0.
    values = _content_sums(n, terms, half)
    mirrored = values[:0:-1]
    if parity % 2:
        mirrored = [-v for v in mirrored]
    values = mirrored + values
    column = [values[0]]
    for _ in range(2 * half):
        values = list(map(sub, values[1:], values))
        column.append(values[0])
    for _ in range(half):
        column = list(map(add, column, column[1:] + [0]))
    return _finish_row(column[1 : n + 1], n, parity, divisor, "xi({}, {})", parts_tuple)


def _finish_row(d: list, n: int, parity: int, divisor: int, what: str, where) -> tuple:
    """Row m = 1..n of n! * [z^m] sum_k d_k z(z-1)...(z-k+1)/k! divided by
    divisor, for d = [d_1, .., d_top] with top <= n.

    Q(y) = sum_k d_k (n!/k!) y(y-1)...(y-k+1) has these scaled counts as
    coefficients, each in 0..Q(1) = d_1 n!, so Q at 256^width, width bytes
    holding Q(1), keeps each in its own slot.  An m whose parity differs
    from parity's is 0; every other entry is one exact division, named by
    what formatted with where and m.  A count is the class sizes over a
    denominator times its coefficient, and the caller passes the fraction
    reduced by the class sizes, n!/|C| = z the centralizer order (z for
    mu, prod z_i for xi): the quotient is the same number, and a remainder
    or a negative quotient arises exactly where the unreduced division
    would give one.  A Q that overflows its slots, a slot past Q(1) or a
    nonzero slot that parity rules out raises ConsistencyError.
    """
    top, total = len(d), d[0] * factorial(n)
    width = total.bit_length() // 8 + 1
    value = _falling_horner(d, n, width)
    if value < 0 or value.bit_length() > 8 * width * top:
        raise ConsistencyError(f"{what.format(where, 'all m')} overflows its byte slots")
    row = [0] * n
    for m, q in enumerate(reversed(_byte_slots(value, width, top, top)), 1):
        bound = 0 if (m - parity) % 2 else total
        if q > bound:
            raise ConsistencyError(f"{what.format(where, m)} read {q}, past {bound}")
        if bound:  # otherwise q is 0, as row[m - 1] already is
            row[m - 1] = _exact_quotient(q, divisor, what, where, m)
    return tuple(row)


def _edge_choice_poly(core: tuple) -> list:
    """Coefficients of prod over the core's parts g of ((1+y)^g - 1) from
    degree n down to the part count, for a core of parts >= 2 summing to n;
    those below vanish, since each factor is a multiple of y.

    The product is taken in integers at y = 256^width, one factor per
    distinct part raised to its multiplicity, and each coefficient is read
    off its own width bytes.  No slot carries into the next: the
    coefficients are nonnegative and sum to prod (2^g - 1) < 2^n < 256^width.
    """
    n = sum(core)
    width = n // 8 + 1
    value = prod(((256**width + 1) ** g - 1) ** core.count(g) for g in set(core))
    return _byte_slots(value, width, n + 1, n + 1 - len(core))


def mu(gamma: Partition, m: int) -> int:
    """One-face bipartite map count: factorizations of a fixed full cycle.

    Counts pairs (sigma, pi) with sigma of cycle type gamma, pi having m
    cycles and sigma*pi equal to the fixed cycle (1 2 ... n).  Degenerate
    inputs (m outside 1..n, or parity making the count vanish) return 0;
    an m that is a bool or not an int raises TypeError.  The first call
    for a class computes its whole row m = 1..n, which is cached: with e
    the coefficients of prod over parts g of ((1+y)^g - 1),
    mu(gamma, m) = |C_gamma| / n! times sum_{j=m..n} (-1)^(j-m) c(j, m)
    e_(n-j+1) n!/j!, which _finish_row reads off byte slots in integers.

    A class with 1 <= m_1 < n parts 1 and core gamma_c, its parts >= 2,
    n_c = n - m_1, has mu(gamma, m) = C(n, m_1) mu(gamma_c, m).  Proof:
    each part 1 contributes the factor y, so e_(n-j+1)(gamma) =
    e_(n_c-j+1)(gamma_c) for every j; and |C_gamma|/n! = 1/z_gamma with
    z_gamma = z_core m_1!, while n!/j! = (n!/n_c!)(n_c!/j!), so the sum
    above for gamma is n!/(n_c! m_1!) times the sum for gamma_c.  Its
    row is therefore the core's cached row times C(n, m_1), 0 past
    m = n_c; only cores and the identity classes 1^n are computed.
    """
    _check_int(m, "m")
    n = gamma.n
    if n < 1:
        raise ValueError("mu requires a partition of n >= 1")
    if m < 1 or m > n:
        return 0
    return _mu_cached(gamma.parts)[m - 1]


@lru_cache(maxsize=None)
def _mu_cached(gamma_parts: tuple) -> tuple:
    n = sum(gamma_parts)
    length = len(gamma_parts)
    ones = gamma_parts.count(1)
    if 0 < ones < length:
        # mu(gamma, m) = C(n, m_1) mu(core, m), and the core's counts stop
        # at m = n - m_1 (see mu).
        core_row = _mu_cached(gamma_parts[: length - ones])
        return tuple(map(mul, core_row, repeat(comb(n, ones)))) + (0,) * ones
    # The sum's falling-factorial coefficients are d_j = e_(n-j+1), the
    # core's coefficients highest first (a part 1 only shifts them); e_k
    # vanishes below the part count, so j stops at n + 1 - length, which
    # is also the parity: otherwise sgn(sigma) sgn(pi) is not the n-cycle's.
    d = _edge_choice_poly(gamma_parts[: length - ones])
    return _finish_row(
        d, n, n + 1 - length, _z(gamma_parts), "mu({}, {})",
        Partition._from_sorted(gamma_parts),
    )


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
