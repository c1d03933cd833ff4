"""Symmetric-group character machinery.

The one owner of a shape's cell data: its hook-length product and its
content polynomial prod over the cells of (z + content), which countcore
sums for xi.  On top of them: irreducible character values via the
Murnaghan-Nakayama border-strip recursion, representation dimensions
from the hook-length formula, the hook-content products m_{lam}(z) (the
content polynomial at z over the hook product) and their alternating
binomial transform, and the generating polynomial for hook-shape
characters.

The character recursion works on beta-sets (first-column hook lengths):
removing a border strip of length r is moving a bead down r positions on
the abacus, with sign (-1)^(number of beads jumped).  Values are memoized
keyed by (remaining shape, remaining class parts); class parts are
consumed largest first, and once only 1-cycles remain the value is the
dimension of the remaining shape.
"""

from fractions import Fraction
from functools import lru_cache

from .exactnum import binomial, factorial
from .partition import Partition


def _conjugate(parts: tuple) -> tuple:
    if not parts:
        return ()
    conj = [0] * parts[0]
    for p in parts:
        for j in range(p):
            conj[j] += 1
    return tuple(conj)


@lru_cache(maxsize=512)
def _content_poly(parts: tuple) -> tuple:
    """Coefficients of prod over the cells of a shape of (z + content), z^0 first.

    Cached, since every xi row and every frak_m value of a shape reads it;
    512 entries hold every shape of one n up to n = 19.
    """
    poly = [1]
    for i, row_len in enumerate(parts):
        for j in range(row_len):
            poly = [(j - i) * a + b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly)


@lru_cache(maxsize=None)
def _hook_product(parts: tuple) -> int:
    conj = _conjugate(parts)
    prod = 1
    for i, row_len in enumerate(parts, start=1):
        for j in range(1, row_len + 1):
            prod *= (row_len - j) + (conj[j - 1] - i) + 1
    return prod


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible representation indexed by lam.

    Hook-length formula: n! divided by the product of all hook lengths.
    """
    if not lam.parts:
        return 1
    return factorial(lam.n) // _hook_product(lam.parts)


# Memo of character values keyed by (shape parts, remaining class parts).
_char_cache: dict = {}


def _mn_character(shape: tuple, parts: tuple) -> int:
    if not parts:
        return 1
    if parts[0] == 1:
        # Parts are consumed largest first, so the rest is the identity
        # class, where the character is the dimension; this also bounds the
        # recursion depth by the number of parts >= 2.
        return factorial(len(parts)) // _hook_product(shape)
    key = (shape, parts)
    cached = _char_cache.get(key)
    if cached is not None:
        return cached
    r = parts[0]
    rest = parts[1:]
    k = len(shape)
    beta = [shape[i] + k - 1 - i for i in range(k)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted([c for c in beta if c != b] + [nb], reverse=True)
        newshape = tuple(
            p for p in (newbeta[j] - (k - 1 - j) for j in range(k)) if p > 0
        )
        sub = _mn_character(newshape, rest)
        total += sub if height % 2 == 0 else -sub
    _char_cache[key] = total
    return total


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value of shape lam at class mu (same n >= 1)."""
    if lam.n != mu.n:
        raise ValueError(f"size mismatch: {lam} is not a partition of {mu.n}")
    if lam.n < 1:
        raise ValueError("character requires partitions of n >= 1")
    return _mn_character(lam.parts, mu.parts)


@lru_cache(maxsize=None)
def _hook_poly(alpha_parts: tuple) -> tuple:
    n = sum(alpha_parts)
    # Numerator: product over parts i of (1 - (-y)^i), as int coefficients.
    num = [1]
    for i in alpha_parts:
        factor = [0] * (i + 1)
        factor[0] = 1
        factor[i] = 1 if i % 2 == 1 else -1
        prod = [0] * (len(num) + i)
        for a, ca in enumerate(num):
            if ca:
                prod[a] += ca
                prod[a + i] += ca * factor[i]
        num = prod
    # Exact synthetic division by (1 + y).
    quot = [0] * n
    carry = 0
    for j in range(n):
        quot[j] = num[j] - carry
        carry = quot[j]
    if num[n] != carry:
        raise ArithmeticError("hook character polynomial division not exact")
    return tuple(quot)


def hook_character_poly(alpha: Partition) -> list[int]:
    """Characters of all hook shapes at class alpha, as coefficients.

    Entry j is the character of the hook with j boxes below the first row,
    for j = 0..n-1.  Computed in O(n^2) by expanding the product of
    (1 - (-y)^i) over the parts i of alpha and dividing exactly by (1+y),
    instead of running the border-strip recursion per hook.
    """
    if alpha.n < 1:
        raise ValueError("hook_character_poly requires a nonempty partition")
    return list(_hook_poly(alpha.parts))


@lru_cache(maxsize=None)
def _frak_m(parts: tuple, m: int) -> Fraction:
    value = 0
    for a in reversed(_content_poly(parts)):
        value = value * m + a
    return Fraction(value, _hook_product(parts))


def frak_m(lam: Partition, m: int) -> Fraction:
    """Hook-content product: prod over cells of (m + content) / hook.

    Vanishes for m = 0 since the corner cell has content 0.
    """
    if not lam.parts:
        raise ValueError("frak_m requires a nonempty partition")
    return _frak_m(lam.parts, m)


@lru_cache(maxsize=None)
def _frak_c(parts: tuple, m: int) -> Fraction:
    total = Fraction(0)
    for d in range(m + 1):
        term = binomial(m, d) * _frak_m(parts, m - d)
        total += -term if d % 2 else term
    return total


def frak_c(lam: Partition, m: int) -> Fraction:
    """Alternating binomial transform of the hook-content products.

    Sum over d = 0..m of (-1)^d C(m,d) frak_m(lam, m-d).
    """
    if not lam.parts:
        raise ValueError("frak_c requires a nonempty partition")
    if m < 0:
        raise ValueError("frak_c requires m >= 0")
    return _frak_c(lam.parts, m)
