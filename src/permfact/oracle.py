"""Brute-force ground truth on small symmetric groups.

Exhaustive factorization counting on plain permutations: a permutation
of {0, ..., n-1} is the sequence of its images.  Pairs are counted by
enumeration: the first factor is fixed to a class representative and
weighted by its class size (the counts are conjugation invariant), and
every second factor is tried.  One enumeration per n records each
product's cycle type; pair counts by cycle count are read off that
table.  Nothing here uses characters.

Nothing else is enumerated either.  Triples are composed from the pair
table by product type through the class of the first two factors'
product (see _xi3_table), and the factorizations of a fixed full cycle
are the pair counts whose first class is (n), divided by its class size
(n-1)! (see _mu_table); every division is checked to be exact.  So one
enumeration of S_n per n serves every table.  Each table is cached per
n and handed out read-only, so no caller can change what a later one
reads.
"""

from collections import Counter
from functools import lru_cache
from itertools import permutations as _all_images, repeat
from types import MappingProxyType

from .exactnum import _check_int, _exact_quotient
from .partition import Partition, class_size, all_partitions


def _cycle_type_raw(images: tuple) -> tuple:
    n = len(images)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def class_representative(n: int, gamma: Partition) -> tuple:
    """Images of the canonical class member: consecutive cycles (0 1 ..)(..) etc."""
    images = list(range(n))
    pos = 0
    for part in gamma.parts:
        block = list(range(pos, pos + part))
        for a, b in zip(block, block[1:] + block[:1]):
            images[a] = b
        pos += part
    return tuple(images)


_T2_LIMIT = 9
_T3_LIMIT = 6


@lru_cache(maxsize=None)
def _pair_type_table(n: int) -> MappingProxyType:
    """Pair counts keyed by (type1, type2, product type).

    Each permutation is the bytes of its images, and its cycle type is
    looked up in a dict over all of S_n, one interned tuple per type.  The
    product with a first factor rep is one bytes.translate of the second
    factor by rep padded to 256 bytes, so the whole loop over second
    factors runs in C.
    """
    by_type: dict = {}
    for images in _all_images(range(n)):
        by_type.setdefault(_cycle_type_raw(images), []).append(bytes(images))
    type_of = {images: t for t, seconds in by_type.items() for images in seconds}
    pad = bytes(range(n, 256))
    table: dict = {}
    for c1 in all_partitions(n):
        rep = bytes(class_representative(n, c1)) + pad
        size1 = class_size(c1)
        for t2, seconds in by_type.items():
            products = map(bytes.translate, seconds, repeat(rep))
            for t3, count in Counter(map(type_of.__getitem__, products)).items():
                table[c1.parts, t2, t3] = count * size1
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def _xi2_table(n: int) -> MappingProxyType:
    """Counts keyed by (type1, type2, m) for pairs: the pair table summed
    over product types with m cycles."""
    table: dict = {}
    for (t1, t2, t3), count in _pair_type_table(n).items():
        key = (t1, t2, len(t3))
        table[key] = table.get(key, 0) + count
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def _xi3_table(n: int) -> MappingProxyType:
    """Counts keyed by (type1, type2, type3, m) for triples.

    For tau in class delta, P(c1, c2, delta) / |C_delta| pairs from c1, c2
    have product tau, and xi2(delta, c3, m) / |C_delta| members of c3 give
    tau*sigma3 with m cycles; summing over the |C_delta| members tau gives
    P(c1, c2, delta) * xi2(delta, c3, m) / |C_delta|.
    """
    by_first: dict = {}
    for (delta, t3, m), count in _xi2_table(n).items():
        by_first.setdefault(delta, []).append((t3, m, count))
    table: dict = {}
    for (t1, t2, delta), count in _pair_type_table(n).items():
        size = class_size(Partition._from_sorted(delta))
        what = "pairs of types {}, {} per member of class {}"
        per_tau = _exact_quotient(count, size, what, t1, t2, delta)
        for t3, m, third in by_first[delta]:
            key = (t1, t2, t3, m)
            table[key] = table.get(key, 0) + per_tau * third
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def _mu_table(n: int) -> MappingProxyType:
    """Counts keyed by (gamma, m): factorizations of the fixed full cycle.

    Every n-cycle factors as sigma*pi with sigma of type gamma and pi
    with m cycles in equally many ways, so the count for the fixed cycle
    omega is the pair count xi(((n), gamma), m) divided by |C_(n)|.
    """
    full = (n,)
    size = class_size(Partition._from_sorted(full))
    what = "factorizations of a full cycle with factor {} and m = {}"
    return MappingProxyType({
        (gamma, m): _exact_quotient(count, size, what, gamma, m)
        for (first, gamma, m), count in _xi2_table(n).items()
        if first == full
    })


def brute_xi(classes, m: int) -> int:
    """Exhaustive count of tuples from the given classes whose product has m cycles.

    Guards: n >= 1, and n <= 9 for pairs, n <= 6 for triples; other inputs
    are refused.  An m that is a bool or not an int raises TypeError.
    """
    _check_int(m, "m")
    classes = tuple(classes)
    if not classes:
        raise ValueError("at least one class required")
    n = classes[0].n
    if any(c.n != n for c in classes):
        raise ValueError("all classes must partition the same n")
    if n < 1:
        raise ValueError("brute_xi requires n >= 1")
    t = len(classes)
    if t == 1:
        return class_size(classes[0]) if classes[0].length == m else 0
    if t == 2:
        if n > _T2_LIMIT:
            raise ValueError(f"brute_xi with 2 classes limited to n <= {_T2_LIMIT}")
        return _xi2_table(n).get((classes[0].parts, classes[1].parts, m), 0)
    if t == 3:
        if n > _T3_LIMIT:
            raise ValueError(f"brute_xi with 3 classes limited to n <= {_T3_LIMIT}")
        return _xi3_table(n).get(
            (classes[0].parts, classes[1].parts, classes[2].parts, m), 0
        )
    raise ValueError("brute_xi supports at most 3 classes")


def brute_mu(gamma: Partition, m: int) -> int:
    """Exhaustive count of factorizations sigma*pi of the fixed full cycle.

    sigma runs over the class of gamma, pi = sigma^-1 * omega must have
    m cycles.  Guard: n <= 9, the pair table's limit.  An m that is a bool
    or not an int raises TypeError.
    """
    _check_int(m, "m")
    n = gamma.n
    if n > _T2_LIMIT:
        raise ValueError(f"brute_mu limited to n <= {_T2_LIMIT}")
    if n < 1:
        raise ValueError("brute_mu requires n >= 1")
    return _mu_table(n).get((gamma.parts, m), 0)
