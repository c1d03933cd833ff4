"""Integer partitions and conjugacy-class data of the symmetric group.

A partition is stored canonically as a nonincreasing tuple of positive
parts.  The multiplicity view (how many parts equal i) is computed on
demand.  Partitions index both the conjugacy classes and the irreducible
characters of the symmetric group.
"""

from collections import Counter
from functools import lru_cache

from .exactnum import factorial


class PartitionParseError(ValueError):
    """Raised for text that does not match the partition grammar."""


class Partition:
    """An integer partition: nonincreasing positive parts.

    >>> Partition([1, 3, 1]).parts
    (3, 1, 1)
    >>> str(Partition([]))
    '()'
    """

    __slots__ = ("_parts", "_n")

    def __init__(self, parts=()):
        ps = tuple(sorted(parts, reverse=True))
        for p in ps:
            if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
                raise ValueError(f"partition parts must be positive integers, got {p!r}")
        self._parts = ps
        self._n = sum(ps)

    @classmethod
    def _from_sorted(cls, parts: tuple) -> "Partition":
        # Internal fast path: caller guarantees a canonical tuple.
        self = object.__new__(cls)
        self._parts = parts
        self._n = sum(parts)
        return self

    @property
    def parts(self) -> tuple:
        return self._parts

    @property
    def n(self) -> int:
        """Sum of the parts (the integer being partitioned)."""
        return self._n

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self._parts)

    def multiplicities(self) -> Counter:
        """Counter mapping each part value i to its multiplicity."""
        return Counter(self._parts)

    def __len__(self):
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __getitem__(self, i):
        return self._parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return f"Partition({list(self._parts)})"

    def __str__(self):
        if not self._parts:
            return "()"
        return ",".join(str(p) for p in self._parts)


def _decimal(text: str, signed: bool = False) -> int:
    """int(text) for ASCII decimal digits only, after one leading '-' if signed.

    int() alone would also take "+3", "1_0", " 3" and other digit sets.
    """
    digits = text[1:] if signed and text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for a decimal integer: {text!r}")
    return int(text)


def parse_partition(text: str) -> Partition:
    """Parse partition text: comma-separated parts, with b^e exponent tokens.

    "3,1,1", "1^2,3" and "2^3" are all valid; "()" is the empty
    partition.  Token order is irrelevant; the result is canonical.  The
    base and the exponent are ASCII decimal digits, with no sign or
    underscore; whitespace around them is ignored.
    """
    stripped = text.strip()
    if stripped == "()":
        return Partition(())
    parts: list[int] = []
    for token in stripped.split(","):
        tok = token.strip()
        base_text, sep, exp_text = tok.partition("^")
        try:
            base = _decimal(base_text.strip())
            exponent = _decimal(exp_text.strip()) if sep else 1
        except ValueError:
            raise PartitionParseError(f"malformed partition token {tok!r}") from None
        if base <= 0:
            raise PartitionParseError(f"nonpositive part in token {tok!r}")
        if exponent <= 0:
            raise PartitionParseError(f"nonpositive exponent in token {tok!r}")
        parts.extend([base] * exponent)
    return Partition(parts)


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple:
    """All partitions of n in reverse lexicographic order, (n) first.

    The fixed order keeps every emitted table byte-deterministic.
    """
    if n < 0:
        raise ValueError("all_partitions requires n >= 0")
    if n == 0:
        return (Partition(()),)
    result = []
    parts = [n]
    while True:
        result.append(Partition._from_sorted(tuple(parts)))
        # Find the rightmost part > 1, decrement it, redistribute the rest.
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            break
        rest = len(parts) - i - 1 + 1
        parts[i] -= 1
        del parts[i + 1:]
        while rest > 0:
            chunk = min(parts[-1], rest)
            parts.append(chunk)
            rest -= chunk
    return tuple(result)


def _z(parts: tuple) -> int:
    # i^m_i * m_i! is the product of i*k over k = 1..m_i, so each part of a
    # sorted tuple contributes itself times its place in its run.
    z = run = 1
    prev = None
    for part in parts:
        run = run + 1 if part == prev else 1
        z *= part * run
        prev = part
    return z


def z_lambda(lam: Partition) -> int:
    """Centralizer order z = prod over part values i of i^m_i * m_i!."""
    return _z(lam.parts)


def class_size(lam: Partition) -> int:
    """Number of permutations with cycle type lam: n! / z."""
    return _class_size(lam.parts)


@lru_cache(maxsize=256)
def _class_size(parts: tuple) -> int:
    return factorial(sum(parts)) // _z(parts)


def aut_lambda(lam: Partition) -> int:
    """Number of part reorderings fixing lam: prod of m_i!."""
    a = 1
    for m in lam.multiplicities().values():
        a *= factorial(m)
    return a


def remove_part(lam: Partition, i: int) -> Partition:
    """Partition with one copy of part i removed.

    Raises ValueError if i is not a part of lam.
    """
    parts = list(lam.parts)
    try:
        parts.remove(i)
    except ValueError:
        raise ValueError(f"{i} is not a part of {lam}") from None
    return Partition._from_sorted(tuple(parts))
