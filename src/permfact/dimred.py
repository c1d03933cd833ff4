"""Dimension-reduction recursion and the one-face count database.

The count for a class with several parts reduces to counts for classes
with one part fewer: scaled counts mu~(n,m) = m!/n! mu(n,m) satisfy a
two-sum recursion whose kernel is a binomial/Stirling transform.  Sweeping
part counts upward therefore grounds every value in the one-part case,
which the Zagier-Stanley formula gives directly.

The database builder runs that sweep, cross-validates every value against
the general explicit formula, and persists the nonzero records in a
line-oriented ASCII format (see Database.save).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import binomial, factorial, stirling_second
from .partition import Partition, all_partitions, parse_partition, remove_part
from .countcore import mu
from .closedform import zagier_stanley

DB_HEADER_PREFIX = "#permfact-db v1 n_max="


class DatabaseBuildError(RuntimeError):
    """A recursion value disagreed with the explicit formula."""


class DatabaseRangeError(KeyError):
    """Lookup outside the built range (distinct from a stored zero)."""


@dataclass(frozen=True)
class CountRecord:
    """One persisted one-face bipartite map count."""

    n: int
    m: int
    gamma: Partition
    value: int


@lru_cache(maxsize=None)
def tilde_S(m: int, i: int, l: int) -> Fraction:
    """Recursion kernel: sum_{j=1..i} C(i,j) (m+j-i)! S(l, m+j-i) / l!.

    S is the Stirling number of the second kind; terms with m+j-i < 0
    contribute nothing.
    """
    if m < 1 or i < 1 or l < 1:
        raise ValueError("tilde_S requires positive arguments")
    total = Fraction(0)
    for j in range(1, i + 1):
        blocks = m + j - i
        if blocks < 0:
            continue
        s = stirling_second(l, blocks)
        if s:
            total += Fraction(binomial(i, j) * factorial(blocks) * s, factorial(l))
    return total


@lru_cache(maxsize=None)
def _mu_tilde_exact(parts: tuple, m: int) -> Fraction:
    n = sum(parts)
    return Fraction(
        factorial(m) * mu(Partition._from_sorted(parts), m), factorial(n)
    )


def reduce_mu(gamma: Partition, m: int, i: int, mu_tilde=None) -> Fraction:
    """Scaled count mu~(n,m) for gamma via removal of one part equal to i.

    Needs mu~(n,l)(gamma) for l > m and mu~(n-i,l) for the reduced class;
    these come from mu_tilde(parts_tuple, l), defaulting to exact values
    from the explicit formula.  Only defined for classes with at least
    two parts: the one-part base case is the Zagier-Stanley formula.
    """
    n = gamma.n
    if gamma.length < 2:
        raise ValueError("base case: use Zagier-Stanley for one-part classes")
    if not 1 <= m <= n:
        raise ValueError(f"m = {m} out of range 1..{n}")
    mult = gamma.multiplicities().get(i, 0)
    if mult == 0:
        raise ValueError(f"{i} is not a part of {gamma}")
    if mu_tilde is None:
        mu_tilde = _mu_tilde_exact
    reduced = remove_part(gamma, i).parts
    total = Fraction(0)
    for l in range(m + 1, n + 1):
        k = tilde_S(m, 1, l)
        if k:
            total -= k * mu_tilde(gamma.parts, l)
    inner = Fraction(0)
    for l in range(1, n - i + 1):
        k = tilde_S(m, i, l)
        if k:
            inner += k * mu_tilde(reduced, l)
    return total + inner / (i * mult)


class Database:
    """Loaded or freshly built table of one-face counts.

    Zero values are omitted from storage; completeness over 1..n_max is
    what the header's n_max asserts, so an absent in-range key reads as 0.
    """

    def __init__(self, n_max: int, records: list):
        self.n_max = n_max
        self.records = records
        self._index = {(r.n, r.m, r.gamma.parts): r.value for r in records}

    def lookup(self, n: int, m: int, gamma: Partition) -> int:
        """Stored count, or 0 for an in-range key with no record."""
        if gamma.n != n:
            raise ValueError(f"{gamma} is not a partition of {n}")
        if not 1 <= n <= self.n_max:
            raise DatabaseRangeError(
                f"n = {n} not in built range 1..{self.n_max} (not built, not zero)"
            )
        if not 1 <= m <= n:
            raise DatabaseRangeError(
                f"m = {m} not in range 1..{n} (not built, not zero)"
            )
        return self._index.get((n, m, gamma.parts), 0)

    def save(self, path) -> None:
        """Write the line format: header, then tab-separated n, m, gamma, value.

        Lines are sorted by (n, part count, parts lexicographic, m) and the
        encoding is ASCII, so rebuilds are byte-identical.
        """
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"{DB_HEADER_PREFIX}{self.n_max}\n")
            for r in self.records:
                fh.write(f"{r.n}\t{r.m}\t{r.gamma}\t{r.value}\n")


def load_database(path) -> Database:
    """Read a database file written by Database.save.

    Every record must lie in the range the header claims, hold a positive
    count, and follow the previous record in save order; a duplicate or
    out-of-order key is rejected rather than silently overriding.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(DB_HEADER_PREFIX):
            raise ValueError(f"bad database header: {header!r}")
        n_max = int(header[len(DB_HEADER_PREFIX):])
        records = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"line {lineno}: expected 4 tab-separated fields")
            n, m, gamma_text, value = fields
            try:
                record = CountRecord(
                    int(n), int(m), parse_partition(gamma_text), int(value)
                )
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if record.gamma.n != record.n:
                problem = f"{gamma_text} is not a partition of {n}"
            elif not 1 <= record.m <= record.n <= n_max:
                problem = f"need 1 <= m <= n <= n_max = {n_max}"
            elif record.value <= 0:
                problem = f"count must be positive, got {value}"
            elif records and _record_sort_key(record) <= _record_sort_key(records[-1]):
                problem = "key duplicates or precedes the previous record's"
            else:
                records.append(record)
                continue
            raise ValueError(f"line {lineno}: {problem}")
    return Database(n_max, records)


def _record_sort_key(record: CountRecord):
    return (record.n, record.gamma.length, record.gamma.parts, record.m)


def build_database(n_max: int) -> Database:
    """Compute all counts for n <= n_max by the reduction sweep.

    One-part classes come from the Zagier-Stanley formula; classes with
    more parts from the recursion with the smallest part removed, working
    m downward so the same-class sum is always available.  Every value is
    validated against the explicit formula before being kept; a mismatch
    aborts the build.
    """
    if n_max < 1:
        raise ValueError("build_database requires n_max >= 1")
    store: dict = {}

    def stored(parts: tuple, l: int) -> Fraction:
        return store.get((parts, l), Fraction(0))

    records = []
    for n in range(1, n_max + 1):
        by_layer = sorted(all_partitions(n), key=lambda p: (p.length, p.parts))
        for gamma in by_layer:
            for m in range(n, 0, -1):
                if gamma.length == 1:
                    value = Fraction(
                        factorial(m) * zagier_stanley(n, m), factorial(n)
                    )
                else:
                    value = reduce_mu(gamma, m, gamma.parts[-1], mu_tilde=stored)
                expected = factorial(m) * mu(gamma, m)
                count = value * factorial(n) / factorial(m)
                if value * factorial(n) != expected:
                    raise DatabaseBuildError(
                        f"validation failed at (n={n}, m={m}, gamma={gamma}): "
                        f"recursion gave {count}, explicit formula {expected // factorial(m)}"
                    )
                store[(gamma.parts, m)] = value
                if count:
                    records.append(CountRecord(n, m, gamma, int(count)))
    records.sort(key=_record_sort_key)
    return Database(n_max, records)
