"""Dimension-reduction recursion and the one-face count database.

The count for a class with several parts reduces to counts for classes
with one part fewer: scaled counts mu~(n,m) = m!/n! mu(n,m) satisfy a
two-sum recursion whose kernel tilde_S is a binomial/Stirling transform.
Sweeping part counts upward therefore grounds every value in the one-part
case, which the Zagier-Stanley formula gives directly.

The sweep runs in integers: multiplied through by n!, the recursion
relates plain counts through the integer kernel l! tilde_S, and each
count comes out of one exact division.  The kernel is cached as one row
over l per (m, i), so both sums of the recursion are dot products of a
kernel row with a row of counts.  The database builder runs that
sweep, cross-validates every count against the general explicit formula,
and persists the nonzero records in a line-oriented ASCII format (see
Database.save).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .exactnum import binomial, factorial, stirling_second
from .partition import Partition, all_partitions, class_size, parse_partition, remove_part
from .countcore import _mu_cached, mu
from .closedform import zagier_stanley

DB_HEADER_PREFIX = "#permfact-db v1 n_max="


class DatabaseBuildError(RuntimeError):
    """A recursion value was not a nonnegative integer or disagreed with mu."""


class DatabaseRangeError(KeyError):
    """Lookup outside the built range (distinct from a stored zero)."""


@dataclass(frozen=True)
class CountRecord:
    """One persisted one-face bipartite map count."""

    n: int
    m: int
    gamma: Partition
    value: int


def _kernel(m: int, i: int, l: int) -> int:
    """l! tilde_S(m, i, l) = sum_{j=1..i} C(i,j) (m+j-i)! S(l, m+j-i), an integer."""
    return sum(
        binomial(i, j) * factorial(m + j - i) * stirling_second(l, m + j - i)
        for j in range(max(1, i - m), i + 1)
    )


@lru_cache(maxsize=None)
def _kernel_row(m: int, i: int, length: int) -> tuple:
    """(K(m, i, 1), ..., K(m, i, length)) with K = _kernel."""
    return tuple(_kernel(m, i, l) for l in range(1, length + 1))


def tilde_S(m: int, i: int, l: int) -> Fraction:
    """Recursion kernel: sum_{j=1..i} C(i,j) (m+j-i)! S(l, m+j-i) / l!.

    S is the Stirling number of the second kind; terms with m+j-i < 0
    contribute nothing.
    """
    if m < 1 or i < 1 or l < 1:
        raise ValueError("tilde_S requires positive arguments")
    return Fraction(_kernel(m, i, l), factorial(l))


def _reduced_count(gamma: Partition, m: int, i: int, row, reduced_row) -> int:
    """mu(gamma, m) by the recursion that removes one part equal to i.

    row[l-1] must hold mu(gamma, l) for every l > m, and reduced_row[l-1]
    mu(gamma minus one part i, l) for every l.  With K(m,i,l) = l! tilde_S
    and mult the multiplicity of i in gamma,
    m! i mult mu(gamma, m) = n!/(n-i)! sum_l K(m,i,l) mu(gamma - i, l)
                             - i mult sum_{l>m} K(m,1,l) mu(gamma, l),
    which is divided exactly once.
    """
    n = gamma.n
    weight = i * gamma.parts.count(i)
    smaller = sum(map(mul, _kernel_row(m, i, n - i), reduced_row))
    same = sum(map(mul, _kernel_row(m, 1, n)[m:], row[m:]))
    scaled = factorial(n) // factorial(n - i) * smaller - weight * same
    count, rest = divmod(scaled, factorial(m) * weight)
    if rest or count < 0:
        raise DatabaseBuildError(
            f"recursion gave {scaled}/{factorial(m) * weight} "
            f"at (n={n}, m={m}, gamma={gamma}, i={i})"
        )
    return count


def reduce_mu(gamma: Partition, m: int, i: int) -> Fraction:
    """Scaled count mu~(n,m) = m!/n! mu(gamma, m) via removal of one part equal to i.

    The recursion runs on integer counts, reading the rows of gamma and of
    the reduced class from the explicit formula's row cache.  Only
    defined for classes with at least two parts: the one-part base case
    is the Zagier-Stanley formula.
    """
    n = gamma.n
    if gamma.length < 2:
        raise ValueError("base case: use Zagier-Stanley for one-part classes")
    if not 1 <= m <= n:
        raise ValueError(f"m = {m} out of range 1..{n}")
    reduced = remove_part(gamma, i)
    count = _reduced_count(gamma, m, i, _mu_cached(gamma.parts), _mu_cached(reduced.parts))
    return Fraction(factorial(m) * count, factorial(n))


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
    out-of-order key is rejected rather than silently overriding.  Each
    member of a class gamma has exactly one cofactor, so the counts of
    every class with n <= n_max must sum to its class size; a missing or
    altered record fails that check.  Evaluating the generating function
    sum_m mu(gamma, m) x^m at x = 2 gives a second check that also catches
    two counts of one class exchanged between values of m:
    sum_m 2^m mu(gamma, m) = class_size(gamma) (n + 2 - m_1), with m_1 the
    number of parts equal to 1.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(DB_HEADER_PREFIX):
            raise ValueError(f"bad database header: {header!r}")
        n_max = int(header[len(DB_HEADER_PREFIX):])
        records = []
        # Per class: (sum of its counts, sum of 2^m times them, line of its
        # last record), so far.
        totals = {}
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
                total, weighted, _ = totals.get(record.gamma.parts, (0, 0, 0))
                totals[record.gamma.parts] = (
                    total + record.value, weighted + (record.value << record.m), lineno
                )
                continue
            raise ValueError(f"line {lineno}: {problem}")
    for n in range(1, n_max + 1):
        for gamma in all_partitions(n):
            total, weighted, lineno = totals.get(gamma.parts, (0, 0, 0))
            size = class_size(gamma)
            where = f"line {lineno}: " if lineno else ""
            if total != size:
                raise ValueError(
                    f"{where}counts of class {gamma} sum to {total}, "
                    f"not to its class size {size}"
                )
            expected = size * (n + 2 - gamma.parts.count(1))
            if weighted != expected:
                raise ValueError(
                    f"{where}counts of class {gamma} give sum_m 2^m count = "
                    f"{weighted}, not {expected}"
                )
    return Database(n_max, records)


def _record_sort_key(record: CountRecord):
    return (record.n, record.gamma.length, record.gamma.parts, record.m)


def build_database(n_max: int) -> Database:
    """Compute all counts for n <= n_max by the reduction sweep.

    One-part classes come from the Zagier-Stanley formula; classes with
    more parts from the integer recursion with the smallest part removed,
    working m downward so the same-class sum is always available.  Every
    count is validated against the explicit formula before being kept; a
    mismatch, or a recursion quotient that is not a nonnegative integer,
    aborts the build.
    """
    if n_max < 1:
        raise ValueError("build_database requires n_max >= 1")
    rows: dict = {}
    records = []
    for n in range(1, n_max + 1):
        for gamma in all_partitions(n):
            row = [0] * n
            if gamma.length > 1:
                i = gamma.parts[-1]
                reduced_row = rows[remove_part(gamma, i).parts]
            for m in range(n, 0, -1):
                if gamma.length == 1:
                    count = zagier_stanley(n, m)
                else:
                    count = _reduced_count(gamma, m, i, row, reduced_row)
                expected = mu(gamma, m)
                if count != expected:
                    raise DatabaseBuildError(
                        f"validation failed at (n={n}, m={m}, gamma={gamma}): "
                        f"recursion gave {count}, explicit formula {expected}"
                    )
                row[m - 1] = count
                if count:
                    records.append(CountRecord(n, m, gamma, count))
            rows[gamma.parts] = row
    records.sort(key=_record_sort_key)
    return Database(n_max, records)
