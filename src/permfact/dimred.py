"""Dimension-reduction recursion and the one-face count database.

The count for a class with several parts reduces to counts for classes
with one part fewer: scaled counts mu~(n,m) = m!/n! mu(n,m) satisfy a
two-sum recursion whose kernel is a binomial/Stirling transform.
Sweeping part counts upward therefore grounds every value in the one-part
case, which the Zagier-Stanley formula gives directly.

The sweep runs in integers: multiplied through by n!, the recursion
relates plain counts through the integer kernel
K(m, i, l) = sum_{j=1..i} C(i,j) (m+j-i)! S(l, m+j-i), with S the
Stirling numbers of the second kind (l! times the kernel of the scaled
recursion), and each count comes out of one exact division.  No kernel
value and no Stirling number is formed: S is the change of basis
x^l = sum_k S(l,k) x(x-1)...(x-k+1) from powers to falling factorials.
So with k = m+j-i and r the reduced class's counts,
sum_l K(m,i,l) r_l = sum_{j=1..i} C(i,j) k! T_k, T_k the falling
coefficients of R(x) = sum_l r_l x^l (by synthetic division), and i
shifted vector sums give that sum for every m at once.  The sum over the class itself has i = 1,
K(m,1,l) = m! S(l,m), so the recursion gives m! i mult times the class's
own m-th falling coefficient: each is one exact division, and one Horner
pass in the falling basis turns them into counts (see _reduced_row).

Removing a part 1 needs no solve.  With i = 1 both sums have the kernel
m! S(l, m), so with m_1 the number of parts 1 the recursion reads
m_1 sum_{l>=m} S(l,m) mu(gamma, l) = n sum_{l>=m} S(l,m) mu(gamma-1, l)
for every m, and S(m, m) = 1 makes it unitriangular:
m_1 mu(gamma, m) = n mu(gamma-1, m).  So the build checks the row of a
class with a fixed point against the class with one fixed point fewer by
that relation, both rows scaled and compared whole with no division
(see _sweep), and solves the recursion only for the classes without
fixed points, all with i >= 2.  That is the check of scaling by n/m_1:
the relation holds at every m exactly when n mu(gamma-1, m)/m_1 is a
whole count equal to mu(gamma, m), the zeros past the top included.
_reduced_row still takes i = 1, which verify's dimred suite checks.

The explicit formula scales such a class too (countcore.mu): its row is
C(n, m_1) times its core's, the core being its parts >= 2.  So for a
class with fixed points the build's validation compares two scalings of
one core row that share no code and come from different derivations:
n/m_1 from the recursion's unitriangular kernel, applied to the class
with one fixed point fewer, against C(n, m_1) from the edge-choice
polynomial's shift by y.  The core row itself is validated against a
solve of the recursion, and the explicit formula's per-class finish for
classes with fixed points is checked in the tests.

Only the genus-admissible support is solved.  By the Euler relation
(countcore.genus_of) a count of gamma is nonzero only at
m = n+1-l(gamma)-2g with g >= 0, so every entry above the genus-0 one,
top = n+1-l(gamma), is exactly 0.  One class's row is solved for
m = top..1 in one pass and padded with those zeros, and the transform
stops at the reduced class's own top, top+1-i.  The recursion agrees:
K(m,i,l) = 0 for l < m+1-i (S(l,k) = 0 for l < k), so above top it only
meets zeros, the reduced row's past its top and the row's own above m,
and gives 0.  Every skipped entry is a structural zero, not a parity
guess.

The database is those rows, one tuple of counts per class.  The sweep
(_sweep) runs by n and cross-validates every row against the general
explicit formula (_explicit_row).  It keeps a row only while a later
class can read it: a class of n removes its smallest part i, so the row
of a class gamma' of k is read at n = k+1..k+min(gamma') alone.
build_database collects every row into a Database, whose save writes
the nonzero counts in a line-oriented ASCII format and load_database
reads them back into rows (see Database.save).  write_database writes
the same bytes as the sweep runs, each class as soon as its row is
validated, since save order is by n first; it holds no row a later
level does not read.  Either leaves only the cores' rows in mu's cache.
"""

import os
from itertools import repeat
from math import comb, perm
from operator import add, lshift, mul

from .exactnum import _check_int, factorial
from .partition import Partition, all_partitions, class_size, parse_partition
from .partition import _decimal
from .countcore import _mu_cached
from .closedform import zagier_stanley

DB_HEADER_PREFIX = "#permfact-db v1 n_max="


class DatabaseBuildError(RuntimeError):
    """A recursion value was not a nonnegative integer or disagreed with mu."""


class DatabaseRangeError(KeyError):
    """Lookup outside the built range (distinct from a stored zero)."""

    __str__ = Exception.__str__  # KeyError's would quote the message


def _falling_coefficients(coeffs) -> list:
    """[T_1, ..., T_d] for coeffs = [r_1, ..., r_d], where
    sum_l r_l x^l = sum_k T_k x(x-1)...(x-k+1), so T_k = sum_l S(l,k) r_l:
    the successive remainders of synthetic division by x, x-1, x-2, ..."""
    high = [*reversed(coeffs)]  # the quotient by x, highest power first
    falling = []
    for k in range(1, len(coeffs) + 1):
        for j in range(1, len(high)):  # divide by x - k in place
            high[j] += k * high[j - 1]
        falling.append(high.pop())
    return falling


def _power_coefficients(falling) -> list:
    """The inverse of _falling_coefficients, by Horner's rule in the falling
    basis: sum_k T_k x(x-1)...(x-k+1) = x (T_1 + (x-1) (T_2 + ...))."""
    high = []  # the polynomial over x so far, highest power first
    for k in range(len(falling), 0, -1):
        # high (x - k) + T_k in place: high x + T_k, less k high.
        high.append(falling[k - 1])
        for j in range(len(high) - 1, 0, -1):
            high[j] -= k * high[j - 1]
    return high[::-1]


def _reduced_row(gamma: Partition, i: int, reduced_row) -> list:
    """[mu(gamma, 1), ..., mu(gamma, n)] by the recursion removing one part i.

    reduced_row[l-1] must hold mu(gamma minus one part i, l) for every l.
    With K the kernel and mult the multiplicity of i in gamma,
    m! i mult mu(gamma, m) = n!/(n-i)! sum_l K(m,i,l) mu(gamma - i, l)
                             - i mult sum_{l>m} K(m,1,l) mu(gamma, l).
    As K(m,1,l) = m! S(l,m), the sums over gamma join: m! i mult c_m is
    the reduced-class sum, c_m the m-th falling coefficient of gamma's row
    (see the module docstring).  So each c_m is one exact division, for
    m = 1..top, top = n+1-l(gamma), and the row is their power
    coefficients, padded with the Euler relation's exact zeros above top.
    The reduced row must be 0 past its own top, top+1-i: a nonzero entry
    there raises DatabaseBuildError.

    So does a remainder or a negative count, at the largest such m, with
    the recursion value there: the reduced-class sum less
    m! i mult sum_{l>m} S(l,m) mu(gamma, l), the counts above that m
    being gamma's, since every c above it is whole.
    """
    n = gamma.n
    top = n + 1 - gamma.length
    reduced_top = top + 1 - i
    if any(reduced_row[reduced_top:]):
        raise DatabaseBuildError(
            f"reduced row of (n={n}, gamma={gamma}, i={i}) is nonzero "
            f"past its top m={reduced_top}"
        )
    weight = i * gamma.parts.count(i)
    falling = perm(n, i)  # n!/(n-i)!
    # k! T_k for k = 1..reduced_top.
    transform = _falling_coefficients(reduced_row[:reduced_top])
    transform = [*map(mul, transform, map(factorial, range(1, reduced_top + 1)))]
    # reduced_sum[m-1] = n!/(n-i)! sum_j C(i,j) k! T_k with k = m+j-i, so
    # term j starts at m = i+1-j.
    reduced_sum = [0] * top
    for j in range(1, i + 1):
        window = slice(i - j, i - j + reduced_top)
        coeff = repeat(falling * comb(i, j))
        reduced_sum[window] = map(add, reduced_sum[window], map(mul, coeff, transform))
    divisors = [*map(mul, map(factorial, range(1, top + 1)), repeat(weight))]
    quotients, rests = zip(*map(divmod, reduced_sum, divisors))
    row = _power_coefficients(quotients)
    if any(rests) or min(row) < 0:
        # A count is gamma's only while every division at and above its m
        # is exact, so the first failure from the top is the one to report.
        m = next(m for m in range(top, 0, -1) if rests[m - 1] or row[m - 1] < 0)
        same = _falling_coefficients([0] * m + row[m:])[m - 1]
        # Not _exact_quotient: a build failure is a DatabaseBuildError,
        # which the CLI reports as a validation failure.
        raise DatabaseBuildError(
            f"recursion gave {reduced_sum[m - 1] - divisors[m - 1] * same}"
            f"/{divisors[m - 1]} at (n={n}, m={m}, gamma={gamma}, i={i})"
        )
    return row + [0] * (n - top)


def _save_order(parts: tuple) -> tuple:
    return (sum(parts), len(parts), parts)


class Database:
    """Loaded or freshly built table of one-face counts.

    rows maps every class of every n <= n_max, as its parts tuple, to the
    tuple of its counts for m = 1..n, zeros included.  Only the nonzero
    counts are written to a file; completeness over 1..n_max is what the
    header's n_max asserts, and load_database checks it.
    """

    def __init__(self, n_max: int, rows: dict):
        self.n_max = n_max
        self.rows = rows

    def lookup(self, n: int, m: int, gamma: Partition) -> int:
        """Stored count, 0 included, after checking the key is in range.
        An n or m that is a bool or not an int raises TypeError."""
        _check_int(n, "n")
        _check_int(m, "m")
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
        return self.rows[gamma.parts][m - 1]

    def save(self, path) -> int:
        """Write the line format and return the number of records written.

        After the header, one tab-separated line n, m, gamma, value per
        nonzero count, sorted by (n, part count, parts lexicographic, m);
        the encoding is ASCII, so rebuilds are byte-identical.
        """
        rows = sorted(self.rows.items(), key=lambda item: _save_order(item[0]))
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            return _write_records(fh, self.n_max, rows)


def _write_records(fh, n_max: int, rows) -> int:
    """Write the header and the nonzero counts of rows, pairs (parts, row)
    in save order, to the text file fh; return the number of records."""
    fh.write(f"{DB_HEADER_PREFIX}{n_max}\n")
    written = 0
    heads = ()  # "n\tm\t" for m = 1..n, n the length of the last row
    for parts, row in rows:
        if len(row) != len(heads):
            n = len(row)
            heads = [f"{n}\t{m}\t" for m in range(1, n + 1)]
        text = ",".join(map(str, parts))
        records = [f"{head}{text}\t{value}\n" for head, value in zip(heads, row) if value]
        fh.write("".join(records))
        written += len(records)
    return written


def _saved_decimal(text: str) -> int:
    """A record's number as save writes it: ASCII digits, no leading zero."""
    if len(text) > 1 and text[0] == "0":
        raise ValueError(
            f"invalid literal for a decimal integer: {text!r} has a leading zero"
        )
    return _decimal(text)


def load_database(path) -> Database:
    """Read a database file written by Database.save into rows.

    Every line is a record, and every record must spell its numbers and
    its class as save does (ASCII digits with no leading zero; the parts,
    largest first, joined by commas), lie in the range the header claims,
    hold a positive count, and follow the previous record in save order;
    a duplicate or out-of-order key is rejected rather than silently
    overriding.  Each member of a class gamma has exactly one cofactor, so
    the counts of every class with n <= n_max must sum to its class size;
    a missing or altered record fails that check.  Evaluating the
    generating function sum_m mu(gamma, m) x^m at x = 2 gives a second
    check that also catches two counts of one class exchanged between
    values of m: sum_m 2^m mu(gamma, m) = class_size(gamma) (n + 2 - m_1),
    with m_1 the number of parts equal to 1.  The classes of n <= n_max
    are walked only after the whole body has been read.
    """
    # A byte outside ASCII becomes a lone surrogate, which no number or
    # partition accepts, so the error names its line.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n")
        n_text = header[len(DB_HEADER_PREFIX):]
        # n_max as save writes it: a positive decimal with no sign, space,
        # underscore or leading zero.
        if not header.startswith(DB_HEADER_PREFIX) or not (
            n_text.isdigit() and n_text[0] != "0"
        ):
            raise ValueError(f"bad database header: {header!r}")
        n_max = int(n_text)
        rows = {}
        last_line = {}  # class parts -> line of its last record
        # Save order keeps each class's records on adjacent lines, so each
        # class's text is parsed once, and only m is compared within it.
        text = parts = key = row = None
        prev_m = 0
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise ValueError(f"line {lineno}: expected 4 tab-separated fields")
            n_text, m_text, gamma_text, value_text = fields
            try:
                n, m = _saved_decimal(n_text), _saved_decimal(m_text)
                if gamma_text != text:
                    new_parts = parse_partition(gamma_text).parts
                    saved = ",".join(map(str, new_parts))
                    if gamma_text != saved:
                        raise ValueError(
                            f"class {gamma_text!r} must be written {saved!r}"
                        )
                    text, new_key = gamma_text, _save_order(new_parts)
                value = _saved_decimal(value_text)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            same_class = new_parts == parts
            if new_key[0] != n:
                problem = f"{gamma_text} is not a partition of {n_text}"
            elif not 1 <= m <= n <= n_max:
                problem = f"need 1 <= m <= n <= n_max = {n_max}"
            elif value <= 0:
                problem = f"count must be positive, got {value_text}"
            elif (m <= prev_m) if same_class else (key is not None and new_key < key):
                problem = "key duplicates or precedes the previous record's"
            else:
                if not same_class:
                    parts, key = new_parts, new_key
                    row = rows[parts] = [0] * n
                row[m - 1] = value
                last_line[parts] = lineno
                prev_m = m
                continue
            raise ValueError(f"line {lineno}: {problem}")
    for n in range(1, n_max + 1):
        for gamma in all_partitions(n):
            row = rows.get(gamma.parts, ())
            total = sum(row)
            weighted = sum(map(lshift, row, range(1, n + 1)))
            lineno = last_line.get(gamma.parts)
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
            rows[gamma.parts] = tuple(row)
    return Database(n_max, rows)


def _check_n_max(n_max, caller: str) -> None:
    _check_int(n_max, "n_max")
    if n_max < 1:
        raise ValueError(f"{caller} requires n_max >= 1")


def _explicit_row(parts: tuple) -> tuple:
    """mu's row of the class with these parts.  A core's row goes through
    mu's cache, from which mu scales every class with fixed points; a
    class with a part 1 is computed past it, since no scaling reads it."""
    return (_mu_cached.__wrapped__ if parts[-1] == 1 else _mu_cached)(parts)


def _sweep(n_max: int):
    """Yield (parts, row) for every class with n <= n_max, in save order.

    Every row is _explicit_row(parts), the explicit formula's, checked
    against the recursion.  One-part classes are compared with the
    Zagier-Stanley formula.  A class with more parts has its smallest
    part, the last, removed: if that part is 1, m_1 times the row must
    equal n times the reduced class's row, padded with one 0 (see the
    module docstring); otherwise, for a class without fixed points, the
    integer recursion solves the row (see _reduced_row).  A mismatch
    raises DatabaseBuildError at its largest m, with the recursion's
    value (n/m_1 times the reduced count for a class with a part 1,
    written as a fraction if it is not whole) beside the explicit
    formula's; so does a recursion value that is not a whole count.

    A class gamma of n reads the row of gamma.parts[:-1], a class of
    n - gamma.parts[-1] whose own smallest part is at least
    gamma.parts[-1]; so the row of a class of k with smallest part s is
    read at the levels k+1..k+s only.  The sweep keeps each row until
    the end of level k+s, dropping the rows of a level's bucket once that
    level is done; the rows of level n_max are read by none.
    """
    store = {}
    expiring = {}  # level -> the classes whose rows no later level reads
    for n in range(1, n_max + 1):
        # all_partitions(n) is in reverse lexicographic order, so a stable
        # sort of it reversed by part count is save order.
        for gamma in sorted(reversed(all_partitions(n)), key=len):
            parts = gamma.parts
            row = _explicit_row(parts)
            scale = 1  # the recursion gives m_1 times a row with a part 1
            if gamma.length == 1:
                recursion = [zagier_stanley(n, m) for m in range(1, n + 1)]
            elif parts[-1] == 1:
                scale = parts.count(1)
                recursion = [*map(mul, store[parts[:-1]] + (0,), repeat(n))]
            else:
                recursion = _reduced_row(gamma, parts[-1], store[parts[:-1]])
            if [*map(mul, row, repeat(scale))] != recursion:
                m = max(m for m in range(1, n + 1) if row[m - 1] * scale != recursion[m - 1])
                value, rest = divmod(recursion[m - 1], scale)
                if rest:
                    value = f"{recursion[m - 1]}/{scale}"
                raise DatabaseBuildError(
                    f"validation failed at (n={n}, m={m}, gamma={gamma}): "
                    f"recursion gave {value}, explicit formula {row[m - 1]}"
                )
            if n < n_max:
                store[parts] = row
                expiring.setdefault(n + parts[-1], []).append(parts)
            yield parts, row
        for parts in expiring.pop(n, ()):
            del store[parts]


def build_database(n_max: int) -> Database:
    """Compute the row of counts of every class with n <= n_max by the reduction sweep.

    The sweep (see _sweep) validates every row against mu's, so every
    count is checked, and the Database keeps mu's tuple of each class
    rather than a second copy of an equal row.  For a class without
    fixed points, and for an identity class 1^n, the explicit formula's
    row is the Stirling finish of its edge-choice coefficients; for a
    class with 1 <= m_1 < n fixed points it is C(n, m_1) times its core's
    row, so the comparison is between two scalings (see the module
    docstring).  So every row stays in memory until the Database goes;
    mu's cache keeps the cores' rows only.  write_database streams the
    same sweep to a file instead.  An n_max that is a bool or not an int
    raises TypeError.
    """
    _check_n_max(n_max, "build_database")
    return Database(n_max, dict(_sweep(n_max)))


def write_database(n_max: int, path) -> int:
    """Build the database of every class with n <= n_max straight into the
    file at path, as Database.save writes it; return the number of records.

    The same validated sweep as build_database, written as it runs: the
    file is opened first, so a path that cannot be written fails before
    any count is computed, and each class's records are written as soon
    as its row is validated.  Only the rows a later level reads are kept
    (see _sweep).  If the build fails, with DatabaseBuildError or
    otherwise, the partial file is removed.  An n_max that is a bool or
    not an int raises TypeError.
    """
    _check_n_max(n_max, "write_database")
    fh = open(path, "w", encoding="ascii", newline="\n")
    try:
        with fh:
            return _write_records(fh, n_max, _sweep(n_max))
    except BaseException:
        os.remove(path)
        raise
