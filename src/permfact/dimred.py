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
coefficients of R(x) = sum_l r_l x^l (by synthetic division).  By
Pascal's rule that is (1+E)^i v - E^i v at m, with v the k! T_k and E
the shift up one place, so i shifted vector sums give it for every m at
once.  The sum over the class itself has i = 1, K(m,1,l) = m! S(l,m),
so the recursion gives m! i mult times the class's own m-th falling
coefficient c_m: each is one exact division, and one Horner pass in the
falling basis turns them into counts (see _solve).  The c_m are the T_k
of every class that removes one more part from this one, so the sweep
keeps them and transforms only the one-part rows.

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
of a class gamma' of k, and its c_m, are read at n = k+1..k+min(gamma')
alone.  Those kept classes, each with one part added, are the classes of
the next level but the one-part class, so the sweep lists each level's
classes itself and makes no table of partitions.  build_database
collects every row into a Database, whose save writes the nonzero counts
in a line-oriented ASCII format and load_database reads them back into
rows (see Database.save).  write_database writes the same bytes through
the same writer (_write_file) as the sweep runs, each class as soon as
its row is validated, since save order is by n first; it holds no row a
later level does not read.  Either leaves only the cores' rows in mu's
cache.  load_database matches each record against one pattern and checks
each class it read by two identities of its counts, one that they sum to
its class size n!/z.  The classes of n partition S_n, so the file is
complete exactly when the counts of each n <= n_max add up to n!, and a
load that succeeds makes no table of partitions either; only a failure
walks the classes, to name the first failing one.
"""

import os
import re
from itertools import groupby, repeat
from math import perm
from operator import add, lshift, lt, mul, sub
from stat import S_ISREG

from .exactnum import _check_int, factorial
from .partition import Partition, all_partitions, parse_partition
from .partition import _decimal, _z
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


def _solve(gamma: Partition, i: int, reduced_falling) -> tuple:
    """(row, falling): [mu(gamma, 1), ..., mu(gamma, n)] by the recursion
    removing one part i, and the falling coefficients c_1..c_top of its
    first top = n+1-l(gamma) entries.

    reduced_falling must hold T_1..T_{top+1-i}, the falling coefficients
    of the reduced class's row up to its own top.  With K the kernel and
    mult the multiplicity of i in gamma,
    m! i mult mu(gamma, m) = n!/(n-i)! sum_l K(m,i,l) mu(gamma - i, l)
                             - i mult sum_{l>m} K(m,1,l) mu(gamma, l).
    As K(m,1,l) = m! S(l,m), the sums over gamma join: m! i mult c_m is
    the reduced-class sum (see the module docstring).  So each c_m is one
    exact division, for m = 1..top, and the row is their power
    coefficients, padded with the Euler relation's exact zeros above top.

    A remainder or a negative count raises DatabaseBuildError at the
    largest such m, with the recursion value there: the reduced-class sum
    less m! i mult sum_{l>m} S(l,m) mu(gamma, l), the counts above that m
    being gamma's, since every c above it is whole.
    """
    n = gamma.n
    top = n + 1 - gamma.length
    weight = i * gamma.parts.count(i)
    # v = n!/(n-i)! k! T_k for k = 1..top+1-i.
    factorials = map(factorial, range(1, top + 2 - i))
    v = [*map(mul, map(mul, reduced_falling, factorials), repeat(perm(n, i)))]
    # reduced_sum[m-1] = sum_{j=1..i} C(i,j) v[m+j-i-1], that is
    # (1+E)^i v - E^i v with E the shift up one place (Pascal's rule):
    # i passes of 1+E, then v shifted by i subtracted.
    reduced_sum = v + [0] * (i - 1)
    for _ in range(i):
        reduced_sum[1:] = [*map(add, reduced_sum[1:], reduced_sum)]
    reduced_sum[i:] = map(sub, reduced_sum[i:], v)
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
    return row + [0] * (n - top), quotients


def _reduced_row(gamma: Partition, i: int, reduced_row) -> list:
    """[mu(gamma, 1), ..., mu(gamma, n)] by the recursion removing one part i.

    reduced_row[l-1] must hold mu(gamma minus one part i, l) for every l.
    The reduced row must be 0 past its own top, top+1-i with
    top = n+1-l(gamma): a nonzero entry there raises DatabaseBuildError.
    Its falling coefficients up to that top (_falling_coefficients) go to
    _solve, which raises DatabaseBuildError on a recursion value that is
    not a count.  The sweep calls _solve itself, with the coefficients its
    own solve of the reduced class returned.
    """
    n = gamma.n
    reduced_top = n + 2 - gamma.length - i
    if any(reduced_row[reduced_top:]):
        raise DatabaseBuildError(
            f"reduced row of (n={n}, gamma={gamma}, i={i}) is nonzero "
            f"past its top m={reduced_top}"
        )
    return _solve(gamma, i, _falling_coefficients(reduced_row[:reduced_top]))[0]


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
        the encoding is ASCII, so rebuilds are byte-identical.  A failed
        write leaves no partial regular file (see _write_file).
        """
        return _write_file(path, self.n_max, lambda: sorted(
            self.rows.items(), key=lambda item: _save_order(item[0])
        ))


def _write_file(path, n_max: int, rows) -> int:
    """Write the header and the nonzero counts of rows(), pairs (parts,
    row) in save order, to the file at path; return the number of records.

    rows is called once path is open, so a path that cannot be written
    fails before any row is computed.  If writing fails, a partial
    regular file is removed; a device such as /dev/null, or a pipe, is
    left in place.
    """
    fh = open(path, "w", encoding="ascii", newline="\n")
    regular = S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            fh.write(f"{DB_HEADER_PREFIX}{n_max}\n")
            written = 0
            heads = ()  # "n\tm\t" for m = 1..n, n the length of the last row
            for parts, row in rows():
                if len(row) != len(heads):
                    n = len(row)
                    heads = [f"{n}\t{m}\t" for m in range(1, n + 1)]
                text = ",".join(map(str, parts))
                records = [f"{head}{text}\t{value}\n" for head, value in zip(heads, row) if value]
                fh.write("".join(records))
                written += len(records)
            return written
    except BaseException:
        if regular:
            os.remove(path)
        raise


def _saved_decimal(text: str) -> int:
    """A record's number as save writes it: ASCII digits, no leading zero."""
    if len(text) > 1 and text[0] == "0":
        raise ValueError(
            f"invalid literal for a decimal integer: {text!r} has a leading zero"
        )
    return _decimal(text)


# A record as save spells it: n, m, the class and the count, each number
# ASCII digits with no leading zero, the parts joined by commas.  Every
# record the loader accepts matches it; it leaves the parts' order, the
# ranges and the save order to load_database, which compiles it on first
# use, so an import that loads no file pays nothing for it.
_DECIMAL = "[1-9][0-9]*"
_RECORD = f"({_DECIMAL})\t({_DECIMAL})\t({_DECIMAL}(?:,{_DECIMAL})*)\t({_DECIMAL})\n?"


def _record_problem(line: str, n_max: int) -> str:
    """Why load_database rejects the record line.

    The checks of every field and of the record, in the order that names
    the first failing one; the caller has found that one fails, so a line
    that passes all but the last breaks the save order.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 4:
        return "expected 4 tab-separated fields"
    n_text, m_text, gamma_text, value_text = fields
    try:
        n, m = _saved_decimal(n_text), _saved_decimal(m_text)
        parts = parse_partition(gamma_text).parts
        saved = ",".join(map(str, parts))
        if gamma_text != saved:
            raise ValueError(f"class {gamma_text!r} must be written {saved!r}")
        value = _saved_decimal(value_text)
    except ValueError as exc:
        return str(exc)
    if sum(parts) != n:
        return f"{gamma_text} is not a partition of {n_text}"
    if not 1 <= m <= n <= n_max:
        return f"need 1 <= m <= n <= n_max = {n_max}"
    if value <= 0:
        return f"count must be positive, got {value_text}"
    return "key duplicates or precedes the previous record's"


def _class_problem(parts: tuple, row) -> str:
    """The first of the two identities the counts row of a class breaks,
    as a message, or '' if its counts satisfy both."""
    n = sum(parts)
    size = factorial(n) // _z(parts)
    total = sum(row)
    if total != size:
        return (
            f"counts of class {','.join(map(str, parts))} sum to {total}, "
            f"not to its class size {size}"
        )
    weighted = sum(map(lshift, row, range(1, n + 1)))
    expected = size * (n + 2 - parts.count(1))
    if weighted != expected:
        return (
            f"counts of class {','.join(map(str, parts))} give sum_m 2^m count = "
            f"{weighted}, not {expected}"
        )
    return ""


def _first_class_problem(rows: dict, n_max: int) -> str:
    """The message for the first class of n <= n_max, in all_partitions
    order, whose counts break an identity or are missing, prefixed with
    the line of its last record if the file holds one.  rows must hold
    every class the file holds, in file order."""
    # Every line of the body is one record and each count is positive, so
    # a class's last line follows from the nonzero counts up to it.
    last_line = {}
    lineno = 1
    for parts, row in rows.items():
        lineno += len(row) - row.count(0)
        last_line[parts] = lineno
    for n in range(1, n_max + 1):
        for gamma in all_partitions(n):
            problem = _class_problem(gamma.parts, rows.get(gamma.parts, ()))
            if problem:
                lineno = last_line.get(gamma.parts)
                return f"line {lineno}: {problem}" if lineno else problem
    return ""


def load_database(path) -> Database:
    """Read a database file written by Database.save into rows.

    Every line is a record, and every record must spell its numbers and
    its class as save does (ASCII digits with no leading zero; the parts,
    largest first, joined by commas), lie in the range the header claims,
    hold a positive count, and follow the previous record in save order;
    a duplicate or out-of-order key is rejected rather than silently
    overriding.  Each member of a class gamma has exactly one cofactor, so
    the counts of every class must sum to its class size; a missing or
    altered record fails that check.  Evaluating the generating function
    sum_m mu(gamma, m) x^m at x = 2 gives a second check that also
    catches two counts of one class exchanged between values of m:
    sum_m 2^m mu(gamma, m) = class_size(gamma) (n + 2 - m_1), with m_1 the
    number of parts equal to 1.  The classes of n partition S_n, and no
    class is read twice, so the file holds them all when the counts of
    each n <= n_max add up to n!.

    A record costs one match of _RECORD and an int of m and of the count;
    its class's text is split, and its n checked, once per class.  The
    classes are checked only after the whole body has been read, the sum
    of each n first, so a header claiming far more classes than the body
    holds fails at the first n it lacks.  A successful load makes no
    table of partitions.  Only a failure pays for its diagnosis: a
    rejected record goes through every field's check in turn
    (_record_problem), and a class failure through the classes in
    all_partitions order (_first_class_problem), so the error names the
    first failing field or class and its line.  A record error anywhere
    in the body takes precedence over any class error.
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
        # The current class: its text, parts, save-order key, n as written,
        # n, and its counts; save order keeps its records on adjacent lines.
        text = parts = class_n_text = row = None
        key = ()  # precedes every key
        n = prev_m = 0
        match = re.compile(_RECORD).fullmatch
        try:
            for lineno, line in enumerate(fh, start=2):
                record = match(line)
                if record is None:
                    break
                n_text, m_text, gamma_text, value_text = record.groups()
                m = int(m_text)
                if gamma_text == text:
                    if n_text != class_n_text or m <= prev_m or m > n:
                        break
                else:
                    new_parts = tuple(map(int, gamma_text.split(",")))
                    new_key = _save_order(new_parts)
                    if (
                        any(map(lt, new_parts, new_parts[1:]))
                        or str(new_key[0]) != n_text
                        or not m <= new_key[0] <= n_max
                        or new_key < key
                    ):
                        break
                    if parts:
                        rows[parts] = tuple(row)
                    text, parts, key = gamma_text, new_parts, new_key
                    class_n_text, n = n_text, new_key[0]
                    row = [0] * n
                row[m - 1] = int(value_text)
                prev_m = m
            else:
                line = None  # every record passed
        except ValueError:  # a number too long for int() or str()
            pass
        if line is not None:
            raise ValueError(f"line {lineno}: {_record_problem(line, n_max)}")
    if parts:
        rows[parts] = tuple(row)
    # Save order keeps the classes of each n together; a class of n has n counts.
    totals = {n: sum(map(sum, group)) for n, group in groupby(rows.values(), len)}
    if any(totals.get(n) != factorial(n) for n in range(1, n_max + 1)) or any(
        map(_class_problem, rows, rows.values())
    ):
        raise ValueError(_first_class_problem(rows, n_max))
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
    integer recursion solves the row (see _solve).  A mismatch raises
    DatabaseBuildError at its largest m, with the recursion's value
    (n/m_1 times the reduced count for a class with a part 1, written as
    a fraction if it is not whole) beside the explicit formula's; so does
    a recursion value that is not a whole count.

    A class gamma of n reads the row of gamma.parts[:-1], a class of
    n - gamma.parts[-1] whose own smallest part is at least
    gamma.parts[-1]; so the row of a class of k with smallest part s is
    read at the levels k+1..k+s only.  The sweep keeps each row until
    the end of level k+s: at the end of level n it drops every kept row
    with k + s <= n; the rows of level n_max are read by none.  So at
    level n the store holds exactly the classes that a class of n reduces
    to, and the sweep walks its classes off it: (n), and each stored class
    of k with a part n - k added, sorted into save order.  It makes a
    Partition only for a solve or a message.

    A solve reads no row: it takes the reduced class's falling
    coefficients, which that class's own solve returned (the quotients
    c_m), or, for a one-part class, _falling_coefficients of its
    Zagier-Stanley row, formed once.  The class of k with smallest part
    s >= 2 is solved from at k+2..k+s, so its coefficients are kept as
    long as its row.
    """
    store = {}  # parts -> row, for the classes a later level reads
    falling = {}  # parts -> the c_m of its row, for the classes a later solve reads
    for n in range(1, n_max + 1):
        classes = [(n,), *(parts + (n - sum(parts),) for parts in store)]
        classes.sort()  # lexicographic, then stably by part count: save order
        classes.sort(key=len)
        for parts in classes:
            smallest = parts[-1]
            row = _explicit_row(parts)
            scale = 1  # the recursion gives m_1 times a row with a part 1
            if len(parts) == 1:
                recursion = [zagier_stanley(n, m) for m in range(1, n + 1)]
            elif smallest == 1:
                scale = parts.count(1)
                recursion = [*map(mul, store[parts[:-1]] + (0,), repeat(n))]
            else:
                gamma = Partition._from_sorted(parts)
                recursion, coefficients = _solve(gamma, smallest, falling[parts[:-1]])
            if [*map(mul, row, repeat(scale))] != recursion:
                m = max(m for m in range(1, n + 1) if row[m - 1] * scale != recursion[m - 1])
                value, rest = divmod(recursion[m - 1], scale)
                if rest:
                    value = f"{recursion[m - 1]}/{scale}"
                raise DatabaseBuildError(
                    f"validation failed at (n={n}, m={m}, "
                    f"gamma={Partition._from_sorted(parts)}): "
                    f"recursion gave {value}, explicit formula {row[m - 1]}"
                )
            if n < n_max:
                store[parts] = row
            if smallest >= 2 and n + 2 <= n_max:
                # A one-part row's top is n, so its coefficients are the whole row's.
                falling[parts] = coefficients if len(parts) > 1 else _falling_coefficients(row)
            yield parts, row
        for parts in [parts for parts, row in store.items() if len(row) + parts[-1] <= n]:
            del store[parts]
            falling.pop(parts, None)


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

    The same validated sweep as build_database, written as it runs by
    save's writer (_write_file), so a path that cannot be written fails
    before any count is computed and a failed build leaves no partial
    regular file.  Only the rows a later level reads are kept (see
    _sweep).  An n_max that is a bool or not an int raises TypeError.
    """
    _check_n_max(n_max, "write_database")
    return _write_file(path, n_max, lambda: _sweep(n_max))
