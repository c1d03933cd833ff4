import hashlib
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

import pytest

from permfact import dimred
from permfact.closedform import zagier_stanley
from permfact.countcore import _mu_cached, mu
from permfact.dimred import (
    Database,
    DatabaseBuildError,
    DatabaseRangeError,
    build_database,
    load_database,
    write_database,
)
from permfact.exactnum import binomial, factorial, stirling_second
from permfact.partition import Partition, all_partitions, remove_part

SRC = Path(__file__).resolve().parents[1] / "src"


def _kernel(m, i, l):
    """l! times the kernel of the scaled recursion, one value at a time:
    sum_{j=1..i} C(i,j) (m+j-i)! S(l, m+j-i)."""
    return sum(
        binomial(i, j) * factorial(m + j - i) * stirling_second(l, m + j - i)
        for j in range(max(1, i - m), i + 1)
    )


def test_scaled_kernel_is_integral():
    for m, i, l in product(range(1, 13), repeat=3):
        reference = sum(
            Fraction(binomial(i, j) * factorial(m + j - i) * stirling_second(l, m + j - i),
                     factorial(l))
            for j in range(1, i + 1)
            if m + j - i >= 0
        )
        assert factorial(l) * reference == _kernel(m, i, l), (m, i, l)


def test_falling_coefficients_are_the_stirling_transform():
    # T_k = sum_l S(l,k) r_l on seeded rows of every length to 12, with
    # zeros and negative entries, as a damaged reduced row has; rows come
    # as lists or, as the sweep stores them, tuples.  _power_coefficients
    # takes the T_k back to the row.
    rng = random.Random(1)
    for length in range(13):
        for _ in range(20):
            row = [rng.choice([0, rng.randint(-10**6, 10**6)]) for _ in range(length)]
            falling = dimred._falling_coefficients(rng.choice([list, tuple])(row))
            expected = [
                sum(stirling_second(l, k) * r for l, r in enumerate(row, 1))
                for k in range(1, length + 1)
            ]
            assert falling == expected, row
            assert dimred._power_coefficients(falling) == row, row


def test_build_database_smallest_cases():
    assert build_database(1).rows == {(1,): (1,)}
    assert build_database(2).rows == {(1,): (1,), (2,): (0, 1), (1, 1): (1, 0)}


def test_build_database_known_values():
    db = build_database(4)
    assert db.lookup(4, 1, Partition([2, 2])) == 1
    assert db.lookup(4, 3, Partition([2, 2])) == 2
    assert db.lookup(3, 2, Partition([2, 1])) == 3
    assert db.lookup(3, 3, Partition([2, 1])) == 0  # parity zero, no record


def test_database_values_match_general(n_max=7):
    db = build_database(n_max)
    for n in range(1, n_max + 1):
        for gamma in all_partitions(n):
            for m in range(1, n + 1):
                assert db.lookup(n, m, gamma) == mu(gamma, m)


def _skew_explicit_row(monkeypatch, skewed, m):
    """Patch the sweep's explicit rows: the row of skewed moved by one at m."""
    explicit_row = dimred._explicit_row

    def skewed_row(parts):
        row = explicit_row(parts)
        if parts == skewed:
            row = row[: m - 1] + (row[m - 1] + 1,) + row[m:]
        return row

    monkeypatch.setattr(dimred, "_explicit_row", skewed_row)


def test_build_rejects_a_count_the_recursion_disagrees_with(monkeypatch):
    # The core (2,2) is solved by the recursion, (2,1,1) checked against
    # (2,1) by the scaling: either row is compared with mu's.
    for skewed, m in [((2, 2), 3), ((2, 1, 1), 2)]:
        _skew_explicit_row(monkeypatch, skewed, m)
        gamma = ",".join(map(str, skewed))
        with pytest.raises(DatabaseBuildError, match=rf"n=4, m={m}, gamma={gamma}\)"):
            build_database(5)
        monkeypatch.undo()


def test_build_rejects_a_row_off_the_fixed_point_scaling(monkeypatch):
    # 3 mu((2,1,1,1), m) = 5 mu((2,1,1), m); mu((2,1,1,1), 2) = 10 moved
    # to 11.  The stored rows passed this same check, so n/m_1 times one
    # of them is always whole.
    _skew_explicit_row(monkeypatch, (2, 1, 1, 1), 2)
    message = (
        "validation failed at (n=5, m=2, gamma=2,1,1,1): "
        "recursion gave 10, explicit formula 11"
    )
    with pytest.raises(DatabaseBuildError, match=f"^{re.escape(message)}$"):
        build_database(5)


def test_reduced_rows_equal_the_explicit_rows(n_max=14):
    # Every class with two or more parts, every distinct removable part:
    # the row solved on the genus-admissible support, padded with zeros,
    # is mu's whole row.
    for n in range(2, n_max + 1):
        for gamma in all_partitions(n):
            if gamma.length < 2:
                continue
            expected = _mu_cached(gamma.parts)
            for i in set(gamma.parts):
                reduced = _mu_cached(remove_part(gamma, i).parts)
                row = dimred._reduced_row(gamma, i, reduced)
                assert len(row) == n
                assert tuple(row) == expected, (gamma, i)


def test_reduced_row_nonzero_past_its_top_is_rejected():
    # (2,1) has top n+1-l = 2, so its m = 3 entry must be 0.
    reduced = list(_mu_cached((2, 1)))
    reduced[2] = 1
    with pytest.raises(DatabaseBuildError, match=r"nonzero past its top m=2"):
        dimred._reduced_row(Partition([2, 1, 1]), 1, reduced)


def test_build_solves_the_recursion_for_cores_only(monkeypatch):
    # Classes with a part 1 are scaled, so no call removes a part 1.
    removed = []
    solve = dimred._solve

    def spy(gamma, i, reduced_falling):
        removed.append(i)
        return solve(gamma, i, reduced_falling)

    monkeypatch.setattr(dimred, "_solve", spy)
    build_database(12)
    assert removed and 1 not in removed


def test_sweep_walks_every_class_once_in_save_order():
    swept = [parts for parts, _ in dimred._sweep(20)]
    classes = [gamma.parts for n in range(1, 21) for gamma in all_partitions(n)]
    assert swept == sorted(classes, key=dimred._save_order)


@pytest.mark.parametrize(
    "build",
    [lambda path: build_database(14), lambda path: write_database(14, path)],
    ids=["build_database", "write_database"],
)
def test_build_lists_no_partitions(tmp_path, build):
    # The sweep walks its classes off its store, so all_partitions keeps
    # no Partition of any level.
    all_partitions.cache_clear()
    _mu_cached.cache_clear()
    build(tmp_path / "db.tsv")
    assert all_partitions.cache_info().currsize == 0


def test_build_transforms_each_one_part_row_once(monkeypatch):
    # Every core is solved from the coefficients its reduced class's solve
    # returned; only the Zagier-Stanley rows are transformed, each (k) once,
    # for the solves of (k, 2), ..., (k, k) to n = 14.
    transformed = []
    transform = dimred._falling_coefficients

    def spy(coeffs):
        transformed.append(tuple(coeffs))
        return transform(coeffs)

    monkeypatch.setattr(dimred, "_falling_coefficients", spy)
    build_database(14)
    assert transformed == [_mu_cached((k,)) for k in range(2, 13)]


def test_solve_returns_the_falling_coefficients_of_its_row(n_max=14):
    # For every core and every part removed, the quotients the solve
    # returns are the falling coefficients of its row up to its top, which
    # the sweep hands to the solves that remove one more part.
    for n in range(2, n_max + 1):
        for gamma in all_partitions(n):
            if gamma.length < 2 or gamma.parts[-1] == 1:
                continue
            top = n + 1 - gamma.length
            expected = _mu_cached(gamma.parts)
            for i in set(gamma.parts):
                reduced = _mu_cached(remove_part(gamma, i).parts)
                reduced_falling = dimred._falling_coefficients(reduced[: top + 1 - i])
                row, falling = dimred._solve(gamma, i, reduced_falling)
                assert tuple(row) == expected, (gamma, i)
                assert list(falling) == dimred._falling_coefficients(expected[:top]), (gamma, i)


@pytest.mark.parametrize(
    "parts,m,delta,message",
    [
        ((4, 2), 3, 1, "recursion gave 360/48 at (n=6, m=4, gamma=4,2, i=2)"),
        ((2, 1), 1, -100, "recursion gave -300/1 at (n=3, m=1, gamma=2,1, i=1)"),
        ((6, 2), 6, -2, "recursion gave -80640/10080 at (n=8, m=7, gamma=6,2, i=2)"),
        ((5, 2), 4, 1, "recursion gave 2016/240 at (n=7, m=5, gamma=5,2, i=2)"),
    ],
    ids=["non-integral", "negative", "negative-above-a-remainder", "remainder-above-a-negative"],
)
def test_reduced_row_rejects_a_recursion_value_that_is_no_count(parts, m, delta, message):
    # The reduced row of parts minus its last part, with its m entry moved by
    # delta: the recursion value at the named m is not a whole count (most
    # +1 edits still divide exactly) or a negative one.  In the last two
    # cases a smaller m fails the other way (for (5,2), a negative count
    # from the floored quotients); the largest failing m is the one named.
    reduced = list(_mu_cached(parts[:-1]))
    reduced[m - 1] += delta
    with pytest.raises(DatabaseBuildError, match=f"^{re.escape(message)}$"):
        dimred._reduced_row(Partition(parts), parts[-1], reduced)


def _row_along_the_chain(parts):
    """mu's row of the class with these parts (largest first) by the paper's
    recursion alone, along the chain (g_1), (g_1, g_2), ..., with no
    database: Zagier-Stanley at (g_1), then each next part g_k added by
    _reduced_row if g_k >= 2, or by m_1 mu(gamma, m) = n mu(gamma - 1, m)
    if g_k = 1, each division asserted exact."""
    n = parts[0]
    row = [zagier_stanley(n, m) for m in range(1, n + 1)]
    for k in range(2, len(parts) + 1):
        gamma, part = Partition(parts[:k]), parts[k - 1]
        if part == 1:
            ones = parts[:k].count(1)
            scaled = [gamma.n * count for count in row] + [0]
            assert not any(value % ones for value in scaled), gamma
            row = [value // ones for value in scaled]
        else:
            row = dimred._reduced_row(gamma, part, row)
    return tuple(row)


def test_mu_rows_match_the_recursion_past_the_database(monkeypatch):
    # The database checks mu to the n it is built for, 32 in CI; one chain
    # reaches any n.  Twelve seeded classes at n = 40..100, parts uniform
    # in 1..7 (the last one cut), 19 distinct parts at n = 209, 170 fixed
    # points at n = 200, and the pairings 2^150 and 2^200 (n = 300 and
    # 400), whose chains remove a part 2 at every step.
    rng = random.Random(1)
    cases = []
    for _ in range(12):
        n, parts = rng.randint(40, 100), []
        while sum(parts) < n:
            parts.append(min(rng.randint(1, 7), n - sum(parts)))
        cases.append(Partition(parts).parts)
    cases += [tuple(range(20, 1, -1)), (9, 7, 5, 3, 2, 2, 2) + (1,) * 170]
    cases += [(2,) * 150, (2,) * 200]

    def unreachable(*args):
        raise AssertionError("the chain called countcore")

    # The chains share no code with mu: while they run, every countcore
    # function fails, wherever a permfact module holds it.
    for module in [m for name, m in sys.modules.items() if name.startswith("permfact")]:
        for name, value in list(vars(module).items()):
            if callable(value) and getattr(value, "__module__", "") == "permfact.countcore":
                monkeypatch.setattr(module, name, unreachable)
    rows = [_row_along_the_chain(parts) for parts in cases]
    monkeypatch.undo()
    for parts, row in zip(cases, rows):
        assert row == _mu_cached.__wrapped__(parts), parts


def test_lookup_range_errors():
    db = build_database(3)
    with pytest.raises(DatabaseRangeError):
        db.lookup(99, 1, Partition([99]))
    with pytest.raises(DatabaseRangeError):
        db.lookup(3, 4, Partition([3]))
    with pytest.raises(ValueError):
        db.lookup(3, 1, Partition([2]))  # size mismatch


@pytest.mark.parametrize("m", [True, 2.0])
def test_lookup_rejects_an_m_that_is_not_an_int(m):
    # True answered for m = 1, and 2.0 failed on a tuple index.
    db = build_database(3)
    with pytest.raises(TypeError, match=rf"^m must be an int, got {m!r}$"):
        db.lookup(3, m, Partition([2, 1]))


@pytest.mark.parametrize("n", [True, 1.0])
def test_lookup_rejects_an_n_that_is_not_an_int(n):
    # True answered for n = 1.
    db = build_database(3)
    with pytest.raises(TypeError, match=rf"^n must be an int, got {n!r}$"):
        db.lookup(n, 1, Partition([1]))


@pytest.mark.parametrize("n_max", [True, 2.0])
def test_build_rejects_an_n_max_that_is_not_an_int(n_max):
    # True built a database whose saved header, n_max=True, load_database
    # refused: the library wrote a file it could not read.
    with pytest.raises(TypeError, match=rf"^n_max must be an int, got {n_max!r}$"):
        build_database(n_max)


@pytest.mark.parametrize(
    "n_max,error", [(True, TypeError), (2.0, TypeError), (0, ValueError)]
)
def test_write_database_rejects_a_bad_n_max_before_opening_its_file(tmp_path, n_max, error):
    path = tmp_path / "db.tsv"
    with pytest.raises(error, match="n_max"):
        write_database(n_max, path)
    assert not path.exists()


def test_save_load_round_trip(tmp_path):
    db = build_database(6)
    path = tmp_path / "counts.tsv"
    db.save(path)
    loaded = load_database(path)
    assert loaded.n_max == db.n_max
    assert loaded.rows == db.rows


def test_rebuild_is_byte_identical(tmp_path):
    p1 = tmp_path / "a.tsv"
    p2 = tmp_path / "b.tsv"
    build_database(6).save(p1)
    build_database(6).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_format(tmp_path):
    path = tmp_path / "counts.tsv"
    build_database(3).save(path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "#permfact-db v1 n_max=3"
    body = [line.split("\t") for line in lines[1:]]
    assert all(len(fields) == 4 for fields in body)
    # Sorted by (n, part count, parts lexicographic, m); values positive.
    keys = [
        (int(n), len(g.split(",")), g, int(m)) for n, m, g, val in body
    ]
    assert keys == sorted(keys)
    assert all(int(val) > 0 for _, _, _, val in body)


def test_loaded_rows_match_mu_including_zeros(tmp_path):
    path = tmp_path / "counts.tsv"
    built = build_database(10)
    built.save(path)
    db = load_database(path)
    assert db.rows == built.rows
    for n in range(1, 11):
        for gamma in all_partitions(n):
            for m in range(1, n + 1):
                assert db.lookup(n, m, gamma) == mu(gamma, m), (gamma, m)


def test_build_keeps_the_validated_mu_rows():
    # The build stores mu's rows, every class once.
    db = build_database(10)
    assert len(db.rows) == sum(len(all_partitions(n)) for n in range(1, 11))
    for parts, row in db.rows.items():
        assert row == _mu_cached(parts), parts


def test_write_database_writes_the_saved_bytes(tmp_path):
    streamed, saved = tmp_path / "streamed.tsv", tmp_path / "saved.tsv"
    for n_max in range(1, 17):
        written = write_database(n_max, streamed)
        assert written == build_database(n_max).save(saved), n_max
        assert streamed.read_bytes() == saved.read_bytes(), n_max


def _interrupt(*args):
    raise KeyboardInterrupt


class _UnreadableRow(tuple):
    """A row whose counts cannot be read: writing it is interrupted."""

    def __iter__(self):
        raise KeyboardInterrupt


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null and symlinks")
@pytest.mark.parametrize("failure", ["validation", "interrupt", "save"])
def test_failed_write_database_removes_a_regular_file_only(tmp_path, monkeypatch, failure):
    # A failed build removed its output path whatever it named, so
    # `db build --out /dev/null` unlinked the device where it could.  A
    # symlink to /dev/null stands in for the device.  Database.save shares
    # the writer: interrupted at its last class, it left a truncated file.
    write = partial(write_database, 6)
    if failure == "validation":
        _skew_explicit_row(monkeypatch, (2, 2), 3)
        raised = DatabaseBuildError
    elif failure == "interrupt":
        monkeypatch.setattr(dimred, "_solve", _interrupt)
        raised = KeyboardInterrupt
    else:
        db = build_database(6)
        last = (1,) * 6
        db.rows[last] = _UnreadableRow(db.rows[last])
        write, raised = db.save, KeyboardInterrupt
    path, link = tmp_path / "db.tsv", tmp_path / "null"
    link.symlink_to(os.devnull)
    for target in (path, link):
        with pytest.raises(raised):
            write(target)
    assert not path.exists()
    assert link.is_symlink() and link.is_char_device()


@pytest.mark.parametrize(
    "build",
    [lambda path: build_database(12), lambda path: write_database(12, path)],
    ids=["build_database", "write_database"],
)
def test_write_database_caches_no_class_with_fixed_points(tmp_path, build):
    # Classes with a part 1 are validated past mu's cache; the cores stay
    # cached, since mu scales each class with fixed points from its core.
    _mu_cached.cache_clear()
    build(tmp_path / "db.tsv")
    cores = [
        gamma.parts
        for n in range(1, 13)
        for gamma in all_partitions(n)
        if gamma.parts[-1] != 1
    ]
    assert _mu_cached.cache_info().currsize == len(cores) == 76
    for parts in cores:
        _mu_cached(parts)
    assert _mu_cached.cache_info().currsize == len(cores)


_PEAK = """
import sys, tracemalloc
from permfact import dimred
tracemalloc.start()
if sys.argv[1] == "write":
    dimred.write_database(20, sys.argv[2])
else:
    dimred.build_database(20).save(sys.argv[2])
print(tracemalloc.get_traced_memory()[1])
"""


def test_write_database_peaks_below_build_and_save(tmp_path):
    # Each in a fresh interpreter, so neither finds the other's caches.
    def peak(how):
        done = subprocess.run(
            [sys.executable, "-c", _PEAK, how, str(tmp_path / f"{how}.tsv")],
            capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        return int(done.stdout)

    assert peak("write") <= 0.85 * peak("save")


def test_save_returns_the_number_of_records(tmp_path):
    path = tmp_path / "counts.tsv"
    db = build_database(8)
    written = db.save(path)
    nonzero = sum(len(row) - row.count(0) for row in db.rows.values())
    assert written == nonzero == len(path.read_text().splitlines()) - 1


def test_header_claiming_far_more_classes_fails_fast(tmp_path, n16_lines):
    # p(200) is about 4e12: the loader must read the body before walking
    # the classes the header claims, and stop at the first missing one.
    # An n_max of 10**18 must not size anything by n_max either.
    path = tmp_path / "bad.tsv"
    for n_max in (200, 10**18):
        path.write_text(f"#permfact-db v1 n_max={n_max}\n" + "".join(n16_lines[1:]),
                        encoding="ascii")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="counts of class 17 sum to 0"):
            load_database(path)
        assert time.perf_counter() - start < 1.0, n_max


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not a database\n")
    with pytest.raises(ValueError):
        load_database(path)


@pytest.mark.parametrize(
    "n_text",
    ["0", "-3", "0_3", "+3", " 3", ""],
    ids=["zero", "negative", "underscore", "plus", "space", "empty"],
)
def test_non_canonical_header_rejected(tmp_path, n_text):
    # save writes n_max as a positive decimal; anything else int() would
    # take (or choke on) is a bad header, not an empty or n <= 3 database.
    path = tmp_path / "bad.tsv"
    build_database(3).save(path)
    body = path.read_text(encoding="ascii").split("\n", 1)[1]
    path.write_text(f"#permfact-db v1 n_max={n_text}\n" + body, encoding="ascii")
    with pytest.raises(ValueError, match="^bad database header: "):
        load_database(path)


@pytest.mark.parametrize(
    "body,reason",
    [
        ("3\tx\t3\t1\n", "invalid literal"),
        ("3\t1\t2,1\t5\n3\t1\t2,2\t5\n", "not a partition of 3"),
        ("3\t4\t3\t1\n", "m <= n"),
        ("4\t1\t4\t1\n", "n_max"),
        ("3\t1\t3\t0\n", "positive"),
        ("3\t1\t2,1\t5\n3\t1\t2,1\t5\n", "precedes"),
        ("3\t3\t2,1\t1\n3\t1\t3\t1\n", "precedes"),
        ("3\t1\t3\t2\n\n", "expected 4 tab-separated fields"),
    ],
    ids=["syntax", "gamma-size", "m-range", "n-range", "value", "duplicate", "order",
         "blank-line"],
)
def test_malformed_record_rejected(tmp_path, body, reason):
    path = tmp_path / "bad.tsv"
    path.write_text("#permfact-db v1 n_max=3\n" + body)
    lineno = 1 + body.count("\n")
    with pytest.raises(ValueError, match=f"line {lineno}: .*{reason}"):
        load_database(path)


@pytest.mark.parametrize("field", [0, 1, 3], ids=["n", "m", "value"])
@pytest.mark.parametrize(
    "respell",
    [" {}".format, "{} ".format, "+{}".format, "0_{}".format,
     lambda d: chr(0x660 + int(d)), "0{}".format],
    ids=["space", "trailing-space", "plus", "underscore", "arabic-indic", "leading-zero"],
)
def test_record_numbers_take_ascii_digits_only(tmp_path, field, respell):
    # The record "2\t2\t2\t1" (class 2 at m = 2) of an n <= 4 file, with
    # one number spelled in a way int() would still read as the same number.
    path = tmp_path / "db.tsv"
    build_database(4).save(path)
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    assert lines[2] == "2\t2\t2\t1\n"
    fields = ["2", "2", "2", "1"]
    fields[field] = respell(fields[field])
    lines[2] = "\t".join(fields) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="^line 3: invalid literal for a decimal integer"):
        load_database(path)


@pytest.mark.parametrize(
    "saved,respelled",
    [("2,1", "1,2"), ("2,1", " 2 , 1"), ("1,1,1", "1^3")],
    ids=["ascending", "spaces", "exponent"],
)
def test_class_takes_the_saved_spelling_only(tmp_path, saved, respelled):
    # parse_partition reads each respelling as the same class, but save
    # writes one text per class; here every record of the class is respelled.
    path = tmp_path / "db.tsv"
    build_database(4).save(path)
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    first = None
    for lineno, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) == 4 and fields[2] == saved:
            fields[2] = respelled
            lines[lineno - 1] = "\t".join(fields)
            first = first or lineno
    path.write_text("".join(lines), encoding="ascii")
    with pytest.raises(ValueError, match=f"^line {first}: class '{re.escape(respelled)}'"):
        load_database(path)


def test_header_takes_ascii_digits_only(tmp_path):
    path = tmp_path / "db.tsv"
    build_database(3).save(path)
    body = path.read_text(encoding="ascii").split("\n", 1)[1]
    path.write_text("#permfact-db v1 n_max=\u0663\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match="^bad database header: "):
        load_database(path)


@pytest.fixture(scope="module")
def n16_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("db") / "n16.tsv"
    build_database(16).save(path)
    return path.read_text(encoding="ascii").splitlines(keepends=True)


def _header_only(lines):
    return lines[:1]


def _last_line_dropped(lines):
    return lines[:-1]


def _count_cut(lines):
    # The one record of the transposition class 2,1^14, cut from 120 to 12.
    key = "16\t2\t2," + ",".join(["1"] * 14) + "\t"
    return [key + "12\n" if line == key + "120\n" else line for line in lines]


def _within_class_swap(lines):
    # The counts of class 6 at m = 2 (84) and m = 4 (35) exchanged; they
    # still sum to the class size 120.
    swap = {"6\t2\t6\t84\n": "6\t2\t6\t35\n", "6\t4\t6\t35\n": "6\t4\t6\t84\n"}
    return [swap.get(line, line) for line in lines]


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_header_only, "counts of class 1 sum to 0, not to its class size 1"),
        (_last_line_dropped, "class 1(,1){15} sum to 0, not to its class size 1"),
        (_count_cut, r"line \d+: counts of class 2(,1){14} sum to 12, "
                     "not to its class size 120"),
        (_within_class_swap, r"line \d+: counts of class 6 give sum_m 2\^m count = 1548, "
                             "not 960"),
    ],
    ids=["header-only", "last-line-dropped", "count-cut", "within-class-swap"],
)
def test_incomplete_or_altered_file_rejected(tmp_path, n16_lines, corrupt, message):
    # Every member of a class has one cofactor, so a class's counts sum to
    # its size, and sum_m 2^m count = size (n + 2 - m_1); each corruption
    # breaks one of these for one class.
    bad = corrupt(n16_lines)
    assert bad != n16_lines
    path = tmp_path / "bad.tsv"
    path.write_text("".join(bad), encoding="ascii")
    with pytest.raises(ValueError, match=message):
        load_database(path)


def test_every_missing_class_is_named(tmp_path):
    # Each class of the n <= 8 file removed with all its records: 66 files,
    # most missing a class from the middle of its level.  The digest pins
    # the message of each, taken when completeness was checked by counting
    # the classes of each n against p(n) from Euler's pentagonal recurrence.
    path = tmp_path / "db.tsv"
    build_database(8).save(path)
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    classes = [gamma.parts for n in range(1, 9) for gamma in all_partitions(n)]
    assert len(classes) == 66
    verdicts = []
    for parts in classes:
        text = ",".join(map(str, parts))
        kept = [line for line in lines if line.split("\t")[2:3] != [text]]
        assert len(kept) < len(lines), text
        path.write_text("".join(kept), encoding="ascii")
        with pytest.raises(ValueError) as exc:
            load_database(path)
        verdicts.append(str(exc.value))
    assert hashlib.sha256("\n".join(verdicts).encode()).hexdigest() == (
        "25bea023da48a85f9c2b995ea8f61a20cb6d63d0401d5a983053db5de9e92c17"
    )


def test_single_byte_edits_of_a_file_keep_their_verdicts(tmp_path):
    # Each byte of "0129\t\n\r,x " put at every position of the n <= 5
    # file, where it differs from the byte there: 2 952 edits.  No edit
    # may load rows other than the file's, and the digest pins every
    # verdict, the message of each rejected edit included.
    path = tmp_path / "db.tsv"
    db = build_database(5)
    db.save(path)
    data = path.read_bytes()
    verdicts = []
    for pos, byte in product(range(len(data)), b"0129\t\n\r,x "):
        if byte == data[pos]:
            continue
        path.write_bytes(data[:pos] + bytes([byte]) + data[pos + 1:])
        try:
            rows = load_database(path).rows
        except ValueError as exc:
            verdict = str(exc)
        else:
            assert rows == db.rows, (pos, byte)
            verdict = "same rows"
        verdicts.append(f"{pos} {byte} {verdict}")
    assert len(verdicts) == 2952
    assert hashlib.sha256("\n".join(verdicts).encode()).hexdigest() == (
        "7411debb0a718a0d9d40f5142fd075a078d328d1c59a053367cc85d15151b110"
    )


def test_record_number_too_long_for_int_names_its_line(tmp_path):
    # int() refuses a decimal of more than 4 300 digits; the record's line
    # is still named.
    path = tmp_path / "db.tsv"
    build_database(4).save(path)
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    lines[2] = "2\t" + "9" * 5000 + "\t2\t1\n"
    path.write_text("".join(lines), encoding="ascii")
    with pytest.raises(ValueError, match="^line 3: "):
        load_database(path)


def test_load_makes_no_partition_table(tmp_path):
    path = tmp_path / "db.tsv"
    write_database(14, path)
    all_partitions.cache_clear()
    load_database(path)
    assert all_partitions.cache_info().currsize == 0


def test_load_reads_crlf_line_ends_and_no_final_newline(tmp_path):
    path = tmp_path / "db.tsv"
    db = build_database(8)
    db.save(path)
    data = path.read_bytes()
    for edited in (data.replace(b"\n", b"\r\n"), data[:-1]):
        path.write_bytes(edited)
        assert load_database(path).rows == db.rows
