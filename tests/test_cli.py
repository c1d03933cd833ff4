import argparse
import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from permfact import cli, dimred, verify
from permfact.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
VERIFY_ALL_SHA256 = "328a69268c85a242a2b1c8cf1cb7800318c83a71a7b75988aefc9f1b319a0e99"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_xi_single_value(capsys):
    code, out, _ = run(capsys, "xi", "--class", "3", "--class", "3", "--m", "1")
    assert code == 0 and out == "2\n"
    code, out, _ = run(capsys, "xi", "--class", "2", "--class", "2", "--m", "2")
    assert code == 0 and out == "1\n"


def test_xi_m_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "xi", "--class", "3", "--class", "2,1", "--m", "4")
    assert code == 2 and "between 1 and 3" in err


def test_xi_inconsistent_sizes(capsys):
    code, _, err = run(capsys, "xi", "--class", "3", "--class", "2,2", "--m", "1")
    assert code == 2 and "same size" in err


def test_xi_all_m_lists_nonzero_rows(capsys):
    code, out, _ = run(capsys, "xi", "--class", "3", "--class", "3", "--all-m",
                       "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["m\txi", "1\t2", "3\t2"]


def test_xi_all_m_table_golden(capsys):
    code, out, _ = run(capsys, "xi", "--class", "2^5", "--class", "3,1^7", "--all-m")
    assert code == 0
    assert out == "m      xi\n3  151200\n5   75600\n"


def test_xi_exponent_notation(capsys):
    code, out, _ = run(capsys, "xi", "--class", "1^2,3", "--class", "5", "--m", "2")
    code2, out2, _ = run(capsys, "xi", "--class", "3,1,1", "--class", "5", "--m", "2")
    assert code == code2 == 0 and out == out2


def test_mu_single_and_genus(capsys):
    code, out, _ = run(capsys, "mu", "--gamma", "2,1", "--m", "2")
    assert code == 0 and out == "3\n"
    code, out, _ = run(capsys, "mu", "--gamma", "2,2", "--genus", "1")
    assert code == 0 and out == "1\n"


def test_mu_all_rows(capsys):
    code, out, _ = run(capsys, "mu", "--gamma", "3", "--all", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["m\tmu", "1\t1", "3\t1"]


def test_mu_all_table_golden(capsys):
    code, out, _ = run(capsys, "mu", "--gamma", "3,2^4,1^3", "--all")
    assert code == 0
    assert out == "m       mu\n1  1981980\n3  7987980\n5  2522520\n7   120120\n"


def test_mu_unrealizable_genus_prints_zero(capsys):
    # Genus too large for the class: cycle number falls below 1.
    code, out, _ = run(capsys, "mu", "--gamma", "2,1", "--genus", "2")
    assert code == 0 and out == "0\n"


def test_mu_bad_partition(capsys):
    code, _, err = run(capsys, "mu", "--gamma", "2,x", "--m", "1")
    assert code == 2 and "token" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["maps", "--edges", "1_0", "--genus", "+1"],
        ["maps", "--edges", "10", "--genus", "+1"],
        ["xi", "--class", "3", "--class", "3", "--m", "\u0662"],
        ["mu", "--gamma", "2,1", "--m", " 2"],
        ["maps", "--edges", "\uff13"],
        ["verify", "--suite", "hz", "--n-max", "+3"],
        ["db", "lookup", "--db", "missing.tsv", "--gamma", "2", "--m", "1_0"],
    ],
    ids=["underscore-edges", "plus-genus", "arabic-indic-m", "space-m",
         "fullwidth-edges", "plus-n-max", "underscore-lookup-m"],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    # int() would read each of these as a number and answer the query.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "expected an integer, got " in err


def test_negative_integer_options_keep_their_meaning(capsys):
    code, out, _ = run(capsys, "mu", "--gamma", "2,1", "--m", "-1")
    assert (code, out) == (0, "0\n")
    code, out, err = run(capsys, "mu", "--gamma", "2,1", "--genus", "-1")
    assert (code, out, err) == (2, "", "error: --genus must be nonnegative\n")
    code, _, err = run(capsys, "maps", "--edges", "-3")
    assert code == 2 and "expected a positive integer, got -3" in err


def test_maps_table(capsys):
    code, out, _ = run(capsys, "maps", "--edges", "3", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["edges\tgenus\tcount", "3\t0\t5", "3\t1\t10"]


def test_maps_prints_counts_past_the_int_to_str_digit_limit():
    # Python refuses int -> str past 4300 digits by default; at 1500 edges
    # the largest count is longer than that.
    done = subprocess.run(
        [sys.executable, "-m", "permfact", "maps", "--edges", "1500", "--format", "tsv"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    counts = [line.split(b"\t")[2] for line in done.stdout.splitlines()[1:]]
    assert len(counts) == 751 and all(count.isdigit() for count in counts)
    assert max(map(len, counts)) > 4300


@pytest.mark.parametrize(
    "argv, digest",
    [
        ((), "57bcdbb3bbd7951f9a0b81c8bfbb4059cfa76c1ed5344e3f30a3d05b5842bb7d"),
        (("--format", "jsonl"),
         "d64df86bff48921a45f55494e2d7179f7070f846498af2553bf99992193978f9"),
    ],
    ids=["table", "jsonl"],
)
def test_maps_edges_400_bytes_are_pinned(capsys, argv, digest):
    # The digests were taken when hz_table returned one row object per genus.
    code, out, _ = run(capsys, "maps", "--edges", "400", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_maps_single_genus(capsys):
    code, out, _ = run(capsys, "maps", "--edges", "2", "--genus", "1")
    assert code == 0 and out == "1\n"


def test_maps_one_edge(capsys):
    code, out, _ = run(capsys, "maps", "--edges", "1", "--format", "tsv")
    assert code == 0 and out.splitlines() == ["edges\tgenus\tcount", "1\t0\t1"]


def test_maps_genus_out_of_range(capsys):
    code, _, err = run(capsys, "maps", "--edges", "2", "--genus", "5")
    assert code == 2 and "genus" in err


def test_jsonl_format(capsys):
    code, out, _ = run(capsys, "maps", "--edges", "2", "--format", "jsonl")
    assert (code, out) == (0, '{"edges": 2, "genus": 0, "count": 2}\n'
                              '{"edges": 2, "genus": 1, "count": 1}\n')
    code, out, _ = run(capsys, "mu", "--gamma", "3,2,1", "--all", "--format", "jsonl")
    assert (code, out) == (0, '{"m": 2, "mu": 90}\n{"m": 4, "mu": 30}\n')


def test_table_format_is_aligned(capsys):
    code, out, _ = run(capsys, "maps", "--edges", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["edges", "genus", "count"]
    assert lines[1].split() == ["3", "0", "5"]
    assert lines[2].split() == ["3", "1", "10"]


def test_output_is_deterministic(capsys):
    first = run(capsys, "mu", "--gamma", "4,2,1", "--all")
    second = run(capsys, "mu", "--gamma", "4,2,1", "--all")
    assert first == second


def test_threads_flag_is_rejected(capsys):
    code, out, err = run(capsys, "maps", "--edges", "4", "--threads", "8")
    assert code == 2 and out == "" and "--threads" in err


def test_db_build_and_lookup(capsys, tmp_path):
    path = tmp_path / "db.tsv"
    code, out, _ = run(capsys, "db", "build", "--n-max", "6", "--out", str(path))
    assert code == 0
    assert "n_max=6" in out and path.exists()
    code, out, _ = run(capsys, "db", "lookup", "--db", str(path),
                       "--gamma", "2,2", "--m", "1")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "db", "lookup", "--db", str(path),
                       "--gamma", "3,2,1", "--m", "6")
    assert code == 0 and out == "0\n"


def _db_build_sha256(capsys, tmp_path, n_max):
    path = tmp_path / "db.tsv"
    code, _, _ = run(capsys, "db", "build", "--n-max", str(n_max), "--out", str(path))
    assert code == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_db_build_n16_bytes_are_pinned(capsys, tmp_path):
    assert _db_build_sha256(capsys, tmp_path, 16) == (
        "5f39d1ebdb4d531a7eb7cec75422a60dcfb4cbf8cd257588243fff22caa6040f"
    )


def test_db_build_n18_bytes_are_pinned(capsys, tmp_path):
    assert _db_build_sha256(capsys, tmp_path, 18) == (
        "318090dd0d7c67acf1446349ca1343ddbb2760acb45a31866ac65f77c284232e"
    )


def test_db_build_n20_bytes_are_pinned(capsys, tmp_path):
    assert _db_build_sha256(capsys, tmp_path, 20) == (
        "e00b63b4f97744857d63f39cc562339e04ef4a7e988d55aa5c27496520aebea8"
    )


def test_verify_dimred_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dimred")
    assert code == 0
    assert out == "".join(
        f"PASS recursion vs explicit n={n}\n" for n in range(2, 9)
    ) + "PASS database build n_max=8 (151 records)\ndimred: 8/8 checks passed\n"


def test_verify_all_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert out.splitlines()[-1] == "all: 174/174 checks passed"
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == VERIFY_ALL_SHA256


HZ_STDOUT = "".join(
    [f"PASS single-variable identity n={n}\n" for n in range(1, 9)]
    + ["PASS bivariate identity n<=8 at 11 x-points\n"]
    + [f"PASS map counts vs pairing class n={n}\n" for n in range(1, 6)]
    + ["PASS genus-0 column is Catalan n<=8\n", "hz: 15/15 checks passed\n"]
)

# (argv, exit code, stdout, stderr), run in this order with COLUMNS=80 from a
# scratch working directory, where `db build` writes db.tsv for `db lookup`.
CLI_TABLE = [
    (["mu", "--gamma", "2,1", "--m", "2"], 0, "3\n", ""),
    (["xi", "--class", "2^5", "--class", "3,1^7", "--all-m"], 0,
     "m      xi\n3  151200\n5   75600\n", ""),
    (["xi", "--class", "2,2,1", "--class", "3,1,1", "--class", "5", "--m", "3"], 0,
     "4200\n", ""),
    (["xi", "--class", "3", "--class", "2,1,1", "--all-m"], 2,
     "", "error: all --class partitions must have the same size\n"),
    (["mu", "--gamma", "4,2,1", "--all"], 0, "m   mu\n1  168\n3  420\n5   42\n", ""),
    (["maps", "--edges", "6"], 0, "edges  genus  count\n    6      0    132\n"
     "    6      1   2310\n    6      2   6468\n    6      3   1485\n", ""),
    (["maps", "--edges", "10", "--genus", "1"], 0, "1385670\n", ""),
    # The largest edge count of perfbench's session workload.
    (["maps", "--edges", "80", "--genus", "20"], 0,
     "337608108171285393496376145414880150379140464317561782745523"
     "21611436462875715731325644359444493277828295281919020\n", ""),
    (["maps", "--edges", "0"], 2, "",
     "usage: permfact maps [-h] [--format {table,tsv,jsonl}] --edges EDGES\n"
     "                     [--genus GENUS]\n"
     "permfact maps: error: argument --edges: expected a positive integer, got 0\n"),
    (["db", "build", "--n-max", "6", "--out", "db.tsv"], 0,
     "built 52 records, n_max=6, out=db.tsv\n", ""),
    (["db", "lookup", "--db", "db.tsv", "--gamma", "2,2", "--m", "1"], 0, "1\n", ""),
    (["verify", "--suite", "hz"], 0, HZ_STDOUT, ""),
    (["mu", "--gamma", "3,2,1", "--all", "--format", "jsonl"], 0,
     '{"m": 2, "mu": 90}\n{"m": 4, "mu": 30}\n', ""),
    (["--help"], 0, """\
usage: permfact [-h] {xi,mu,maps,db,verify} ...

Exact counts of permutation factorizations by conjugacy class, and of one-face
(bipartite) maps by genus.

positional arguments:
  {xi,mu,maps,db,verify}
    xi                  count tuples from prescribed classes whose product has
                        m cycles
    mu                  count factorizations of a fixed full cycle (one-face
                        bipartite maps)
    maps                one-face map counts by genus
    db                  count database operations
    verify              run a named cross-check suite

options:
  -h, --help            show this help message and exit
""", ""),
]


def test_python_dash_m_runs_the_cli_from_a_checkout(tmp_path):
    # Each command runs in a fresh interpreter, so a module that a handler
    # imports on its own (verify, fractions, json) is really loaded there;
    # the in-process tests above import every module first.
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "permfact", *argv],
            capture_output=True, env=env, cwd=tmp_path, timeout=120,
        )

    for argv, code, stdout, stderr in CLI_TABLE:
        done = run_module(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (
            code, stdout.encode(), stderr.encode()
        ), argv
    done = run_module("verify", "--suite", "all")
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout).hexdigest() == VERIFY_ALL_SHA256


def test_one_process_runs_the_table_twice(capsys, monkeypatch, tmp_path):
    # main shares one parser across calls; no call may see another's options.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        for argv, code, stdout, stderr in CLI_TABLE:
            assert run(capsys, *argv) == (code, stdout, stderr), argv


def test_later_commands_build_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    run(capsys, "xi", "--class", "3", "--class", "3", "--m", "1")
    built.clear()
    assert run(capsys, "mu", "--gamma", "2,1", "--m", "2") == (0, "3\n", "")
    assert run(capsys, "maps", "--edges", "3", "--genus", "1") == (0, "10\n", "")
    assert run(capsys, "verify", "--suite", "bogus")[0] == 2
    assert built == []
    argparse.ArgumentParser()  # the spy sees a parser being built
    assert len(built) == 1


def test_out_of_memory_is_one_stderr_line_and_exit_code_3():
    # 54 one-cycles make the column walk hold every shape of each k <= 54,
    # far past 150 MB.  (The identity class 1^56 would leave the product
    # with one class, whose row needs no walk.)  The limit applies to the
    # child process alone.
    limit = 150 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-m", "permfact", "xi",
         "--class", "2,1^54", "--class", "2^28", "--m", "28"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=cap_address_space, timeout=300,
    )
    assert (done.returncode, done.stdout) == (3, b"")
    assert done.stderr == b"error: out of memory in xi\n"


@pytest.mark.parametrize(
    "where", ["missing/db.tsv", "."], ids=["no-directory", "a-directory"]
)
def test_db_build_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path, where):
    path = tmp_path / where
    code, out, err = run(capsys, "db", "build", "--n-max", "3", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write database {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_db_build_to_an_unwritable_path_computes_no_count(capsys, monkeypatch, tmp_path):
    swept = []
    monkeypatch.setattr(dimred, "_sweep", lambda *args: swept.append(args))
    path = tmp_path / "missing" / "db.tsv"
    code, out, err = run(capsys, "db", "build", "--n-max", "20", "--out", str(path))
    assert (code, out, swept) == (2, "", [])
    assert err.startswith(f"error: cannot write database {path}: ")


def test_db_build_validation_failure_leaves_no_file(capsys, monkeypatch, tmp_path):
    # The row of the core (3,2) moved by one at its top, m = 4, once the
    # records of n <= 4 have gone to the file.
    solve = dimred._solve

    def skewed(gamma, i, reduced_falling):
        row, falling = solve(gamma, i, reduced_falling)
        if gamma.parts == (3, 2):
            row[3] += 1
        return row, falling

    monkeypatch.setattr(dimred, "_solve", skewed)
    path = tmp_path / "db.tsv"
    code, out, err = run(capsys, "db", "build", "--n-max", "6", "--out", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "validation failure: validation failed at (n=5, m=4, gamma=3,2): "
        "recursion gave 6, explicit formula 5\n"
    )
    assert not path.exists()


def test_db_lookup_beyond_range(capsys, tmp_path):
    path = tmp_path / "db.tsv"
    run(capsys, "db", "build", "--n-max", "3", "--out", str(path))
    code, _, err = run(capsys, "db", "lookup", "--db", str(path),
                       "--gamma", "4", "--m", "1")
    assert code == 2 and "not built" in err


def test_db_lookup_range_error_text(capsys, tmp_path):
    path = tmp_path / "db.tsv"
    run(capsys, "db", "build", "--n-max", "3", "--out", str(path))
    code, out, err = run(capsys, "db", "lookup", "--db", str(path),
                         "--gamma", "4", "--m", "1")
    assert (code, out) == (2, "")
    assert err == "error: n = 4 not in built range 1..3 (not built, not zero)\n"
    code, out, err = run(capsys, "db", "lookup", "--db", str(path),
                         "--gamma", "3", "--m", "5")
    assert (code, out) == (2, "")
    assert err == "error: m = 5 not in range 1..3 (not built, not zero)\n"


def test_db_lookup_checks_the_whole_file(capsys, tmp_path):
    # A record of class 6 is damaged; the lookup asks for class 2,2, and
    # still fails, naming the damaged line.
    path = tmp_path / "db.tsv"
    run(capsys, "db", "build", "--n-max", "6", "--out", str(path))
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    lineno = lines.index("6\t2\t6\t84\n") + 1
    lines[lineno - 1] = "6\t2\t6\t084\n"
    path.write_text("".join(lines), encoding="ascii")
    code, out, err = run(capsys, "db", "lookup", "--db", str(path),
                         "--gamma", "2,2", "--m", "1")
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read database {path}: line {lineno}: invalid literal "
        "for a decimal integer: '084' has a leading zero\n"
    )


def test_db_lookup_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "db", "lookup", "--db", str(tmp_path / "no.tsv"),
                       "--gamma", "2", "--m", "1")
    assert code == 2


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "schur", "--n-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("schur:")


def test_verify_oracle_checks_triples_up_to_the_brute_force_limit(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--n-max", "6")
    assert code == 0
    assert "PASS triples n=6" in out.splitlines()


VERIFY_USAGE = """\
usage: permfact verify [-h] --suite
                       {oracle,closedform,schur,m1,jackson,hz,dimred,polynomiality,all}
                       [--n-max N_MAX]
"""


def test_help_and_suite_error_texts_are_pinned(capsys, monkeypatch):
    # The --suite choices are listed without loading verify; these are the
    # texts argparse printed when they were read from verify.SUITES.
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "--help") == (0, """\
usage: permfact [-h] {xi,mu,maps,db,verify} ...

Exact counts of permutation factorizations by conjugacy class, and of one-face
(bipartite) maps by genus.

positional arguments:
  {xi,mu,maps,db,verify}
    xi                  count tuples from prescribed classes whose product has
                        m cycles
    mu                  count factorizations of a fixed full cycle (one-face
                        bipartite maps)
    maps                one-face map counts by genus
    db                  count database operations
    verify              run a named cross-check suite

options:
  -h, --help            show this help message and exit
""", "")
    assert run(capsys, "verify", "--help") == (0, VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --suite {oracle,closedform,schur,m1,jackson,hz,dimred,polynomiality,all}
  --n-max N_MAX         size cap (per-suite default if omitted)
""", "")
    assert run(capsys, "verify", "--suite", "bogus") == (2, "", VERIFY_USAGE + (
        "permfact verify: error: argument --suite: invalid choice: 'bogus' (choose "
        "from 'oracle', 'closedform', 'schur', 'm1', 'jackson', 'hz', 'dimred', "
        "'polynomiality', 'all')\n"
    ))


def test_verify_suite_choices_are_the_suites():
    assert list(cli.VERIFY_SUITES) == [*verify.SUITES, "all"]


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "bogus"])
    capsys.readouterr()
    assert code == 2


def test_verify_hz(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hz", "--n-max", "4")
    assert code == 0 and "hz:" in out.splitlines()[-1]
