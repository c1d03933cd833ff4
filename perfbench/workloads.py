"""The four benchmark workloads: seeded inputs, one timed iteration, checks.

Inputs are generated here from the seed with the benchmark's own partition
code, so the program under test only ever sees the generated inputs.  The
constructor generates them in run.py, which hands the pickled workload to
each child; the partition memo and key pools used for generation therefore
never count towards a child's memory.  Each workload runs in a fresh
interpreter (see child.py): `attach()` names its files, `setup()` is the
part a user waits for before the first answer, `run()` is the timed part,
and `check()` verifies every answer afterwards, outside the timed region.

Why these workloads:
- xi-cli: one-shot `xi --all-m` commands on classes without a full cycle;
  the general character route (charkit, countcore.w_number, Stirling
  transform), no dimension reduction.
- db-cli: one-shot `db build`; the write side of dimred and the Fraction
  heavy mu validation, no characters.  Fixed input.
- verify-cli: one-shot `verify --suite all` at the default caps; the only
  workload that runs oracle and symfun.  Fixed input.
- session: one warm library process, one closed-loop client sending many
  small queries with Zipf-like repeats; the lru caches, the hook-path xi,
  closed forms and the read side of dimred.
"""

import contextlib
import hashlib
import io
import math
import os
import random
from collections import Counter
from time import perf_counter_ns

SIZES = ("standard", "tiny")

# The sha256 of `db build --n-max 16`, unchanged since the first release;
# the n_max = 18 file must contain exactly that file's records.
DB16_SHA256 = "5f39d1ebdb4d531a7eb7cec75422a60dcfb4cbf8cd257588243fff22caa6040f"


# ---------------------------------------------------------------- partitions


def partitions(n, max_part=None):
    """All partitions of n as nonincreasing tuples, largest first part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


_PARTITIONS = {}


def partition_list(n):
    if n not in _PARTITIONS:
        _PARTITIONS[n] = list(partitions(n))
    return _PARTITIONS[n]


def class_size(parts):
    """Number of permutations of cycle type parts: n! / prod(i^m_i m_i!)."""
    z = 1
    for part, mult in Counter(parts).items():
        z *= part ** mult * math.factorial(mult)
    return math.factorial(sum(parts)) // z


def class_text(parts):
    """CLI text for a class, with exponents for repeated parts: '3,2^2,1^5'."""
    tokens = []
    for part, mult in sorted(Counter(parts).items(), reverse=True):
        tokens.append(str(part) if mult == 1 else f"{part}^{mult}")
    return ",".join(tokens)


def parity_allows(n, classes, m):
    """False when sign considerations force xi(classes, m) to vanish."""
    return (n - m) % 2 == sum(n - len(c) for c in classes) % 2


def digest(data):
    return hashlib.sha256(data).hexdigest()


def _timed_cli(argv, request, begin, latencies_us):
    """One CLI command through cli.main: (exit code, stdout), latency appended."""
    from permfact import cli

    begin(request)
    buf = io.StringIO()
    t0 = perf_counter_ns()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    latencies_us.append((perf_counter_ns() - t0) / 1000)
    return rc, buf.getvalue()


class Workload:
    """Base class.  `ops` is the number of answers one iteration produces."""

    fixed_input = False

    def __init__(self, seed, size):
        self.size = size
        self.problems = []

    def attach(self, workdir):
        """Name this iteration's files under workdir; not timed."""
        self.workdir = workdir

    def setup(self, pf):
        self.pf = pf

    def op_kinds(self):
        """Kind of each operation, in run order, or None when there is one kind."""
        return None

    def teardown(self):
        pass

    def fail(self, text):
        self.problems.append(text)


# -------------------------------------------------------------------- xi-cli


class XiCli(Workload):
    """A few `xi --all-m` commands through cli.main in one process.

    Each command slot has a fixed n and number of classes, so run time
    depends little on the seed; the seed picks the classes.  Classes have
    small support (few non-fixed points) and never contain a full cycle,
    which keeps almost every character nonzero and avoids the hook path.
    """

    SLOTS = {
        "standard": ((17, 2), (18, 2), (19, 2), (14, 3)),
        "tiny": ((6, 2), (7, 2), (5, 3)),
    }
    SUPPORT = (2, 6)

    def __init__(self, seed, size):
        super().__init__(seed, size)
        rng = random.Random(f"xi-cli:{seed}")
        self.commands = []
        for n, t in self.SLOTS[size]:
            classes = tuple(self._small_support_class(rng, n) for _ in range(t))
            self.commands.append((n, classes))
        self.ops = len(self.commands)

    def _small_support_class(self, rng, n):
        lo, hi = self.SUPPORT
        support = rng.randint(lo, min(hi, n - 1))
        moved = rng.choice([p for p in partition_list(support) if 1 not in p])
        return moved + (1,) * (n - support)

    def argv(self, classes):
        argv = ["xi"]
        for c in classes:
            argv += ["--class", class_text(c)]
        return argv + ["--all-m"]

    def run(self, begin, latencies_us):
        return [
            _timed_cli(self.argv(classes), i + 1, begin, latencies_us)
            for i, (_, classes) in enumerate(self.commands)
        ]

    def check(self, outputs, full=True):
        failed = 0
        blob = []
        for (n, classes), (rc, text) in zip(self.commands, outputs):
            blob.append(text)
            try:
                problem = self._check_table(n, classes, rc, text)
            except ValueError as exc:
                problem = f"unparsable table: {exc}"
            if problem:
                failed += 1
                self.fail(f"xi {' '.join(map(class_text, classes))}: {problem}")
        return failed, digest("".join(blob).encode())

    @staticmethod
    def _check_table(n, classes, rc, text):
        if rc != 0:
            return f"exit code {rc}"
        lines = text.splitlines()
        if not lines or lines[0].split() != ["m", "xi"]:
            return "missing header"
        total, last_m = 0, 0
        for line in lines[1:]:
            m, value = (int(f) for f in line.split())
            if not last_m < m <= n or value <= 0:
                return f"bad row {line!r}"
            if not parity_allows(n, classes, m):
                return f"row m={m} violates parity vanishing"
            total += value
            last_m = m
        expected = math.prod(class_size(c) for c in classes)
        if total != expected:
            return f"sum over m is {total}, product of class sizes is {expected}"
        return None


# -------------------------------------------------------------------- db-cli


class DbCli(Workload):
    """`db build --n-max N` through cli.main, then the file is checked."""

    fixed_input = True
    N_MAX = {"standard": 18, "tiny": 8}
    ops = 1

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.n_max = self.N_MAX[size]

    def attach(self, workdir):
        super().attach(workdir)
        self.out = os.path.join(workdir, f"db-cli-{self.n_max}.tsv")
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)  # a stale file must not pass for this build's output

    def run(self, begin, latencies_us):
        argv = ["db", "build", "--n-max", str(self.n_max), "--out", self.out]
        return _timed_cli(argv, 1, begin, latencies_us)

    def check(self, outputs, full=True):
        rc, text = outputs
        try:
            with open(self.out, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            self.fail(f"db build wrote no file: {exc}")
            return 1, digest(text.encode())
        try:
            problem = self._check_records(rc, text, data)
        except (ValueError, IndexError) as exc:
            problem = f"unparsable file: {exc!r}"
        if problem:
            self.fail(f"db build --n-max {self.n_max}: {problem}")
        return (1 if problem else 0), digest(text.encode() + data)

    def _check_records(self, rc, text, data):
        if rc != 0:
            return f"exit code {rc}"
        lines = data.decode("ascii").splitlines(keepends=True)
        if lines[0] != f"#permfact-db v1 n_max={self.n_max}\n":
            return f"bad header {lines[0]!r}"
        records = lines[1:]
        if text != f"built {len(records)} records, n_max={self.n_max}, out={self.out}\n":
            return f"unexpected output {text!r}"
        mu, Partition = self.pf.mu, self.pf.Partition
        for line in records:
            n, m, gamma, value = line.rstrip("\n").split("\t")
            parts = tuple(int(p) for p in gamma.split(","))
            if sum(parts) != int(n) or int(value) != mu(Partition(parts), int(m)):
                return f"record {line!r} disagrees with mu"
        if self.n_max >= 16:
            head = "#permfact-db v1 n_max=16\n" + "".join(
                r for r in records if int(r.split("\t", 1)[0]) <= 16
            )
            if digest(head.encode("ascii")) != DB16_SHA256:
                return "records for n <= 16 differ from the n_max=16 reference file"
        return None


# ---------------------------------------------------------------- verify-cli


class VerifyCli(Workload):
    """`verify --suite all` at the default caps through cli.main.

    The caps stay at their defaults: --n-max applies to every suite at
    once, and already at 5 the schur suite alone takes tens of seconds.
    """

    fixed_input = True
    ARGV = {
        "standard": ["verify", "--suite", "all"],
        "tiny": ["verify", "--suite", "all", "--n-max", "3"],
    }
    ops = 1

    def run(self, begin, latencies_us):
        return _timed_cli(self.ARGV[self.size], 1, begin, latencies_us)

    def check(self, outputs, full=True):
        rc, text = outputs
        lines = text.splitlines()
        passed = sum(1 for line in lines[:-1] if line.startswith("PASS "))
        problem = None
        if rc != 0:
            problem = f"exit code {rc}"
        elif passed == 0 or passed != len(lines) - 1:
            problem = "not every case passed"
        elif lines[-1] != f"all: {passed}/{passed} checks passed":
            problem = f"bad summary {lines[-1]!r}"
        if problem:
            self.fail(f"verify --suite all: {problem}")
        return (1 if problem else 0), digest(text.encode())


# ------------------------------------------------------------------- session


# Rough relative cost of one key of each query kind, used only to order ranks.
_COST_PROXY = {
    "mu": lambda key: (sum(key[0]), key[1]),
    "lookup": lambda key: (sum(key[0]), key[1]),
    "xi_full": lambda key: (sum(key[0]), key[1]),
    "maps": lambda key: (2 * key[1] + 1) * key[0],
    "xi": lambda key: (len(key[0]), sum(key[0][0]), key[1]),
}


def _spread_ranks(keys, proxy):
    """Order keys so that every run of popular ranks spans cheap and costly keys.

    Keys are sorted by the cost proxy and then visited with a stride near
    the golden ratio of the pool size.  Rank r lands on the same cost
    quantile whatever the seed, so the Zipf-weighted work of a stream (and
    with it the run time) depends little on which keys the seed drew.
    """
    keys = sorted(keys, key=proxy)
    size = len(keys)
    step = max(1, round(size * 0.618))
    while math.gcd(step, size) != 1:
        step += 1
    return [keys[(r * step) % size] for r in range(size)]


class Session(Workload):
    """A warm library process and one closed-loop client.

    Set-up builds, saves and loads a count database.  The client then sends
    a fixed stream of queries, each after the previous answer, drawn from
    five kinds with Zipf-like repeats inside each kind's key pool, so most
    queries hit a cache and a tail does real work.

    The mix, the Zipf exponent and the pool sizes are assumptions, not
    measurements: permfact is a library and a CLI, not a service, and no
    record of how its users query it exists.  They were chosen so that
    every kind takes a visible share of the run; the traced run reports
    each kind's measured share of run time (query.<kind>.time_share), so
    the figures can be read against what they depend on.
    """

    # Pool sizes count distinct keys, except for "xi", where they count
    # class tuples and every m of each tuple is a key.
    PARAMS = {
        "standard": dict(queries=20000, db_n=14, mu_n=30, map_edges=80, full_n=24,
                         small_n=10, pools=dict(mu=1200, lookup=800, maps=1000,
                                                xi_full=300, xi=40)),
        "tiny": dict(queries=400, db_n=8, mu_n=10, map_edges=12, full_n=8,
                     small_n=5, pools=dict(mu=40, lookup=30, maps=20, xi_full=20,
                                           xi=5)),
    }
    MIX = (("mu", 0.35), ("lookup", 0.25), ("maps", 0.15), ("xi_full", 0.15), ("xi", 0.10))
    ZIPF_S = 1.1

    def __init__(self, seed, size):
        super().__init__(seed, size)
        p = self.PARAMS[size]
        self.params = p
        rng = random.Random(f"session:{seed}")
        pools = {kind: self._pool(rng, kind, p) for kind, _ in self.MIX}
        kinds = [k for k, _ in self.MIX]
        # Exact counts per kind, so the mix (and with it the latency
        # percentiles) does not move with the seed.
        picks = [k for k, share in self.MIX for _ in range(round(share * p["queries"]))]
        rng.shuffle(picks)
        cum = {k: self._zipf_cum(len(pools[k])) for k in kinds}
        self.queries = [
            (k, pools[k][rng.choices(range(len(pools[k])), cum_weights=cum[k])[0]])
            for k in picks
        ]
        self.ops = len(self.queries)

    def attach(self, workdir):
        super().attach(workdir)
        self.db_path = os.path.join(workdir, f"session-{os.getpid()}.tsv")

    def op_kinds(self):
        return [kind for kind, _ in self.queries]

    def _zipf_cum(self, size):
        total, cum = 0.0, []
        for rank in range(size):
            total += 1.0 / (rank + 1) ** self.ZIPF_S
            cum.append(total)
        return cum

    @staticmethod
    def _pool(rng, kind, p):
        keys = set()
        target = p["pools"][kind]
        if kind == "xi":
            tuples = set()
            while len(tuples) < target:
                n = rng.randint(3, p["small_n"])
                t = 2 if rng.random() < 0.7 else 3
                choices = [c for c in partition_list(n) if c != (n,)]
                tuples.add(tuple(sorted(rng.choice(choices) for _ in range(t))))
            keys = {(classes, m) for classes in tuples for m in range(1, sum(classes[0]) + 1)}
        while len(keys) < target:
            if kind == "maps":
                e = rng.randint(1, p["map_edges"])
                keys.add((e, rng.randint(0, e // 2)))
                continue
            lo, hi = {"mu": (1, p["mu_n"]), "lookup": (1, p["db_n"]),
                      "xi_full": (2, p["full_n"])}[kind]
            n = rng.randint(lo, hi)
            keys.add((rng.choice(partition_list(n)), rng.randint(1, n)))
        return _spread_ranks(sorted(keys), _COST_PROXY[kind])

    def setup(self, pf):
        super().setup(pf)
        db = pf.build_database(self.params["db_n"])
        db.save(self.db_path)
        self.db = pf.load_database(self.db_path)

    def teardown(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.db_path)

    def run(self, begin, latencies_us):
        pf = self.pf
        P, db = pf.Partition, self.db
        answers = []
        append, lat = answers.append, latencies_us.append
        for i, (kind, key) in enumerate(self.queries):
            begin(i + 1)
            t0 = perf_counter_ns()
            try:
                if kind == "mu":
                    value = pf.mu(P(key[0]), key[1])
                elif kind == "lookup":
                    value = db.lookup(sum(key[0]), key[1], P(key[0]))
                elif kind == "maps":
                    value = pf.one_face_map_count(key[0], key[1])
                elif kind == "xi_full":
                    value = pf.xi((P(key[0]), P((sum(key[0]),))), key[1])
                else:
                    value = pf.xi(tuple(P(c) for c in key[0]), key[1])
            except Exception as exc:  # a raising query is a failed operation
                value = exc
            lat((perf_counter_ns() - t0) / 1000)
            append(value)
        return answers

    def check(self, outputs, full=True):
        blob = "\n".join(
            f"E:{type(a).__name__}" if isinstance(a, Exception) else str(a) for a in outputs
        )
        failed = self._check_answers(outputs) if full else 0
        return failed, digest(blob.encode())

    def _check_answers(self, outputs):
        """Identity checks on every distinct query; returns the failed count."""
        pf = self.pf
        P, fact = pf.Partition, math.factorial
        answers = {}
        for query, value in zip(self.queries, outputs):
            answers.setdefault(query, set()).add(
                repr(value) if isinstance(value, Exception) else value
            )
        verdict = {}
        xi_classes = set()
        for (kind, key), values in answers.items():
            value = next(iter(values))
            if len(values) != 1 or not isinstance(value, int):
                verdict[kind, key] = f"answers {sorted(map(str, values))}"
                continue
            if kind == "maps":
                problem = self._harer_zagier(*key, value) or self._pairings(*key, value)
            elif kind == "xi":
                classes, m = key
                xi_classes.add(classes)
                problem = None
                if value and not parity_allows(sum(classes[0]), classes, m):
                    problem = "nonzero where parity forces zero"
            else:
                gamma, m = key
                n = sum(gamma)
                if kind == "lookup" or (kind == "mu" and n <= self.params["db_n"]):
                    ok = value == self.db.lookup(n, m, P(gamma)) == pf.mu(P(gamma), m)
                elif kind == "mu":
                    ok = pf.xi((P(gamma), P((n,))), m) == value * fact(n - 1)
                else:
                    ok = value == pf.mu(P(gamma), m) * fact(n - 1)
                problem = None if ok else "disagrees with the other route"
                if value and not parity_allows(n, (gamma, (n,)), m):
                    problem = "nonzero where parity forces zero"
            if problem:
                verdict[kind, key] = problem
        for classes in xi_classes:
            n = sum(classes[0])
            total = sum(pf.xi(tuple(P(c) for c in classes), m) for m in range(1, n + 1))
            if total != math.prod(class_size(c) for c in classes):
                for m in range(1, n + 1):
                    verdict.setdefault(("xi", (classes, m)), "sum over m is wrong")
        for (kind, key), problem in sorted(verdict.items(), key=str)[:5]:
            self.fail(f"{kind} {key}: {problem}")
        return sum(1 for query in self.queries if query in verdict)

    def _harer_zagier(self, e, g, value):
        """(e+1) eps_g(e) = 2(2e-1) eps_g(e-1) + (e-1)(2e-1)(2e-3) eps_{g-1}(e-2)."""
        count = self.pf.one_face_map_count

        def eps(k, h):
            if k < 0 or h < 0 or 2 * h > k:
                return 0
            return count(k, h)

        rhs = 2 * (2 * e - 1) * eps(e - 1, g) + (e - 1) * (2 * e - 1) * (2 * e - 3) * eps(
            e - 2, g - 1
        )
        if (e + 1) * value != rhs:
            return f"Harer-Zagier recursion fails: {(e + 1) * value} != {rhs}"
        return None

    def _pairings(self, e, g, value):
        """eps_g(e) = mu([2^e], e + 1 - 2g): fixes the scale the recursion leaves free."""
        other = self.pf.mu(self.pf.Partition((2,) * e), e + 1 - 2 * g)
        if value != other:
            return f"differs from mu([2^{e}], {e + 1 - 2 * g}) = {other}"
        return None


WORKLOADS = {"xi-cli": XiCli, "db-cli": DbCli, "verify-cli": VerifyCli, "session": Session}
