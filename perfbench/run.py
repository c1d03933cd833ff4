"""permfact benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload xi-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The driver starts one fresh interpreter
(child.py) per iteration, one after another, until --seconds have been
spent; each child sets up, runs one iteration of the workload and checks
every answer.  With --trace 0 the children are untraced and the last line
of stdout carries the end-to-end metrics.  With --trace 1 untraced and
traced children alternate, and the last line carries the per-layer metrics
of the traced ones plus the tracing overhead.  Each run is also appended to
.perfbench/results.jsonl for perfbench/compare.py.
"""

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

sys.path.insert(0, HERE)
from workloads import SIZES, WORKLOADS, Session  # noqa: E402

MIN_UNTRACED = 3  # set-up and run time are medians over at least this many
CHILD_TIMEOUT_S = 150



def declared_metrics(trace):
    """Metric name to unit, in BENCHMARK.json order, for one kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class ChildFailed(RuntimeError):
    pass


def write_inputs(args):
    """Generate the workload's inputs once and pickle them for the children."""
    path = os.path.join(STATE, "work", f"{args.workload}-seed{args.seed}-{args.size}.inputs")
    with open(path, "wb") as fh:
        pickle.dump(WORKLOADS[args.workload](args.seed, args.size), fh)
    return path


def spawn(args, traced, full_check):
    """Run one child to completion and return its parsed result."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--inputs", args.inputs,
        "--trace", str(int(traced)), "--full-check", str(int(full_check)),
        # Relative to the child's working directory, the checkout root: the
        # path appears in `db build` output, whose digest must not depend on
        # where the checkout lives.
        "--workdir", os.path.join(".perfbench", "work"),
        "--spans", os.path.join(STATE, "spans", f"{args.workload}-seed{args.seed}.spans"),
    ]
    start = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(start)], cwd=ROOT,
                            stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"iteration exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"iteration exited with code {proc.returncode}")
    result = json.loads(out.decode().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def run_children(args):
    """Spawn children until the time is spent; traced ones alternate if asked."""

    def next_is_traced():
        traced = sum(c["traced"] for c in children)
        return bool(args.trace) and len(children) - traced > traced

    children = []
    start = time.monotonic()
    while True:
        children.append(spawn(args, next_is_traced(), full_check=not children))
        traced = sum(c["traced"] for c in children)
        untraced = len(children) - traced
        enough = min(traced, untraced) >= 1 if args.trace else untraced >= MIN_UNTRACED
        # Stop when the next child, as long as the last one of its kind, would overrun.
        kind = next_is_traced()
        walls = [c["wall_s"] for c in children if c["traced"] == kind]
        if enough and time.monotonic() - start + walls[-1] > args.seconds:
            return children


def percentile(values, q):
    """q-th percentile (0 < q < 100) by linear interpolation, as quantiles() does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_metrics(child):
    """End-to-end metrics of one child."""
    latencies = child["latencies_us"]
    return {
        "setup_s": child["setup_s"],
        "run_s": child["run_s"],
        "queries_per_s": child["ops"] / child["run_s"],
        "query_p50_us": statistics.median(latencies),
        "query_p99_us": percentile(latencies, 99),
        "peak_rss_mb": child["rss_kb"] / 1024,
    }


def end_to_end(untraced):
    """End-to-end metrics of one run: each the median over its untraced children."""
    per_child = [child_metrics(c) for c in untraced]
    return {name: statistics.median(m[name] for m in per_child) for name in per_child[0]}


def per_layer(children):
    traced = [c for c in children if c["traced"]]
    untraced = [c for c in children if not c["traced"]]
    names = traced[0]["layers"]
    metrics = {k: statistics.median(c["layers"][k] for c in traced) for k in names}
    metrics["trace.overhead_frac"] = (
        statistics.median(c["run_s"] for c in traced)
        / statistics.median(c["run_s"] for c in untraced) - 1
    )
    # Each session query kind's share of run time, from the untraced children.
    for kind, _ in Session.MIX:
        metrics[f"query.{kind}.time_share"] = statistics.median(
            c["kind_us"].get(kind, 0.0) / sum(c["latencies_us"]) for c in untraced
        )
    return metrics


def load_expected():
    with open(EXPECTED, encoding="ascii") as fh:
        return json.load(fh)


def expected_digest(args, fixed_input):
    table = load_expected().get(args.workload, {}).get(args.size, {})
    return table.get("*" if fixed_input else str(args.seed))


def score(args, children):
    """Attempted and failed operations, with digest agreement folded in."""
    fixed = WORKLOADS[args.workload].fixed_input
    want = expected_digest(args, fixed) or children[0]["digest"]
    attempted = failed = 0
    problems = []
    for c in children:
        attempted += c["ops"]
        if c["digest"] != want:
            failed += c["ops"]  # no answer of this iteration can be trusted
            problems.append(f"output digest {c['digest']} != expected {want}")
        else:
            failed += c["failed"]
        problems += c["problems"]
    return attempted, failed, problems


def record_digest(args, children):
    digests = {c["digest"] for c in children}
    if len(digests) != 1:
        raise SystemExit(f"children disagree on the output: {sorted(digests)}")
    table = load_expected()
    key = "*" if WORKLOADS[args.workload].fixed_input else str(args.seed)
    table.setdefault(args.workload, {}).setdefault(args.size, {})[key] = digests.pop()
    with open(EXPECTED, "w", encoding="ascii") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="standard",
                        help="input size; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digest in expected.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "permfact", "__init__.py")):
        sys.stderr.write(f"no permfact sources under {ROOT}/src; nothing to measure\n")
        return 2
    for sub in ("work", "spans"):
        os.makedirs(os.path.join(STATE, sub), exist_ok=True)
    args.inputs = write_inputs(args)
    try:
        children = run_children(args)
    except ChildFailed as exc:
        sys.stderr.write(f"{args.workload}: {exc}\n")
        return 1
    finally:
        os.remove(args.inputs)
    if args.record:
        record_digest(args, children)

    attempted, failed, problems = score(args, children)
    for text in problems[:10]:
        sys.stderr.write(f"FAILED: {text}\n")
    untraced = [c for c in children if not c["traced"]]
    e2e = end_to_end(untraced)
    samples = len(untraced[0]["latencies_us"])
    measured = per_layer(children) if args.trace else e2e
    units = declared_metrics(args.trace)
    missing = sorted(set(units) - set(measured))
    if missing:
        sys.stderr.write(f"metrics not measured: {', '.join(missing)}\n")
        return 1
    sys.stderr.write(
        f"{args.workload} seed={args.seed}: {len(untraced)} untraced and "
        f"{len(children) - len(untraced)} traced iterations, {samples} latency samples "
        f"per iteration; ops_failed_frac={failed / attempted:.6g} ({failed}/{attempted})\n"
    )
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "end_to_end": e2e,
        "per_layer": measured if args.trace else None, "latency_samples": samples,
        "iterations": len(children), "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted, "time": time.time(),
        "children": [dict(child_metrics(c), **{k: c[k] for k in (
                         "traced", "wall_s", "setup_wall_s", "run_wall_s", "speed")})
                     for c in children],
    }
    with open(os.path.join(STATE, "results.jsonl"), "a", encoding="ascii") as fh:
        fh.write(json.dumps(record) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": measured[k], "unit": unit} for k, unit in units.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
