"""Compare benchmark results of two commits, one row per (workload, metric).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py --summary RESULTS.jsonl

Each input is a results file that perfbench/run.py appends to
(.perfbench/results.jsonl); copy it away after running the benchmark on
each commit.  End-to-end metrics come from untraced runs, per-layer metrics
from traced runs.

Runs are matched by seed, because a seed picks the inputs of xi-cli and
session and so moves their figures by itself.  Only seeds present in both
files are compared; a warning on stderr names the others.  For each common
seed the median of its new runs is divided by the median of its base runs,
and the verdict for an end-to-end metric reads these per-seed ratios
against the metric's bound in BENCHMARK.json:

- unresolved: fewer than two common seeds, or the ratios' quartile
  distance over their median exceeds the bound (host noise on either
  side), unless every seed got better;
- REGRESSION: the median ratio is worse than 1 by more than the bound;
- better: the median ratio is better than 1 by more than the ratios'
  quartile distance, and at least nine tenths of the seeds got better;
- same: anything else.

Per-layer metrics have no bound and are only reported.  This is a report,
not a gate: the exit code is 0 whatever the verdicts.

`--summary` prints, per workload and metric, the median and quartiles of
one file's runs, and splits their spread into `noise_spread` (the spread
of the runs after dividing each by its seed's median: repeated runs of the
same inputs, so host noise only) and `seed_spread` (the spread of the
per-seed medians: mostly what the inputs of each seed cost).
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_runs(runs):
    """{(workload, metric): {seed: [values]}}, end-to-end from trace 0, per-layer from trace 1."""
    out = {}
    for run in runs:
        if run.get("size", "standard") != "standard":
            continue
        metrics = run["per_layer"] if run["trace"] else run["end_to_end"]
        for name, value in metrics.items():
            out.setdefault((run["workload"], name), {}).setdefault(run["seed"], []).append(value)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def seed_ratios(base, new):
    """New over base, per common seed, each side the median of that seed's runs."""
    return [
        statistics.median(new[seed]) / statistics.median(base[seed])
        for seed in sorted(set(base) & set(new))
        if statistics.median(base[seed])
    ]


def verdict(ratios, bound, better):
    """Verdict for one end-to-end metric from its per-seed new/base ratios."""
    sign = 1 if better == "lower" else -1
    gains = [sign * (1 - r) for r in ratios]  # > 0: this seed got better
    if len(ratios) < 2:
        return "unresolved"
    q1, med, q3 = quartiles(ratios)
    if spread(ratios) > bound and min(gains) <= 0:
        return "unresolved"
    if sign * (med - 1) > bound:
        return "REGRESSION"
    if sign * (1 - med) > q3 - q1 and sum(g > 0 for g in gains) >= 0.9 * len(gains):
        return "better"
    return "same"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}..{q3:.4g}] n={len(values)}"


def seed_warnings(base_runs, new_runs):
    """One line per workload whose two files do not cover the same seeds."""
    lines = []
    seeds = {}
    for side, runs in (("base", base_runs), ("new", new_runs)):
        for (workload, _), by_seed in runs.items():
            seeds.setdefault(workload, {"base": set(), "new": set()})[side] |= set(by_seed)
    for workload, sides in sorted(seeds.items()):
        only_base, only_new = sides["base"] - sides["new"], sides["new"] - sides["base"]
        if only_base or only_new:
            lines.append(f"{workload}: seeds only in base {sorted(only_base)}, only in new "
                         f"{sorted(only_new)}; compared on the "
                         f"{len(sides['base'] & sides['new'])} common seeds")
    return lines


def compare(base_runs, new_runs, spec):
    """Rows of (workload, metric, base text, new text, change, ratio spread, verdict)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base_runs, new_runs = metric_runs(base_runs), metric_runs(new_runs)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            key = (workload, m["name"])
            common = set(base_runs.get(key, {})) & set(new_runs.get(key, {}))
            if not common:
                continue
            base = [v for seed in sorted(common) for v in base_runs[key][seed]]
            new = [v for seed in sorted(common) for v in new_runs[key][seed]]
            ratios = seed_ratios(base_runs[key], new_runs[key])
            change = f"{quartiles(ratios)[1] - 1:+.1%}" if ratios else "n/a"
            ratio_spread = f"{spread(ratios):.1%}" if ratios else "n/a"
            if m["name"] in bounds:
                text = verdict(ratios, m["bound"], m["better"])
            else:
                text = "info"
            rows.append((workload, m["name"], fmt(base), fmt(new), change, ratio_spread, text))
    return rows


def summary(runs, spec):
    """Median, quartiles and the noise/seed split of every metric per workload."""
    by_key = metric_runs(runs)
    out = {}
    for w in spec["workloads"]:
        entry = {"why": w["why"], "end_to_end": {}, "per_layer": {}}
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                by_seed = by_key.get((w["name"], m["name"]))
                if not by_seed:
                    continue
                values = [v for vs in by_seed.values() for v in vs]
                q1, med, q3 = quartiles(values)
                item = {"median": med, "q1": q1, "q3": q3, "spread": spread(values),
                        "runs": len(values), "seeds": len(by_seed), "unit": m["unit"]}
                if kind == "end_to_end":
                    medians = {s: statistics.median(vs) for s, vs in by_seed.items()}
                    if len(values) > len(by_seed) and all(medians.values()):
                        item["noise_spread"] = spread(
                            [v / medians[s] for s, vs in by_seed.items() for v in vs])
                    item["seed_spread"] = spread(list(medians.values()))
                entry[kind][m["name"]] = item
        out[w["name"]] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="BASE NEW, or one file with --summary")
    parser.add_argument("--summary", action="store_true",
                        help="print medians and quartiles of one results file as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.summary:
        if len(args.files) != 1:
            parser.error("--summary takes one results file")
        json.dump(summary(load_runs(args.files[0]), spec), sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    if len(args.files) != 2:
        parser.error("give two results files: BASE NEW")
    base_runs, new_runs = load_runs(args.files[0]), load_runs(args.files[1])
    for line in seed_warnings(metric_runs(base_runs), metric_runs(new_runs)):
        sys.stderr.write(f"warning: {line}\n")
    rows = compare(base_runs, new_runs, spec)
    header = ("workload", "metric", "base median [q1..q3]", "new median [q1..q3]",
              "change", "ratio spread", "verdict")
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        sys.stdout.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
