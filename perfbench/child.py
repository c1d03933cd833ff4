"""One benchmark iteration in a fresh interpreter; started by run.py.

Set-up time runs from the moment run.py spawned this process until the
workload is ready: interpreter start, `import permfact`, and the
workload's own set-up (the database build and load of `session`).  Input
generation is the benchmark's work: run.py does it once and hands the
pickled workload over, and loading it is left out of set-up time.  Set-up
and run time are scaled to the reference host speed (see hostspeed.py);
the unscaled times are reported beside them.  The last line of stdout is
one JSON object with the measurements.
"""

import os
import sys
import time

if __name__ == "__main__":
    # Sample the host speed from the start, so that set-up is scaled too.
    import hostspeed

    hostspeed.start()
    _STARTED = time.monotonic(), time.perf_counter()
    # Import the library first, so that interpreter start plus `import
    # permfact` is all that set-up time has seen at this point.
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import permfact
    import permfact.cli  # noqa: F401  (every CLI workload needs it)

    _IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402

import counters  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402,F401  (the pickled workload's classes)

LAYERS = ("partition", "exactnum", "charkit", "countcore", "closedform", "symfun",
          "oracle", "dimred", "verify", "cli")


def layer_metrics(recorder):
    """Per-layer metrics of one traced iteration, named <module>.<thing>."""
    summary = tracer.summarize(recorder)
    calls, total_s = summary["calls"], summary["total_s"]
    out = {f"{layer}.self_s": summary["self_s"].get(layer, 0.0) for layer in LAYERS}
    for name in ("charkit.character", "charkit.frak_c", "countcore.w_number",
                 "countcore.w_number_full_cycle", "countcore.xi", "countcore.mu",
                 "dimred.reduce_mu"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["dimred.lookup.calls"] = calls.get("dimred.Database.lookup", 0)
    for layer in ("exactnum", "closedform", "partition"):
        out[f"{layer}.calls"] = sum(v for k, v in calls.items() if tracer.layer_of(k) == layer)
    xi_calls = out["countcore.xi.calls"]
    w_calls = out["countcore.w_number.calls"] + out["countcore.w_number_full_cycle.calls"]
    out["countcore.w_number_calls_per_xi"] = w_calls / xi_calls if xi_calls else 0.0
    out["dimred.save_s"] = total_s.get("dimred.Database.save", 0.0)
    out["dimred.load_s"] = total_s.get("dimred.load_database", 0.0)
    out["trace.spans"] = len(recorder)
    out.update(counters.read())
    return out


def scale_latencies(latencies_us, start, run_ratio):
    """Scale each operation's latency to the reference speed.

    An operation long enough to hold ten speed probes is scaled by its own;
    a shorter one by the run's ratio of scaled to measured time.  The
    operations run back to back, so each one's interval follows from the
    durations before it; the gaps between them are left out, which shifts
    later intervals by milliseconds at most.
    """
    out = []
    for us in latencies_us:
        end = start + us / 1e6
        if us >= 10 * hostspeed.INTERVAL_S * 1e6:
            out.append(hostspeed.scaled(start, end)[0] * 1e6)
        else:
            out.append(us * run_ratio)
        start = end
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True, help="the pickled workload from run.py")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the spans of a traced iteration")
    args = parser.parse_args(argv)

    with open(args.inputs, "rb") as fh:
        workload = pickle.load(fh)
    workload.attach(args.workdir)
    recorder = None

    def begin(request):
        pass

    if args.trace:
        recorder = tracer.SpanRecorder()
        uninstall = tracer.install(recorder)

        def begin(request):
            recorder.current_request = request

    try:
        t0 = time.perf_counter()
        workload.setup(permfact)
        t1 = time.perf_counter()
        latencies_us = []
        outputs = workload.run(begin, latencies_us)
        t2 = time.perf_counter()
        hostspeed.stop()
        unsampled_start = _STARTED[0] - args.spawned_at
        imported_s, _ = hostspeed.scaled(_STARTED[1], _IMPORTED, extra=unsampled_start)
        prepared_s, _ = hostspeed.scaled(t0, t1)
        run_s, speed = hostspeed.scaled(t1, t2)
        latencies_us = scale_latencies(latencies_us, t1, run_s / (t2 - t1))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            # Counters and spans describe set-up and the run, not the checks.
            uninstall()
            layers = layer_metrics(recorder)
        failed, out_digest = workload.check(outputs, full=bool(args.full_check))
    finally:
        workload.teardown()
    kind_us = {}
    for kind, us in zip(workload.op_kinds() or (), latencies_us):
        kind_us[kind] = kind_us.get(kind, 0.0) + us
    result = {
        "setup_s": imported_s + prepared_s,
        "run_s": run_s,
        "setup_wall_s": unsampled_start + (_IMPORTED - _STARTED[1]) + (t1 - t0),
        "run_wall_s": t2 - t1,
        "speed": speed,
        "latencies_us": latencies_us,
        "kind_us": kind_us,
        "ops": workload.ops,
        "failed": failed,
        "digest": out_digest,
        "problems": workload.problems,
        "rss_kb": rss_kb,
        "traced": bool(args.trace),
    }
    if recorder is not None:
        result["layers"] = layers
        if args.spans:
            recorder.write(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
