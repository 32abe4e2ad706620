"""Fresh-process probe: set-up time, peak memory and the counts of one pass.

    python3 perfbench/probe.py --workload NAME --seed N [--pass] [--traced]

Prints one JSON line with `setup_s`: raw seconds to import strictfeas and
build the workload's inputs, timed inside this process (run.py scales it).
With --pass it then runs one pass over the first input and adds its outcome
and `peak_rss_mb`; with --traced that pass is traced and its exact counts
are added.  Nothing imports numpy or strictfeas before the clock starts.
"""

import argparse
import json
import resource
import time

import env

if __name__ == "__main__":
    t0 = time.perf_counter()
    env.pin()
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="one_pass", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    inputs = workloads.build_inputs(args.workload, args.seed)
    out = {"setup_s": time.perf_counter() - t0}

    if args.one_pass:
        if args.traced:
            import spans

            tracer = spans.Tracer()
            with spans.instrument(tracer), tracer.span("bench.pass"):
                outcome = workloads.run_pass(args.workload, inputs[0])
            summary = spans.summarize(tracer.spans)
            out["counts"] = {k: v for k, v in summary.items() if spans.is_count(k)}
        else:
            outcome = workloads.run_pass(args.workload, inputs[0])
        out["outcome"] = outcome.label
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
