"""Benchmark of strictfeas: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads (workloads.py says why each exists): ``bell-reproduce``,
``interior-diagnose`` and ``planted-reduce``.

A *pass* takes one input through the workload's pipeline: ``strictfeas
reproduce all`` for bell-reproduce, one generated problem for the others.
A *cycle* is one pass over every input.  The run measures whole cycles,
after a warm-up, until ``--seconds`` have passed and, untraced, at least
MIN_PASSES passes are in, in one process with BLAS pinned to one thread.
Every answer is checked against a reference answer that strictfeas did not
compute; each pass counts as ok, wrong, or error with its exception type.

Times are scaled to a reference CPU speed: a fixed calibration kernel that
does not use strictfeas (env.py) is timed around every pass, and each time
is multiplied by CALIBRATION_REF_S over the kernel's time (set-up times by
the run's median kernel time).  On a shared host this cancels the slowdowns
neighbours impose for minutes at a time; the report prints raw seconds too.

``--trace 0`` reports the end-to-end metrics: the median scaled wall and CPU
seconds per ok pass (failed passes count in fail_share instead), the median
scaled set-up time of several fresh processes (``import strictfeas`` plus
building the inputs) and the peak memory of a fresh process after one pass.
``--trace 1`` alternates untraced and traced cycles and reports per-layer
metrics of the traced cycles, per cycle, the tracing overhead, a
fresh-process check of every count and, on bell-reproduce, three kernel
microbenchmarks on inputs captured in the trace.

Readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when an answer is wrong, or when a pass or a count
differs between repetitions; passes that raise are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter

import env

WORKLOADS = ("bell-reproduce", "interior-diagnose", "planted-reduce")
SETUP_PROBES = 5
WARMUP_PASSES = 1
# a median over fewer untraced passes moves with the host's noise
MIN_PASSES = 10
PROBE_TIMEOUT_S = 170
TAIL_MIN_PASSES = 20  # below this the percentile with 10 beyond is no tail
KERNEL_MIN_S = 0.3
KERNEL_MIN_REPS = 5

# The JSON line carries END_TO_END with --trace 0 and PER_LAYER with
# --trace 1.  Per-layer times that are zero on some workload (verify,
# derive, certify, bell, cli, ...) appear in the readable report only.
END_TO_END = {"pass_s": "s", "pass_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "solver.solve_s",
    "solver.s_per_iter",
    "solver.margin_s",
    "solver.iters",
    "solver.margin_iters",
    "solver.trouble",
    "facial.find_cert_s",
    "facial.find_cert_self_s",
    "facial.find_cert_calls",
    "facial.verify_calls",
    "facial.verify_passes",
    "facial.rounds",
    "facial.exact_verdicts",
    "exactnum.nullspace_s",
    "exactnum.nullspace_calls",
    "exactnum.psd_check_calls",
    "exactnum.frob_inner_calls",
    "exactnum.reconstruct_calls",
    "certify.psd_checks",
    "self.bench_s",
    "self.solver_s",
    "self.facial_s",
    "self.exactnum_s",
)


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def probe(workload: str, seed: int, *flags: str) -> dict:
    """Run probe.py in a fresh process and return its JSON line."""
    cmd = [sys.executable, str(env.ROOT / "perfbench" / "probe.py")]
    cmd += ["--workload", workload, "--seed", str(seed), *flags]
    done = subprocess.run(
        cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class Cycles:
    """Timed passes over the inputs, kept per cycle."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.raw: list[tuple[float, float]] = []  # (wall, cpu) seconds per pass
        self.scaled: list[tuple[float, float]] = []
        self.calibration: list[float] = []
        self.labels: list[tuple] = []  # outcome labels of each cycle
        self.summaries: list[dict] = []  # per-layer metrics of each traced cycle
        self.first_pass: dict | None = None  # counts of the first traced pass

    def run(self, tracer=None):
        import workloads

        labels = []
        before = env.calibrate()
        for case in self.inputs:
            w0, c0 = time.perf_counter(), time.process_time()
            if tracer is None:
                outcome = workloads.run_pass(self.workload, case)
            else:
                with tracer.span("bench.pass"):
                    outcome = workloads.run_pass(self.workload, case)
            cpu = time.process_time() - c0
            wall = time.perf_counter() - w0
            after = env.calibrate()
            # the machine's speed during the pass: mean of the kernel's time
            # just before and just after it
            cal_wall, cal_cpu = ((b + a) / 2 for b, a in zip(before, after))
            before = after
            self.raw.append((wall, cpu))
            self.scaled.append(
                (wall * env.CALIBRATION_REF_S / cal_wall, cpu * env.CALIBRATION_REF_S / cal_cpu)
            )
            self.calibration.append(cal_wall)
            labels.append(outcome.label)
        self.labels.append(tuple(labels))

    def run_traced(self):
        import spans

        tracer = spans.Tracer()
        with spans.instrument(tracer):
            self.run(tracer)
        self.summaries.append(spans.summarize(tracer.spans))
        if self.first_pass is None:
            end = next(
                (i for i, s in enumerate(tracer.spans) if i and s.name == "bench.pass"),
                len(tracer.spans),
            )
            first = spans.summarize(tracer.spans[:end])
            self.first_pass = {k: v for k, v in first.items() if spans.is_count(k)}
        return tracer

    @property
    def passes(self) -> int:
        return len(self.raw)

    @property
    def failed(self) -> int:
        return sum(label != "ok" for cycle in self.labels for label in cycle)

    @property
    def consistent(self) -> bool:
        return len(set(self.labels)) <= 1

    def report(self, prefix: str = "") -> dict:
        """Print the per-pass timings; return the scaled medians of ok passes.

        Failed passes are counted in fail_share and left out of the timings:
        a pass that raises early would otherwise read as a speed-up, and
        fixing it as a slowdown.  With no ok pass at all, every pass counts.
        """
        labels = [label for cycle in self.labels for label in cycle]
        ok = [i for i, label in enumerate(labels) if label == "ok"] or range(len(labels))
        n = len(ok)
        wall = sorted(self.scaled[i][0] for i in ok)
        out = {
            "pass_s": statistics.median(wall),
            "pass_cpu_s": statistics.median(self.scaled[i][1] for i in ok),
        }
        print(
            f"{prefix}pass_s = {fmt(out['pass_s'])} s scaled, "
            f"{fmt(statistics.median(self.raw[i][0] for i in ok))} s raw "
            f"(median of {n} ok passes; {fmt(statistics.median(w for w, _ in self.scaled))} s "
            f"scaled over all {self.passes})"
        )
        if n >= TAIL_MIN_PASSES:
            print(
                f"{prefix}pass_s.tail = {fmt(wall[n - 11])} s scaled "
                f"(p{100.0 * (n - 10) / n:.1f} of {n} ok passes, 10 beyond it)"
            )
        else:
            print(f"{prefix}pass_s.tail = n/a ({n} ok passes; needs {TAIL_MIN_PASSES})")
        print(
            f"{prefix}pass_cpu_s = {fmt(out['pass_cpu_s'])} s scaled, "
            f"{fmt(statistics.median(self.raw[i][1] for i in ok))} s raw (median of {n} ok passes)"
        )
        print(
            f"{prefix}calibration kernel = {fmt(statistics.median(self.calibration))} s "
            f"(median; reference {env.CALIBRATION_REF_S} s)"
        )
        return out


def kernel_time(fn) -> tuple[float, int]:
    times = []
    start = time.perf_counter()
    while len(times) < KERNEL_MIN_REPS or time.perf_counter() - start < KERNEL_MIN_S:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def kernels(captures) -> dict:
    """Raw-second microbenchmarks on inputs captured in the traced run."""
    from strictfeas import exactnum, facial, solver

    calls = {
        "solver.k.margin_line2": ("margin_line2", lambda a: solver.solve_sdp(*a)),
        "exactnum.k.psd_check_cert2": ("cert_line2", exactnum.psd_check_exact),
        "facial.k.chart_line2": ("raw_line2", facial.build_alternative_problem),
    }
    return {
        name: kernel_time(lambda: fn(captures[key]))
        for name, (key, fn) in calls.items()
        if key in captures
    }


def end_to_end(workload, seed, plain: Cycles) -> tuple[dict, bool]:
    """Scaled pass medians plus set-up and memory from fresh processes."""
    metrics = plain.report()
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(probe(workload, seed)["setup_s"])
        plain.calibration.append(env.calibrate()[0])
    # a fresh process's start-up tracks the kernel over minutes, not within
    # its own second, so set-up is scaled by the run's median calibration
    raw_setup = statistics.median(raw)
    metrics["setup_s"] = raw_setup * env.CALIBRATION_REF_S / statistics.median(plain.calibration)
    print(
        f"setup_s = {fmt(metrics['setup_s'])} s scaled, {fmt(raw_setup)} s raw "
        f"(median of {SETUP_PROBES} fresh processes)"
    )
    one = probe(workload, seed, "--pass")
    metrics["peak_rss_mb"] = one["peak_rss_mb"]
    print(f"peak_rss_mb = {fmt(metrics['peak_rss_mb'])} MB (fresh process, one pass)")
    same = one["outcome"] == plain.labels[0][0]
    if not same:
        print("NOT CONSISTENT: a fresh process classified the first input differently")
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}, same


def per_layer(workload, seed, plain: Cycles, traced: Cycles, captures) -> tuple[dict, bool]:
    import spans

    untraced = plain.report()
    traced_e2e = traced.report("traced ")
    print(
        f"trace overhead = {fmt(traced_e2e['pass_s'] - untraced['pass_s'])} s scaled "
        "per pass (traced minus untraced pass_s)"
    )
    layer, unstable = {}, []
    for key in traced.summaries[0]:
        values = [s[key] for s in traced.summaries]
        if spans.is_count(key):
            unstable += [key] if len(set(values)) > 1 else []
            layer[key] = values[0]
        else:
            layer[key] = statistics.median(values)
    fresh = probe(workload, seed, "--pass", "--traced")["counts"]
    mismatched = [k for k, v in traced.first_pass.items() if fresh.get(k) != v]
    same = not unstable and not mismatched
    if same:
        print("counts identical across traced cycles and in a fresh process")
    else:
        print(
            f"NOT CONSISTENT: counts differ between cycles {unstable} "
            f"or in a fresh process {mismatched}"
        )
    verdicts, exact = layer["facial.verdicts"], layer["facial.exact_verdicts"]
    print(f"exact_share = {exact}/{verdicts} = {fmt(exact / verdicts if verdicts else 0.0)}")
    verified, passed = layer["facial.verify_calls"], layer["facial.verify_passes"]
    ratio = fmt(passed / verified) if verified else "n/a"
    print(f"facial.verify_pass_ratio = {passed}/{verified} = {ratio}")
    print(f"per-layer metrics per cycle, raw (median of {len(traced.summaries)} traced cycles):")
    for key, value in layer.items():
        print(f"  {key} = {fmt(value)} {'count' if spans.is_count(key) else 's'}")
    accounted = sum(layer[f"self.{x}_s"] for x in spans.LAYERS)
    cycle_s = statistics.median(
        sum(w for w, _ in traced.raw[i : i + len(traced.inputs)])
        for i in range(0, traced.passes, len(traced.inputs))
    )
    print(f"layer self times sum to {fmt(accounted)} s of a {fmt(cycle_s)} s traced cycle")
    for name, (seconds, reps) in kernels(captures).items():
        print(f"{name} = {fmt(seconds)} s raw (median of {reps})")
    metrics = {
        k: {"value": layer[k], "unit": "count" if spans.is_count(k) else "s"} for k in PER_LAYER
    }
    return metrics, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (env.SRC / "strictfeas" / "__init__.py").is_file():
        print(f"error: no strictfeas package under {env.SRC}", file=sys.stderr)
        return 2
    env.pin()
    import workloads

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.describe().items()))
    inputs = workloads.build_inputs(args.workload, args.seed)
    for case in inputs[:WARMUP_PASSES]:
        workloads.run_pass(args.workload, case)

    # whole cycles, untraced and traced in turn with --trace 1, so every run
    # measures the same mix of inputs
    plain = Cycles(args.workload, inputs)
    traced = Cycles(args.workload, inputs)
    captures: dict = {}
    cycles = 0
    start = time.perf_counter()
    while True:
        if args.trace and cycles % 2:
            captures = captures or traced.run_traced().captures
        else:
            plain.run()
        cycles += 1
        enough = cycles >= 2 if args.trace else plain.passes >= MIN_PASSES
        if time.perf_counter() - start >= args.seconds and enough:
            break
    print(
        f"{len(inputs)} inputs per cycle; {len(plain.labels)} untraced"
        + (f" and {len(traced.labels)} traced" if args.trace else "")
        + f" cycles in {time.perf_counter() - start:.1f} s"
    )

    first = Counter(plain.labels[0])
    print("outcomes per cycle: " + ", ".join(f"{k}={v}" for k, v in sorted(first.items())))
    correct = not any(label.startswith("wrong") for label in first)
    if not (plain.consistent and traced.consistent) or (
        traced.labels and traced.labels[0] != plain.labels[0]
    ):
        print("NOT CONSISTENT: an input changed class between cycles")
        correct = False
    attempted = plain.passes + traced.passes
    failed = plain.failed + traced.failed
    print(f"fail_share = {failed}/{attempted} = {fmt(failed / attempted)}")

    if args.trace:
        metrics, same = per_layer(args.workload, args.seed, plain, traced, captures)
    else:
        metrics, same = end_to_end(args.workload, args.seed, plain)
    print(
        json.dumps(
            {
                "correct": correct and same,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
