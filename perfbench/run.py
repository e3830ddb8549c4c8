"""qdiscord benchmark: one workload, one seed, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload light-n3 --seed 1 --seconds 20 --trace 0

Workloads: light-n3, deep-n4, ledger-n4, cli-e2e (see workloads.py). The run
repeats the workload's fixed operation list until --seconds have passed,
always finishing the first pass. A reference probe (probe.py) runs on a
timer interleaved with the operations, and each operation's time, less the
probe's, is divided by the mean probe time around it, which gives its cost
in ref units.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones. With --trace 1 each operation runs once untraced and once traced, and
the metrics are the per-layer ones of the first traced pass, plus the
tracing overhead. The line before it is a JSON record of the machine, the
versions, the probe (ref_ms) and the raw milliseconds behind each ref figure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _now

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed once here and again in fresh interpreters; the median is reported.
SETUP_SAMPLES = 5
# The 90th percentile is only meaningful with at least 10 samples beyond it.
P90_MIN_OPS = 100


@dataclass(frozen=True)
class Sample:
    op: int
    pass_no: int
    seconds: float
    ref: float
    traced: bool
    ok: bool
    measures: dict

    @property
    def cost(self) -> float:
        return self.seconds / self.ref


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qdiscord benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _child_setup(args) -> float:
    """Time one full set-up in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _execute(op, tracer):
    """Run one operation (timed) and its check (untimed); failures are counted.

    Returns (start, end, ok, measures).
    """
    if tracer is not None:
        tracer.install()
    try:
        with tracer.span(op.label) if tracer is not None else contextlib.nullcontext():
            t0 = _now()
            try:
                result = op.run()
            except Exception as exc:  # a failing operation is a failed sample, not a crash
                return t0, _now(), False, {"error": repr(exc)}
            t1 = _now()
        try:
            ok, measures = op.check(result)
        except Exception as exc:  # an unparsable answer fails its check
            return t0, t1, False, {"error": repr(exc)}
        return t0, t1, ok, measures
    finally:
        if tracer is not None:
            tracer.restore()


def measure(ops, seconds, tracer, ticker):
    """Closed loop over the operation list until the deadline.

    Returns (samples, first traced pass or None). The first pass always
    completes; later operations start only if their previous duration still
    fits before the deadline. Costs use the probe ticks around each operation.
    """
    timed = []
    modes = (False, True) if tracer is not None else (False,)
    first_pass = None
    last = {}
    deadline = _now() + seconds
    for pass_no in itertools.count():
        for i, op in enumerate(ops):
            if pass_no and _now() + last[i] > deadline:
                samples = [Sample(k, p, *ticker.split(t0, t1), tr, ok, m) for k, p, tr, t0, t1, ok, m in timed]
                return samples, first_pass
            started = _now()
            for traced in modes:
                t0, t1, ok, measures = _execute(op, tracer if traced else None)
                timed.append((i, pass_no, traced, t0, t1, ok, measures))
            last[i] = _now() - started
        if pass_no == 0 and tracer is not None:
            first_pass = tracer.take() + ([t[6] for t in timed if t[2]],)


def _per_op_median(samples, attr):
    by_op = {}
    for s in samples:
        by_op.setdefault(s.op, []).append(getattr(s, attr))
    return {i: statistics.median(v) for i, v in by_op.items()}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(samples, setups):
    costs = [s.cost for s in samples]
    # Operations differ in cost and a run repeats the first ones of a cut pass,
    # so each operation counts once, by its median.
    op_costs = _per_op_median(samples, "cost").values()
    failed = sum(not s.ok for s in samples)
    metrics = {
        "work_ref": _metric(sum(op_costs), "ref"),
        "op_cost_p50": _metric(statistics.median(op_costs), "ref"),
        "ok_share": _metric(1.0 - failed / len(samples), "share"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    raw = {
        "work_ms": 1e3 * sum(_per_op_median(samples, "seconds").values()),
        "op_ms_p50": 1e3 * statistics.median(_per_op_median(samples, "seconds").values()),
        "fail_share": failed / len(samples),
        "op_cost_p90": statistics.quantiles(costs, n=10)[-1] if len(costs) >= P90_MIN_OPS else None,
    }
    return metrics, raw


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def per_layer(first_pass, setup_totals, samples):
    """Per-layer metrics of the first traced pass; see README.md for the map."""
    totals, spans, solves, traced = first_pass

    def tot(name, k):
        return totals.get(name, (0, 0.0, 0.0))[k]

    def ratio(a, b):
        return a / b if b else 0.0

    by_id = {s[0]: s for s in spans}

    def under(span, names):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = by_id.get(parent[1])
        return False

    solve_spans = [s for s in spans if s[2] == "discord.solve"]
    trials = sum(1 for s in spans if s[2] == "monogamy.report")
    trial_solves = sum(1 for s in solve_spans if under(s, ("monogamy.report", "monogamy.bounded_sum")))
    sweep_wall = sweep_busy = overhead = 0.0
    for cmd in (s for s in spans if s[2].startswith("cli.")):
        inside = [(a, b) for _, _, _, a, b in solve_spans if a >= cmd[3] and b <= cmd[4]]
        overhead += (cmd[4] - cmd[3]) - _union_length(inside)
        if cmd[2] == "cli.sweep":
            sweep_wall += cmd[4] - cmd[3]
            sweep_busy += sum(b - a for a, b in inside)

    gaps = [m[k] for m in traced for k in ("gap", "spectrum_err") if k in m]
    residuals = [m["residual"] for m in traced if "residual" in m]
    pairs = {}
    for s in samples:
        pairs.setdefault((s.pass_no, s.op), {})[s.traced] = s.cost
    both = [p for p in pairs.values() if len(p) == 2]
    overhead_share = sum(p[True] for p in both) / sum(p[False] for p in both) - 1.0

    obj_calls = tot("discord.objective", 0)
    values = {
        "discord.objective.calls": (obj_calls, "count"),
        "discord.objective.us_per_eval": (1e6 * ratio(tot("discord.objective", 1), obj_calls), "us"),
        "discord.objective.share": (ratio(tot("discord.objective", 1), tot("discord.solve", 1)), "share"),
        "discord.simplex.self_s": (tot("discord.simplex", 2), "s"),
        "discord.evals_per_solve": (ratio(obj_calls, len(solves)), "count"),
        "discord.basin_share": (ratio(sum(h / n for n, h, _ in solves), len(solves)), "share"),
        "discord.best_converged_share": (ratio(sum(ok for _, _, ok in solves), len(solves)), "share"),
        "entropy.hq.calls": (tot("entropy.hq", 0), "count"),
        "entropy.hq.self_s": (tot("entropy.hq", 2), "s"),
        "entropy.tsallis_entropy.self_s": (tot("entropy.tsallis_entropy", 2), "s"),
        "linalg.density_matrix.self_s": (tot("linalg.density_matrix", 2), "s"),
        "linalg.partial_trace.self_s": (tot("linalg.partial_trace", 2), "s"),
        "linalg.eigvalsh.self_s": (tot("linalg.eigvalsh", 2), "s"),
        "measurement.apply_full.calls": (tot("measurement.apply_full", 0), "count"),
        "measurement.apply_full.self_s": (tot("measurement.apply_full", 2), "s"),
        "analytic.self_s": (tot("analytic", 2), "s"),
        "analytic.gap_max": (max(gaps, default=0.0), "abs"),
        "monogamy.decompose.self_s": (tot("monogamy.decompose", 2), "s"),
        "monogamy.residual_max": (max(residuals, default=0.0), "abs"),
        "monogamy.solves_per_trial": (ratio(trial_solves, trials), "count"),
        "cli.sweep.solve_overlap": (ratio(sweep_busy, sweep_wall), "ratio"),
        "cli.overhead_s": (overhead, "s"),
        "states.self_s": (setup_totals.get("states", (0, 0.0, 0.0))[2], "s"),
        "trace.overhead_share": (overhead_share, "share"),
    }
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdiscord" / "__init__.py").is_file():
        print(f"error: no qdiscord sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Every matrix is at most 16 x 16 and the sweep's pool already uses the cores.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QDISCORD_THREADS", None)
    sys.path.insert(0, str(SRC))

    t0 = _now()
    import probe
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops, warm_up = workload.build(args.seed)
    warm_up()
    probe.probe_once()
    setup = _now() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    setups = [setup]
    tracer = setup_totals = None
    if not args.trace:
        setups += [_child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.build(args.seed)
        finally:
            tracer.restore()
        setup_totals = tracer.take()[0]

    with probe.Ticker() as ticker:
        samples, first_pass = measure(ops, args.seconds, tracer, ticker)
    probes = ticker.durations()
    failed = sum(not s.ok for s in samples)
    if args.trace:
        metrics = per_layer(first_pass, setup_totals, samples)
        raw = {"missing_bindings": tracer.missing}
    else:
        metrics, raw = end_to_end(samples, setups)
    errors = sorted({s.measures["error"] for s in samples if "error" in s.measures})
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine_record(),
        "ref_ms": 1e3 * statistics.median(probes),
        "probe_samples": len(probes),
        "op_list_length": len(ops),
        "passes": 1 + max(s.pass_no for s in samples),
        "setup_samples_s": setups,
        "raw": raw,
        "errors": errors[:5],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
