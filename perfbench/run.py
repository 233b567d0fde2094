"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload key-rate --seed 1 --seconds 30 --trace 0

The run drives gausskey in-process from the checkout's ``src/``, through
the public API and ``gausskey.cli.main(argv)`` with its output captured.
BLAS is pinned to one thread, so the process never runs more than two
compute threads: two simulator workers, or the main thread alone.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.  Each op
is followed by a fixed reference kernel from ``reference.py``, and the
gated latency ``op_rel_p50`` is the median of op time over the reference
time beside it, so that the drifting speed of a shared machine cancels.
Every output goes through the correctness gate in ``workloads.py``.  The lines
before the last one give every named metric with its unit and sample
count, plus provenance.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 1`` runs a fixed op list sized from ``--seconds`` four times:
untraced, twice with the tracer of ``tracing.py`` installed, and untraced
again.  It reports the per-layer metrics of the traced passes and the
tracing overhead.  It also checks that the traced outputs equal the
untraced ones.

The exit status is 0 when every gate check passed and 1 on any mismatch.
It is 2 when the checkout has no gausskey sources to benchmark.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

# set before numpy is imported, here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("key-rate", "attack-scan", "cross-check")
SETUP_REPEATS = 9

# the gated end-to-end metrics, reported on every workload
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_rel_p50": "ratio"}
OP_NAME = {"key-rate": "analyze call", "attack-scan": "any_x0_secure call", "cross-check": "simulate pair"}
CMD_NAME = {"key-rate": "frontier_point_s", "attack-scan": "frontier_point_s", "cross-check": "oracle_full_s"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_program():
    """Import gausskey from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "gausskey", "__init__.py")):
        print(f"perfbench: no gausskey sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import gausskey

    if not os.path.realpath(gausskey.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"perfbench: gausskey imported from {gausskey.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def measure_setup(args):
    """Seconds from spawning a fresh interpreter to its exit after importing
    gausskey and generating the run's inputs, over several probes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            print(f"perfbench: set-up probe failed: {proc.stderr.strip()}", file=sys.stderr)
            sys.exit(2)
    return times


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args):
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "?") + " " + deps[k].get("version", "?") for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        **blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _quantile(values, q):
    """The ``q``-quantile, ``q`` a multiple of 0.05, of one or more values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[round(q * 20) - 1]


def end_to_end(workload, rec, setup_times, wall_s, sim_pairs):
    """Gated metrics plus the named, ungated ones printed beside them."""
    ops = rec.op_s
    gated = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_rel_p50": statistics.median(rec.op_rel),
    }
    named = [
        ("setup_s", gated["setup_s"], "s", f"median of {len(setup_times)} set-ups"),
        ("wall_s", wall_s, "s", "measured part of the run"),
        ("fail_ratio", len(rec.failures) / rec.attempted, "ratio", f"{len(rec.failures)} of {rec.attempted} checks"),
        ("peak_rss_mb", gated["peak_rss_mb"], "MB", "whole process"),
        ("ops_per_s", len(ops) / sum(ops), "1/s", f"n={len(ops)} {OP_NAME[workload]}s"),
        ("op_rel_p50", gated["op_rel_p50"], "ratio", f"n={len(ops)}, op time over reference time"),
        ("ref_p50_ms", statistics.median(rec.ref_s) * 1e3, "ms", f"n={len(rec.ref_s)} reference kernels"),
        ("op_p25_ms", _quantile(ops, 0.25) * 1e3, "ms", f"n={len(ops)}"),
        ("op_p50_ms", statistics.median(ops) * 1e3, "ms", f"n={len(ops)}"),
        ("op_p90_ms", _quantile(ops, 0.9) * 1e3, "ms", f"n={len(ops)}"),
        (CMD_NAME[workload], statistics.median(rec.cmd_unit_s), "s", f"median of n={len(rec.cmd_unit_s)}"),
    ]
    if workload == "cross-check":
        for workers in (1, 2):
            times = rec.samples[f"sim_w{workers}_s"]
            named.append((f"pairs_per_s_w{workers}", sim_pairs / statistics.median(times), "1/s",
                          f"median of n={len(times)} simulate calls"))
    return gated, named


def _result(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def _report_failures(failures):
    for line in failures[:20]:
        print(f"GATE FAIL {line}")
    if len(failures) > 20:
        print(f"GATE FAIL ... and {len(failures) - 20} more")


def run_timed(args, wl, prov):
    setup_times = measure_setup(args)
    inp = wl.Inputs(args.workload, args.seed)
    rec = wl.Record(wl.REFERENCES[args.workload])
    t0 = perf_counter()
    wl.RUNNERS[args.workload](inp, wl.Budget(args.seconds, fixed=False), rec)
    wall_s = perf_counter() - t0
    gated, named = end_to_end(args.workload, rec, setup_times, wall_s, wl.SIM_PAIRS)
    print("provenance " + json.dumps(prov))
    for name, value, unit, note in named:
        print(f"{name:<18} {value:>14.6g} {unit:<5} ({note})")
    _report_failures(rec.failures)
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in gated.items()}
    correct = not rec.failures
    print(_result(correct, rec.attempted, len(rec.failures), metrics))
    return 0 if correct else 1


def run_traced(args, wl, prov):
    """Run the fixed op list four times, untraced, traced, traced, untraced,
    so that drifting machine speed cancels out of the overhead ratio."""
    from tracing import Tracer, metric_specs

    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    recs = []
    sites = None
    try:
        for traced in (False, True, True, False):
            if traced and sites is None:
                tracer.install()
                sites = tracer.patch_sites()
            elif not traced:
                tracer.uninstall()
            rec = wl.Record()
            budget = wl.Budget(args.seconds, fixed=True)
            t0 = perf_counter()
            wl.RUNNERS[args.workload](wl.Inputs(args.workload, args.seed), budget, rec)
            walls[traced] += perf_counter() - t0
            recs.append(rec)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values.update({"trace.overhead": walls[True] / walls[False], "trace.wall_s": walls[True],
                   "trace.untraced_wall_s": walls[False]})
    failures = [f for rec in recs for f in rec.failures]
    if any(rec.outputs != recs[0].outputs for rec in recs[1:]):
        failures.append("traced outputs differ from untraced outputs")
    print("provenance " + json.dumps(prov))
    print("patched " + json.dumps(sites))
    metrics = {}
    for name, unit, _ in metric_specs():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<48} {values[name]:>14.6g} {unit}")
    _report_failures(failures)
    correct = not failures
    print(_result(correct, sum(rec.attempted for rec in recs), len(failures), metrics))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads as wl

    if args.setup_only:
        wl.Inputs(args.workload, args.seed)
        return 0
    prov = provenance(args)
    return run_traced(args, wl, prov) if args.trace else run_timed(args, wl, prov)


if __name__ == "__main__":
    sys.exit(main())
