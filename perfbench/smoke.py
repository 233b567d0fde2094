"""Smoke test of the benchmark itself, at a tiny size (a few minutes).

    python3 perfbench/smoke.py

Checks, per workload:

* a timed run and a traced run both exit 0 and pass the gate;
* each prints every metric that ``BENCHMARK.json`` lists, with its unit,
  and every named end-to-end metric of its workload on the lines above;
* a second traced run at the same seed repeats every work counter exactly;
* another seed changes the inputs but not the set of counters.

It also feeds the gate deliberately wrong outputs, and runs the benchmark
in a copy that holds only ``BENCHMARK.json`` and the benchmark's files,
where it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402

SECONDS = 2
COMMON = ("setup_s", "wall_s", "fail_ratio", "peak_rss_mb", "ops_per_s", "op_rel_p50", "ref_p50_ms", "op_p25_ms",
          "op_p50_ms", "op_p90_ms")
NAMED = {
    "key-rate": COMMON + ("frontier_point_s",),
    "attack-scan": COMMON + ("frontier_point_s",),
    "cross-check": COMMON + ("pairs_per_s_w1", "pairs_per_s_w2", "oracle_full_s"),
}
# per-layer values that are times, not work counts
TIMED = {"protocol.sift.worker_busy_ratio", "trace.overhead"}


def run(workload, seed, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result(proc, what):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, what
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, (what, res)
    return res, lines[:-1]


def check_metrics(res, specs, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    assert got == want, f"{what}: metrics {sorted(set(got) ^ set(want))} or units differ"
    for name, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)), (what, name)


def counters(res):
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "s" and k not in TIMED}


def check_gate_rejects():
    case = next(c for c in wl.load_ref("analyze.json")["cases"] if c[3] == 0 and c[4][9] > 1e-3)
    out = dict(zip(wl.ANALYZE_FIELDS, case[4]))
    assert wl.check_analyze(0, json.dumps(out), "", case) is None
    for key, value in (("rate_lb", out["rate_lb"] + 2e-9), ("nppt", not out["nppt"]),
                       ("best_x0", out["best_x0"] * 1.01)):
        assert wl.check_analyze(0, json.dumps(dict(out, **{key: value})), "", case), key
    assert wl.check_analyze(2, "", "unphysical parameters\n", case)
    cs = [1.5, 2.0]
    good = wl.FRONTIER_HEADER + "\n" + "".join(f"{c},{c + 0.5},{(1 + c * c) ** 0.5},{c + 1}\n" for c in cs)
    assert wl.check_frontier(0, good, cs, [2.0, 2.5]) is None
    assert wl.check_frontier(0, good, cs, [2.0, 2.5 + 2e-6])
    assert wl.check_any_x0((1.5, 1.0, 1.0), "individual", False)  # NPPT state
    assert wl.check_any_x0((3.0, 0.5, 0.5), "coherent-ad", True)  # PPT state
    assert wl.check_simulate([(0, "{}"), (0, "{ }")], [1.5, 1.0, 1.0, 1.0, 1])
    assert wl.check_oracle(3, "FAIL (1 checks)\n")


def check_bare_copy():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".smoke-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("key-rate", 1, 0, root=bare)
    assert proc.returncode != 0, "benchmark ran without the program's sources"
    assert '"metrics"' not in proc.stdout, "printed a result without the program's sources"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_gate_rejects()
    check_bare_copy()
    for workload in wl.WORKLOADS:
        res, lines = result(run(workload, 1, 0), f"{workload} timed")
        check_metrics(res, bench["end_to_end"], workload)
        printed = {line.split()[0] for line in lines if line.strip()}
        missing = set(NAMED[workload]) - printed
        assert not missing, f"{workload}: named metrics not printed: {missing}"

        first, _ = result(run(workload, 1, 1), f"{workload} traced")
        check_metrics(first, bench["per_layer"], workload)
        again, _ = result(run(workload, 1, 1), f"{workload} traced again")
        assert counters(first) == counters(again), f"{workload}: counters differ at one seed"
        other, _ = result(run(workload, 2, 1), f"{workload} traced, seed 2")
        assert counters(first).keys() == counters(other).keys()
        assert wl.Inputs(workload, 1).digest != wl.Inputs(workload, 2).digest, workload
        print(f"ok {workload}: {res['attempted']} checks timed, {len(counters(first))} counters repeat")
    print("smoke test passed")


if __name__ == "__main__":
    main()
