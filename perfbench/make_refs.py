"""Record the reference pools that the benchmark's correctness gate uses.

    python3 perfbench/make_refs.py

Inputs come from fixed generator seeds.  The script runs the checked-out
code on them and writes ``perfbench/refs/*.json``.  Run it only to
re-baseline on purpose, at a commit whose outputs are trusted.  It takes
several minutes with two worker processes.

* ``analyze.json``: ``analyze`` inputs and outputs on a sample of the
  family.  4% of the points are unphysical and 10% lie within 1e-3 of the
  NPPT boundary.
* ``frontier_general.json``: ``lambda_star`` at ``c`` points in [1, 3].
  Every point there costs about the same number of rate evaluations.
* ``frontier_scan.json``: 30-step ``individual`` and ``coherent-ad``
  frontiers over seeded ``c`` ranges.
* ``simulate.json``: ``simulate`` inputs.  These carry no output bytes,
  because the gate checks invariants instead.  Each one passed that check
  when it was recorded.
"""

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from gausskey import security  # noqa: E402

REF_SEED = 20040517
N_ANALYZE = 1600
N_GENERAL = 24
N_SCAN = 16
N_SIM = 64


def _analyze(case):
    lam, cx, cp = case
    code, out, _, _ = wl.run_cli(["analyze", "--lambda", repr(lam), "--cx", repr(cx), "--cp", repr(cp)])
    vals = None if code else [json.loads(out)[k] for k in wl.ANALYZE_FIELDS]
    return [lam, cx, cp, code, vals]


def _general(c):
    (_, lam), = security.security_frontier([c], "general")
    return [c, lam]


def _scan(c_range):
    c_min, c_max = c_range
    entry = {"c_min": c_min, "c_max": c_max}
    for attack in wl.SCAN_ATTACKS:
        code, out, err, _ = wl.run_cli(
            ["frontier", "--c-min", repr(c_min), "--c-max", repr(c_max),
             "--steps", str(wl.SCAN_STEPS), "--attack", attack]
        )
        if code:
            raise RuntimeError(f"frontier {attack} {c_min}..{c_max}: exit {code}: {err}")
        entry[attack] = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    return entry


def _simulate(case):
    rec = wl.Record()
    wl.simulate_pair(case, rec)
    return case, rec.failures


def _sim_cases(rng):
    cases = []
    while len(cases) < N_SIM:
        lam = round(float(rng.uniform(1.4, 1.7)), 4)
        c = round(float(rng.uniform(0.8, 1.05)), 4)
        if wl.physical_margin(lam, c, c) < 1e-3:
            continue
        x0 = round(float(rng.uniform(0.9, 1.1)), 4)
        cases.append([lam, c, c, x0, int(rng.integers(0, 2**31))])
    return cases


def _write(name, obj):
    path = os.path.join(wl.REFS_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}", flush=True)


def main():
    rng = np.random.default_rng(REF_SEED)
    analyze_in = wl.family_sample(rng, N_ANALYZE, 0.04, 0.10)
    general_in = sorted({round(float(c), 6) for c in rng.uniform(1.0, 3.0, N_GENERAL)})
    scan_in = [
        (round(float(rng.uniform(0.1, 0.4)), 4), round(float(rng.uniform(2.6, 3.0)), 4))
        for _ in range(N_SCAN)
    ]
    sim_in = _sim_cases(rng)
    os.makedirs(wl.REFS_DIR, exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        sims = list(pool.map(_simulate, sim_in))
        bad = [(case, fails) for case, fails in sims if fails]
        if bad:
            raise SystemExit(f"simulate inputs fail the gate at this commit: {bad}")
        _write("simulate.json", {"seed": REF_SEED, "pairs": wl.SIM_PAIRS, "cases": sim_in})
        _write("frontier_scan.json", {"seed": REF_SEED, "ranges": list(pool.map(_scan, scan_in))})
        _write("frontier_general.json", {"seed": REF_SEED, "points": list(pool.map(_general, general_in))})
        cases = list(pool.map(_analyze, analyze_in, chunksize=16))
        _write("analyze.json", {"seed": REF_SEED, "fields": wl.ANALYZE_FIELDS, "cases": cases})


if __name__ == "__main__":
    main()
