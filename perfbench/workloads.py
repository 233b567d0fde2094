"""The benchmark's workloads: seeded inputs, the operations they time, and
the correctness gate every operation's output goes through.

* ``key-rate`` - per-state rate reports: one ``frontier --attack general``
  call on two recorded ``c`` points, then ``analyze`` CLI calls on states
  drawn from the recorded reference pool.  Each state is evaluated at many
  thresholds, so nearly all time goes to the general one-way bound.
* ``attack-scan`` - ``any_x0_secure`` on fresh seeded states, one call per
  state at one reference threshold, plus the 30-step ``frontier`` runs for
  ``individual`` and ``coherent-ad``.  Same layers as ``key-rate``, opposite
  reuse pattern: per-state set-up is never amortised.
* ``cross-check`` - the two independent verifiers, in rounds: ``simulate``
  at 10^7 pairs with 1 and with 2 workers, then ``oracle-check --level full``.  They
  bypass the closed-form security path.

Reference values live in ``refs/`` and were recorded with ``make_refs.py``.
"""

import contextlib
import io
import json
import math
import os
from time import perf_counter

import numpy as np

from gausskey import cli, security
from gausskey.gaussian import SymmetricStateParams
from reference import Reference, bulk, dispatch, small

WORKLOADS = ("key-rate", "attack-scan", "cross-check")

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

ANALYZE_FIELDS = (
    "lambda",
    "c_x",
    "c_p",
    "physical",
    "nppt",
    "eps_ab_at_best_x0",
    "eve_overlap",
    "individual_secure",
    "coherent_ad_secure",
    "rate_lb",
    "best_x0",
)
FRONTIER_HEADER = "c,lambda_star,lambda_solid,lambda_dashed"
SCAN_STEPS = 30
SCAN_ATTACKS = ("individual", "coherent-ad")
ANY_X0_ATTACKS = ("individual", "finite-coherent", "coherent-ad")
SIM_PAIRS = 10_000_000
SIM_WINDOW = 0.01
SIM_BLOCK_N = 2

# correctness-gate tolerances
RATE_ATOL = 1e-9  # rate_lb, absolute
RATE_FLOOR = 1e-12  # below it the objective is flat and its argmax meaningless
X0_RTOL = 1e-3  # best_x0, relative to max(1, x0)
LAMBDA_STAR_ATOL = 1e-6  # the frontier's bisection width
NPPT_BAND = 1e-6  # |NPPT margin| below this is too close to call
SIM_SIGMAS = 4.0

# size of one pass of a traced run's fixed op list, per second of --seconds
# (a traced run makes four passes)
TRACE_ANALYZE_PER_S = 0.75
TRACE_ANY_X0_PER_S = 60
TRACE_ROUND_S = 12

# the reference kernel timed after each op of a timed run, sized to about
# a sixth of the op on key-rate and cross-check and to about the op itself
# on attack-scan, whose ops are too short to time a smaller kernel well
REFERENCES = {
    "key-rate": Reference(small, 1000),
    "attack-scan": Reference(dispatch, 150),
    "cross-check": Reference(bulk, 6),
}


def load_ref(name):
    with open(os.path.join(REFS_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- inputs


def physical_margin(lam, cx, cp):
    """Closed-form physicality margin of the symmetric family (>= 0 iff physical)."""
    return lam * lam - cx * cp - 1.0 - lam * (cx - cp)


def nppt_margin(lam, cx, cp):
    """Closed-form entanglement margin (< 0 iff NPPT)."""
    return lam * lam + cx * cp - 1.0 - lam * (cx + cp)


def _bulk_state(rng, physical=True):
    while True:
        lam = rng.uniform(1.0, 3.5)
        cx = rng.uniform(0.0, lam)
        cp = rng.uniform(0.0, cx)
        margin = physical_margin(lam, cx, cp)
        if (margin > 1e-6) if physical else (margin < -1e-6):
            return lam, cx, cp


def _boundary_state(rng, width):
    """A physical state whose NPPT margin lies within ``width`` of zero."""
    while True:
        cx = rng.uniform(0.2, 3.0)
        cp = rng.uniform(0.0, cx)
        root = math.sqrt((cx - cp) ** 2 + 4.0)
        lam = 0.5 * (cx + cp + root) + rng.uniform(-width, width) / root
        if physical_margin(lam, cx, cp) > 1e-6:
            return lam, cx, cp


def family_sample(rng, n, unphysical_share, boundary_share):
    """``n`` symmetric-family points ``(lam, cx, cp)`` with ``cx >= cp``:
    mostly physical bulk states (entangled and separable), a share within
    1e-3 of the NPPT boundary, and a share of unphysical points, shuffled."""
    n_unphys = int(round(n * unphysical_share))
    n_bound = int(round(n * boundary_share))
    pts = [_bulk_state(rng, physical=False) for _ in range(n_unphys)]
    pts += [_boundary_state(rng, 1e-3) for _ in range(n_bound)]
    pts += [_bulk_state(rng) for _ in range(n - n_unphys - n_bound)]
    return [pts[i] for i in rng.permutation(n)]


def attack_states(seed):
    """Endless stream of fresh physical states for ``attack-scan``; a tenth
    lie within 1e-3 of the NPPT boundary."""
    rng = np.random.default_rng([seed, 2, 1])
    while True:
        yield from family_sample(rng, 1024, 0.0, 0.1)


class Inputs:
    """Everything one run of a workload consumes, drawn from ``seed``."""

    def __init__(self, workload, seed):
        rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        if workload == "key-rate":
            cases = load_ref("analyze.json")["cases"]
            self.analyze = [cases[i] for i in rng.permutation(len(cases))]
            points = load_ref("frontier_general.json")["points"]
            self.general = sorted(points[i] for i in rng.choice(len(points), 2, replace=False))
            self.digest = [c[:3] for c in self.analyze[:8]] + self.general
        elif workload == "attack-scan":
            ranges = load_ref("frontier_scan.json")["ranges"]
            self.scan = [ranges[i] for i in rng.permutation(len(ranges))]
            self.states = attack_states(seed)
            self.digest = [next(attack_states(seed)), self.scan[0]["c_min"]]
        else:
            sims = load_ref("simulate.json")["cases"]
            self.sims = [sims[i] for i in rng.permutation(len(sims))]
            self.digest = self.sims[:4]


# ---------------------------------------------------------------- recording


class Record:
    """Timings, gate results and output signatures of one pass.

    With a ``reference`` (timed runs only), every op is followed by one run
    of it, and ``op_rel`` gets the op's time over the mean of the reference
    times just before and just after it.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.ref_s = [reference()] if reference else []
        self.op_s = []
        self.op_rel = []
        self.cmd_unit_s = []
        self.samples = {"sim_w1_s": [], "sim_w2_s": []}
        self.attempted = 0
        self.failures = []
        self.outputs = []

    def add_op(self, seconds):
        self.op_s.append(seconds)
        if self.reference:
            self.ref_s.append(self.reference())
            self.op_rel.append(2.0 * seconds / (self.ref_s[-2] + self.ref_s[-1]))

    def gate(self, what, problem):
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")


class Budget:
    """When a phase stops: at its share of ``seconds`` in a timed run, after
    a fixed count in a traced run (so its work counters repeat exactly)."""

    def __init__(self, seconds, fixed):
        self.seconds = seconds
        self.fixed = fixed
        self.t0 = perf_counter()

    def more(self, done, share, count):
        if self.fixed:
            return done < count
        return done == 0 or perf_counter() - self.t0 < share * self.seconds


def run_cli(argv):
    """Call ``gausskey.cli.main(argv)`` in-process with output captured;
    returns ``(exit code, stdout, stderr, seconds)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        code = cli.main(argv)
        dt = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


# ---------------------------------------------------------------- gate


def check_analyze(code, out, err, ref):
    """Compare one ``analyze`` call with its recorded reference."""
    ref_code, ref_vals = ref[3], ref[4]
    if code != ref_code:
        return f"exit {code}, expected {ref_code}"
    if code != 0:
        if out or len(err.strip().splitlines()) != 1:
            return "expected no stdout and a one-line message"
        return None
    got = json.loads(out)
    if tuple(got) != ANALYZE_FIELDS:
        return f"fields {tuple(got)}"
    want = dict(zip(ANALYZE_FIELDS, ref_vals))
    for key in ("lambda", "c_x", "c_p", "physical", "nppt", "individual_secure", "coherent_ad_secure"):
        if got[key] != want[key]:
            return f"{key} {got[key]!r}, expected {want[key]!r}"
    if not abs(got["rate_lb"] - want["rate_lb"]) <= RATE_ATOL:
        return f"rate_lb {got['rate_lb']!r}, expected {want['rate_lb']!r}"
    if want["rate_lb"] <= RATE_FLOOR:
        return None
    x_ref = want["best_x0"]
    tol_x = X0_RTOL * max(1.0, x_ref)
    if not abs(got["best_x0"] - x_ref) <= tol_x:
        return f"best_x0 {got['best_x0']!r}, expected {x_ref!r}"
    for key in ("eps_ab_at_best_x0", "eve_overlap"):
        # both fall like exp(-k x0^2), so a threshold within tol_x moves
        # their logarithm by at most 2 |ln v| tol_x / x0
        g, w = got[key], want[key]
        if g <= 0.0 or w <= 0.0:
            if g != w:
                return f"{key} {g!r}, expected {w!r}"
            continue
        if not abs(math.log(g) - math.log(w)) <= 2.0 * abs(math.log(w)) * tol_x / x_ref + 1e-9:
            return f"{key} {g!r}, expected {w!r}"
    return None


def check_frontier(code, out, cs, lambda_stars):
    """Compare one ``frontier`` CSV with the expected ``c`` column and the
    recorded ``lambda_star`` values."""
    if code != 0:
        return f"exit {code}"
    lines = out.splitlines()
    if not lines or lines[0] != FRONTIER_HEADER:
        return "bad header"
    if len(lines) - 1 != len(cs):
        return f"{len(lines) - 1} rows, expected {len(cs)}"
    for line, c_want, lam_want in zip(lines[1:], cs, lambda_stars):
        c, lam, solid, dashed = (float(v) for v in line.split(","))
        if not abs(c - c_want) <= 1e-9 * max(1.0, c_want):
            return f"c {c!r}, expected {c_want!r}"
        if not abs(lam - lam_want) <= LAMBDA_STAR_ATOL:
            return f"lambda_star {lam!r} at c={c}, expected {lam_want!r}"
        if not (abs(solid - math.sqrt(1.0 + c * c)) <= 1e-9 and abs(dashed - (c + 1.0)) <= 1e-9):
            return f"rails at c={c}"
    return None


def check_any_x0(state, kind, secure):
    """NPPT <=> individual (and finite-coherent) security, and coherent-ad
    security => NPPT, for states outside the NPPT band.  Each state gets one
    attack kind, so coherent-ad => individual is checked through NPPT, which
    the individual calls pin to individual security."""
    margin = nppt_margin(*state)
    if abs(margin) <= NPPT_BAND:
        return None
    nppt = margin < 0.0
    if kind == "coherent-ad":
        return "coherent-ad secure on a PPT state" if secure and not nppt else None
    return None if bool(secure) == nppt else f"{kind} secure={secure} but nppt={nppt}"


def check_simulate(runs, case):
    """``runs`` holds ``(code, stdout)`` at 1 and 2 workers."""
    (code1, out1), (code2, out2) = runs
    if code1 != 0 or code2 != 0:
        return f"exit {code1}/{code2}"
    if out1 != out2:
        return "output differs between 1 and 2 workers"
    d = json.loads(out1)
    lam, cx, _, x0, _ = case
    eps = 1.0 / (1.0 + math.exp(4.0 * cx * x0 * x0 / (lam * lam - cx * cx)))
    if not abs(d["eps_theory"] - eps) <= 1e-10 * eps:
        return f"eps_theory {d['eps_theory']!r}, closed form {eps!r}"
    if d["accepted"] < 1:
        return "nothing accepted"
    if not abs(d["eps_empirical"] - d["eps_theory"]) <= SIM_SIGMAS * d["stderr_estimates"]["eps"]:
        return f"eps_empirical {d['eps_empirical']!r} beyond {SIM_SIGMAS} sigma of {d['eps_theory']!r}"
    return None


def check_oracle(code, out):
    lines = out.strip().splitlines()
    if code != 0 or not lines or lines[-1] != "PASS":
        return f"exit {code}, last line {lines[-1] if lines else ''!r}"
    return None


# ---------------------------------------------------------------- ops


def _analyze(case, rec):
    lam, cx, cp = case[:3]
    code, out, err, dt = run_cli(["analyze", "--lambda", repr(lam), "--cx", repr(cx), "--cp", repr(cp)])
    rec.add_op(dt)
    rec.outputs.append((code, out, err))
    rec.gate(f"analyze {lam!r} {cx!r} {cp!r}", check_analyze(code, out, err, case))


def _frontier(rec, attack, c_min, c_max, steps, lambda_stars):
    argv = ["frontier", "--c-min", repr(c_min), "--c-max", repr(c_max), "--steps", str(steps)]
    code, out, _, dt = run_cli(argv + ["--attack", attack])
    rec.outputs.append(out)
    cs = np.linspace(c_min, c_max, steps)
    rec.gate(f"frontier {attack} {c_min!r}..{c_max!r}", check_frontier(code, out, cs, lambda_stars))
    return dt


def _any_x0(state, kind, rec):
    p = SymmetricStateParams(*state)
    t0 = perf_counter()
    secure = security.any_x0_secure(p, attack=kind)
    rec.add_op(perf_counter() - t0)
    rec.outputs.append(secure)
    rec.gate(f"any_x0_secure {kind} {state!r}", check_any_x0(state, kind, secure))


def simulate_pair(case, rec):
    lam, cx, cp, x0, seed = case
    argv = [
        "simulate", "--lambda", repr(lam), "--cx", repr(cx), "--cp", repr(cp), "--x0", repr(x0),
        "--window", repr(SIM_WINDOW), "--pairs", str(SIM_PAIRS), "--block-n", str(SIM_BLOCK_N),
        "--seed", str(seed),
    ]
    runs = []
    total = 0.0
    for workers in (1, 2):
        code, out, _, dt = run_cli(argv + ["--workers", str(workers)])
        rec.samples[f"sim_w{workers}_s"].append(dt)
        total += dt
        runs.append((code, out))
        rec.outputs.append(out)
    rec.add_op(total)
    rec.gate(f"simulate {case!r}", check_simulate(runs, case))


def _oracle(rec):
    code, out, _, dt = run_cli(["oracle-check", "--level", "full"])
    rec.cmd_unit_s.append(dt)
    rec.outputs.append(out)
    rec.gate("oracle-check full", check_oracle(code, out))


# ---------------------------------------------------------------- workloads


def run_key_rate(inp, budget, rec):
    (c1, lam1), (c2, lam2) = inp.general
    rec.cmd_unit_s.append(_frontier(rec, "general", c1, c2, 2, [lam1, lam2]) / 2)
    count = max(4, int(TRACE_ANALYZE_PER_S * budget.seconds))
    done = 0
    for case in inp.analyze:  # a pool that runs out ends the run: no state repeats
        if not budget.more(done, 1.0, count):
            break
        _analyze(case, rec)
        done += 1


def run_attack_scan(inp, budget, rec):
    """Two segments of frontier runs followed by ``any_x0_secure`` calls."""
    segments = 1 if budget.fixed else 2
    count = max(30, TRACE_ANY_X0_PER_S * budget.seconds)
    i = 0
    for k in range(segments):
        scan = inp.scan[k]
        dt = sum(_frontier(rec, attack, scan["c_min"], scan["c_max"], SCAN_STEPS, scan[attack])
                 for attack in SCAN_ATTACKS)
        rec.cmd_unit_s.append(dt / (SCAN_STEPS * len(SCAN_ATTACKS)))
        done = 0
        while budget.more(done, (k + 1) / segments, count):
            _any_x0(next(inp.states), ANY_X0_ATTACKS[i % 3], rec)
            i += 1
            done += 1


def run_cross_check(inp, budget, rec):
    """Rounds of one ``simulate`` pair (the op) and one full oracle check.
    The oracle's allocation-heavy grid build is too noisy on a shared
    machine to sit inside the gated op latency, so it is timed apart."""
    count = max(1, budget.seconds // TRACE_ROUND_S)
    done = 0
    while budget.more(done, 1.0, count) and done < len(inp.sims):
        simulate_pair(inp.sims[done], rec)
        _oracle(rec)
        done += 1


RUNNERS = {"key-rate": run_key_rate, "attack-scan": run_attack_scan, "cross-check": run_cross_check}
