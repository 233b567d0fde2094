"""Outside-in tracer behind the benchmark's per-layer metrics.

The traced run wraps public gausskey functions from outside the package:
nothing under ``src/`` knows about it.  :data:`WRAPPED` is the wrapper table.
A function is patched in every ``gausskey`` module namespace that holds it,
because ``gaussian`` names are imported by name into ``security`` and ``cli``
(patching only ``gaussian.purify`` would miss the calls made from
``security``), while ``matkit`` is reached as ``matkit.<name>`` and needs only
its home patch.

Each wrapped call is a span.  Spans sit on a thread-local stack, so a span's
self time is its duration minus the wrapped children that ran on the same
thread; ``sample_mvn`` calls made by simulator worker threads are spans of
their own.  Work counters are read from arguments and return values at the
same boundaries, so they are machine-independent and repeat exactly for a
fixed input list.
"""

import sys
import threading
from collections import defaultdict
from time import perf_counter

# layer -> public functions wrapped in traced runs
WRAPPED = {
    "matkit": ("eigh", "pseudo_inverse", "minimize_scalar", "sample_mvn"),
    "gaussian": ("purify", "williamson", "condition_on_x", "pure_overlap", "symplectic_spectrum"),
    "security": (
        "optimize_rate",
        "rate_lower_bound",
        "effective_state",
        "eve_ensemble",
        "any_x0_secure",
        "build_report",
        "security_frontier",
    ),
    "protocol": ("simulate_sifting", "simulate_advantage_distillation"),
    "oracle": ("wavefunction_from_pure", "grid_moments", "grid_condition_on_x", "grid_reduced_spectrum"),
    "cli": ("main",),
}

# counters and ratios derived from them, each given with its base
COUNTERS = (
    ("matkit.minimize_scalar.evals", "count", "lower"),
    ("matkit.sample_mvn.samples", "count", "lower"),
    ("security.reports", "count", "lower"),
    ("security.frontier_points", "count", "lower"),
    ("security.rate_evals_per_report", "count", "lower"),
    ("security.rate_evals_per_frontier_point", "count", "lower"),
    ("security.purify_per_report", "count", "lower"),
    ("gaussian.spectra_per_ensemble", "count", "lower"),
    ("protocol.sift.pairs", "count", "higher"),
    ("protocol.sift.accepted", "count", "higher"),
    ("protocol.sift.accept_ratio", "ratio", "higher"),
    ("protocol.sift.worker_busy_ratio", "ratio", "higher"),
    ("protocol.ad.blocks", "count", "higher"),
    ("protocol.ad.kept_ratio", "ratio", "higher"),
    ("oracle.grid.points", "count", "lower"),
    ("oracle.grid.computed_bytes", "B", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
)


def metric_specs():
    """``(name, unit, better)`` for every per-layer metric a traced run
    prints, in print order."""
    specs = []
    for layer, names in WRAPPED.items():
        for fname in names:
            specs.append((f"{layer}.{fname}.calls", "count", "lower"))
            specs.append((f"{layer}.{fname}.self_s", "s", "lower"))
    specs.extend(COUNTERS)
    return specs


class Tracer:
    """Span recorder; :meth:`install` patches the wrapper table in, and
    :meth:`uninstall` restores the original functions."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.sift_busy_s = 0.0
        self.sift_capacity_s = 0.0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _inside(self, name):
        return any(frame[0] == name for frame in self._stack())

    def _count(self, key, k=1):
        with self._lock:
            self.counts[key] += k

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = self._stack()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    self.calls[name] += 1
                    self.total_s[name] += dt
                    self.self_s[name] += dt - frame[1]
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "gausskey" or key.startswith("gausskey."))
        ]
        for layer, names in WRAPPED.items():
            home = sys.modules["gausskey." + layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for ns in namespaces:
                    if ns.__dict__.get(fname) is orig:
                        setattr(ns, fname, wrapped)
                        self._patched.append((ns, fname, orig))

    def uninstall(self):
        for ns, fname, orig in reversed(self._patched):
            setattr(ns, fname, orig)
        self._patched.clear()

    def patch_sites(self):
        """``{function: [module, ...]}`` for the currently patched names."""
        sites = defaultdict(list)
        for ns, fname, _ in self._patched:
            sites[fname].append(ns.__name__)
        return dict(sites)

    # ---- counter hooks, named after the span they observe ----

    def _before_matkit_minimize_scalar(self, args, kwargs):
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            self._count("matkit.minimize_scalar.evals")
            return f(x)

        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, f=counted)

    def _before_matkit_sample_mvn(self, args, kwargs):
        n = args[1] if len(args) > 1 else kwargs["n"]
        self._count("matkit.sample_mvn.samples", int(n))
        return args, kwargs

    def _before_security_rate_lower_bound(self, args, kwargs):
        if self._inside("security.security_frontier"):
            self._count("rate_evals.frontier")
        elif self._inside("security.build_report"):
            self._count("rate_evals.report")
        return args, kwargs

    def _before_gaussian_purify(self, args, kwargs):
        if self._inside("security.build_report"):
            self._count("purify.report")
        return args, kwargs

    def _before_gaussian_symplectic_spectrum(self, args, kwargs):
        if self._inside("security.eve_ensemble"):
            self._count("spectra.ensemble")
        return args, kwargs

    def _after_security_security_frontier(self, args, kwargs, result, dt):
        self._count("security.frontier_points", len(result))

    def _after_security_build_report(self, args, kwargs, result, dt):
        self._count("security.reports")

    def _before_protocol_simulate_sifting(self, args, kwargs):
        with self._lock:
            self._local.sift_mark = self.total_s["matkit.sample_mvn"]
        return args, kwargs

    def _after_protocol_simulate_sifting(self, args, kwargs, result, dt):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        workers = args[3] if len(args) > 3 else kwargs.get("workers", 1)
        with self._lock:
            self.counts["protocol.sift.pairs"] += int(cfg.n_pairs)
            self.counts["protocol.sift.accepted"] += len(result.alice)
            self.sift_busy_s += self.total_s["matkit.sample_mvn"] - self._local.sift_mark
            self.sift_capacity_s += dt * max(int(workers), 1)

    def _after_protocol_simulate_advantage_distillation(self, args, kwargs, result, dt):
        with self._lock:
            self.counts["protocol.ad.blocks"] += int(result.blocks_consumed)
            self.counts["protocol.ad.kept"] += len(result.kept_bits_alice)

    def _after_oracle_wavefunction_from_pure(self, args, kwargs, result, dt):
        with self._lock:
            self.counts["oracle.grid.points"] += int(result.amplitudes.size)
            self.counts["oracle.grid.computed_bytes"] += int(result.amplitudes.nbytes)

    def _after_oracle_grid_condition_on_x(self, args, kwargs, result, dt):
        self._count("oracle.grid.computed_bytes", int(result.amplitudes.nbytes))

    # ---- report ----

    def metrics(self):
        """Per-layer values keyed like :func:`metric_specs`."""
        out = {}
        for layer, names in WRAPPED.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[key + ".calls"] = self.calls[key]
                out[key + ".self_s"] = self.self_s[key]
        c = self.counts
        reports = c["security.reports"]
        points = c["security.frontier_points"]
        ensembles = self.calls["security.eve_ensemble"]
        pairs = c["protocol.sift.pairs"]
        blocks = c["protocol.ad.blocks"]
        out.update(
            {
                "matkit.minimize_scalar.evals": c["matkit.minimize_scalar.evals"],
                "matkit.sample_mvn.samples": c["matkit.sample_mvn.samples"],
                "security.reports": reports,
                "security.frontier_points": points,
                "security.rate_evals_per_report": _ratio(c["rate_evals.report"], reports),
                "security.rate_evals_per_frontier_point": _ratio(c["rate_evals.frontier"], points),
                "security.purify_per_report": _ratio(c["purify.report"], reports),
                "gaussian.spectra_per_ensemble": _ratio(c["spectra.ensemble"], ensembles),
                "protocol.sift.pairs": pairs,
                "protocol.sift.accepted": c["protocol.sift.accepted"],
                "protocol.sift.accept_ratio": _ratio(c["protocol.sift.accepted"], pairs),
                "protocol.sift.worker_busy_ratio": _ratio(self.sift_busy_s, self.sift_capacity_s),
                "protocol.ad.blocks": blocks,
                "protocol.ad.kept_ratio": _ratio(c["protocol.ad.kept"], blocks),
                "oracle.grid.points": c["oracle.grid.points"],
                "oracle.grid.computed_bytes": c["oracle.grid.computed_bytes"],
            }
        )
        return out


def _ratio(num, base):
    """``num / base``, or 0 when the base is empty on this workload."""
    return num / base if base else 0.0
