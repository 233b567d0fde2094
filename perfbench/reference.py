"""Fixed reference kernels, timed beside every op of a timed run.

The machine the benchmark runs on is shared, and its speed drifts by up
to 1.5x between consecutive runs as other tenants come and go.  A time
that is measured alone carries that drift.  So each op is followed by a
reference kernel on the same thread, and the gated latency is the op's
time divided by the reference time beside it (``op_rel_p50``).  A change
to gausskey moves the op and not the reference; a change of machine
speed moves both.

The kernels use numpy and the standard library only, never gausskey, so
no change to the program can change them.  Do not change them either:
their time is the unit of ``op_rel_p50``, and a changed kernel re-bases
every comparison with an earlier commit.

* ``small`` mirrors the general rate bound behind ``analyze``: numpy calls
  on 4x4 matrices (``eigh``, products, elementwise maps) and scalar Python
  arithmetic.  Interpreter and dispatch overhead dominate.
* ``dispatch`` mirrors ``any_x0_secure``: elementwise numpy calls on 4x4
  arrays and no LAPACK, so numpy's per-call overhead dominates.
* ``bulk`` mirrors the simulator: it draws correlated Gaussian samples in
  large arrays and counts those inside a window, so array throughput and
  memory traffic dominate, as in ``simulate``.
"""

from time import perf_counter

import numpy as np

_H = np.array(
    [
        [2.0, 0.3, 0.1, 0.0],
        [0.3, 1.5, 0.2, 0.1],
        [0.1, 0.2, 1.2, 0.4],
        [0.0, 0.1, 0.4, 1.8],
    ]
)
_EYE = np.eye(4)
_ROOT = np.linalg.cholesky(_H).T
_BULK_ROWS = 250_000


def small(reps):
    """``reps`` rounds of 4x4 linear algebra and scalar iteration."""
    acc = 0.0
    for i in range(reps):
        h = _H + (i * 1e-3) * _EYE
        w, v = np.linalg.eigh(h)
        p = (v * (1.0 / w)) @ v.T
        g = np.exp(-0.5 * np.abs(p))
        acc += float(np.sqrt(g.sum()) + np.abs(h - h.T).max())
        x = 0.1 * i
        for _ in range(8):
            x = x * 0.5 + 1.0 / (1.0 + x * x)
        acc += x
    return acc


def dispatch(reps):
    """``reps`` rounds of elementwise numpy calls on a 4x4 array."""
    acc = 0.0
    for i in range(reps):
        b = np.abs(_H - _H.T) * 0.5 + i
        acc += float(np.exp(-b).sum())
        acc += float(np.where(b > 3.0, b, 0.0).max())
    return acc


def bulk(blocks):
    """``blocks`` draws of 250,000 correlated 4-vectors, windowed and counted."""
    rng = np.random.default_rng(12345)
    kept = 0
    for _ in range(blocks):
        s = rng.standard_normal((_BULK_ROWS, 4)) @ _ROOT
        kept += int(np.count_nonzero((np.abs(np.abs(s[:, 0]) - 1.0) < 0.05) & (np.abs(np.abs(s[:, 1]) - 1.0) < 0.05)))
    return kept


class Reference:
    """One kernel at one size; calling it runs the kernel once and returns
    its wall time in seconds."""

    def __init__(self, kernel, size):
        self.kernel = kernel
        self.size = size

    def __call__(self):
        t0 = perf_counter()
        self.kernel(self.size)
        return perf_counter() - t0
