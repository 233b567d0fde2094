"""Small-matrix numerics kernel.

Everything in this package works with dense numpy arrays of modest size
(dimension 64 at most), so the helpers here wrap the corresponding LAPACK
routines with the validation and conventions the rest of the code relies on:

* ``eigh`` for (near-)Hermitian matrices, symmetrizing tiny asymmetries,
* ``pseudo_inverse`` with a relative singular-value cutoff,
* ``minimize_scalar``, repeated 64-point scans of a vectorized objective,
  each over the best bracket of the last (the first scan guards against
  landing in the wrong basin),
* ``sample_mvn``, multivariate normal sampling through the spectral square
  root of the covariance,
* ``Rng``, a counter-based Philox stream that can be split by index so that
  parallel Monte-Carlo results do not depend on scheduling,
* entropy helpers in bits.
"""

import math

import numpy as np

from .errors import EvaluationError, InvalidInput, NotPSD

_SCAN_POINTS = 64  # points per scan of minimize_scalar
_SCAN_INDEX = np.arange(float(_SCAN_POINTS))


def _reals(values, message):
    """``values`` as floats, if numpy reads them as one regular array of finite
    bools, ints or floats; otherwise :class:`InvalidInput` with ``message``."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise InvalidInput(message) from None
    if a.dtype.kind not in "biuf" or not np.isfinite(a).all():
        raise InvalidInput(message)
    return a.astype(float, copy=False)


class Rng:
    """Deterministic random stream on top of the Philox counter generator.

    A stream is identified by ``(seed, stream)``.  Child streams produced by
    :meth:`substream` occupy disjoint regions of the 256-bit Philox counter,
    so Monte-Carlo chunks drawn from distinct substreams give identical
    results no matter how many workers process them or in which order.
    """

    CHILD_BITS = 20  # up to 2**20 children per node, three levels deep

    def __init__(self, seed, stream=0):
        if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
            raise InvalidInput("seed must be an integer in [0, 2**64)")
        if not isinstance(stream, (int, np.integer)) or not 0 <= int(stream) < 2**60:
            raise InvalidInput("stream must be an integer in [0, 2**60)")
        self.seed = int(seed)
        self.stream = int(stream)
        bitgen = np.random.Philox(counter=self.stream << 192, key=self.seed)
        self.generator = np.random.Generator(bitgen)

    def substream(self, index):
        """Return the ``index``-th child stream of this stream."""
        if not 0 <= int(index) < 2**self.CHILD_BITS:
            raise InvalidInput(f"substream index must be in [0, 2**{self.CHILD_BITS})")
        return Rng(self.seed, (self.stream << self.CHILD_BITS) + int(index) + 1)

    def bits(self, n):
        """n uniform random bits as a uint8 array."""
        return self.generator.integers(0, 2, size=int(n), dtype=np.uint8)


def eigh(h):
    """Eigendecomposition of a Hermitian matrix.

    Accepts real-symmetric or complex-Hermitian input; deviations from
    Hermiticity up to ``1e-12 * (1 + max|h|)`` are symmetrized away, larger
    ones are rejected.  Returns ``(eigenvalues ascending, eigenvector columns)``.
    """
    h = np.asarray(h)
    if not np.isfinite(h).all():
        raise InvalidInput("matrix contains non-finite entries")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidInput("matrix must be square")
    if h.shape[0] > 64:
        raise InvalidInput("kernel supports dimension 64 at most")
    scale = 1.0 + (np.abs(h).max() if h.size else 0.0)
    if np.abs(h - h.conj().T).max() > 1e-12 * scale:
        raise InvalidInput("matrix is not Hermitian within tolerance")
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    return w, v


def pseudo_inverse(m, tol=1e-10):
    """Moore-Penrose pseudo-inverse with singular values below
    ``tol * sigma_max`` treated as zero."""
    m = _reals(m, "matrix contains non-finite entries")
    if not tol > 0:
        raise InvalidInput("tol must be positive")
    if m.ndim != 2:
        raise InvalidInput("matrix must be two-dimensional")
    return np.linalg.pinv(m, rcond=tol)


def minimize_scalar(f, lo, hi, tol=1e-8):
    """Minimize a scalar function on ``[lo, hi]``.

    ``f`` is vectorized: it takes an array of points and returns one value per
    point.  A 64-point scan of ``[lo, hi]`` locates the best basin; each
    further scan covers the bracket around the best point of the last, until
    that bracket is at most ``tol`` wide (or stops shrinking at the
    floating-point resolution of huge brackets).  For a unimodal basin the
    returned ``x`` is within ``tol`` of its argmin.  Returns the best scanned
    point and its value ``(x, f(x))``.
    """
    # the bracket is kept in Python floats: the same IEEE arithmetic as
    # numpy scalars, without their per-operation overhead
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidInput("need finite lo < hi")

    while True:
        # np.linspace's arithmetic, bar its rescue of a step that underflows to 0
        xs = _SCAN_INDEX * ((hi - lo) / (_SCAN_POINTS - 1)) + lo
        xs[-1] = hi
        ys = np.empty_like(xs)
        ys[...] = f(xs)  # a scalar-returning objective broadcasts
        if not np.isfinite(ys).all():
            raise EvaluationError(xs[np.argmin(np.isfinite(ys))])
        k = int(ys.argmin())
        a, b = xs.item(max(k - 1, 0)), xs.item(min(k + 1, _SCAN_POINTS - 1))
        if b - a <= tol or b - a >= hi - lo:
            return xs[k], ys[k]
        lo, hi = a, b


def sample_mvn(cov, n, rng):
    """Draw ``n`` samples from the zero-mean Gaussian with covariance ``cov``.

    Uses the spectral square root of ``cov``; eigenvalues below ``-1e-8``
    raise :class:`NotPSD`, small negative ones from rounding are clipped.
    Output shape is ``(n, dim)`` and is fully determined by ``rng``.
    """
    cov = _reals(cov, "cov contains non-finite entries")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InvalidInput("cov must be square")
    if np.abs(cov - cov.T).max() > 1e-10 * (1.0 + np.abs(cov).max()):
        raise InvalidInput("cov must be symmetric")
    w, v = np.linalg.eigh(0.5 * (cov + cov.T))
    if w.min(initial=0.0) < -1e-8:
        raise NotPSD(f"covariance has eigenvalue {w.min()}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    z = rng.generator.standard_normal((int(n), cov.shape[0]))
    return z @ root


def _xlog2x(w):
    return w * np.log2(np.where(w > 0.0, w, 1.0))


def binary_entropy(p):
    """Binary entropy in bits, with the 0*log(0) = 0 convention; elementwise
    on arrays, a float for a scalar."""
    p = _reals(p, "probability must lie in [0, 1]")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise InvalidInput("probability must lie in [0, 1]")
    out = -(_xlog2x(p) + _xlog2x(1.0 - p))
    return float(out) if out.ndim == 0 else out


def entropy_bits(weights):
    """Shannon entropy in bits of nonnegative weights along the last axis: a
    float for a vector, an array for a stack of them.

    Intended for eigenvalues of a trace-one density matrix; values in
    ``[-1e-9, 0)`` are treated as rounding noise and clipped to zero.
    """
    w = _reals(weights, "weights contains non-finite entries")
    if w.min(initial=0.0) < -1e-9:
        raise InvalidInput(f"weights must be nonnegative, got min {w.min()}")
    out = -_xlog2x(np.clip(w, 0.0, None)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out
