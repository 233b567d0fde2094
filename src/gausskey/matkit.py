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
  parallel Monte-Carlo results do not depend on scheduling, and whose
  generator can be re-keyed to a child in place of building a new one,
* entropy helpers in bits.

It also holds the package's readers of what a caller passes: ``_reals`` for
arrays of real (or, where asked, complex) numbers, ``_int`` and ``_indices``
for counts, seeds, block sizes and mode or axis indices, and ``_finite`` for
every real scalar.  Each raises :class:`InvalidInput` with its caller's
message, never a bare Python or numpy error.
"""

import math
import operator

import numpy as np

from .errors import EvaluationError, InvalidInput, NotPSD

_SCAN_POINTS = 64  # points per scan of minimize_scalar
_SCAN_INDEX = np.arange(float(_SCAN_POINTS))


def _finite(*values):
    """True iff every value is a finite real number; a string, an array of
    several entries, a complex number or an int too large for a float is not.
    Plain Python: no numpy call."""
    try:
        return all(math.isfinite(v) for v in values)
    except (TypeError, OverflowError):
        return False


def _reals(values, message, kinds="biuf"):
    """``values`` as floats, if numpy reads them as one regular array of finite
    entries whose dtype kind is in ``kinds``: bools, ints or floats, and with
    ``kinds="biufc"`` also complex numbers, which stay complex.  Otherwise
    :class:`InvalidInput` with ``message``."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise InvalidInput(message) from None
    # a NaN or inf shows in the min or max of its part: no temporary the size of ``a``
    parts = (a.real, a.imag) if a.dtype.kind == "c" else (a,)
    if a.dtype.kind not in kinds or not _finite(*(m(initial=0) for p in parts for m in (p.min, p.max))):
        raise InvalidInput(message)
    return a.astype(complex if a.dtype.kind == "c" else float, copy=False)


def _int(value, message, lo=0, hi=math.inf):
    """``value`` as a Python int, if :func:`operator.index` takes it (a Python
    or numpy integer, or a 0-d integer array, never ``2.0``) and it lies in
    ``[lo, hi)``; otherwise :class:`InvalidInput` with ``message``.  Plain
    Python: no numpy call."""
    try:
        if lo <= (i := operator.index(value)) < hi:
            return i
    except TypeError:  # not an integer
        pass
    raise InvalidInput(message)


def _indices(values, message, hi):
    """The distinct entries of the iterable ``values``, each read by
    :func:`_int` in ``[0, hi)``, ascending; an empty one gives ``[]``."""
    try:
        return sorted({_int(v, message, 0, hi) for v in values})
    except TypeError:  # not iterable, a bare int say
        raise InvalidInput(message) from None


class Rng:
    """Deterministic random stream on top of the Philox counter generator.

    A stream is identified by ``(seed, stream)``.  Child streams produced by
    :meth:`substream` occupy disjoint regions of the 256-bit Philox counter,
    so Monte-Carlo chunks drawn from distinct substreams give identical
    results no matter how many workers process them or in which order.
    """

    CHILD_BITS = 20  # up to 2**20 children per node, three levels deep

    def __init__(self, seed, stream=0):
        # a fixed placeholder seed: _rekey overwrites the whole state, so an
        # OS-entropy SeedSequence would be drawn only to be thrown away
        self.generator = np.random.Generator(np.random.Philox(0))
        self._rekey(_int(seed, "seed must be an integer in [0, 2**64)", 0, 2**64), stream)

    def _rekey(self, seed, stream):
        """Point the generator at ``(seed, stream)`` through its public
        ``state``: Philox key ``seed``, counter ``stream << 192`` and an empty
        buffer, the state ``Philox(counter=stream << 192, key=seed)`` starts
        in.  Returns ``self``; a rejected ``stream`` leaves it as it was."""
        stream = _int(stream, "stream must be an integer in [0, 2**60)", 0, 2**60)
        self.seed, self.stream = seed, stream
        self.generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, 0, 0, stream], np.uint64),
                      "key": np.array([seed, 0], np.uint64)},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self

    def substream(self, index, into=None):
        """Return the ``index``-th child stream of this stream; ``index`` is
        read by :func:`_int`.  Given ``into``, an :class:`Rng`, no generator
        is built: ``into`` is re-keyed in place to that child and returned,
        and draws exactly what a new child would."""
        i = _int(index, f"substream index must be an integer in [0, 2**{self.CHILD_BITS})",
                 0, 1 << self.CHILD_BITS)
        stream = (self.stream << self.CHILD_BITS) + i + 1
        return Rng(self.seed, stream) if into is None else into._rekey(self.seed, stream)

    def bits(self, n):
        """``n`` uniform random bits as a uint8 array; ``n`` is read by
        :func:`_int`."""
        n = _int(n, "bit count must be a nonnegative integer")
        return self.generator.integers(0, 2, size=n, dtype=np.uint8)


def eigh(h):
    """Eigendecomposition of a Hermitian matrix.

    Accepts real-symmetric or complex-Hermitian input, read by :func:`_reals`
    with complex entries admitted; deviations from Hermiticity up to
    ``1e-12 * (1 + max|h|)`` are symmetrized away, larger ones are rejected.
    Returns ``(eigenvalues ascending, eigenvector columns)``.
    """
    h = _reals(h, "matrix contains non-finite entries", "biufc")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidInput("matrix must be square")
    if h.shape[0] > 64:
        raise InvalidInput("kernel supports dimension 64 at most")
    if np.abs(h - h.conj().T).max(initial=0.0) > 1e-12 * (1.0 + np.abs(h).max(initial=0.0)):
        raise InvalidInput("matrix is not Hermitian within tolerance")
    return tuple(np.linalg.eigh(0.5 * (h + h.conj().T)))


def pseudo_inverse(m, tol=1e-10):
    """Moore-Penrose pseudo-inverse with singular values below
    ``tol * sigma_max`` treated as zero."""
    m = _reals(m, "matrix contains non-finite entries")
    if not (_finite(tol) and tol > 0):
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
    point and its value ``(x, f(x))``.  ``lo``, ``hi`` and ``tol`` are read by
    :func:`_finite`, so a numeric string is refused.
    """
    if not (_finite(lo, hi) and lo < hi):
        raise InvalidInput("need finite lo < hi")
    if not _finite(tol):
        raise InvalidInput("tol must be finite")
    # the bracket is kept in Python floats: the same IEEE arithmetic as
    # numpy scalars, without their per-operation overhead
    lo, hi = float(lo), float(hi)

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
    ``cov`` is read by :func:`_reals` and ``n`` by :func:`_int`.  Output shape
    is ``(n, dim)`` and is fully determined by ``rng``.
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
    z = rng.generator.standard_normal((_int(n, "sample count must be a nonnegative integer"), cov.shape[0]))
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
