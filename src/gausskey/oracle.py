"""Brute-force verifier on a position-space grid.

Pure Gaussian states are written out as explicit complex wavefunctions over
a uniform grid (up to 4 modes at coarse resolution), and overlaps,
homodyne conditioning, moments, and postselected reduced-state spectra are
recomputed by direct summation.  Nothing here reuses the covariance-matrix
code paths; the only internal dependency is the numerics kernel.  That makes
this module a genuinely independent cross-check for the closed-form layer.

A pure state with covariance matrix split into position/momentum blocks
``[[A, B], [B^T, C]]`` has wavefunction

    psi(x) ~ exp(-1/2 (x - xbar)^T (U + iV) (x - xbar) + i pbar . x)

with ``U = A^{-1}`` and ``V = -A^{-1} B``; the vacuum maps to ``U = I``,
``V = 0``, ``psi = pi^{-1/4} exp(-x^2/2)``.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import GridTooSmall, InvalidInput, OutcomeUnlikely


@dataclass(frozen=True)
class GridAxis:
    """A symmetric uniform grid; the odd point count keeps 0 on the grid."""

    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise InvalidInput("need finite lo < hi")
        if self.points < 3 or self.points % 2 == 0:
            raise InvalidInput("points per axis must be odd and at least 3")
        if abs(self.lo + self.hi) > 1e-12 * (abs(self.lo) + abs(self.hi)):
            raise InvalidInput("axis must be symmetric about 0")

    @property
    def nodes(self):
        return np.linspace(self.lo, self.hi, self.points)

    @property
    def spacing(self):
        return (self.hi - self.lo) / (self.points - 1)


@dataclass(frozen=True)
class GridWavefunction:
    """Complex amplitudes over the tensor grid, normalized so that
    ``sum |psi|^2 dx^n = 1``."""

    axis: GridAxis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim < 1 or amp.ndim > 4:
            raise InvalidInput("between 1 and 4 modes supported")
        if any(s != self.axis.points for s in amp.shape):
            raise InvalidInput("amplitude array shape must match the axis")
        norm2 = _norm2(amp, self.axis)
        if abs(norm2 - 1.0) > 1e-6:
            raise InvalidInput(f"wavefunction norm^2 is {norm2}, not 1")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_modes(self):
        return self.amplitudes.ndim


def _local_symplectic_spectrum(cm):
    n = cm.shape[0] // 2
    j = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    ev = np.abs(np.linalg.eigvals(j @ cm))
    ev.sort()
    return ev[::2]


def _norm2(amp, axis):
    """``sum |amp|^2 dx^k`` over the ``k`` axes of ``amp``, without a
    temporary of its size."""
    return float(np.vdot(amp, amp).real) * axis.spacing**amp.ndim


def _sparse(vectors):
    """One node vector per mode, shaped to broadcast over their tensor grid."""
    n = len(vectors)
    return [v.reshape((1,) * k + (-1,) + (1,) * (n - 1 - k)) for k, v in enumerate(vectors)]


def _pure_form(cm, dv, axis):
    """Check a pure state against the grid as :func:`wavefunction_from_pure`
    does and return ``(m, xbar, pbar)``, the terms of its exponent."""
    cm = np.asarray(cm, dtype=float)
    dv = np.asarray(dv, dtype=float)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
        raise InvalidInput("CM must be square with even dimension")
    n = cm.shape[0] // 2
    if n > 4:
        raise InvalidInput("at most 4 modes on the grid")
    if dv.shape != (2 * n,):
        raise InvalidInput("DV length must match the CM")
    spec = _local_symplectic_spectrum(cm)
    if np.abs(spec - 1.0).max() > 1e-6:
        raise InvalidInput("state is not pure")

    xbar = dv[0::2]
    pbar = dv[1::2]
    for i in range(n):
        sigma = np.sqrt(cm[2 * i, 2 * i] / 2.0)
        if xbar[i] - 6 * sigma < axis.lo or xbar[i] + 6 * sigma > axis.hi:
            raise GridTooSmall(
                f"mode {i}: need at least 6 sigma = {6 * sigma:.3f} around {xbar[i]:.3f}"
            )

    a = cm[0::2, 0::2]
    b = cm[0::2, 1::2]
    u = np.linalg.inv(a)
    v = -u @ b
    v = 0.5 * (v + v.T)
    return u + 1j * v, xbar, pbar


def _exponent(m, xbar, pbar, nodes):
    """The exponent ``-1/2 y^T M y + i pbar . x``, ``y = x - xbar``, over the
    tensor grid of ``nodes``, one node vector per mode; a vector of length 1
    pins its mode to that node.

    Every term spans at most two axes and is added in place into a zeroed
    array, so the output is the only full-size array.  A mode's own term
    ``i pbar_i x_i - 1/2 m_ii y_i^2`` rides along with the first cross term on
    its axis, which saves one pass over the output per mode.
    """
    n = len(nodes)
    xs = _sparse(nodes)
    ys = [x - xb for x, xb in zip(xs, xbar)]
    pending = {i: 1j * pbar[i] * xs[i] - 0.5 * m[i, i] * ys[i] ** 2 for i in range(n)}
    out = np.zeros(tuple(len(v) for v in nodes), dtype=complex)
    for i in range(n):
        for k in range(i + 1, n):
            cross = -0.5 * (m[i, k] + m[k, i]) * (ys[i] * ys[k])
            out += pending.pop(i, 0) + pending.pop(k, 0) + cross
    for term in pending.values():  # a single mode has no cross term
        out += term
    return out


def wavefunction_from_pure(cm, dv, axis):
    """Tabulate the wavefunction of a pure Gaussian state on the :class:`GridAxis` ``axis``.

    Raises ``InvalidInput`` for mixed states and ``GridTooSmall`` when the
    grid covers less than 6 standard deviations of some position marginal
    around its mean.
    """
    m, xbar, pbar = _pure_form(cm, dv, axis)
    psi = _exponent(m, xbar, pbar, [axis.nodes] * len(xbar))
    np.exp(psi, out=psi)
    psi /= np.sqrt(_norm2(psi, axis))
    return GridWavefunction(axis, psi)


def grid_overlap(a, b):
    """Inner product ``<a|b>`` by direct summation over the shared grid."""
    if a.axis != b.axis or a.n_modes != b.n_modes:
        raise InvalidInput("wavefunctions live on different grids")
    return complex(np.vdot(a.amplitudes, b.amplitudes) * a.axis.spacing**a.n_modes)


def _snap(axis, x):
    if not math.isfinite(x):
        raise InvalidInput(f"outcome {x} is not finite")
    i = int(round((x - axis.lo) / axis.spacing))
    if not 0 <= i < axis.points:
        raise InvalidInput(f"outcome {x} outside the grid")
    node = axis.nodes[i]
    if abs(node - x) > 1e-9:
        warnings.warn(f"outcome {x} snapped to grid node {node}")
    return i


def grid_condition_on_x(psi, measured_axes, outcomes):
    """Slice the amplitudes at the measured coordinates and renormalize.

    Renormalization is by a positive real constant, so relative phases
    between slices of one wavefunction stay physical.
    """
    axes = sorted(set(int(m) for m in measured_axes))
    if any(m < 0 or m >= psi.n_modes for m in axes):
        raise InvalidInput("measured axis out of range")
    if len(axes) == 0 or len(axes) == psi.n_modes:
        raise InvalidInput("measured axes must be a proper non-empty subset")
    outcomes = np.atleast_1d(np.asarray(outcomes, dtype=float))
    if outcomes.shape != (len(axes),):
        raise InvalidInput("need one outcome per measured axis")
    slicer = [slice(None)] * psi.n_modes
    for m, x in zip(axes, outcomes):
        slicer[m] = _snap(psi.axis, x)
    slab = psi.amplitudes[tuple(slicer)]
    norm = np.sqrt(_norm2(slab, psi.axis))
    if norm < 1e-12:
        raise OutcomeUnlikely(f"slice at {outcomes} has norm {norm}")
    return GridWavefunction(psi.axis, slab / norm)


def _momentum_apply(amp, axis, mode):
    # P psi = -i d/dx psi, spectrally accurate for grid-decayed states
    k = 2.0 * np.pi * np.fft.fftfreq(axis.points, d=axis.spacing)
    shape = [1] * amp.ndim
    shape[mode] = axis.points
    ft = np.fft.fft(amp, axis=mode)
    return np.fft.ifft(ft * (1j * k).reshape(shape), axis=mode) * -1j


def grid_moments(psi):
    """Estimate the CM and DV of a grid wavefunction.

    With ``R = (X1, P1, X2, P2, ...)`` applied to ``psi`` (positions by
    multiplication, momenta by FFT derivatives), ``dv_a = Re <psi|R_a psi>``
    and ``cm = 2 (Re <R_a psi|R_b psi> - dv_a dv_b)``: the real part of
    ``<R_a R_b>`` is the symmetrized moment.  Returns ``(cm, dv)`` in
    mode-major ordering with the vacuum-is-identity normalization.
    """
    n = psi.n_modes
    amp = psi.amplitudes
    r = []
    for i, x in enumerate(_sparse([psi.axis.nodes] * n)):
        r += [x * amp, _momentum_apply(amp, psi.axis, i)]
    dxn = psi.axis.spacing**n
    dv = np.array([np.vdot(amp, ra).real for ra in r]) * dxn
    gram = np.array([[np.vdot(ra, rb).real for rb in r] for ra in r]) * dxn
    return 2.0 * (gram - np.outer(dv, dv)), dv


def grid_sector_states(cm, dv, axis, x0):
    """The adversary's conditional states after postselection at the four
    sign combinations of ``(+-x0, +-x0)``, tabulated straight from the pure
    state, without the full grid.

    ``cm, dv`` is a 3- or 4-mode purification with the honest modes first and
    ``axis`` a :class:`GridAxis`.  Each sector is the 2D slice of the exponent
    with modes 0 and 1 pinned to their snapped nodes, normalized by its own
    norm.  Returns ``(weights, states)`` in the sector order ``++, --, +-, -+``:
    the sector probabilities given postselection, as ratios of squared slice
    norms, and the normalized conditional wavefunctions.  The global
    normalization cancels from both.  Raises ``OutcomeUnlikely`` when a
    slice has no support on the grid: its squared norm is below 1e-300 on
    the scale where the amplitude peaks at 1.
    """
    if not x0 > 0:
        raise InvalidInput("x0 must be positive")
    m, xbar, pbar = _pure_form(cm, dv, axis)
    if len(xbar) < 3:
        raise InvalidInput("need a purification with at least one adversary mode")
    nodes = axis.nodes
    pinned = {x: nodes[[_snap(axis, x)]] for x in (x0, -x0)}
    norms2 = []
    slices = []
    for sa, sb in ((x0, x0), (-x0, -x0), (x0, -x0), (-x0, x0)):
        slab = _exponent(m, xbar, pbar, [pinned[sa], pinned[sb]] + [nodes] * (len(xbar) - 2))
        slab = np.exp(slab[0, 0], out=slab[0, 0])
        w = _norm2(slab, axis)
        if w < 1e-300:
            raise OutcomeUnlikely(f"sector ({sa}, {sb}) has no support on the grid")
        norms2.append(w)
        slices.append(GridWavefunction(axis, slab / np.sqrt(w)))
    return np.array(norms2) / sum(norms2), slices


def grid_reduced_spectrum(weights, states):
    """Eigenvalues of the effective postselected two-qubit state, from the
    sector weights and conditional states of :func:`grid_sector_states`.

    ``rho[s, t] = c_s c_t <e_t|e_s>`` with ``c_s = sqrt(weights[s])``.
    Ascending eigenvalues are returned.
    """
    if len(weights) != 4 or len(states) != 4:
        raise InvalidInput("need the four sectors of grid_sector_states")
    c = np.sqrt(np.asarray(weights, dtype=float))
    rho = np.empty((4, 4), dtype=complex)
    for s in range(4):
        for t in range(4):
            rho[s, t] = c[s] * c[t] * grid_overlap(states[t], states[s])
    w, _ = matkit.eigh(rho)
    return w
