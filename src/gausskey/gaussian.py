"""Covariance-matrix calculus for n-mode Gaussian states.

Conventions used throughout the package:

* Quadratures are ordered mode-major, ``(X1, P1, X2, P2, ...)``.
* The symplectic form is ``J_n = diag(J, ..., J)`` with ``J = [[0, 1], [-1, 0]]``.
* The vacuum covariance matrix (CM) is the identity, so the scalar variance
  of a quadrature is ``cm_entry / 2``.
* A CM is physical iff the Hermitian matrix ``cm + i J_n`` is positive
  semidefinite.

States are value objects: a CM, a displacement vector (DV), and nothing else.
All operations are pure functions.  In the symmetric two-mode family every
threshold decay ``exp(-k x0^2)`` is a row of the per-state :func:`_decay_table`
and is applied by :func:`_log_decay` alone, which also owns the overflow of
``x0^2`` to ``inf``: no other module sets numpy's error state.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matkit
from .errors import IllConditioned, InvalidInput

_PHYS_TOL = 1e-9

# Phase convention for overlaps of displaced copies of one pure state.  The
# sign is pinned by the position-grid oracle: wavefunctions built with the
# exp(i * p_mean . x) factor give <psi_d1|psi_d2> a phase of
# exp(+i/2 * d1.J.d2) whenever the per-state self phases p_mean . x_mean
# vanish, which covers every use in this package.
_OVERLAP_PHASE_SIGN = +1.0


@lru_cache(maxsize=None)
def _j(n):
    j = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    j.flags.writeable = False
    return j


def xxpp_indices(n):
    """Index array mapping mode-major order to (X..X, P..P) order.

    ``m[np.ix_(idx, idx)]`` re-expresses a mode-major matrix in the
    position-block/momentum-block basis.  ``n``, the number of modes, is read
    by :func:`~gausskey.matkit._int`.
    """
    n = matkit._int(n, "n must be a nonnegative integer")
    return np.r_[0 : 2 * n : 2, 1 : 2 * n : 2]


def _check_cm(cm):
    """``cm`` read by :func:`~gausskey.matkit._reals`, checked square, of even
    dimension and symmetric to 1e-12, and returned symmetrized."""
    cm = matkit._reals(cm, "cm has non-finite entries")
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
        raise InvalidInput("cm must be square with even dimension")
    if np.abs(cm - cm.T).max() > 1e-12 * (1.0 + np.abs(cm).max()):
        raise InvalidInput("cm must be symmetric")
    return 0.5 * (cm + cm.T)


@dataclass(frozen=True)
class GaussianState:
    """An n-mode Gaussian state: covariance matrix and displacement vector."""

    cm: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        cm = _check_cm(self.cm)
        dv = matkit._reals(self.dv, "dv has non-finite entries").copy()
        if dv.shape != (cm.shape[0],):
            raise InvalidInput("dv length must match the CM dimension")
        cm.flags.writeable = False
        dv.flags.writeable = False
        object.__setattr__(self, "cm", cm)
        object.__setattr__(self, "dv", dv)

    @property
    def n_modes(self):
        return self.cm.shape[0] // 2


def is_physical(cm):
    """True iff ``cm + i J`` has no eigenvalue below ``-1e-9``."""
    cm = _check_cm(cm)
    j = _j(cm.shape[0] // 2)
    w = np.linalg.eigvalsh(cm + 1j * j)
    return bool(w.min() >= -_PHYS_TOL)


def _mode_signs(n, modes_of_a):
    """``+1`` per quadrature, ``-1`` on the momenta of ``modes_of_a``, a list of
    mode indices in ``[0, n)`` read by :func:`~gausskey.matkit._indices`."""
    signs = np.ones(2 * n)
    for m in matkit._indices(modes_of_a, "modes must be indices in [0, n_modes)", n):
        signs[2 * m + 1] = -1.0
    return signs


def partial_transpose(cm, modes_of_a):
    """Partial transposition at the CM level: flip the momentum signs of
    the given modes, a list of integer mode indices; an empty one flips
    nothing."""
    cm = _check_cm(cm)
    t = _mode_signs(cm.shape[0] // 2, modes_of_a)
    return (t[:, None] * cm) * t[None, :]


def is_nppt(cm, modes_of_a):
    """True iff the partial transpose over ``modes_of_a`` is unphysical."""
    return not is_physical(partial_transpose(cm, modes_of_a))


def symplectic_spectrum(cm):
    """Symplectic eigenvalues, ascending, each listed once.

    They are the absolute values of the eigenvalues of ``i J cm``, which come
    in +/- pairs.
    """
    cm = _check_cm(cm)
    j = _j(cm.shape[0] // 2)
    ev = np.abs(np.linalg.eigvals(j @ cm))
    ev.sort()
    return ev[::2].copy()


@dataclass(frozen=True)
class SymplecticDiag:
    """Williamson normal form: ``s.T @ cm @ s`` is diagonal with the
    symplectic eigenvalues ``spectrum`` repeated pairwise, ``s`` symplectic."""

    spectrum: np.ndarray
    s: np.ndarray


def williamson(cm):
    """Williamson diagonalization of a positive definite CM.

    Returns ``SymplecticDiag`` with ``spectrum`` ascending.  The symplectic
    matrix is built from the antisymmetric normal form of
    ``cm^{-1/2} J cm^{-1/2}``.  Its per-mode rotation freedom is left unfixed:
    ``s`` is any valid choice, which :func:`purify` does not depend on.
    """
    cm = _check_cm(cm)
    n = cm.shape[0] // 2
    w, v = np.linalg.eigh(cm)
    if w.min() < 1e-10:
        raise IllConditioned("CM is numerically singular")
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    k = inv_sqrt @ _j(n) @ inv_sqrt
    k = 0.5 * (k - k.T)
    hb, hv = np.linalg.eigh(1j * k)
    # i k is Hermitian with a +/- paired spectrum; the symplectic eigenvalues
    # are 1/b over its positive half, so descending b gives ascending spectrum
    b, vecs = hb[n:][::-1], hv[:, n:][:, ::-1]
    o = np.empty((2 * n, 2 * n))
    o[:, 0::2] = math.sqrt(2.0) * vecs.imag
    o[:, 1::2] = math.sqrt(2.0) * vecs.real
    spectrum = 1.0 / b
    s = (inv_sqrt @ o) * np.repeat(np.sqrt(spectrum), 2)[None, :]
    return SymplecticDiag(spectrum, s)


def purify(state):
    """Extend an n-mode state to a pure 2n-mode state whose partial trace
    over the added modes returns the input exactly.

    The added block carries the momentum-reflected copy of the input CM and
    the off-diagonal coupling ``J S E S^{-1} theta`` with
    ``E = diag(sqrt(spectrum_k^2 - 1))`` repeated pairwise.  ``E`` is constant
    on each mode, so the coupling does not depend on the Williamson gauge.
    Modes within 1e-9 of pure get ``E = 0`` exactly, so rounding can never
    produce sqrt of a negative number and a pure input couples by exactly 0.
    An output more than 1e-6 from pure raises :class:`IllConditioned`.
    """
    n = state.n_modes
    wd = williamson(state.cm)
    if wd.spectrum.min() < 1.0 - _PHYS_TOL:
        raise InvalidInput("state is unphysical (symplectic eigenvalue below 1)")
    theta = np.diag(_mode_signs(n, range(n)))
    e = np.sqrt(np.clip(np.repeat(wd.spectrum, 2) ** 2 - 1.0, 0.0, None))
    e[np.repeat(wd.spectrum, 2) <= 1.0 + _PHYS_TOL] = 0.0
    c = _j(n) @ wd.s @ np.diag(e) @ np.linalg.inv(wd.s) @ theta
    cm = np.block([[state.cm, c], [c.T, theta @ state.cm @ theta]])
    if np.abs(symplectic_spectrum(cm) - 1.0).max() > 1e-6:
        raise IllConditioned("purification is not pure (symplectic spectrum deviates from 1)")
    dv = np.concatenate([state.dv, theta @ state.dv])
    return GaussianState(cm, dv)


def _in_units(*arrays):
    """``k`` and the arrays divided by ``2^k``, with ``k`` putting their
    largest entry in ``[1, 2)``.  Scaling by a power of two is exact, so sums
    and products of the scaled arrays round as the originals' would, but
    cannot overflow."""
    k = math.frexp(float(max(np.abs(a).max() for a in arrays)))[1] - 1
    return k, [np.ldexp(a, -k) for a in arrays]


@dataclass(frozen=True)
class ConditionalGaussian:
    """A Gaussian state of the unmeasured modes after ideal X homodyne.

    The CM does not depend on the outcomes; the DV is linear in them.
    """

    state: GaussianState


def condition_on_x(state, measured_modes, outcomes):
    """Condition a Gaussian state on ideal X-homodyne outcomes.

    ``measured_modes`` is a proper, non-empty subset of modes, listed by
    integer index (``2.0`` is not one); ``outcomes`` holds one X value per
    measured mode.  The remaining state is

        cm' = G_rr - G_rx G_xx^-1 G_xr
        dv' = dv_r + G_rx G_xx^-1 (x - dv_x)

    with ``x`` the X quadratures of the measured modes and ``r`` every
    quadrature of the others.  ``G_xx`` is a principal block of the CM, so
    it is positive definite for a physical state; a singular one raises
    :class:`IllConditioned`.  The displacement is computed in the units of
    :func:`_in_units`; one past the float range raises :class:`InvalidInput`.
    """
    n = state.n_modes
    modes = matkit._indices(measured_modes, "measured modes must be indices in [0, n_modes)", n)
    if len(modes) == 0 or len(modes) == n:
        raise InvalidInput("measured modes must be a proper non-empty subset")
    outcomes = matkit._reals(outcomes, "outcomes must be finite")
    if outcomes.shape != (len(modes),):
        raise InvalidInput("need exactly one outcome per measured mode")

    x_idx = np.array([2 * m for m in modes])
    r_idx = np.array([i for i in range(2 * n) if i // 2 not in modes])
    g_rx = state.cm[np.ix_(r_idx, x_idx)]
    try:
        gain = np.linalg.solve(state.cm[np.ix_(x_idx, x_idx)], g_rx.T).T
    except np.linalg.LinAlgError as exc:
        raise IllConditioned("measured X block of the CM is singular") from exc

    cm_c = state.cm[np.ix_(r_idx, r_idx)] - gain @ g_rx.T
    cm_c = 0.5 * (cm_c + cm_c.T)
    k, (outcomes, dv) = _in_units(outcomes, state.dv)
    dv_c = dv[r_idx] + gain @ (outcomes - dv[x_idx])
    if math.frexp(float(np.abs(dv_c).max()))[1] + k > 1024:
        raise InvalidInput("conditioned displacement exceeds the float range")
    return ConditionalGaussian(GaussianState(cm_c, np.ldexp(dv_c, k)))


def pure_overlap(cm, d1, d2):
    """Overlap of two displaced copies of one pure Gaussian state.

    ``|result|^2 = exp(-1/2 delta . cm^{-1} . delta)`` with ``delta = d2 - d1``
    and a phase of ``exp(+i/2 d1 . J . d2)`` in the grid-oracle convention
    (see module constant), taken as ``d1 . J . delta`` since ``d1 . J . d1 = 0``,
    so it is exactly 1 when ``d1 == d2``.  The quadratic forms are taken in
    the units of :func:`_in_units` and scaled back in plain floats, which
    overflow to ``inf`` quietly; ``exp(-inf + i phase)`` is exactly 0 for
    every phase, an infinite one included.  ``cm``, ``d1`` and ``d2`` are
    read by :func:`~gausskey.matkit._reals`, so a non-finite displacement
    raises :class:`InvalidInput` rather than giving NaN.
    """
    cm = _check_cm(cm)
    if np.abs(symplectic_spectrum(cm) - 1.0).max() > 1e-6:
        raise InvalidInput("CM is not pure (symplectic spectrum deviates from 1)")
    d1, d2 = (matkit._reals(d, "displacements must be finite") for d in (d1, d2))
    if d1.shape != (cm.shape[0],) or d2.shape != (cm.shape[0],):
        raise InvalidInput("displacement length must match the CM dimension")
    k, (u1, u2) = _in_units(d1, d2)
    delta = u2 - u1
    quad = float(delta @ np.linalg.solve(cm, delta))
    phase = _OVERLAP_PHASE_SIGN * 0.5 * float(u1 @ _j(cm.shape[0] // 2) @ delta)
    s = 2.0**k
    return cmath.exp(complex(-0.25 * quad * s * s, phase * s * s))


@dataclass(frozen=True)
class SymmetricStateParams:
    """The symmetric two-mode family: equal local variances ``lam`` on both
    modes and quadrature correlations ``diag(cx, -cp)`` between them.

    Only physical states can be built.  The closed-form test
    ``lam^2 - cx*cp - 1 >= lam*(cx - cp)`` is evaluated in the factored form
    ``(lam - cx)(lam + cp) >= 1``, which needs no squares; ``lam + cp`` can
    still overflow, and at ``lam == cx`` that makes the product NaN, so only
    a product known to pass is accepted.  It allows the same -1e-9 band as
    the matrix-level :func:`is_physical`, so boundary states built from
    rounded square roots stay inside the family.  Each parameter must be a
    finite real number (:func:`~gausskey.matkit._finite`); a string or an
    array is refused like NaN.
    """

    lam: float
    cx: float
    cp: float

    def __post_init__(self):
        if not matkit._finite(self.lam, self.cx, self.cp):
            raise InvalidInput("parameters must be finite")
        if self.lam < 0 or not self.cx >= self.cp >= 0:
            raise InvalidInput("need lam >= 0 and cx >= cp >= 0")
        if not ((self.lam - self.cx) * (self.lam + self.cp) - 1.0 >= -_PHYS_TOL):
            raise InvalidInput(f"unphysical parameters {self}")


def npt_margin(lam, cx, cp):
    """Closed-form entanglement (NPPT) margin ``1 - (lam - cx)(lam - cp)``,
    positive exactly on the NPPT states: ``lam^2 + cx*cp - 1 < lam*(cx + cp)``
    factored, elementwise over floats or arrays.

    It is also the individual attack's key margin ``r > q_same`` of
    :func:`symmetric_exponents`.  With ``m = lam - cx`` and ``s = lam + cx``,
    ``r = 4 cx/(m s)`` and ``q_same = 2(lam - cp) - 2/s``; since
    ``4 cx + 2m = 2s``, ``r - q_same = 2(1 - (lam - cx)(lam - cp))/(lam - cx)``.
    Every state the family admits has ``lam > cx``, the -1e-9 band included:
    it passed ``(lam - cx)(lam + cp) >= 1 - 1e-9 > 0`` with ``lam + cp >= 0``
    (see :class:`SymmetricStateParams`).  So the denominator is positive and
    the sign of the margin is the verdict.  Float subtraction is exact in
    sign, so ``margin > 0`` is ``(lam - cx)(lam - cp) < 1`` bit for bit.
    """
    return 1.0 - (lam - cx) * (lam - cp)


def npt_symmetric(p):
    """Closed-form NPPT test of the state: :func:`npt_margin` is positive."""
    return bool(npt_margin(p.lam, p.cx, p.cp) > 0.0)


def squared_overlap_margin(lam, cx, cp):
    """Closed-form squared-overlap key margin
    ``lam - (lam - cp)(lam - cx)(lam + cx)``, positive exactly where
    ``r > 2 q_same`` of :func:`symmetric_exponents`, i.e.
    ``eps/(1-eps) < |<e_++|e_-->|^2`` at every nonzero threshold;
    elementwise over floats or arrays.

    With ``m``, ``s`` as in :func:`npt_margin`, ``4 cx + 4m = 4 lam``, so
    ``r - 2 q_same = 4(lam - (lam - cp)(lam - cx)(lam + cx))/((lam - cx)(lam + cx))``,
    whose denominator is positive because ``lam > cx``.  The margin's zero set
    is the cubic ``(lam - cp)(lam^2 - cx^2) = lam``.  ``lam + cx`` may round to
    ``inf`` for a huge state; the product is then ``inf`` and the margin
    ``-inf``, never NaN, as ``lam - cp >= lam - cx > 0``.
    """
    return lam - (lam - cp) * ((lam - cx) * (lam + cx))


def squared_overlap_symmetric(p):
    """Closed-form squared-overlap key condition of the state:
    :func:`squared_overlap_margin` is positive."""
    return bool(squared_overlap_margin(p.lam, p.cx, p.cp) > 0.0)


def symmetric_exponents(p):
    """Per-state exponents ``(r, q_same, q_diff)`` of the family's closed
    forms: ``eps/(1-eps) = exp(-r x0^2)`` for the postselection error at
    threshold ``x0``, and ``|<e_++|e_-->| = exp(-q_same x0^2)``,
    ``|<e_+-|e_-+>| = exp(-q_diff x0^2)`` for the adversary's conditional
    states; a mixed pair (one concordant, one discordant sign pair) overlaps
    as ``exp(-q_mix x0^2)`` with ``q_mix = (q_same + q_diff)/4``.

    In the modes ``(A +- B)/sqrt(2)``, read at ``x_+- = (x_A +- x_B)/sqrt(2)``,
    the state is a product of single-mode states with CM ``diag(Vx, Vp)`` =
    ``(lam + cx, lam - cp)`` and ``(lam - cx, lam + cp)``.  The pair
    ``(x_A, x_B)`` has covariance ``gx/2``, ``gx = [[lam, cx], [cx, lam]]``, so
    discordant over concordant density is ``exp(-2x0^2/(lam-cx) + 2x0^2/(lam+cx))``
    and ``r = 4 cx / ((lam - cx)(lam + cx))``.  Per mode, the adversary's states
    conditioned on outcomes ``x, x'`` overlap like the position-space density
    matrix ``rho(x, x') ~ exp(-(x + x')^2/(4 Vx) - Vp (x - x')^2/4)``, i.e.
    ``exp(-(x - x')^2 (Vp - 1/Vx)/4)`` once normalized, for any purification.
    ``++`` against ``--`` moves ``x_+`` by ``2 sqrt(2) x0``, giving
    ``q_same = 2(lam - cp) - 2/(lam + cx)``; ``+-`` against ``-+`` moves ``x_-``
    alike, ``q_diff = 2(lam + cp) - 2/(lam - cx)``; a mixed pair moves both by
    ``sqrt(2) x0``, hence ``q_mix``.

    The generic route (purify, condition on the four outcomes, overlap) agrees:
    its conditional CM is ``blockdiag(gx, gx^-1)`` at every outcome and its
    displacements are momentum-only and linear in ``(x_A, x_B)``, so the Gram
    matrix is real and Gaussian in ``x0``.  Tests pin the two routes together.
    """
    minus, plus = p.lam - p.cx, p.lam + p.cx
    r = 4.0 * p.cx / (minus * plus)
    return r, 2.0 * (p.lam - p.cp) - 2.0 / plus, 2.0 * (p.lam + p.cp) - 2.0 / minus


def _decay_rows(k):
    """The per-state half of the decay ``exp(-k x0^2)``: the rows ``-k`` and
    the mask ``k > 0``.  Overlaps never exceed 1, so a negative ``k`` is
    rounding at the pure boundary or the -1e-9 physicality band; taken as is
    it would blow up at huge thresholds, so the mask drops it."""
    return -k, k > 0


def _decay_table(p, ndim=0):
    """The :func:`_decay_rows` of every decay the family's closed forms read,
    ``k = r, q_same, q_diff, 2 q_mix, q_same/2, q_diff/2, q_mix``, shaped
    ``(7, 1, ...)`` to broadcast against ``ndim``-dimensional thresholds."""
    r, q_same, q_diff = symmetric_exponents(p)
    q_mix = 0.25 * (q_same + q_diff)
    k = np.array([r, q_same, q_diff, 2.0 * q_mix, 0.5 * q_same, 0.5 * q_diff, q_mix])
    return _decay_rows(k.reshape((7,) + (1,) * ndim))


def _thresholds(x0):
    """The package's one threshold rule, on a whole array read by
    :func:`~gausskey.matkit._reals`: each entry is a finite nonzero number.
    Its sign only relabels the four sign sectors.  Returns ``x0`` as floats."""
    x0 = matkit._reals(x0, "x0 must be one finite nonzero number")
    if not x0.all():
        raise InvalidInput("x0 must be one finite nonzero number")
    return x0


def _check_x0(x0):
    """:func:`_thresholds` for one threshold, returned as a float."""
    x0 = _thresholds(x0)
    if x0.ndim:
        raise InvalidInput("x0 must be one finite nonzero number")
    return float(x0)


def _decays_at(p, x0):
    """The seven decays of :func:`_decay_table` at one threshold, as floats."""
    return np.exp(_log_decay(_decay_table(p), _check_x0(x0))).tolist()


def _log_decay(rows, x0):
    """The per-threshold half: ``-k x0^2`` from :func:`_decay_rows`, broadcast
    against ``x0``; 0 where ``k <= 0`` or ``x0^2`` underflows, ``k = inf``
    included, where the plain product would be NaN.  ``x0^2`` and the product
    may overflow to ``inf``, as meant, so this is the one place that silences
    numpy's overflow warning; callers need no ``np.errstate``."""
    neg_k, positive = rows
    with np.errstate(over="ignore"):
        x2 = np.square(x0, dtype=float)
        mask = positive & (x2 > 0)
        return np.multiply(neg_k, x2, out=np.zeros(mask.shape), where=mask)


def symmetric_embed(p):
    """The two-mode GaussianState carrying the symmetric family parameters."""
    cm = np.array(
        [
            [p.lam, 0.0, p.cx, 0.0],
            [0.0, p.lam, 0.0, -p.cp],
            [p.cx, 0.0, p.lam, 0.0],
            [0.0, -p.cp, 0.0, p.lam],
        ]
    )
    return GaussianState(cm, np.zeros(4))
