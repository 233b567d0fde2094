"""Eavesdropper-side analysis and key-rate bounds.

Given symmetric-family parameters, the adversary holds the purifying modes of
the state.  After the honest parties' postselected X measurements she is left
with one of four pure two-mode Gaussian states, keyed by the outcome signs.
Their pairwise overlaps drive every security statement here:

* individual attack: key iff ``eps/(1-eps) < |<e_++|e_-->|``,
* coherent attack on the distillation block: same with the overlap squared,
* coherent attack on finitely many symbols before reconciliation: same
  threshold as the individual attack,
* general one-way bound: ``R >= (1 - h(eps)) - S(rho)`` with ``rho`` the
  effective two-qubit state traced over the adversary.

On this family the error ratio and every overlap are Gaussian in the
threshold, so the three per-state exponents of
:func:`~gausskey.gaussian.symmetric_exponents`, applied by the masked decay
beside them, give all of the above in closed form, and the overlap conditions
do not depend on the threshold.  That decay takes care of a threshold whose
square overflows, so nothing here touches numpy's error state.
:func:`eve_ensemble` keeps the generic route as the tests' reference.

Frontier scans locate, per correlation strength, the largest local variance
that still admits a secure threshold choice.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import InvalidInput
from .gaussian import (
    SymmetricStateParams,
    _decay_rows,
    _log_decay,
    condition_on_x,
    npt_symmetric,
    pure_overlap,
    purify,
    symmetric_embed,
    symmetric_exponents,
)

SIGN_ORDER = ("++", "--", "+-", "-+")

INDIVIDUAL = "individual"
FINITE_COHERENT = "finite-coherent"
COHERENT_AD = "coherent-ad"
GENERAL = "general"
ATTACK_KINDS = (INDIVIDUAL, FINITE_COHERENT, COHERENT_AD, GENERAL)

# power of |<e_++|e_-->| in each overlap-based key condition
_OVERLAP_POWER = {INDIVIDUAL: 1, FINITE_COHERENT: 1, COHERENT_AD: 2}

# the general attack's key condition is a one-way rate above this many bits
# per accepted symbol at some threshold; rates within rounding noise
# (~1e-16) of zero must not read as key
_RATE_FLOOR = 1e-12

# exp(-a) is exactly 0 in double precision once a >= 746
_UNDERFLOW_EXPONENT = 746.0


@dataclass(frozen=True)
class EveEnsemble:
    """The four conditional adversary states and their overlap Gram matrix,
    ordered like :data:`SIGN_ORDER`."""

    states: dict
    gram: np.ndarray


@dataclass(frozen=True)
class Effective2x2:
    """Effective two-qubit state of the honest parties after postselection,
    in the basis ordered like :data:`SIGN_ORDER`."""

    rho: np.ndarray
    eps_ab: float


@dataclass(frozen=True)
class SecurityReport:
    nppt: bool
    individual_secure: bool
    coherent_ad_secure: bool
    best_x0: float
    rate_lb: float
    eps_ab: float
    eve_overlap: float


def _sign_outcomes(key, x0):
    return np.array([x0 if s == "+" else -x0 for s in key])


def _check_x0(x0):
    x0 = np.asarray(x0)
    if not (np.isfinite(x0) & (x0 != 0)).all():
        raise InvalidInput("x0 must be nonzero")


def eve_ensemble(p, x0):
    """Purify the embedded state, condition the purifying modes on the four
    sign combinations of ``(x_A, x_B) = (+-x0, +-x0)``, and collect the
    pairwise pure-state overlaps.

    This is the generic reference route; the closed forms of
    :func:`~gausskey.gaussian.symmetric_exponents` reproduce its Gram
    matrix.  A negative ``x0`` relabels the four sectors and leaves every
    derived quantity invariant; zero is rejected.
    """
    _check_x0(x0)
    pur = purify(symmetric_embed(p))
    states = {
        key: condition_on_x(pur, (0, 1), _sign_outcomes(key, x0)) for key in SIGN_ORDER
    }
    cm = states["++"].state.cm
    dvs = [states[key].state.dv for key in SIGN_ORDER]
    gram = np.empty((4, 4), dtype=complex)
    for i in range(4):
        gram[i, i] = 1.0
        for k in range(i + 1, 4):
            ov = pure_overlap(cm, dvs[i], dvs[k])
            gram[i, k] = ov
            gram[k, i] = np.conj(ov)
    return EveEnsemble(states, gram)


def eve_overlap(p, x0):
    """``|<e_++|e_-->| = exp(-q_same x0^2)`` for the given parameters and
    threshold."""
    _check_x0(x0)
    return float(np.exp(_log_decay(_decay_rows(symmetric_exponents(p)[1]), x0)))


def _secure(p, attack):
    """Whether the state admits key against the attack kind.

    The general attack needs a one-way rate above :data:`_RATE_FLOOR` at some
    threshold.  The others need ``eps/(1-eps) < |<e_++|e_-->|**power``; both
    sides are ``exp(-k x0^2)``, so that is ``r > power * q_same`` at every
    nonzero threshold."""
    if attack == GENERAL:
        return optimize_rate(p)[1] > _RATE_FLOOR
    if attack not in _OVERLAP_POWER:
        raise InvalidInput(f"unknown attack kind {attack!r}")
    r, q_same, _ = symmetric_exponents(p)
    return bool(r > _OVERLAP_POWER[attack] * q_same)


def coherent_ad_secure(p, x0):
    """Key condition when the adversary measures a whole distillation block
    coherently: ``eps/(1-eps) < |<e_++|e_-->|^2``; the same at every nonzero
    ``x0``."""
    _check_x0(x0)
    return _secure(p, COHERENT_AD)


def effective_state(p, x0):
    """Two-qubit state shared by the honest parties after postselection.

    Amplitudes ``sqrt((1-eps)/2)`` sit on the concordant outcomes and
    ``sqrt(eps/2)`` on the discordant ones; tracing out the adversary leaves
    ``rho[s, t] = c_s c_t <e_t|e_s>``, with the real Gram matrix
    ``exp(-x0^2 Q)``: ``Q`` holds ``q_same`` on the ``(++, --)`` pair,
    ``q_diff`` on ``(+-, -+)``, ``q_mix`` on the mixed pairs and 0 on the
    diagonal.  This matrix route is the reference for the closed-form
    spectrum of :func:`rate_lower_bound`.
    """
    _check_x0(x0)
    r, q_same, q_diff = symmetric_exponents(p)
    k = np.array([r, q_same, q_diff, 0.25 * (q_same + q_diff)])
    g_r, g_same, g_diff, g_mix = np.exp(_log_decay(_decay_rows(k), x0)).tolist()
    gram = np.full((4, 4), g_mix)
    gram[0, 1] = gram[1, 0] = g_same
    gram[2, 3] = gram[3, 2] = g_diff
    np.fill_diagonal(gram, 1.0)
    eps = g_r / (1.0 + g_r)
    c = np.sqrt(np.array([(1 - eps) / 2, (1 - eps) / 2, eps / 2, eps / 2]))
    return Effective2x2((c[:, None] * c[None, :]) * gram, eps)


def _rate_rows(p, ndim=1):
    """The per-state part of :func:`rate_lower_bound`: the decay rows of
    ``k = r, q_same, q_diff, 2 q_mix, q_same/2, q_diff/2``, shaped
    ``(6, 1, ...)`` to broadcast against ``ndim``-dimensional thresholds.
    Each numpy call of :func:`_rate_kernel` then covers all six rows, as its
    overhead dominates the short arrays."""
    r, q_same, q_diff = symmetric_exponents(p)
    q_mix = 0.25 * (q_same + q_diff)
    k = np.array([r, q_same, q_diff, 2.0 * q_mix, 0.5 * q_same, 0.5 * q_diff])
    return _decay_rows(k.reshape((6,) + (1,) * ndim))


def _rate_kernel(rows, x0):
    """The per-threshold part of :func:`rate_lower_bound`: the rate at the
    nonzero thresholds ``x0`` from the state's :func:`_rate_rows`.  Its six
    weights need no check or clip, being finite and ``>= 0`` for every state
    the family admits: :func:`~gausskey.gaussian._log_decay` keeps each
    log-decay in ``[-inf, 0]``, so each ``g`` and ``1 - g`` (``expm1``) is in
    ``[0, 1]``, ``eps`` in ``[0, 1/2]``, ``a^2`` in ``[1/4, 1/2]``, ``b^2`` in
    ``[0, 1/4]``, ``lambda_+ >= a^2 (1 + g_same) >= 1/4`` and the determinant
    is ``a^2 b^2`` times a sum of squares."""
    neg = _log_decay(rows, x0)
    g, one_minus_g = np.exp(neg), -np.expm1(neg[1:4])
    eps = g[0] / (1.0 + g[0])
    one_minus_eps = 1.0 - eps
    a2, b2 = 0.5 * one_minus_eps, 0.5 * eps
    big, small = a2 * (1.0 + g[1]), b2 * (1.0 + g[2])
    top = 0.5 * (big + small) + np.sqrt(0.25 * (big - small) ** 2 + 4.0 * a2 * b2 * g[3])
    det = a2 * b2 * (one_minus_g[2] ** 2 + (g[4] - g[5]) ** 2)
    # the spectrum and (eps, 1 - eps), summed in entropy_bits' and binary_entropy's order
    w = np.array([a2 * one_minus_g[0], b2 * one_minus_g[1], top, det / top, eps, one_minus_eps])
    s0, s1, s2, s3, e0, e1 = matkit._xlog2x(w)
    return (1.0 + (e0 + e1)) + (((s0 + s1) + s2) + s3)


def rate_lower_bound(p, x0):
    """One-way key-rate lower bound ``(1 - h(eps)) - S(rho)`` in bits per
    accepted symbol, elementwise over an array of thresholds (a float for a
    scalar).  Negative values certify nothing at that threshold and are
    reported as-is.

    In the basis ``(e_++ +- e_--)/sqrt(2), (e_+- +- e_-+)/sqrt(2)`` the state
    of :func:`effective_state` splits into the eigenvalues
    ``a^2 (1 - g_same)`` and ``b^2 (1 - g_diff)`` and the block
    ``[[a^2 (1 + g_same), 2ab g_mix], [2ab g_mix, b^2 (1 + g_diff)]]``, with
    ``a^2 = (1 - eps)/2``, ``b^2 = eps/2`` and ``g = exp(-q x0^2)``.  Since
    ``g_mix^2 = sqrt(g_same g_diff)``, the block's determinant is
    ``a^2 b^2 ((1 - sqrt(g_same g_diff))^2 + (sqrt(g_same) - sqrt(g_diff))^2)``.
    The ``1 - g`` terms use ``expm1`` and the small root is
    ``det / lambda_+``, so no eigenvalue is a difference of near-equal terms.
    """
    _check_x0(x0)
    rate = _rate_kernel(_rate_rows(p, np.ndim(x0)), x0)
    return float(rate) if np.ndim(rate) == 0 else rate


def _best_rate(rows, x0_max):
    """:func:`optimize_rate` on a state's :func:`_rate_rows`."""
    if not (np.isfinite(x0_max) and x0_max > 0):
        raise InvalidInput("x0_max must be finite and positive")
    # the determinant's terms decay as exp(-q x0^2 / 2) for q_same and q_diff;
    # a term with k = inf is 0 at every threshold; two roots, because 746 / k
    # overflows for k below 4e-306
    r, _, _, k_mix, k_same, k_diff = (-v for v in rows[0].ravel().tolist())
    k = [v for v in (r, k_same, k_diff, k_mix) if 0.0 < v < math.inf]
    hi = min(x0_max, math.sqrt(_UNDERFLOW_EXPONENT) / math.sqrt(min(k))) if k else x0_max
    lo = 1e-6 * hi
    if not 0.0 < lo < hi:
        raise InvalidInput(
            f"x0_max={x0_max!r} leaves no positive search range [1e-6 x0_max, x0_max]"
        )
    x, neg = matkit.minimize_scalar(lambda xs: -_rate_kernel(rows, xs), lo, hi, tol=1e-6)
    return float(x), float(-neg)


def optimize_rate(p, x0_max=5.0):
    """Maximize :func:`rate_lower_bound` over thresholds in ``(0, x0_max]``.

    Repeated 64-point scans of the vectorized rate, each over the best bracket
    of the last; the rate is smooth in the threshold but not proven unimodal,
    hence the scans.  The search covers ``[1e-6 hi, hi]``, where ``hi`` is
    ``x0_max`` capped at ``sqrt(746 / k_min)``, ``k_min`` the smallest positive
    coefficient of an ``exp(-k x0^2)`` in the rate (``r``, ``q_same/2``,
    ``q_diff/2`` and ``2 q_mix``).  Past the cap every such term underflows to
    0, so the rate is exactly constant there and a huge ``x0_max`` cannot push
    the search past the optimum.  A subnormal ``x0_max``, for which ``1e-6 hi``
    underflows to 0, raises ``InvalidInput``.  Returns ``(best_x0, best_rate)``.
    The state's :func:`_rate_rows` are built once; each scan runs only
    :func:`_rate_kernel`.
    """
    return _best_rate(_rate_rows(p), x0_max)


def any_x0_secure(p, x0_grid=None, attack=INDIVIDUAL):
    """Whether some threshold on the grid satisfies the overlap-based key
    condition of the given attack model.  The condition does not depend on
    the threshold, so the grid is only validated."""
    if x0_grid is not None and (np.size(x0_grid) == 0 or not np.min(x0_grid) > 0):
        raise InvalidInput("x0 grid must be positive")
    if attack == GENERAL:
        raise InvalidInput("use optimize_rate for the general one-way bound")
    return _secure(p, attack)


def frontier_rails(c):
    """The rails of the ``cx = cp = c`` slice, ``(sqrt(1 + c^2), c + 1)``:
    physical at or above the first, entangled below the second.  Plain-float
    arithmetic, so a huge ``c`` gives ``inf`` rather than a numpy warning."""
    c = float(c)
    return math.sqrt(1.0 + c * c), c + 1.0


def security_frontier(c_grid, attack=INDIVIDUAL):
    """Critical local variance per correlation value on the ``cx = cp = c``
    slice of the family.

    Bisection between the rails of :func:`frontier_rails`, the lower one
    lifted by a relative 1e-12 margin, finds where the attack's key
    condition (:func:`_secure`) flips, to a width of 1e-6.  For ``general``
    this is a rate-threshold frontier: ``lam_star`` is where the best one-way
    rate over thresholds ``x0 <= 5`` falls to 1e-12 bits per accepted symbol.
    A ``c`` above about 1e12, where the margin reaches the upper rail, raises
    :class:`InvalidInput`.  Returns ``(c, lam_star)`` pairs in grid order.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    if c_grid.size == 0:
        raise InvalidInput("c grid must not be empty")
    if c_grid.min() <= 0 or np.any(np.diff(c_grid) <= 0):
        raise InvalidInput("c grid must be positive and ascending")
    brackets = []
    for c in c_grid.tolist():
        solid, hi = frontier_rails(c)
        lo = solid * (1.0 + 1e-12) + 1e-12
        if not lo < hi:
            raise InvalidInput(f"c = {c:g}: the rails sqrt(1 + c^2) and c + 1 cannot be separated")
        brackets.append((c, lo, hi))
    out = []
    for c, lo, hi in brackets:
        if not _secure(SymmetricStateParams(lo, c, c), attack):
            out.append((c, lo))
            continue
        if _secure(SymmetricStateParams(hi, c, c), attack):
            out.append((c, hi))
            continue
        # above c ~ 1e10 the float spacing exceeds 1e-6 and mid stops moving
        mid = 0.5 * (lo + hi)
        while hi - lo > 1e-6 and lo < mid < hi:
            if _secure(SymmetricStateParams(mid, c, c), attack):
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        out.append((c, mid))
    return out


def build_report(p, x0_max=5.0):
    """Full per-state analysis at the rate-optimal threshold.

    NPPT comes from :func:`npt_symmetric` rather than the exponents, so the
    report's ``nppt`` and ``individual_secure`` stay two routes to one fact.
    The rate search and the report's ``eps_ab = g_r / (1 + g_r)`` and
    ``eve_overlap = g_same`` at its best threshold read one set of
    :func:`_rate_rows`; they match :func:`~gausskey.protocol.error_probability`
    and :func:`eve_overlap` bit for bit.
    """
    individual, coherent_ad = _secure(p, INDIVIDUAL), _secure(p, COHERENT_AD)
    rows = _rate_rows(p)
    best_x0, rate = _best_rate(rows, x0_max)
    g_r, g_same = np.exp(_log_decay(rows, best_x0)[:2, 0])
    return SecurityReport(
        nppt=npt_symmetric(p),
        individual_secure=individual,
        coherent_ad_secure=coherent_ad,
        best_x0=best_x0,
        rate_lb=rate,
        eps_ab=float(g_r / (1.0 + g_r)),
        eve_overlap=float(g_same),
    )
