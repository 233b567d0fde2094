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
threshold, so the state's decay table in :mod:`gausskey.gaussian` gives all
of the above in closed form, and the overlap conditions do not depend on the
threshold: they are ``r > q_same`` and ``r > 2 q_same`` in the exponents of
:func:`~gausskey.gaussian.symmetric_exponents`.  Both differences factor
over a positive denominator, as every state the family admits has
``lam > cx`` (the -1e-9 physicality band included), so each condition is
the sign of a polynomial margin in ``(lam, cx, cp)``:

* ``r - q_same = 2(1 - (lam - cx)(lam - cp))/(lam - cx)``, so the individual
  and finite-coherent attacks give key exactly on the NPPT states
  (:func:`~gausskey.gaussian.npt_margin`);
* ``r - 2 q_same = 4(lam - (lam - cp)(lam - cx)(lam + cx))/((lam - cx)(lam + cx))``
  (:func:`~gausskey.gaussian.squared_overlap_margin`).

:data:`_OVERLAP_VERDICT` maps each overlap attack to its margin, and every
overlap verdict here is one lookup and one margin call, positive meaning
key.  The decay table takes care of a threshold whose square overflows, so
nothing here touches numpy's error state; and
:func:`gausskey.gaussian._thresholds` is the one rule for what a threshold
is, so nothing here checks one on its own.
:func:`eve_ensemble` keeps the generic route as the tests' reference.

Frontier scans locate, per correlation strength, the largest local variance
that still admits a secure threshold choice; :func:`security_frontier`
bisects each correlation of its grid on its own, on Python floats.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import InvalidInput
from .gaussian import (
    SymmetricStateParams,
    _check_x0,
    _decay_table,
    _decays_at,
    _log_decay,
    _thresholds,
    condition_on_x,
    npt_margin,
    pure_overlap,
    purify,
    squared_overlap_margin,
    symmetric_embed,
)

SIGN_ORDER = ("++", "--", "+-", "-+")

INDIVIDUAL = "individual"
FINITE_COHERENT = "finite-coherent"
COHERENT_AD = "coherent-ad"
GENERAL = "general"
ATTACK_KINDS = (INDIVIDUAL, FINITE_COHERENT, COHERENT_AD, GENERAL)

# each overlap-based key condition eps/(1-eps) < |<e_++|e_-->|**power, as the
# margin in (lam, cx, cp) that is positive exactly where it holds: power 1 for
# the individual and finite-coherent attacks, 2 for coherent-ad
_OVERLAP_VERDICT = {
    INDIVIDUAL: npt_margin,
    FINITE_COHERENT: npt_margin,
    COHERENT_AD: squared_overlap_margin,
}

# the general attack's key condition is a one-way rate above this many bits
# per accepted symbol at some threshold; rates within rounding noise
# (~1e-16) of zero must not read as key
_RATE_FLOOR = 1e-12

# exp(-a) is exactly 0 in double precision once a >= 746
_UNDERFLOW_EXPONENT = 746.0

# the default upper end of every threshold search: optimize_rate, build_report,
# the general attack's key condition and the CLI's --x0-max
X0_MAX = 5.0


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


def eve_ensemble(p, x0):
    """Purify the embedded state, condition the purifying modes on the four
    sign combinations of ``(x_A, x_B) = (+-x0, +-x0)``, and collect the
    pairwise pure-state overlaps.

    This is the generic reference route; the closed forms of
    :func:`~gausskey.gaussian.symmetric_exponents` reproduce its Gram
    matrix.  A negative ``x0`` relabels the four sectors and leaves every
    derived quantity invariant.  At a threshold so large that every overlap
    underflows the Gram matrix is the identity; one whose displacements leave
    the float range raises ``InvalidInput``.
    """
    x0 = _check_x0(x0)
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
    return _decays_at(p, x0)[1]


def coherent_ad_secure(p, x0):
    """Key condition when the adversary measures a whole distillation block
    coherently: ``eps/(1-eps) < |<e_++|e_-->|^2``; the same at every nonzero
    ``x0``: :func:`~gausskey.gaussian.squared_overlap_margin` is positive."""
    _check_x0(x0)
    return bool(squared_overlap_margin(p.lam, p.cx, p.cp) > 0.0)


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
    g_r, g_same, g_diff, *_, g_mix = _decays_at(p, x0)
    gram = np.full((4, 4), g_mix)
    gram[0, 1] = gram[1, 0] = g_same
    gram[2, 3] = gram[3, 2] = g_diff
    np.fill_diagonal(gram, 1.0)
    eps = g_r / (1.0 + g_r)
    c = np.sqrt(np.array([(1 - eps) / 2, (1 - eps) / 2, eps / 2, eps / 2]))
    return Effective2x2((c[:, None] * c[None, :]) * gram, eps)


def _rate_kernel(rows, x0):
    """The per-threshold part of :func:`rate_lower_bound`: the rate at the
    nonzero thresholds ``x0`` from rows 0-5 of the state's decay table.  Its
    six weights need no check or clip, being finite and ``>= 0`` for every
    state the family admits: :func:`~gausskey.gaussian._log_decay` keeps
    each log-decay in ``[-inf, 0]``, so each ``g`` and ``1 - g`` (``expm1``)
    is in ``[0, 1]``, ``eps`` in ``[0, 1/2]``, ``a^2`` in ``[1/4, 1/2]``,
    ``b^2`` in ``[0, 1/4]``, ``lambda_+ >= a^2 (1 + g_same) >= 1/4`` and the
    determinant is ``a^2 b^2`` times a sum of squares.  Squares are
    products: numpy's ``** 2`` runs its ``square`` loop, one more for a cold
    call to load."""
    neg = _log_decay(rows, x0)
    g, one_minus_g = np.exp(neg), -np.expm1(neg[1:4])
    eps = g[0] / (1.0 + g[0])
    one_minus_eps = 1.0 - eps
    a2, b2 = 0.5 * one_minus_eps, 0.5 * eps
    big, small = a2 * (1.0 + g[1]), b2 * (1.0 + g[2])
    gap, skew = big - small, g[4] - g[5]
    top = 0.5 * (big + small) + np.sqrt(0.25 * (gap * gap) + 4.0 * a2 * b2 * g[3])
    det = a2 * b2 * (one_minus_g[2] * one_minus_g[2] + skew * skew)
    # the spectrum and (eps, 1 - eps), summed in entropy_bits' and binary_entropy's order
    w = np.array([a2 * one_minus_g[0], b2 * one_minus_g[1], top, det / top, eps, one_minus_eps])
    s0, s1, s2, s3, e0, e1 = matkit._xlog2x(w)
    return (1.0 + (e0 + e1)) + (((s0 + s1) + s2) + s3)


def rate_lower_bound(p, x0):
    """One-way key-rate lower bound ``(1 - h(eps)) - S(rho)`` in bits per
    accepted symbol, elementwise over an array of thresholds (a float for a
    scalar), read whole by :func:`~gausskey.gaussian._thresholds`.  Negative
    values certify nothing at that threshold and are reported as-is.

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
    x0 = _thresholds(x0)
    rate = _rate_kernel(_decay_table(p), x0.ravel()).reshape(x0.shape)
    return float(rate) if rate.ndim == 0 else rate


def _best_rate(rows, x0_max):
    """:func:`optimize_rate` on a state's decay table."""
    if not (matkit._finite(x0_max) and x0_max > 0):
        raise InvalidInput("x0_max must be finite and positive")
    # the determinant's terms decay as exp(-q x0^2 / 2) for q_same and q_diff;
    # a term with k = inf is 0 at every threshold; two roots, because 746 / k
    # overflows for k below 4e-306
    r, _, _, k_mix, k_same, k_diff, _ = (-v for v in rows.ravel().tolist())
    k = [v for v in (r, k_same, k_diff, k_mix) if 0.0 < v < math.inf]
    hi = min(x0_max, math.sqrt(_UNDERFLOW_EXPONENT) / math.sqrt(min(k))) if k else x0_max
    lo = 1e-6 * hi
    if not 0.0 < lo < hi:
        raise InvalidInput(
            f"x0_max={x0_max!r} leaves no positive search range [1e-6 x0_max, x0_max]"
        )
    x, neg = matkit.minimize_scalar(lambda xs: -_rate_kernel(rows, xs), lo, hi, tol=1e-6)
    return float(x), float(-neg)


def optimize_rate(p, x0_max=X0_MAX):
    """Maximize :func:`rate_lower_bound` over thresholds in ``(0, x0_max]``.

    Repeated 64-point scans of the vectorized rate, each over the best bracket
    of the last; the rate is smooth in the threshold but not proven unimodal,
    hence the scans.  The search covers ``[1e-6 hi, hi]``, where ``hi`` is
    ``x0_max`` capped at ``sqrt(746 / k_min)``, ``k_min`` the smallest positive
    coefficient of an ``exp(-k x0^2)`` in the rate (``r``, ``q_same/2``,
    ``q_diff/2`` and ``2 q_mix``).  Past the cap every such term underflows to
    0, so the rate is exactly constant there and a huge ``x0_max`` cannot push
    the search past the optimum.  A subnormal ``x0_max``, for which ``1e-6 hi``
    underflows to 0, raises ``InvalidInput``.  Returns ``(best_x0, best_rate)``,
    the best point of the last scan (see
    :func:`~gausskey.matkit.minimize_scalar`): an earlier scan may have
    evaluated a rate one rounding step higher (up to 2.2e-16 on the
    benchmark's reference states).
    The state's decay table is built once; each scan runs only the kernel.
    When ``best_rate <= 0``, ``best_x0`` is only where the scans' rate was
    least negative, often the lower edge ``1e-6 hi``: it is not a
    recommended threshold.
    """
    return _best_rate(_decay_table(p), x0_max)


def any_x0_secure(p, x0_grid=None, attack=INDIVIDUAL):
    """Whether some threshold on the grid satisfies the overlap-based key
    condition of the given attack model.  The condition does not depend on
    the threshold, so the grid is only validated: it must not be empty, and
    :func:`~gausskey.gaussian._thresholds` reads it whole."""
    if x0_grid is not None and _thresholds(x0_grid).size == 0:
        raise InvalidInput("x0_grid must not be empty")
    margin = _OVERLAP_VERDICT.get(attack)
    if margin is None:
        if attack == GENERAL:
            raise InvalidInput("use optimize_rate for the general one-way bound")
        raise InvalidInput(f"unknown attack kind {attack!r}")
    return bool(margin(p.lam, p.cx, p.cp) > 0.0)


def frontier_rails(c):
    """The rails of the ``cx = cp = c`` slice, ``(sqrt(1 + c^2), c + 1)``:
    physical at or above the first, entangled below the second.  ``c`` is
    read by :func:`~gausskey.matkit._finite`; plain-float arithmetic, so a
    huge ``c`` gives ``inf`` rather than a numpy warning."""
    if not matkit._finite(c):
        raise InvalidInput("c must be finite")
    c = float(c)
    return math.sqrt(1.0 + c * c), c + 1.0


def security_frontier(c_grid, attack=INDIVIDUAL):
    """Critical local variance per correlation value on the ``cx = cp = c``
    slice of the family.

    One bisection per ``c``, on floats, between the rails of
    :func:`frontier_rails`, the lower one lifted to
    ``solid * (1 + 1e-12) + 1e-12``, finds where the attack's key condition
    flips.  The upper rail is evaluated only where the lower one is secure; a
    bracket with no flip closes on its rail.  Bisection stops once
    ``hi - lo <= 1e-6`` or the midpoint no longer falls strictly inside the
    bracket, and ``lam_star`` is the last midpoint.  The overlap attacks read
    their margin of :data:`_OVERLAP_VERDICT`.  For ``general`` each point gets
    its own :func:`optimize_rate`, and the frontier is a rate-threshold
    frontier: ``lam_star`` is where the best one-way rate over thresholds
    ``x0 <= X0_MAX`` falls to 1e-12 bits per accepted symbol.
    ``c_grid``, read by :func:`~gausskey.matkit._reals`, is a non-empty 1-D
    array of finite, positive, strictly ascending values, each between about
    2e-12 and 1e12, where the lifted lower rail stays below the upper one;
    anything else, numeric strings included, raises :class:`InvalidInput`, as
    does an unknown attack kind once every ``c`` has passed.  Returns
    ``(c, lam_star)`` pairs of floats in grid order.
    """
    c_grid = matkit._reals(c_grid, "c grid must be 1-D, non-empty, finite, positive and strictly ascending")
    if c_grid.ndim != 1 or c_grid.size == 0 or c_grid[0] <= 0 or np.any(np.diff(c_grid) <= 0):
        raise InvalidInput("c grid must be 1-D, non-empty, finite, positive and strictly ascending")
    brackets = []
    for c in c_grid.tolist():
        solid, hi = frontier_rails(c)
        lo = solid * (1.0 + 1e-12) + 1e-12
        if not lo < hi:
            raise InvalidInput(f"c = {c:g}: the rails sqrt(1 + c^2) and c + 1 cannot be separated")
        brackets.append((c, lo, hi))
    margin = _OVERLAP_VERDICT.get(attack)
    if margin is not None:
        def secure(lam, c):
            return margin(lam, c, c) > 0.0
    elif attack == GENERAL:
        def secure(lam, c):
            return optimize_rate(SymmetricStateParams(lam, c, c))[1] > _RATE_FLOOR
    else:
        raise InvalidInput(f"unknown attack kind {attack!r}")
    out = []
    for c, lo, hi in brackets:
        # with no flip between the rails the bracket closes on one: mid = 0.5 * (x + x) = x
        if not secure(lo, c):
            hi = lo
        elif secure(hi, c):
            lo = hi
        # above c ~ 1e10 the float spacing exceeds 1e-6 and mid stops moving
        mid = 0.5 * (lo + hi)
        while hi - lo > 1e-6 and lo < mid < hi:
            lo, hi = (mid, hi) if secure(mid, c) else (lo, mid)
            mid = 0.5 * (lo + hi)
        out.append((c, mid))
    return out


def build_report(p, x0_max=X0_MAX):
    """Full per-state analysis at the rate-optimal threshold.

    The report's ``nppt`` and ``individual_secure`` are one verdict, the sign
    of :func:`~gausskey.gaussian.npt_margin`, read from
    :data:`_OVERLAP_VERDICT` like ``coherent_ad_secure``: the margin is
    ``r - q_same`` times ``(lam - cx)/2 > 0`` on every state the family admits,
    so the two cannot disagree, even within ulps of the NPPT rail.  The tests
    hold the independent routes: the partial transpose of the embedded CM, and
    the exponents of :func:`~gausskey.gaussian.symmetric_exponents`.
    The rate search and the report's ``eps_ab = g_r / (1 + g_r)`` and
    ``eve_overlap = g_same`` at its best threshold read the decay table that
    :func:`~gausskey.protocol.error_probability` and :func:`eve_overlap` read,
    so they match those bit for bit.  When ``rate_lb <= 0``, ``best_x0`` is
    only where the rate search's value was least negative, often its lower
    edge ``1e-6 hi`` (see :func:`optimize_rate`); it is not a recommended
    threshold, and neither are the ``eps_ab`` and ``eve_overlap`` read there.
    """
    nppt = bool(_OVERLAP_VERDICT[INDIVIDUAL](p.lam, p.cx, p.cp) > 0.0)
    coherent_ad = bool(_OVERLAP_VERDICT[COHERENT_AD](p.lam, p.cx, p.cp) > 0.0)
    rows = _decay_table(p)
    best_x0, rate = _best_rate(rows, x0_max)
    g_r, g_same = np.exp(_log_decay(rows, best_x0)[:2, 0])
    return SecurityReport(
        nppt=nppt,
        individual_secure=nppt,
        coherent_ad_secure=coherent_ad,
        best_x0=best_x0,
        rate_lb=rate,
        eps_ab=float(g_r / (1.0 + g_r)),
        eve_overlap=float(g_same),
    )
