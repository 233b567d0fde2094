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
threshold, so per-state exponents (:func:`_exponents`) give all of the above
in closed form, and the overlap conditions do not depend on the threshold.
:func:`eve_ensemble` keeps the generic route as the tests' reference.

Frontier scans locate, per correlation strength, the largest local variance
that still admits a secure threshold choice.
"""

from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import InvalidInput
from .gaussian import (
    SymmetricStateParams,
    condition_on_x,
    npt_symmetric,
    physical_symmetric,
    pure_overlap,
    purify,
    symmetric_embed,
)
from .protocol import error_from_exponent

SIGN_ORDER = ("++", "--", "+-", "-+")

INDIVIDUAL = "individual"
FINITE_COHERENT = "finite-coherent"
COHERENT_AD = "coherent-ad"
GENERAL = "general"
ATTACK_KINDS = (INDIVIDUAL, FINITE_COHERENT, COHERENT_AD, GENERAL)

# power of |<e_++|e_-->| in each overlap-based key condition
_OVERLAP_POWER = {INDIVIDUAL: 1, FINITE_COHERENT: 1, COHERENT_AD: 2}

_DEFAULT_X0_GRID = np.linspace(0.25, 5.0, 20)

# positivity floor for the one-way rate: near the entanglement boundary the
# true optimum approaches zero from below and double-precision noise (~1e-16)
# must not read as a positive rate
_RATE_FLOOR = 1e-12


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
    params: SymmetricStateParams
    physical: bool
    nppt: bool
    individual_secure: bool
    coherent_ad_secure: bool
    general_secure: bool
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


def _exponent(k, x0):
    """``k * x0^2`` for an exponent ``k`` of :func:`_exponents`: overflow to
    ``inf`` is meant, and ``k <= 0`` gives 0 at every threshold, ``x0^2 = inf``
    included.  Overlaps of normalized states never exceed 1, so a negative
    ``k`` is rounding at the pure boundary or the ``-1e-9`` physicality band;
    taken as is it would blow up at huge thresholds."""
    k = np.asarray(k, dtype=float)
    with np.errstate(over="ignore"):
        x2 = np.square(x0, dtype=float)
        return np.multiply(k, x2, out=np.zeros(np.broadcast(k, x2).shape), where=k > 0)


def _exponents(p):
    """Per-state exponents ``(r, Q)``: ``eps/(1-eps) = exp(-r x0^2)`` and
    ``<e_s|e_t> = exp(-Q[s, t] x0^2)``, signs ordered like :data:`SIGN_ORDER`.

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
    ``sqrt(2) x0``, ``q_mix = (q_same + q_diff)/4``.

    The generic route of :func:`eve_ensemble` agrees: its conditional CM is
    ``blockdiag(gx, gx^-1)`` at every outcome and its displacements are
    momentum-only and linear in ``(x_A, x_B)``, so the Gram matrix is real and
    Gaussian in ``x0``.  Tests pin the two routes together.
    """
    if not physical_symmetric(p):
        raise InvalidInput(f"unphysical parameters {p}")
    minus, plus = p.lam - p.cx, p.lam + p.cx
    q_same = 2.0 * (p.lam - p.cp) - 2.0 / plus
    q_diff = 2.0 * (p.lam + p.cp) - 2.0 / minus
    q = np.full((4, 4), 0.25 * (q_same + q_diff))
    q[0, 1] = q[1, 0] = q_same
    q[2, 3] = q[3, 2] = q_diff
    np.fill_diagonal(q, 0.0)
    return 4.0 * p.cx / (minus * plus), q


def eve_ensemble(p, x0):
    """Purify the embedded state, condition the purifying modes on the four
    sign combinations of ``(x_A, x_B) = (+-x0, +-x0)``, and collect the
    pairwise pure-state overlaps.

    This is the generic reference route; the closed forms of
    :func:`_exponents` reproduce its Gram matrix.  A negative ``x0``
    relabels the four sectors and leaves every derived quantity invariant;
    zero is rejected.
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
    return float(np.exp(-_exponent(_exponents(p)[1][0, 1], x0)))


def _key_condition(exponents, kind):
    """``eps/(1-eps) < |<e_++|e_-->|**power`` for the attack kind, given the
    state's :func:`_exponents`; both sides are ``exp(-k x0^2)``, so this is
    ``r > power * q_same`` at every nonzero threshold."""
    if kind == GENERAL:
        raise InvalidInput("use optimize_rate for the general one-way bound")
    if kind not in _OVERLAP_POWER:
        raise InvalidInput(f"unknown attack kind {kind!r}")
    r, q = exponents
    return bool(r > _OVERLAP_POWER[kind] * q[0, 1])


def individual_attack_secure(p, x0):
    """Key condition against symbol-by-symbol adversary measurements:
    ``eps/(1-eps) < |<e_++|e_-->|``; the same at every nonzero ``x0``."""
    _check_x0(x0)
    return _key_condition(_exponents(p), INDIVIDUAL)


def coherent_ad_secure(p, x0):
    """Key condition when the adversary measures a whole distillation block
    coherently: ``eps/(1-eps) < |<e_++|e_-->|^2``; the same at every nonzero
    ``x0``."""
    _check_x0(x0)
    return _key_condition(_exponents(p), COHERENT_AD)


def effective_state(p, x0):
    """Two-qubit state shared by the honest parties after postselection.

    Amplitudes ``sqrt((1-eps)/2)`` sit on the concordant outcomes and
    ``sqrt(eps/2)`` on the discordant ones; tracing out the adversary leaves
    ``rho[s, t] = c_s c_t <e_t|e_s>``, with the real Gram matrix
    ``exp(-x0^2 Q)`` of :func:`_exponents`.  This matrix route is the
    reference for the closed-form spectrum of :func:`rate_lower_bound`.
    """
    _check_x0(x0)
    r, q = _exponents(p)
    gram = np.exp(-_exponent(q, x0))
    eps = float(error_from_exponent(_exponent(r, x0)))
    c = np.sqrt(np.array([(1 - eps) / 2, (1 - eps) / 2, eps / 2, eps / 2]))
    return Effective2x2((c[:, None] * c[None, :]) * gram, eps)


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
    r, q = _exponents(p)
    eps = error_from_exponent(_exponent(r, x0))
    a2, b2 = 0.5 * (1.0 - eps), 0.5 * eps
    k_same, k_diff = _exponent(q[0, 1], x0), _exponent(q[2, 3], x0)
    k_pair = _exponent(2.0 * q[0, 2], x0)  # g_mix^2 = exp(-k_pair)
    big = a2 * (1.0 + np.exp(-k_same))
    small = b2 * (1.0 + np.exp(-k_diff))
    top = 0.5 * (big + small) + np.sqrt(0.25 * (big - small) ** 2 + 4.0 * a2 * b2 * np.exp(-k_pair))
    det = a2 * b2 * (np.expm1(-k_pair) ** 2 + (np.exp(-0.5 * k_same) - np.exp(-0.5 * k_diff)) ** 2)
    w = np.stack([-a2 * np.expm1(-k_same), -b2 * np.expm1(-k_diff), top, det / top], axis=-1)
    rate = 1.0 - matkit.binary_entropy(eps) - matkit.entropy_bits(w)
    return float(rate) if np.ndim(rate) == 0 else rate


def optimize_rate(p, x0_max=5.0):
    """Maximize :func:`rate_lower_bound` over thresholds in ``(0, x0_max]``.

    Repeated 64-point scans of the vectorized rate, each over the best bracket
    of the last; the rate is smooth in the threshold but not proven unimodal,
    hence the scans.  Returns ``(best_x0, best_rate)``.
    """
    if not (np.isfinite(x0_max) and x0_max > 0):
        raise InvalidInput("x0_max must be positive")
    x, neg = matkit.minimize_scalar(
        lambda xs: -rate_lower_bound(p, xs), 1e-6 * x0_max, x0_max, tol=1e-6
    )
    return float(x), float(-neg)


def any_x0_secure(p, x0_grid=None, attack=INDIVIDUAL):
    """Whether some threshold on the grid satisfies the overlap-based key
    condition of the given attack model.  The condition does not depend on
    the threshold, so the grid is only validated."""
    grid = _DEFAULT_X0_GRID if x0_grid is None else np.asarray(x0_grid, dtype=float)
    if grid.size == 0 or grid.min() <= 0:
        raise InvalidInput("x0 grid must be positive")
    return _key_condition(_exponents(p), attack)


def _frontier_predicate(attack):
    if attack == GENERAL:
        return lambda p: optimize_rate(p)[1] > _RATE_FLOOR
    return lambda p: _key_condition(_exponents(p), attack)


def security_frontier(c_grid, attack=INDIVIDUAL):
    """Critical local variance per correlation value on the ``cx = cp = c``
    slice of the family.

    For each ``c`` the physical region is ``lam >= sqrt(1 + c^2)`` and the
    entangled one is ``lam < c + 1``; bisection between those rails finds
    where the attack's security predicate flips.  Returns ``(c, lam_star)``
    pairs in grid order.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    if c_grid.size == 0:
        raise InvalidInput("c grid must not be empty")
    if c_grid.min() <= 0 or np.any(np.diff(c_grid) <= 0):
        raise InvalidInput("c grid must be positive and ascending")
    secure = _frontier_predicate(attack)
    out = []
    for c in c_grid:
        lo = np.sqrt(1.0 + c * c) * (1.0 + 1e-12) + 1e-12
        hi = c + 1.0
        if not secure(SymmetricStateParams(lo, c, c)):
            out.append((float(c), float(lo)))
            continue
        if secure(SymmetricStateParams(hi, c, c)):
            out.append((float(c), float(hi)))
            continue
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if secure(SymmetricStateParams(mid, c, c)):
                lo = mid
            else:
                hi = mid
        out.append((float(c), float(0.5 * (lo + hi))))
    return out


def build_report(p, x0_max=5.0):
    """Full per-state analysis at the rate-optimal threshold.

    NPPT comes from :func:`npt_symmetric` rather than the exponents, so the
    report's ``nppt`` and ``individual_secure`` stay two routes to one fact.
    """
    exponents = _exponents(p)
    r, q = exponents
    best_x0, rate = optimize_rate(p, x0_max)
    return SecurityReport(
        params=p,
        physical=True,
        nppt=npt_symmetric(p),
        individual_secure=_key_condition(exponents, INDIVIDUAL),
        coherent_ad_secure=_key_condition(exponents, COHERENT_AD),
        general_secure=bool(rate > _RATE_FLOOR),
        best_x0=best_x0,
        rate_lb=rate,
        eps_ab=float(error_from_exponent(_exponent(r, best_x0))),
        eve_overlap=float(np.exp(-_exponent(q[0, 1], best_x0))),
    )
