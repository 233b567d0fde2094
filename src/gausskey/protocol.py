"""Measurement statistics and the classical advantage-distillation layer.

Both parties homodyne the X quadrature of a symmetric two-mode state and keep
only outcomes with ``|x| ~ x0`` on both sides; the outcome signs become raw
key bits.  This module provides the closed-form error probabilities of that
postselection, the block advantage-distillation recursion, and a seeded
Monte-Carlo simulator of the whole procedure.

The closed forms are stated in the zero-width postselection limit; the
simulator accepts outcomes inside a finite window around ``x0`` and converges
to them as the window shrinks.  It reads only :func:`pair_covariance`, never
the closed forms, and samples only the pairs whose Alice outcome lands in her
window, so its cost scales with those pairs rather than with measured pairs.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import DegenerateParams, InvalidInput
from .gaussian import physical_symmetric

_SIFT_CHUNK = 1 << 18
_MAX_CHUNKS = 1 << matkit.Rng.CHILD_BITS  # one substream per chunk


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs of the measurement + distillation run.

    ``window`` is the acceptance half-width around ``x0``; the closed-form
    comparisons assume it is small against ``x0``.
    """

    x0: float
    window: float
    n_pairs: int
    block_n: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.x0) and self.x0 > 0):
            raise InvalidInput("x0 must be positive")
        if not (np.isfinite(self.window) and self.window > 0):
            raise InvalidInput("window must be positive")
        if self.n_pairs < 1 or self.block_n < 1:
            raise InvalidInput("counts must be at least 1")
        if self.window > self.x0 / 5.0:
            warnings.warn("window larger than x0/5; closed-form comparisons degrade")


@dataclass(frozen=True)
class SiftedBits:
    """Accepted sign bits for both parties plus the empirical acceptance rate."""

    alice: np.ndarray
    bob: np.ndarray
    acceptance_rate: float

    def __post_init__(self):
        if len(self.alice) != len(self.bob):
            raise InvalidInput("bit lists must have equal length")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise InvalidInput("acceptance rate must be a probability")


@dataclass(frozen=True)
class DistillationOutcome:
    """Block-distilled bit pairs and the empirical post-distillation error."""

    kept_bits_alice: np.ndarray
    kept_bits_bob: np.ndarray
    empirical_error: float
    blocks_consumed: int


def pair_covariance(p):
    """Covariance of the measured pair ``(x_A, x_B)``: half the X block of
    the state's CM."""
    return 0.5 * np.array([[p.lam, p.cx], [p.cx, p.lam]])


def joint_sign_distribution(p, x0):
    """Probability table ``p(i, j)`` of the sign bits at threshold ``x0``.

    Rows index Alice's bit, columns Bob's.  Entries are the joint Gaussian
    density at the four points ``(+-x0, +-x0)`` normalized over those points,
    which is the zero-width postselection limit.
    """
    if not physical_symmetric(p):
        raise InvalidInput(f"unphysical parameters {p}")
    if not (np.isfinite(x0) and x0 >= 0):
        raise InvalidInput("x0 must be nonnegative")
    # density exponents at equal / opposite signs
    same = -2.0 * x0**2 / (p.lam + p.cx)
    diff = -2.0 * x0**2 / (p.lam - p.cx)
    m = max(same, diff)
    a = np.exp(same - m)
    b = np.exp(diff - m)
    table = np.array([[a, b], [b, a]])
    return table / table.sum()


def error_from_exponent(a):
    """``1 / (1 + exp(a))`` for an exponent ``a >= 0``, evaluated as
    ``exp(-a) / (1 + exp(-a))`` so that no ``a`` up to ``inf`` overflows;
    elementwise on arrays."""
    e = np.exp(-a)
    return e / (1.0 + e)


def error_probability(p, x0):
    """Zero-width postselection error probability ``1 / (1 + exp(r x0^2))``
    with ``r = 4 cx / ((lam - cx)(lam + cx))``; ``cx = 0`` gives 1/2 at every
    threshold, ``x0 = inf`` included."""
    if p.lam == p.cx:
        raise DegenerateParams("lam == cx puts the error formula on a pole")
    if not physical_symmetric(p):
        raise InvalidInput(f"unphysical parameters {p}")
    r = 4.0 * p.cx / ((p.lam - p.cx) * (p.lam + p.cx))
    x2 = float(x0) * float(x0)
    return float(error_from_exponent(r * x2 if r else 0.0))


def ad_error(eps, n):
    """Error probability after one advantage-distillation round over blocks
    of size ``n``: ``eps^n / ((1 - eps)^n + eps^n)``."""
    if not 0.0 <= eps < 1.0:
        raise InvalidInput("eps must lie in [0, 1)")
    if n < 1:
        raise InvalidInput("block size must be at least 1")
    num = eps**n
    return float(num / ((1.0 - eps) ** n + num))


def ad_error_bound(eps, n):
    """The simple upper bound ``(eps / (1 - eps))^n`` on :func:`ad_error`;
    tight as n grows."""
    if not 0.0 <= eps < 1.0:
        raise InvalidInput("eps must lie in [0, 1)")
    return float((eps / (1.0 - eps)) ** n)


def _window_abs(gen, m, lo, hi, lam):
    """``m`` draws of ``|x|`` for ``x ~ N(0, lam/2)`` conditioned on
    ``lo <= |x| <= hi``, by exact rejection.

    The proposal is the exponential tangent to the log-density
    ``-x^2/lam`` at ``x* = max(lo, sqrt(lam/2))``, truncated to
    ``[lo, hi]`` and drawn by inverse CDF; a draw is kept with probability
    ``exp(-(x - x*)^2/lam)``.  For ``lo >= sqrt(lam/2)`` that is the tilt at
    ``lo`` with acceptance ``exp(-t^2/lam)``, ``t = x - lo``.  Below it the
    tangent at ``lo`` flattens out, and a window much wider than
    ``sqrt(lam)`` would then accept almost nothing; with the floor the mean
    acceptance stays above ``exp(-3/2)`` for every window.  Accepted draws
    are kept in proposal order, so the result depends only on ``gen``.
    """
    scale = math.sqrt(lam)
    x_star = max(lo, scale / math.sqrt(2.0))
    rate = 2.0 * x_star / lam
    span = math.expm1(-rate * (hi - lo))
    out, have = [np.zeros(0)], 0
    while have < m:
        u, v = gen.random((2, (m - have) * 3 // 2 + 16))
        x = lo - np.log1p(u * span) / rate
        d = (x - x_star) / scale
        x = x[v < np.exp(-d * d)]
        out.append(x)
        have += len(x)
    return np.concatenate(out)[:m]


def _sift_chunk(p, cfg, rng, count):
    """Accepted sign bits of ``count`` measured pairs.

    Only pairs whose Alice outcome lands in her window are sampled: their
    number is Binomial in ``count`` with her window probability, her
    ``|x_A|`` comes from :func:`_window_abs` with a uniform sign, and Bob's
    outcome from the conditional law of ``x_B`` given ``x_A``.  The accepted
    pairs have exactly the law of brute-force sampling and windowing both
    outcomes, at a cost that scales with the pairs in Alice's window.
    """
    (var, c), _ = pair_covariance(p)
    lam = 2.0 * var
    lo, hi = max(cfg.x0 - cfg.window, 0.0), cfg.x0 + cfg.window
    scale = math.sqrt(lam)
    p_a = max(math.erfc(lo / scale) - math.erfc(hi / scale), 0.0)
    gen = rng.generator
    m = int(gen.binomial(count, p_a))
    xa = _window_abs(gen, m, lo, hi, lam) * (1 - 2 * rng.bits(m).astype(float))
    # x_B | x_A ~ N((c/var) x_A, (var - c)(var + c)/var), in a form that cannot overflow
    xb = (c / var) * xa + math.sqrt((var - c) * (1.0 + c / var)) * gen.standard_normal(m)
    keep = np.abs(np.abs(xb) - cfg.x0) <= cfg.window
    # positive outcome -> bit 0, negative -> bit 1
    return (xa[keep] < 0).astype(np.uint8), (xb[keep] < 0).astype(np.uint8)


def simulate_sifting(p, cfg, rng, workers=1):
    """Monte-Carlo the measurement + postselection step.

    Sampling is chunked, one child stream of ``rng`` per fixed-size chunk, so
    the output depends only on ``rng`` and ``cfg``, never on ``workers``.
    """
    if not physical_symmetric(p):
        raise InvalidInput(f"unphysical parameters {p}")
    n_chunks = -(-cfg.n_pairs // _SIFT_CHUNK)
    if n_chunks > _MAX_CHUNKS:
        raise InvalidInput(f"at most {_MAX_CHUNKS * _SIFT_CHUNK} pairs per run")

    def run(i):
        return _sift_chunk(p, cfg, rng.substream(i), min(_SIFT_CHUNK, cfg.n_pairs - i * _SIFT_CHUNK))

    workers = min(workers, n_chunks)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(n_chunks)))
    else:
        results = [run(i) for i in range(n_chunks)]

    alice = np.concatenate([r[0] for r in results])
    bob = np.concatenate([r[1] for r in results])
    return SiftedBits(alice, bob, len(alice) / cfg.n_pairs)


def simulate_advantage_distillation(bits, block_n, rng):
    """Run the block advantage-distillation protocol on a sifted stream.

    Per consecutive disjoint block of ``block_n`` symbols Alice draws a
    random bit ``b`` and publishes the XOR mask that maps her block symbols
    to ``b``; Bob applies the mask to his symbols and accepts the block only
    if all unmasked values agree.  Surviving blocks contribute one bit pair.
    """
    n_bits = len(bits.alice)
    if n_bits == 0:
        raise InvalidInput("no sifted bits to distill")
    if not 1 <= block_n <= n_bits:
        raise InvalidInput("block size must be in [1, number of sifted bits]")
    n_blocks = n_bits // block_n
    a = np.asarray(bits.alice[: n_blocks * block_n], dtype=np.uint8).reshape(n_blocks, block_n)
    b = np.asarray(bits.bob[: n_blocks * block_n], dtype=np.uint8).reshape(n_blocks, block_n)
    secret = rng.bits(n_blocks)
    mask = a ^ secret[:, None]
    unmasked = b ^ mask
    accept = np.all(unmasked == unmasked[:, :1], axis=1)
    kept_a = secret[accept]
    kept_b = unmasked[accept, 0]
    err = float(np.mean(kept_a != kept_b)) if len(kept_a) else 0.0
    return DistillationOutcome(kept_a, kept_b, err, n_blocks)
