"""Measurement statistics and the classical advantage-distillation layer.

Both parties homodyne the X quadrature of a symmetric two-mode state and keep
only outcomes with ``|x| ~ x0`` on both sides; the outcome signs become raw
key bits.  This module provides the closed-form error probabilities of that
postselection, the block advantage-distillation recursion, and a seeded
Monte-Carlo simulator of the whole procedure.

The closed forms are stated in the zero-width postselection limit; the
simulator accepts outcomes inside a finite window around ``x0`` and converges
to them as the window shrinks.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import DegenerateParams, InvalidInput
from .gaussian import physical_symmetric

_SIFT_CHUNK = 1 << 16


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


def _sift_chunk(p, cfg, rng, count):
    xs = matkit.sample_mvn(pair_covariance(p), count, rng)
    keep = (np.abs(np.abs(xs[:, 0]) - cfg.x0) <= cfg.window) & (
        np.abs(np.abs(xs[:, 1]) - cfg.x0) <= cfg.window
    )
    kept = xs[keep]
    # positive outcome -> bit 0, negative -> bit 1
    return (kept[:, 0] < 0).astype(np.uint8), (kept[:, 1] < 0).astype(np.uint8)


def simulate_sifting(p, cfg, rng, workers=1):
    """Monte-Carlo the measurement + postselection step.

    Sampling is chunked, one child stream of ``rng`` per fixed-size chunk, so
    the output depends only on ``rng`` and ``cfg``, never on ``workers``.
    """
    if not physical_symmetric(p):
        raise InvalidInput(f"unphysical parameters {p}")
    sizes = [_SIFT_CHUNK] * (cfg.n_pairs // _SIFT_CHUNK)
    if cfg.n_pairs % _SIFT_CHUNK:
        sizes.append(cfg.n_pairs % _SIFT_CHUNK)

    def run(i):
        return _sift_chunk(p, cfg, rng.substream(i), sizes[i])

    workers = min(workers, len(sizes))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(len(sizes))))
    else:
        results = [run(i) for i in range(len(sizes))]

    alice = np.concatenate([r[0] for r in results]) if results else np.zeros(0, np.uint8)
    bob = np.concatenate([r[1] for r in results]) if results else np.zeros(0, np.uint8)
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
