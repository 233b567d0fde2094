"""Measurement statistics and the classical advantage-distillation layer.

Both parties homodyne the X quadrature of a symmetric two-mode state and keep
only outcomes with ``|x| ~ x0`` on both sides; the outcome signs become raw
key bits.  This module provides the closed-form error probability of that
postselection, read from the decay table of :mod:`gausskey.gaussian`
(which handles a threshold whose square overflows), the block
advantage-distillation recursion, and a seeded Monte-Carlo simulator of the
whole procedure.

The closed forms are stated in the zero-width postselection limit; the
simulator accepts outcomes inside a finite window around ``x0`` and converges
to them as the window shrinks.  It reads only :func:`pair_covariance`, never
the closed forms, and samples only the pairs whose Alice outcome lands in her
window, so its cost scales with those pairs rather than with measured pairs.
"""

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import InvalidInput
from .gaussian import _decays_at

_SIFT_CHUNK = 1 << 18
_MAX_CHUNKS = 1 << matkit.Rng.CHILD_BITS  # one substream per chunk


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs of the measurement + distillation run.

    ``window`` is the acceptance half-width around ``x0``; the closed-form
    comparisons assume it is small against ``x0``.  ``x0`` and ``window`` are
    finite positive numbers, and the counts ``n_pairs`` and ``block_n``
    integers of at least 1, read by :func:`~gausskey.matkit._int`.
    """

    x0: float
    window: float
    n_pairs: int
    block_n: int
    seed: int

    def __post_init__(self):
        if not (matkit._finite(self.x0) and self.x0 > 0):
            raise InvalidInput("x0 must be finite and positive")
        if not (matkit._finite(self.window) and self.window > 0):
            raise InvalidInput("window must be finite and positive")
        for count in (self.n_pairs, self.block_n):
            matkit._int(count, "counts must be integers of at least 1", 1)
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
        if not (matkit._finite(self.acceptance_rate) and 0.0 <= self.acceptance_rate <= 1.0):
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


def error_probability(p, x0):
    """Zero-width postselection error probability ``1 / (1 + exp(r x0^2))``,
    read as ``g / (1 + g)`` from the decay ``g = exp(-r x0^2)``, row 0 of the
    state's decay table; ``cx = 0`` gives 1/2 at every threshold.  ``x0`` must
    pass :func:`~gausskey.gaussian._check_x0`: one finite nonzero number."""
    g = _decays_at(p, x0)[0]
    return g / (1.0 + g)


def _block_size(eps, n):
    """The one input check of :func:`ad_error` and :func:`ad_error_bound`:
    ``eps`` is one finite number in ``[0, 1)``, read by
    :func:`~gausskey.matkit._finite`, and the block size ``n``, returned, is
    read by :func:`~gausskey.matkit._int`."""
    if not (matkit._finite(eps) and 0.0 <= eps < 1.0):
        raise InvalidInput("eps must lie in [0, 1)")
    return matkit._int(n, "block size must be an integer of at least 1", 1)


def ad_error(eps, n):
    """Error probability after one advantage-distillation round over blocks
    of size ``n``: ``eps^n / ((1 - eps)^n + eps^n)``.  ``eps`` and ``n`` are
    read by :func:`_block_size`."""
    n = _block_size(eps, n)
    num = eps**n
    return float(num / ((1.0 - eps) ** n + num))


def ad_error_bound(eps, n):
    """The simple upper bound ``(eps / (1 - eps))^n`` on :func:`ad_error`;
    tight as n grows.  ``eps`` and ``n`` are read by :func:`_block_size`."""
    n = _block_size(eps, n)
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
    # plain floats: numpy scalars would warn where a huge window overflows
    (var, c), _ = pair_covariance(p).tolist()
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
    the output depends only on ``rng`` and ``cfg``, never on ``workers``, an
    integer of at least 1 read by :func:`~gausskey.matkit._int`.  At most one
    thread per CPU and per chunk is started, whatever ``workers`` asks.  Each
    worker runs as one task on one generator: it claims the next unsifted
    chunk until none is left, and re-keys its generator to that chunk's child
    stream.  Claiming rather than a fixed share of the chunks keeps a worker
    that the machine slows down from holding up the others.
    """
    n_chunks = -(-cfg.n_pairs // _SIFT_CHUNK)
    if n_chunks > _MAX_CHUNKS:
        raise InvalidInput(f"at most {_MAX_CHUNKS * _SIFT_CHUNK} pairs per run")
    results = [None] * n_chunks
    todo, claim = iter(range(n_chunks)), threading.Lock()

    def sift(_):
        child = matkit.Rng(rng.seed)
        while True:
            with claim:
                i = next(todo, None)
            if i is None:
                return
            results[i] = _sift_chunk(p, cfg, rng.substream(i, into=child),
                                     min(_SIFT_CHUNK, cfg.n_pairs - i * _SIFT_CHUNK))

    workers = min(matkit._int(workers, "workers must be an integer of at least 1", 1),
                  n_chunks, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(sift, range(workers)))
    else:
        sift(0)

    alice = np.concatenate([r[0] for r in results])
    bob = np.concatenate([r[1] for r in results])
    return SiftedBits(alice, bob, len(alice) / cfg.n_pairs)


def simulate_advantage_distillation(bits, block_n, rng):
    """Run the block advantage-distillation protocol on a sifted stream.

    Per consecutive disjoint block of ``block_n`` symbols Alice draws a
    random bit ``b`` and publishes the XOR mask that maps her block symbols
    to ``b``; Bob applies the mask to his symbols and accepts the block only
    if all unmasked values agree.  Surviving blocks contribute one bit pair.
    ``block_n`` is read by :func:`~gausskey.matkit._int`.
    """
    n_bits = len(bits.alice)
    if n_bits == 0:
        raise InvalidInput("no sifted bits to distill")
    block_n = matkit._int(block_n, "block size must be an integer in [1, number of sifted bits]",
                          1, n_bits + 1)
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
