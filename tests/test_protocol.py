import concurrent.futures
import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from conftest import assert_rejects
from gausskey import matkit
from gausskey import protocol as pr
from gausskey.gaussian import SymmetricStateParams, symmetric_exponents

P111 = SymmetricStateParams(1.5, 1.0, 1.0)
EPS111 = 1.0 / (1.0 + np.exp(3.2))


def brute_force_sift(p, cfg, rng):
    """Reference sifting: draw every pair from the joint law and window both
    outcomes, one substream of ``rng`` per chunk of pairs."""
    chunk = 1 << 18
    alice, bob = [], []
    for i, start in enumerate(range(0, cfg.n_pairs, chunk)):
        xs = matkit.sample_mvn(pr.pair_covariance(p), min(chunk, cfg.n_pairs - start), rng.substream(i))
        kept = xs[(np.abs(np.abs(xs) - cfg.x0) <= cfg.window).all(axis=1)]
        alice.append((kept[:, 0] < 0).astype(np.uint8))
        bob.append((kept[:, 1] < 0).astype(np.uint8))
    alice, bob = np.concatenate(alice), np.concatenate(bob)
    return pr.SiftedBits(alice, bob, len(alice) / cfg.n_pairs)


def assert_same_rate(k1, n1, k2, n2, what):
    """Two binomial counts ``k/n`` agree within 4 sigma of their pooled rate."""
    q = (k1 + k2) / (n1 + n2)
    sigma = math.sqrt(q * (1.0 - q) * (1.0 / n1 + 1.0 / n2))
    assert abs(k1 / n1 - k2 / n2) <= 4.0 * sigma, (what, k1 / n1, k2 / n2, sigma)


class TestErrorProbability:
    def test_uncorrelated(self):
        assert pr.error_probability(SymmetricStateParams(2.0, 0.0, 0.0), 1.0) == 0.5

    def test_zero_threshold(self):
        # x0 = 0 is no threshold; the x0 -> 0 limit, 1/2, is reached once x0^2 underflows
        assert pr.error_probability(P111, 1e-300) == 0.5

    def test_huge_threshold(self):
        # exp(-a) form: no overflow, and r = 0 stays 1/2 even at x0^2 = inf
        assert pr.error_probability(P111, 30.0) == 0.0
        assert pr.error_probability(P111, np.float64(1e200)) == 0.0
        assert pr.error_probability(SymmetricStateParams(2.0, 0.0, 0.0), 1e200) == 0.5

    def test_exponent_form_matches_logistic(self):
        # x0 = sqrt(a / r) puts the exponent r x0^2 at a
        r = symmetric_exponents(P111)[0]
        for a in (1e-300, 1e-3, 0.5, 3.0, 30.0):
            assert abs(pr.error_probability(P111, math.sqrt(a / r)) - 1.0 / (1.0 + np.exp(a))) < 1e-16, a

    def test_degenerate_pole(self):
        # lam == cx zeroes r's denominator; (lam - cx)(lam + cp) = 0 < 1, so
        # such a state is unphysical and cannot be built
        assert_rejects(lambda: SymmetricStateParams(1.0, 1.0, 0.0),
                       "unphysical parameters SymmetricStateParams(lam=1.0, cx=1.0, cp=0.0)")

    def test_matches_density_ratio(self):
        # discordant over concordant density of the measured pair pins
        # r = 4 cx / ((lam - cx)(lam + cx)) and with it the cm/2 variance rule
        inv = np.linalg.inv(pr.pair_covariance(P111))
        for x0 in (0.3, 1.0, 1.7):
            same, diff = np.array([x0, x0]), np.array([x0, -x0])
            ratio = np.exp(-0.5 * (diff @ inv @ diff - same @ inv @ same))
            assert abs(pr.error_probability(P111, x0) - ratio / (1.0 + ratio)) < 1e-12, x0
        assert abs(pr.error_probability(P111, 1.0) - EPS111) < 1e-12


class TestAdError:
    def test_symmetric_fixed_point(self):
        for n in (1, 2, 5, 17):
            assert pr.ad_error(0.5, n) == 0.5

    def test_single_block_identity(self):
        for eps in (0.0, 0.1, 0.3917):
            assert pr.ad_error(eps, 1) == eps

    def test_bound_holds_and_tightens(self):
        eps = 0.2
        prev_ratio = 0.0
        for n in (1, 2, 4, 8, 16):
            val = pr.ad_error(eps, n)
            bound = pr.ad_error_bound(eps, n)
            assert val <= bound
            ratio = val / bound
            assert ratio >= prev_ratio
            prev_ratio = ratio
        assert prev_ratio > 0.999

    def test_monotone_in_block_size(self):
        below = [pr.ad_error(0.3, n) for n in range(1, 10)]
        assert np.all(np.diff(below) < 0)
        above = [pr.ad_error(0.7, n) for n in range(1, 10)]
        assert np.all(np.diff(above) > 0)

    def test_rejects_eps_one(self):
        assert_rejects(lambda: pr.ad_error(1.0, 2), "eps must lie in [0, 1)")


class TestSimulateSifting:
    def test_uncorrelated_error_half(self):
        p = SymmetricStateParams(1.5, 0.0, 0.0)
        cfg = pr.ProtocolConfig(x0=1.0, window=0.2, n_pairs=200_000, block_n=2, seed=1)
        bits = pr.simulate_sifting(p, cfg, matkit.Rng(1))
        n = len(bits.alice)
        err = np.mean(bits.alice != bits.bob)
        assert abs(err - 0.5) < 3.0 * np.sqrt(0.25 / n)

    def test_acceptance_rate_matches_density(self):
        cfg = pr.ProtocolConfig(x0=1.0, window=0.01, n_pairs=20_000_000, block_n=2, seed=3)
        bits = pr.simulate_sifting(P111, cfg, matkit.Rng(3))
        cov = pr.pair_covariance(P111)
        inv = np.linalg.inv(cov)
        norm = 1.0 / (2 * np.pi * np.sqrt(np.linalg.det(cov)))
        dens = 0.0
        for sa in (1, -1):
            for sb in (1, -1):
                v = np.array([sa * cfg.x0, sb * cfg.x0])
                dens += norm * np.exp(-0.5 * v @ inv @ v)
        expect = dens * (2 * cfg.window) ** 2
        sigma = np.sqrt(expect / cfg.n_pairs)
        assert abs(bits.acceptance_rate - expect) < 4.0 * sigma + 1e-2 * expect

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # a fake pool records its size and runs the chunks serially, so no
        # thread is started whatever is asked for
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        cfg = pr.ProtocolConfig(x0=1.0, window=0.01, n_pairs=10 * pr._SIFT_CHUNK, block_n=2, seed=9)
        ref = pr.simulate_sifting(P111, cfg, matkit.Rng(9))
        for cpus, want in ((3, [3]), (64, [10]), (None, [])):
            sizes.clear()
            monkeypatch.setattr(pr.os, "cpu_count", lambda: cpus)
            got = pr.simulate_sifting(P111, cfg, matkit.Rng(9), workers=10**6)
            assert sizes == want, cpus
            assert np.array_equal(got.alice, ref.alice) and np.array_equal(got.bob, ref.bob)


# SHA-256 of ``alice.tobytes() + bob.tobytes()`` of multi-chunk runs on the
# sifting stream of ``simulate``, ``Rng(seed).substream(0)``, recorded while
# each chunk still got a new generator and a task of its own: the bench case
# (39 chunks), a wide window (12 chunks) and a run of 2.5 chunks
SIFT_DIGESTS = [
    ((1.4163, 0.8286, 0.8286), 1.0346, 0.01, 10_000_000, 769748556,
     "e488d0817bef43e4eb110329520616e02d175da201e2365b7f31cdbb1b9e27ec"),
    ((1.5, 1.0, 1.0), 1.0, 0.2, 3_000_000, 5, "194d62878f3d74ef7ece39e0e5efe500b0d96118cb08d522c5f4b7bbdf33aea0"),
    ((1.5, 1.0, 1.0), 1.0, 0.05, 5 << 17, 9, "7ed314da470455242dde752b3c2a19bae55dbfe9d10c4b582b0835581023562f"),
]


class TestSiftingWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("state, x0, window, n_pairs, seed, digest", SIFT_DIGESTS)
    def test_multi_chunk_digests(self, state, x0, window, n_pairs, seed, digest, workers):
        cfg = pr.ProtocolConfig(x0=x0, window=window, n_pairs=n_pairs, block_n=2, seed=seed)
        bits = pr.simulate_sifting(SymmetricStateParams(*state), cfg, matkit.Rng(seed).substream(0), workers)
        assert hashlib.sha256(bits.alice.tobytes() + bits.bob.tobytes()).hexdigest() == digest

    def test_threads_claim_each_chunk_once(self, monkeypatch):
        # 8 threads, more than most test machines have cores, switching every
        # microsecond: a chunk claimed twice or never shows in the streams
        # sifted and in the output
        monkeypatch.setattr(pr.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(pr, "_SIFT_CHUNK", 1 << 12)
        sifted, sift_chunk = [], pr._sift_chunk

        def recorded(p, cfg, rng, count):
            sifted.append((rng.stream, threading.get_ident()))
            return sift_chunk(p, cfg, rng, count)

        cfg = pr.ProtocolConfig(x0=1.0, window=0.2, n_pairs=10 * pr._SIFT_CHUNK - 100, block_n=2, seed=4)
        ref = pr.simulate_sifting(P111, cfg, matkit.Rng(4))
        monkeypatch.setattr(pr, "_sift_chunk", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                sifted.clear()
                got = []
                run = threading.Thread(
                    target=lambda: got.append(pr.simulate_sifting(P111, cfg, matkit.Rng(4), workers=10**6)),
                    daemon=True)
                run.start()
                run.join(timeout=60)
                assert not run.is_alive()
                assert sorted(stream for stream, _ in sifted) == list(range(1, 11))
                assert len({thread for _, thread in sifted}) <= 8
                assert np.array_equal(got[0].alice, ref.alice) and np.array_equal(got[0].bob, ref.bob)
        finally:
            sys.setswitchinterval(interval)


class TestSiftingSampler:
    """The in-window sampler against brute-force sifting, at windows wide
    enough that the zero-width closed forms no longer describe them."""

    @pytest.mark.parametrize(
        "state, x0, window",
        [
            ((1.5, 1.0, 1.0), 1.0, 0.5),
            ((1.5, 1.0, 1.0), 0.3, 0.5),  # Alice's window starts at 0
            ((400.0, 399.9, 0.0), 30.0, 0.5),
            ((1.5, 0.0, 0.0), 1.0, 0.5),
        ],
    )
    @pytest.mark.filterwarnings("ignore:window larger than x0/5")
    def test_agrees_with_brute_force(self, state, x0, window):
        p = SymmetricStateParams(*state)
        cfg = pr.ProtocolConfig(x0=x0, window=window, n_pairs=2_000_000, block_n=2, seed=0)
        ref = brute_force_sift(p, cfg, matkit.Rng(41))
        new = pr.simulate_sifting(p, cfg, matkit.Rng(42))
        n_ref, n_new = len(ref.alice), len(new.alice)
        assert n_ref > 1000
        assert_same_rate(n_new, cfg.n_pairs, n_ref, cfg.n_pairs, "acceptance")
        assert_same_rate(int((new.alice != new.bob).sum()), n_new,
                         int((ref.alice != ref.bob).sum()), n_ref, "eps")
        assert_same_rate(int(new.alice.sum()), n_new, int(ref.alice.sum()), n_ref, "sign")

    @pytest.mark.parametrize(
        "lo, hi, lam",
        [(0.99, 1.01, 1.5), (0.5, 1.5, 1.5), (0.0, 0.8, 1.5), (0.0, 6.0, 1.5), (29.5, 30.5, 400.0)],
    )
    def test_window_draws_follow_erf_cdf(self, lo, hi, lam):
        n = 200_000
        xs = pr._window_abs(matkit.Rng(8).generator, n, lo, hi, lam)
        assert len(xs) == n and xs.min() >= lo and xs.max() <= hi
        edges = np.linspace(lo, hi, 21)
        cdf = np.array([math.erf(e / math.sqrt(lam)) for e in edges])
        expect = np.diff(cdf) / (cdf[-1] - cdf[0])
        counts = np.histogram(xs, edges)[0]
        assert np.all(np.abs(counts - n * expect) <= 4.0 * np.sqrt(n * expect * (1 - expect)) + 1.0)

    def test_window_beyond_reach_accepts_nothing(self):
        cfg = pr.ProtocolConfig(x0=60.0, window=0.01, n_pairs=1_000_000, block_n=2, seed=0)
        bits = pr.simulate_sifting(P111, cfg, matkit.Rng(0))
        assert len(bits.alice) == 0 and bits.acceptance_rate == 0.0

    def test_rejects_more_pairs_than_substreams(self):
        cfg = pr.ProtocolConfig(x0=1.0, window=0.01, n_pairs=pr._MAX_CHUNKS * pr._SIFT_CHUNK + 1,
                                block_n=2, seed=0)
        assert_rejects(lambda: pr.simulate_sifting(P111, cfg, matkit.Rng(0)),
                       "at most 274877906944 pairs per run")


class TestAdvantageDistillation:
    def test_noiseless_stream(self):
        bits = pr.SiftedBits(np.zeros(100, np.uint8), np.zeros(100, np.uint8), 1.0)
        out = pr.simulate_advantage_distillation(bits, 4, matkit.Rng(2))
        assert out.blocks_consumed == 25
        assert len(out.kept_bits_alice) == 25
        assert out.empirical_error == 0.0
        assert np.array_equal(out.kept_bits_alice, out.kept_bits_bob)

    def test_matches_closed_form(self):
        eps = EPS111
        n_bits = 400_000
        rng = matkit.Rng(11)
        alice = rng.bits(n_bits)
        flips = rng.generator.random(n_bits) < eps
        bits = pr.SiftedBits(alice, alice ^ flips.astype(np.uint8), 1.0)
        out = pr.simulate_advantage_distillation(bits, 2, matkit.Rng(12))
        eps2 = pr.ad_error(eps, 2)
        kept = len(out.kept_bits_alice)
        accept_theory = (1 - eps) ** 2 + eps**2
        assert abs(kept / out.blocks_consumed - accept_theory) < 3 * np.sqrt(
            accept_theory * (1 - accept_theory) / out.blocks_consumed
        )
        assert abs(out.empirical_error - eps2) < 3 * np.sqrt(eps2 * (1 - eps2) / kept)

    def test_single_block_passthrough(self):
        rng = matkit.Rng(21)
        alice = rng.bits(5000)
        flips = (rng.generator.random(5000) < 0.1).astype(np.uint8)
        bits = pr.SiftedBits(alice, alice ^ flips, 1.0)
        out = pr.simulate_advantage_distillation(bits, 1, matkit.Rng(22))
        assert out.blocks_consumed == 5000
        assert len(out.kept_bits_alice) == 5000
        assert out.empirical_error == np.mean(flips)

    def test_rejects_oversized_block(self):
        bits = pr.SiftedBits(np.zeros(3, np.uint8), np.zeros(3, np.uint8), 1.0)
        assert_rejects(lambda: pr.simulate_advantage_distillation(bits, 4, matkit.Rng(0)),
                       "block size must be an integer in [1, number of sifted bits]")


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        assert_rejects(lambda: pr.ProtocolConfig(x0=0.0, window=0.1, n_pairs=10, block_n=2, seed=0),
                       "x0 must be finite and positive")
        assert_rejects(lambda: pr.ProtocolConfig(x0=1.0, window=0.0, n_pairs=10, block_n=2, seed=0),
                       "window must be finite and positive")

    def test_finiteness_check_takes_numpy_scalars_and_ints(self):
        for x0, window in ((np.float64(1.0), np.float32(0.125)), (np.int64(10), 1)):
            cfg = pr.ProtocolConfig(x0=x0, window=window, n_pairs=10, block_n=2, seed=0)
            assert (cfg.x0, cfg.window) == (x0, window)
        for bad in (np.nan, np.inf, -np.inf, np.float32("nan")):
            assert_rejects(lambda: pr.ProtocolConfig(x0=bad, window=0.1, n_pairs=10, block_n=2, seed=0),
                           "x0 must be finite and positive")
            assert_rejects(lambda: pr.ProtocolConfig(x0=1.0, window=bad, n_pairs=10, block_n=2, seed=0),
                           "window must be finite and positive")

    def test_wide_window_warns(self):
        with pytest.warns(UserWarning):
            pr.ProtocolConfig(x0=1.0, window=0.5, n_pairs=10, block_n=2, seed=0)

    def test_mismatched_bits_rejected(self):
        assert_rejects(lambda: pr.SiftedBits(np.zeros(2, np.uint8), np.zeros(3, np.uint8), 0.5),
                       "bit lists must have equal length")


_NO_BITS = pr.SiftedBits(np.zeros(0, np.uint8), np.zeros(0, np.uint8), 0.0)


class TestInputChecks:
    # the module's own input rules, each row with its exact message
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: pr.ad_error_bound(0.1, -1), "block size must be an integer of at least 1",
                     id="bound-block-negative"),
        pytest.param(lambda: pr.ad_error_bound(1.0, 2), "eps must lie in [0, 1)", id="bound-eps-1"),
        pytest.param(lambda: pr.ad_error_bound(-0.1, 2), "eps must lie in [0, 1)",
                     id="bound-eps-negative"),
        pytest.param(lambda: pr.simulate_advantage_distillation(_NO_BITS, 2, matkit.Rng(0)),
                     "no sifted bits to distill", id="distill-empty"),
        pytest.param(lambda: pr.SiftedBits(np.zeros(1, np.uint8), np.zeros(1, np.uint8), 1.5),
                     "acceptance rate must be a probability", id="sifted-rate-above-1"),
        pytest.param(lambda: pr.SiftedBits(np.zeros(1, np.uint8), np.zeros(1, np.uint8), -0.1),
                     "acceptance rate must be a probability", id="sifted-rate-negative"),
        pytest.param(lambda: pr.error_probability(P111, [1.0]),
                     "x0 must be one finite nonzero number", id="error-probability-1-threshold"),
        # math.isfinite would raise a bare TypeError
        pytest.param(lambda: pr.ProtocolConfig("a", 0.1, 1000, 2, 1), "x0 must be finite and positive",
                     id="config-string-x0"),
        pytest.param(lambda: pr.ProtocolConfig(1.0, 1j, 1000, 2, 1), "window must be finite and positive",
                     id="config-complex-window"),
        pytest.param(lambda: pr.ad_error("a", 2), "eps must lie in [0, 1)", id="ad-string-eps"),
        pytest.param(lambda: pr.SiftedBits(np.zeros(1, np.uint8), np.zeros(1, np.uint8), "a"),
                     "acceptance rate must be a probability", id="sifted-rate-string"),
        # math.isfinite would raise a bare OverflowError
        pytest.param(lambda: pr.ProtocolConfig(10**400, 0.1, 1000, 2, 1), "x0 must be finite and positive",
                     id="config-huge-int-x0"),
        # a comparison with an array would raise numpy's ambiguous-truth ValueError
        pytest.param(lambda: pr.ad_error_bound(np.array([0.1, 0.2]), 2), "eps must lie in [0, 1)",
                     id="bound-array-eps"),
    ])
    def test_rejects(self, call, message):
        assert_rejects(call, message)
