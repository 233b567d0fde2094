import math

import numpy as np
import pytest

from gausskey import matkit
from gausskey import protocol as pr
from gausskey.errors import DegenerateParams, InvalidInput
from gausskey.gaussian import SymmetricStateParams

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


class TestJointSignDistribution:
    def test_uncorrelated_uniform(self):
        table = pr.joint_sign_distribution(SymmetricStateParams(1.5, 0.0, 0.0), 1.0)
        assert np.allclose(table, 0.25)

    def test_matches_error_formula(self):
        # off-diagonal mass over total pins the density ratio
        # exp(-4 cx x0^2 / (lam^2 - cx^2)) and with it the cm/2 variance rule
        table = pr.joint_sign_distribution(P111, 1.0)
        eps = table[0, 1] + table[1, 0]
        assert abs(eps - EPS111) < 1e-12
        assert abs(eps - 0.03917) < 1e-5

    def test_zero_threshold_uniform(self):
        table = pr.joint_sign_distribution(P111, 0.0)
        assert np.allclose(table, 0.25)

    def test_symmetry_and_normalization(self):
        table = pr.joint_sign_distribution(P111, 0.7)
        assert table[0, 0] == table[1, 1]
        assert table[0, 1] == table[1, 0]
        assert abs(table.sum() - 1.0) < 1e-14

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidInput):
            pr.joint_sign_distribution(SymmetricStateParams(1.5, 1.3, 1.0), 1.0)


class TestErrorProbability:
    def test_reference_point(self):
        assert abs(pr.error_probability(P111, 1.0) - 0.03917) < 1e-5

    def test_uncorrelated(self):
        assert pr.error_probability(SymmetricStateParams(2.0, 0.0, 0.0), 1.0) == 0.5

    def test_zero_threshold(self):
        assert pr.error_probability(P111, 0.0) == 0.5

    def test_huge_threshold(self):
        # exp(-a) form: no overflow, and r = 0 stays 1/2 even at x0^2 = inf
        assert pr.error_probability(P111, 30.0) == 0.0
        assert pr.error_probability(P111, np.float64(1e200)) == 0.0
        assert pr.error_probability(SymmetricStateParams(2.0, 0.0, 0.0), 1e200) == 0.5

    def test_exponent_form_matches_logistic(self):
        a = np.array([0.0, 1e-3, 0.5, 3.0, 30.0])
        assert np.abs(pr.error_from_exponent(a) - 1.0 / (1.0 + np.exp(a))).max() < 1e-16

    def test_degenerate_pole(self):
        with pytest.raises(DegenerateParams):
            pr.error_probability(SymmetricStateParams(1.0, 1.0, 0.0), 1.0)


class TestAdError:
    def test_symmetric_fixed_point(self):
        for n in (1, 2, 5, 17):
            assert pr.ad_error(0.5, n) == 0.5

    def test_single_block_identity(self):
        for eps in (0.0, 0.1, 0.3917):
            assert pr.ad_error(eps, 1) == eps

    def test_reference_value(self):
        assert abs(pr.ad_error(0.03917, 2) - 0.001659) < 1e-6

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
        with pytest.raises(InvalidInput):
            pr.ad_error(1.0, 2)


class TestSimulateSifting:
    def test_uncorrelated_error_half(self):
        p = SymmetricStateParams(1.5, 0.0, 0.0)
        cfg = pr.ProtocolConfig(x0=1.0, window=0.2, n_pairs=200_000, block_n=2, seed=1)
        bits = pr.simulate_sifting(p, cfg, matkit.Rng(1))
        n = len(bits.alice)
        err = np.mean(bits.alice != bits.bob)
        assert abs(err - 0.5) < 3.0 * np.sqrt(0.25 / n)

    def test_matches_closed_form(self):
        cfg = pr.ProtocolConfig(x0=1.0, window=0.01, n_pairs=20_000_000, block_n=2, seed=3)
        bits = pr.simulate_sifting(P111, cfg, matkit.Rng(3))
        n = len(bits.alice)
        assert n > 1000
        err = np.mean(bits.alice != bits.bob)
        assert abs(err - EPS111) < 3.0 * np.sqrt(EPS111 * (1 - EPS111) / n)

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

    def test_deterministic(self):
        cfg = pr.ProtocolConfig(x0=1.0, window=0.05, n_pairs=300_000, block_n=2, seed=9)
        a = pr.simulate_sifting(P111, cfg, matkit.Rng(9))
        b = pr.simulate_sifting(P111, cfg, matkit.Rng(9))
        assert np.array_equal(a.alice, b.alice) and np.array_equal(a.bob, b.bob)
        assert a.acceptance_rate == b.acceptance_rate

    def test_worker_count_irrelevant(self):
        cfg = pr.ProtocolConfig(x0=1.0, window=0.05, n_pairs=300_000, block_n=2, seed=9)
        a = pr.simulate_sifting(P111, cfg, matkit.Rng(9), workers=1)
        b = pr.simulate_sifting(P111, cfg, matkit.Rng(9), workers=4)
        assert np.array_equal(a.alice, b.alice) and np.array_equal(a.bob, b.bob)


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
        with pytest.raises(InvalidInput, match="pairs per run"):
            pr.simulate_sifting(P111, cfg, matkit.Rng(0))


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

    def test_full_pipeline_reproduces_composition(self):
        cfg = pr.ProtocolConfig(x0=1.0, window=0.02, n_pairs=30_000_000, block_n=2, seed=5)
        bits = pr.simulate_sifting(P111, cfg, matkit.Rng(5))
        out = pr.simulate_advantage_distillation(bits, 2, matkit.Rng(6))
        eps2 = pr.ad_error(pr.error_probability(P111, cfg.x0), 2)
        kept = len(out.kept_bits_alice)
        # finite window widens eps slightly; allow 3 sigma plus a small bias term
        tol = 3 * np.sqrt(eps2 * (1 - eps2) / kept) + 0.2 * eps2
        assert abs(out.empirical_error - eps2) < tol

    def test_rejects_oversized_block(self):
        bits = pr.SiftedBits(np.zeros(3, np.uint8), np.zeros(3, np.uint8), 1.0)
        with pytest.raises(InvalidInput):
            pr.simulate_advantage_distillation(bits, 4, matkit.Rng(0))


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            pr.ProtocolConfig(x0=0.0, window=0.1, n_pairs=10, block_n=2, seed=0)
        with pytest.raises(InvalidInput):
            pr.ProtocolConfig(x0=1.0, window=0.0, n_pairs=10, block_n=2, seed=0)
        with pytest.raises(InvalidInput):
            pr.ProtocolConfig(x0=1.0, window=0.1, n_pairs=0, block_n=2, seed=0)

    def test_wide_window_warns(self):
        with pytest.warns(UserWarning):
            pr.ProtocolConfig(x0=1.0, window=0.5, n_pairs=10, block_n=2, seed=0)

    def test_mismatched_bits_rejected(self):
        with pytest.raises(InvalidInput):
            pr.SiftedBits(np.zeros(2, np.uint8), np.zeros(3, np.uint8), 0.5)
