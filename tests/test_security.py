import numpy as np
import pytest

from conftest import random_symmetric_params
from gausskey import matkit, security as sec
from gausskey.errors import InvalidInput
from gausskey.gaussian import SymmetricStateParams, npt_symmetric, xxpp_indices
from gausskey.protocol import error_probability

P111 = SymmetricStateParams(1.5, 1.0, 1.0)


def pure_boundary_params(lam):
    c = np.sqrt(lam**2 - 1.0)
    return SymmetricStateParams(lam, c, c)


class TestEveEnsemble:
    def test_pure_boundary_decouples(self):
        ens = sec.eve_ensemble(pure_boundary_params(1.5), 1.0)
        assert np.abs(ens.gram - 1.0).max() < 1e-9
        dvs = [ens.states[k].state.dv for k in sec.SIGN_ORDER]
        for dv in dvs[1:]:
            assert np.abs(dv - dvs[0]).max() < 1e-9

    def test_reference_overlap(self):
        ens = sec.eve_ensemble(P111, 1.0)
        assert abs(abs(ens.gram[0, 1]) ** 2 - np.exp(-0.4)) < 1e-12

    def test_concordant_overlap_real_positive(self):
        ens = sec.eve_ensemble(P111, 1.0)
        assert abs(ens.gram[0, 1].imag) < 1e-12
        assert ens.gram[0, 1].real > 0

    def test_whole_gram_real_for_family(self):
        # all conditional displacements are momentum-only for this family
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_symmetric_params(rng)
            ens = sec.eve_ensemble(p, 0.8)
            assert np.abs(ens.gram.imag).max() < 1e-12

    def test_gram_is_psd_unit_diagonal(self):
        ens = sec.eve_ensemble(P111, 1.3)
        assert np.abs(np.diag(ens.gram) - 1.0).max() < 1e-14
        assert np.abs(ens.gram - ens.gram.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(ens.gram).min() > -1e-9

    def test_conditional_state_closed_form(self):
        x0 = 1.0
        ens = sec.eve_ensemble(P111, x0)
        idx = xxpp_indices(2)
        gx = np.array([[P111.lam, P111.cx], [P111.cx, P111.lam]])
        want_cm = np.block([[gx, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(gx)]])
        k = -np.sqrt(P111.lam**2 - P111.cx * P111.cp - 1.0) / (P111.lam + P111.cx)
        st_pp = ens.states["++"].state
        st_mm = ens.states["--"].state
        assert np.abs(st_pp.cm[np.ix_(idx, idx)] - want_cm).max() < 1e-12
        assert np.abs(st_pp.dv[idx] - np.array([0, 0, k * x0, k * x0])).max() < 1e-12
        assert np.abs(st_mm.dv + st_pp.dv).max() < 1e-12
        assert np.abs(st_mm.cm - st_pp.cm).max() < 1e-12

    def test_rejects_zero_threshold(self):
        with pytest.raises(InvalidInput):
            sec.eve_ensemble(P111, 0.0)


def reference_rate(p, x0):
    """One-way rate built on the generic ensemble of ``eve_ensemble``."""
    eps = error_probability(p, x0)
    c = np.sqrt(np.array([(1 - eps) / 2, (1 - eps) / 2, eps / 2, eps / 2]))
    rho = (c[:, None] * c[None, :]) * sec.eve_ensemble(p, x0).gram.T
    w, _ = matkit.eigh(0.5 * (rho + rho.conj().T))
    return 1.0 - matkit.binary_entropy(eps) - matkit.entropy_bits(np.clip(w.real, 0.0, None))


def eigh_rate(p, x0):
    """One-way rate from the eigenvalues of the matrix ``effective_state``."""
    eff = sec.effective_state(p, x0)
    w, _ = matkit.eigh(eff.rho)
    return 1.0 - matkit.binary_entropy(eff.eps_ab) - matkit.entropy_bits(np.clip(w, 0.0, None))


class TestClosedFormReference:
    def test_matches_generic_pipeline(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_symmetric_params(rng)
            _, q = sec._exponents(p)
            for x0 in (1e-3, 0.5, 1.0, 2.5, 5.0):
                gram = sec.eve_ensemble(p, x0).gram
                assert np.abs(np.exp(-x0 * x0 * q) - gram).max() < 1e-12, (p, x0)
                assert abs(sec.rate_lower_bound(p, x0) - reference_rate(p, x0)) < 1e-12, (p, x0)

    def test_block_spectrum_matches_eigh(self):
        rng = np.random.default_rng(43)
        x0s = np.array([1e-3, 0.5, 1.0, 2.5, 5.0])
        for _ in range(100):
            p = random_symmetric_params(rng)
            rates = sec.rate_lower_bound(p, x0s)
            for x0, rate in zip(x0s, rates):
                assert abs(rate - eigh_rate(p, x0)) < 1e-12, (p, x0)
                assert abs(rate - reference_rate(p, x0)) < 1e-12, (p, x0)

    def test_array_call_matches_scalar_calls(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            p = random_symmetric_params(rng)
            x0s = rng.uniform(-5.0, 5.0, size=(3, 7))
            rates = sec.rate_lower_bound(p, x0s)
            assert rates.shape == x0s.shape
            scalar = np.vectorize(lambda x: sec.rate_lower_bound(p, x))(x0s)
            assert np.abs(rates - scalar).max() < 1e-15
        assert isinstance(sec.rate_lower_bound(P111, 1.0), float)

    def test_rejects_zero_threshold_in_batch(self):
        with pytest.raises(InvalidInput):
            sec.rate_lower_bound(P111, np.array([0.5, 0.0]))


class TestHugeThresholds:
    # cx = 0 gives r = 0 and the exact pure boundary gives q_same = q_diff = 0,
    # so these hit 0 * inf at x0^2 = inf; the rounded boundary at lam = 2.6
    # has q_same and q_diff of about -1e-15; any numpy warning fails the test
    STATES = (
        P111,
        SymmetricStateParams(1.5, 0.0, 0.0),
        SymmetricStateParams(1.25, 0.75, 0.75),
        pure_boundary_params(2.6),
    )

    def test_finite_everywhere(self):
        for p in self.STATES:
            x0s = np.array([1e-200, 1e150, 1e200])
            assert np.all(np.isfinite(sec.rate_lower_bound(p, x0s))), p
            eff = sec.effective_state(p, 1e200)
            assert np.all(np.isfinite(eff.rho)) and abs(np.trace(eff.rho) - 1.0) < 1e-15, p
            assert 0.0 <= sec.eve_overlap(p, 1e200) <= 1.0
            assert abs(sec.rate_lower_bound(p, 1e200) - eigh_rate(p, 1e200)) < 1e-12, p

    def test_limits(self):
        # no decay on the pure boundary, none of the error ratio at cx = 0
        for pure in (SymmetricStateParams(1.25, 0.75, 0.75), pure_boundary_params(2.6)):
            assert sec.eve_overlap(pure, 1e200) == 1.0
            assert sec.rate_lower_bound(pure, 1e200) == 1.0
        assert sec.effective_state(SymmetricStateParams(1.5, 0.0, 0.0), 1e200).eps_ab == 0.5

    def test_optimize_rate_on_huge_range(self):
        for p in self.STATES:
            best_x0, rate = sec.optimize_rate(p, x0_max=1e200)
            assert 1e194 <= best_x0 <= 1e200 and np.isfinite(rate), p


class TestAttackConditions:
    def test_individual_reference_point(self):
        assert sec.individual_attack_secure(P111, 1.0)
        eps = error_probability(P111, 1.0)
        assert abs(eps / (1 - eps) - 0.04076) < 1e-5
        assert abs(sec.eve_overlap(P111, 1.0) - 0.8187) < 1e-4

    def test_product_state_insecure(self):
        p = SymmetricStateParams(1.5, 0.0, 0.0)
        assert not sec.individual_attack_secure(p, 1.0)

    def test_boundary_equality(self):
        # at cx = cp = lam - 1 both sides reduce to the same exponential
        for lam in (1.2, 1.8, 2.6):
            p = SymmetricStateParams(lam, lam - 1.0, lam - 1.0)
            for x0 in (0.5, 1.0, 2.0):
                eps = error_probability(p, x0)
                assert abs(eps / (1 - eps) - sec.eve_overlap(p, x0)) < 1e-12

    def test_finite_coherent_is_individual(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = random_symmetric_params(rng)
            assert sec.any_x0_secure(p, attack=sec.FINITE_COHERENT) == sec.any_x0_secure(
                p, attack=sec.INDIVIDUAL
            )

    def test_coherent_ad_pure_boundary_secure(self):
        p = pure_boundary_params(2.0)
        for x0 in (0.3, 1.0, 4.0):
            assert sec.coherent_ad_secure(p, x0)

    def test_coherent_ad_violated_by_some_nppt_state(self):
        p = SymmetricStateParams(1.9, 1.0, 1.0)
        assert npt_symmetric(p)
        grid = np.linspace(0.25, 5.0, 20)
        assert not any(sec.coherent_ad_secure(p, x0) for x0 in grid)

    def test_coherent_ad_implies_individual(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_symmetric_params(rng)
            x0 = rng.uniform(0.2, 3.0)
            if sec.coherent_ad_secure(p, x0):
                assert sec.individual_attack_secure(p, x0)

    def test_nppt_iff_individual_sample(self):
        rng = np.random.default_rng(13)
        grid = np.linspace(0.25, 5.0, 20)
        for _ in range(200):
            p = random_symmetric_params(rng, exclusion=1e-9)
            assert sec.any_x0_secure(p, grid, sec.INDIVIDUAL) == npt_symmetric(p)


class TestAnyX0Secure:
    def test_agrees_with_pointwise_predicates(self):
        # pointwise conditions evaluated on the generic ensemble
        rng = np.random.default_rng(5)
        grid = np.linspace(0.4, 3.0, 7)
        for _ in range(25):
            p = random_symmetric_params(rng)
            ratios = [error_probability(p, x) / (1 - error_probability(p, x)) for x in grid]
            overlaps = [abs(sec.eve_ensemble(p, x).gram[0, 1]) for x in grid]
            slow_ind = any(r < o for r, o in zip(ratios, overlaps))
            slow_coh = any(r < o**2 for r, o in zip(ratios, overlaps))
            assert sec.any_x0_secure(p, grid, sec.INDIVIDUAL) == slow_ind
            assert sec.any_x0_secure(p, grid, sec.COHERENT_AD) == slow_coh
            assert all(sec.individual_attack_secure(p, x) == slow_ind for x in grid)
            assert all(sec.coherent_ad_secure(p, x) == slow_coh for x in grid)

    def test_rejects_general(self):
        with pytest.raises(InvalidInput):
            sec.any_x0_secure(P111, attack=sec.GENERAL)


class TestEffectiveState:
    def test_pure_boundary_rank_one(self):
        eff = sec.effective_state(pure_boundary_params(1.4), 1.0)
        w = np.linalg.eigvalsh(eff.rho)
        assert abs(w.max() - 1.0) < 1e-9
        assert matkit.entropy_bits(np.clip(w, 0, None)) < 1e-9

    def test_identity_gram_gives_classical_mixture(self, monkeypatch):
        # infinite off-diagonal exponents make the Gram matrix the identity
        r, _ = sec._exponents(P111)
        q = np.full((4, 4), np.inf)
        np.fill_diagonal(q, 0.0)
        monkeypatch.setattr(sec, "_exponents", lambda p: (r, q))
        eff = sec.effective_state(P111, 1.0)
        eps = eff.eps_ab
        want = np.diag([(1 - eps) / 2, (1 - eps) / 2, eps / 2, eps / 2])
        assert np.abs(eff.rho - want).max() < 1e-14
        w = np.linalg.eigvalsh(eff.rho)
        s = matkit.entropy_bits(np.clip(w, 0, None))
        assert abs(s - (1.0 + matkit.binary_entropy(eps))) < 1e-12

    def test_trace_one_psd_hermitian(self):
        eff = sec.effective_state(P111, 0.9)
        assert abs(np.trace(eff.rho).real - 1.0) < 1e-10
        assert np.abs(eff.rho - eff.rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(eff.rho).min() > -1e-9

    def test_entropy_invariant_under_sign_flip(self):
        for x0 in (0.5, 1.7):
            wp = np.linalg.eigvalsh(sec.effective_state(P111, x0).rho)
            wm = np.linalg.eigvalsh(sec.effective_state(P111, -x0).rho)
            assert np.abs(wp - wm).max() < 1e-12


class TestRateBound:
    def test_pure_boundary_rate(self):
        p = pure_boundary_params(1.6)
        for x0 in (0.5, 1.5):
            eps = error_probability(p, x0)
            want = 1.0 - matkit.binary_entropy(eps)
            assert abs(sec.rate_lower_bound(p, x0) - want) < 1e-9
            assert sec.rate_lower_bound(p, x0) > 0

    def test_product_state_nonpositive(self):
        assert sec.rate_lower_bound(SymmetricStateParams(1.0, 0.0, 0.0), 1.0) <= 0.0
        assert sec.rate_lower_bound(SymmetricStateParams(1.7, 0.0, 0.0), 1.0) < 0.0

    def test_sign_change_along_correlation_axis(self):
        weak = SymmetricStateParams(1.5, 0.55, 0.55)
        strong = SymmetricStateParams(1.5, 1.0, 1.0)
        assert npt_symmetric(weak) and npt_symmetric(strong)
        assert sec.optimize_rate(weak)[1] < 0.0
        assert sec.optimize_rate(strong)[1] > 0.0

    def test_rate_below_mutual_information(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_symmetric_params(rng)
            x0 = rng.uniform(0.3, 2.5)
            eps = error_probability(p, x0)
            assert sec.rate_lower_bound(p, x0) <= 1.0 - matkit.binary_entropy(eps) + 1e-12


class TestOptimizeRate:
    def test_pure_boundary_attains_supremum(self):
        # the closed-form rate 1 - h(eps(x0)) increases with x0, so the
        # supremum sits at x0_max; in double precision it plateaus at 1.0
        # well before that, and the optimizer must reach the plateau
        p = pure_boundary_params(1.5)
        best_x0, best_rate = sec.optimize_rate(p, x0_max=5.0)
        assert best_rate >= sec.rate_lower_bound(p, 5.0) - 1e-12
        eps = error_probability(p, best_x0)
        assert abs(best_rate - (1.0 - matkit.binary_entropy(eps))) < 1e-9
        assert abs(best_rate - 1.0) < 1e-10

    def test_product_state(self):
        assert sec.optimize_rate(SymmetricStateParams(1.3, 0.0, 0.0))[1] <= 0.0

    def test_beats_dense_grid(self):
        _, best = sec.optimize_rate(P111)
        grid = np.linspace(1e-3, 5.0, 1000)
        vals = [sec.rate_lower_bound(P111, x) for x in grid]
        assert best >= max(vals) - 1e-9

    def test_beats_dense_grid_random_states(self):
        rng = np.random.default_rng(53)
        grid = np.linspace(5e-6, 5.0, 10_001)
        for _ in range(50):
            p = random_symmetric_params(rng)
            _, best = sec.optimize_rate(p)
            assert best >= sec.rate_lower_bound(p, grid).max() - 1e-12, p


class TestFrontier:
    def test_individual_matches_entanglement_rail(self):
        pts = sec.security_frontier(np.array([0.5, 1.0, 2.0]), sec.INDIVIDUAL)
        for c, lam_star in pts:
            assert abs(lam_star - (c + 1.0)) < 1e-5

    def test_general_strictly_between_rails(self):
        pts = sec.security_frontier(np.array([1.0]), sec.GENERAL)
        (c, lam_star), = pts
        assert np.sqrt(1 + c * c) + 1e-4 < lam_star < c + 1.0 - 1e-4

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidInput):
            sec.security_frontier(np.array([]), sec.INDIVIDUAL)
        with pytest.raises(InvalidInput):
            sec.security_frontier(np.array([1.0, 0.5]), sec.INDIVIDUAL)


class TestAttackHierarchy:
    def test_coherent_ad_implies_individual_on_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p = random_symmetric_params(rng)
            if sec.any_x0_secure(p, attack=sec.COHERENT_AD):
                assert sec.any_x0_secure(p, attack=sec.INDIVIDUAL)

    def test_general_versus_coherent_ad_recorded(self):
        # the relative position of the one-way-rate frontier and the
        # squared-overlap condition is an empirical observation on this grid;
        # counterexamples are reported, not failed on
        rng = np.random.default_rng(23)
        counterexamples = []
        for _ in range(40):
            p = random_symmetric_params(rng, lam_range=(1.0, 2.5))
            if sec.optimize_rate(p)[1] > 0 and not sec.any_x0_secure(p, attack=sec.COHERENT_AD):
                counterexamples.append(p)
        if counterexamples:
            print(f"finding: one-way rate positive without coherent-AD condition at {counterexamples}")


class TestBuildReport:
    def test_reference_point(self):
        rep = sec.build_report(P111)
        assert rep.physical and rep.nppt
        assert rep.individual_secure and rep.coherent_ad_secure
        assert rep.general_secure == (rep.rate_lb > 0)
        eps = error_probability(P111, rep.best_x0)
        assert abs(eps - rep.eps_ab) < 1e-15
        assert rep.individual_secure == (rep.eps_ab / (1 - rep.eps_ab) < rep.eve_overlap)
        assert rep.rate_lb <= 1.0

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidInput):
            sec.build_report(SymmetricStateParams(1.5, 1.3, 1.0))
