import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import assert_rejects, random_symmetric_params, rejection_messages
from gausskey import gaussian, matkit, protocol, security as sec
from gausskey.errors import IllConditioned
from gausskey.gaussian import SymmetricStateParams, npt_symmetric, symmetric_exponents
from gausskey.protocol import error_probability

P111 = SymmetricStateParams(1.5, 1.0, 1.0)


def pure_boundary_params(lam):
    c = np.sqrt(lam**2 - 1.0)
    return SymmetricStateParams(lam, c, c)


@st.composite
def physical_params(draw):
    """A hypothesis draw of a physical state: ``lam`` sits an offset of 0 to 3
    above the physical boundary ``(lam - cx)(lam + cp) = 1``, so both sides
    of the NPPT boundary and the boundary itself are drawn."""
    cx = draw(st.floats(0.0, 5.0))
    cp = cx * draw(st.floats(0.0, 1.0))
    lam = 0.5 * (cx - cp + math.sqrt((cx + cp) ** 2 + 4.0)) + draw(st.floats(0.0, 3.0))
    return SymmetricStateParams(lam, cx, cp)


@st.composite
def coherent_ad_rail_params(draw):
    """A physical state within 1e-6 of the coherent-ad rail, the largest root
    of ``(lam - cp)(lam^2 - cx^2) = lam``, where that root is physical."""
    cx = draw(st.floats(0.05, 5.0))
    cp = cx * draw(st.floats(0.0, 1.0))
    roots = np.roots([1.0, -cp, -(cx * cx + 1.0), cx * cx * cp])
    lam = roots[np.abs(roots.imag) < 1e-12].real.max() + draw(st.floats(-1e-6, 1e-6))
    assume((lam - cx) * (lam + cp) >= 1.0)
    return SymmetricStateParams(lam, cx, cp)


# positive thresholds from far below the search range to where eps underflows
thresholds = st.floats(1e-9, 40.0)


class TestEveEnsemble:
    def test_pure_boundary_decouples(self):
        ens = sec.eve_ensemble(pure_boundary_params(1.5), 1.0)
        assert np.abs(ens.gram - 1.0).max() < 1e-9
        dvs = [ens.states[k].state.dv for k in sec.SIGN_ORDER]
        for dv in dvs[1:]:
            assert np.abs(dv - dvs[0]).max() < 1e-9

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


def reference_rho(p, x0):
    """Effective two-qubit state built on the generic ensemble of
    ``eve_ensemble``: ``rho[s, t] = c_s c_t <e_t|e_s>``."""
    eps = error_probability(p, x0)
    c = np.sqrt(np.array([(1 - eps) / 2, (1 - eps) / 2, eps / 2, eps / 2]))
    return eps, (c[:, None] * c[None, :]) * sec.eve_ensemble(p, x0).gram.T


def reference_rate(p, x0):
    """One-way rate built on the generic ensemble of ``eve_ensemble``."""
    eps, rho = reference_rho(p, x0)
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
            for x0 in (1e-3, 0.5, 1.0, 2.5, 5.0):
                eps, rho = reference_rho(p, x0)
                eff = sec.effective_state(p, x0)
                assert abs(eff.eps_ab - eps) < 1e-15, (p, x0)
                assert np.abs(eff.rho - rho).max() < 1e-12, (p, x0)
                assert abs(sec.rate_lower_bound(p, x0) - reference_rate(p, x0)) < 1e-12, (p, x0)

    def test_block_spectrum_matches_eigh(self):
        rng = np.random.default_rng(43)
        x0s = np.array([1e-3, 0.5, 1.0, 2.5, 5.0])
        for _ in range(100):
            p = random_symmetric_params(rng)
            rates = sec.rate_lower_bound(p, x0s)
            for x0, rate in zip(x0s, rates):
                assert abs(rate - eigh_rate(p, x0)) < 1e-12, (p, x0)

    def test_array_call_matches_scalar_calls(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            p = random_symmetric_params(rng)
            x0s = rng.uniform(-5.0, 5.0, size=(3, 7))
            rates = sec.rate_lower_bound(p, x0s)
            assert rates.shape == x0s.shape
            scalar = np.vectorize(lambda x: sec.rate_lower_bound(p, x))(x0s)
            assert np.array_equal(rates, scalar)
        assert isinstance(sec.rate_lower_bound(P111, 1.0), float)
        zero_d = sec.rate_lower_bound(P111, np.array(1.0))
        assert isinstance(zero_d, float) and zero_d == sec.rate_lower_bound(P111, 1.0)

    def test_rejects_zero_threshold_in_batch(self):
        assert_rejects(lambda: sec.rate_lower_bound(P111, np.array([0.5, 0.0])),
                       "x0 must be one finite nonzero number")


class TestAdvantageDistillationRescaling:
    def test_n_blocks_equal_sqrt_n_threshold(self):
        # n-block AD leaves the adversary n copies of each conditional state,
        # so the Gram matrix is raised elementwise to the n-th power and the
        # sector weights become (1 - eps)^n and eps^n: the closed form at sqrt(n) x0
        rng = np.random.default_rng(53)
        for _ in range(100):
            p = random_symmetric_params(rng)
            x0 = rng.uniform(0.2, 2.0)
            eps, gram = error_probability(p, x0), sec.eve_ensemble(p, x0).gram
            for n in (2, 3):
                w = np.array([(1 - eps) ** n, (1 - eps) ** n, eps**n, eps**n])
                c = np.sqrt(w / w.sum())
                rho = (c[:, None] * c[None, :]) * (gram**n).T
                eff = sec.effective_state(p, math.sqrt(n) * x0)
                assert np.abs(eff.rho - rho).max() < 1e-13, (p, x0, n)
                assert abs(eff.eps_ab - protocol.ad_error(eps, n)) < 1e-13, (p, x0, n)


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

    def test_caller_error_state_does_not_reach_the_decay(self):
        # every route returns what it returns under numpy's default error
        # state even when the caller turns overflow into an exception
        calls = (
            lambda: error_probability(P111, 1e200),
            lambda: sec.eve_overlap(P111, 1e200),
            lambda: sec.effective_state(P111, 1e200).rho,
            lambda: sec.rate_lower_bound(P111, 1e200),
            lambda: sec.build_report(SymmetricStateParams(1e160, 1.0, 0.0), x0_max=1e300),
            # every exponent of the vacuum is 0, so its search runs up to 1e300
            lambda: sec.build_report(SymmetricStateParams(1.0, 0.0, 0.0), x0_max=1e300),
        )
        for call in calls:
            want = call()
            with np.errstate(over="raise"):
                got = call()
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want

    def test_limits(self):
        # no decay on the pure boundary, none of the error ratio at cx = 0
        for pure in (SymmetricStateParams(1.25, 0.75, 0.75), pure_boundary_params(2.6)):
            assert sec.eve_overlap(pure, 1e200) == 1.0
            assert sec.rate_lower_bound(pure, 1e200) == 1.0
        assert sec.effective_state(SymmetricStateParams(1.5, 0.0, 0.0), 1e200).eps_ab == 0.5

    def test_optimize_rate_on_huge_range(self):
        # the search stops where every decaying term has underflowed, so a
        # huge range finds the default optimum; at lam = 1.7e308 the overlap
        # exponents are infinite and r is 0
        best_x0, rate = sec.optimize_rate(P111)
        huge_x0, huge_rate = sec.optimize_rate(P111, x0_max=1e200)
        assert abs(huge_rate - rate) < 1e-12 and abs(huge_x0 - best_x0) < 1e-5
        for p in self.STATES + (SymmetricStateParams(1e300, 1.0, 1.0), SymmetricStateParams(1.7e308, 1.0, 1.0)):
            best_x0, rate = sec.optimize_rate(p, x0_max=1e200)
            assert 0 < best_x0 <= 1e200 and np.isfinite(rate), p

    def test_huge_range_never_worse(self):
        # past sqrt(746 / k) every exp(-k x0^2) is exactly 0, so the rate is
        # constant there and searching up to 1e200 loses nothing
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_symmetric_params(rng, lam_range=(1.0, 40.0))
            # exponents of r, the determinant's sqrt(g_same), sqrt(g_diff), and g_mix^2
            r, q_same, q_diff = symmetric_exponents(p)
            k = np.array([r, q_same / 2, q_diff / 2, (q_same + q_diff) / 2])
            cap = np.sqrt(746.0 / k[k > 0].min())
            rates = sec.rate_lower_bound(p, cap * np.array([1.0, 1.5, 1e10]))
            assert rates[0] == rates[1] == rates[2], p
            assert sec.optimize_rate(p, x0_max=1e200)[1] >= sec.optimize_rate(p)[1] - 1e-12, p

    def test_infinite_exponent_at_underflowed_threshold(self):
        # at lam = 1.7e308 the overlap exponents are infinite, and x0 = 1e-200
        # squares to 0: the exponent is 0 there, not inf * 0 = NaN, so every
        # route sees the x0 -> 0 limit of a finite state
        p = SymmetricStateParams(1.7e308, 1.0, 1.0)
        assert np.isinf(symmetric_exponents(p)[1])
        eff = sec.effective_state(p, 1e-200)
        assert np.array_equal(eff.rho, sec.effective_state(P111, 1e-200).rho)
        assert np.array_equal(eff.rho, np.full((4, 4), 0.25)) and eff.eps_ab == 0.5
        assert sec.eve_overlap(p, 1e-200) == 1.0
        assert sec.rate_lower_bound(p, 1e-200) == sec.rate_lower_bound(P111, 1e-200) == 0.0
        # the rate search's rows follow the same rule: its scan of
        # [1e-166, 1e-160] meets thresholds below about 1.6e-162, whose x0^2 is 0
        assert sec.optimize_rate(p, x0_max=1e-160)[1] == 0.0


class TestAttackConditions:
    def test_individual_reference_point(self):
        assert sec.any_x0_secure(P111, [1.0], attack=sec.INDIVIDUAL)
        eps = error_probability(P111, 1.0)
        assert abs(eps / (1 - eps) - 0.04076) < 1e-5
        assert abs(sec.eve_overlap(P111, 1.0) - 0.8187) < 1e-4

    def test_product_state_insecure(self):
        p = SymmetricStateParams(1.5, 0.0, 0.0)
        assert not sec.any_x0_secure(p, [1.0], attack=sec.INDIVIDUAL)

    def test_coherent_ad_pure_boundary_secure(self):
        p = pure_boundary_params(2.0)
        for x0 in (0.3, 1.0, 4.0):
            assert sec.coherent_ad_secure(p, x0)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(physical_params(), thresholds)
    def test_coherent_ad_implies_individual(self, p, x0):
        if sec.coherent_ad_secure(p, x0):
            assert sec.any_x0_secure(p, [x0], attack=sec.INDIVIDUAL)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(physical_params() | coherent_ad_rail_params())
    def test_coherent_ad_matches_exponents(self, p):
        # r > 2 q_same read from the exponents, outside a 1e-9 band around its rail
        r, q_same, _ = symmetric_exponents(p)
        assume(abs(r - 2.0 * q_same) >= 1e-9)
        assert sec.any_x0_secure(p, attack=sec.COHERENT_AD) == (r > 2.0 * q_same)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(physical_params())
    def test_margin_identities(self, p):
        # r - q_same and r - 2 q_same against the margins the verdicts read, to
        # 1e-14 of the terms subtracted (2e-14 for the doubled q_same); over
        # 200,000 uniform draws from these ranges every gap was below 4e-16
        # of them.  lam > cx on every state built, so no denominator is 0
        r, q_same, _ = symmetric_exponents(p)
        minus, plus = p.lam - p.cx, p.lam + p.cx
        assert minus > 0.0
        terms = r + 2.0 * (p.lam - p.cp) + 2.0 / plus
        npt = gaussian.npt_margin(p.lam, p.cx, p.cp)
        squared = gaussian.squared_overlap_margin(p.lam, p.cx, p.cp)
        assert abs((r - q_same) - 2.0 * npt / minus) <= 1e-14 * terms
        assert abs((r - 2.0 * q_same) - 4.0 * squared / (minus * plus)) <= 2e-14 * terms

    def test_one_verdict_at_the_nppt_rail(self):
        # within 3 ulps either side of lam = ((cx + cp) + sqrt((cx - cp)^2 + 4))/2;
        # comparing the rounded exponents r > q_same disagreed with NPPT on
        # about 1% of these states
        rng = np.random.default_rng(16)
        for _ in range(100):
            cx = rng.uniform(0.2, 3.0)
            cp = cx * rng.uniform(0.1, 1.0)
            lam = 0.5 * ((cx + cp) + math.sqrt((cx - cp) ** 2 + 4.0))
            for _ in range(3):
                lam = np.nextafter(lam, 0.0)
            for _ in range(7):
                p = SymmetricStateParams(float(lam), cx, cp)
                rep = sec.build_report(p)
                assert rep.nppt == rep.individual_secure == npt_symmetric(p), p
                assert sec.any_x0_secure(p, attack=sec.FINITE_COHERENT) == rep.nppt, p
                lam = np.nextafter(lam, np.inf)


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
            assert all(sec.any_x0_secure(p, [x], attack=sec.INDIVIDUAL) == slow_ind for x in grid)
            assert all(sec.coherent_ad_secure(p, x) == slow_coh for x in grid)

    def test_rejects_general(self):
        assert_rejects(lambda: sec.any_x0_secure(P111, attack=sec.GENERAL),
                       "use optimize_rate for the general one-way bound")


class TestEffectiveState:
    def test_pure_boundary_rank_one(self):
        eff = sec.effective_state(pure_boundary_params(1.4), 1.0)
        w = np.linalg.eigvalsh(eff.rho)
        assert abs(w.max() - 1.0) < 1e-9
        assert matkit.entropy_bits(np.clip(w, 0, None)) < 1e-9

    def test_identity_gram_gives_classical_mixture(self, monkeypatch):
        # infinite off-diagonal exponents make the Gram matrix the identity
        r, _, _ = symmetric_exponents(P111)
        monkeypatch.setattr(gaussian, "symmetric_exponents", lambda p: (r, np.inf, np.inf))
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

    def test_empty_thresholds(self):
        # elementwise over arrays: no thresholds give no rates
        for shape in ((0,), (2, 0)):
            assert sec.rate_lower_bound(P111, np.empty(shape)).shape == shape

    def test_product_state_nonpositive(self):
        assert sec.rate_lower_bound(SymmetricStateParams(1.0, 0.0, 0.0), 1.0) <= 0.0
        assert sec.rate_lower_bound(SymmetricStateParams(1.7, 0.0, 0.0), 1.0) < 0.0

    def test_sign_change_along_correlation_axis(self):
        weak = SymmetricStateParams(1.5, 0.55, 0.55)
        strong = SymmetricStateParams(1.5, 1.0, 1.0)
        assert npt_symmetric(weak) and npt_symmetric(strong)
        assert sec.optimize_rate(weak)[1] < 0.0
        assert sec.optimize_rate(strong)[1] > 0.0

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(physical_params(), thresholds)
    def test_rate_below_mutual_information(self, p, x0):
        # the rate is 1 - h(eps) plus the xlog2x terms of S(rho), each <= 0;
        # both sides sum h(eps) from the same eps and 1 - eps, so no slack
        eps = error_probability(p, x0)
        assert sec.rate_lower_bound(p, x0) <= 1.0 - matkit.binary_entropy(eps)


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

    def test_beats_dense_grid_random_states(self):
        rng = np.random.default_rng(53)
        grid = np.linspace(5e-6, 5.0, 10_001)
        for _ in range(50):
            p = random_symmetric_params(rng)
            _, best = sec.optimize_rate(p)
            assert best >= sec.rate_lower_bound(p, grid).max() - 1e-12, p


_PREDICATES = {
    sec.INDIVIDUAL: npt_symmetric,
    sec.FINITE_COHERENT: npt_symmetric,
    sec.COHERENT_AD: gaussian.squared_overlap_symmetric,
    sec.GENERAL: lambda p: sec.optimize_rate(p)[1] > sec._RATE_FLOOR,
}


def reference_frontier(c_grid, attack):
    """The frontier as a plain scalar bisection of each ``c`` on its own,
    over the public predicates and ``optimize_rate``: the rails, the bracket
    closed on a rail without a flip, and the stop rule of
    ``security_frontier``."""
    out = []
    for c in np.asarray(c_grid, dtype=float).tolist():
        def secure(lam):
            return _PREDICATES[attack](SymmetricStateParams(lam, c, c))

        solid, hi = sec.frontier_rails(c)
        lo = solid * (1.0 + 1e-12) + 1e-12
        if not secure(lo):
            hi = lo
        elif secure(hi):
            lo = hi
        mid = 0.5 * (lo + hi)
        while hi - lo > 1e-6 and lo < mid < hi:
            lo, hi = (mid, hi) if secure(mid) else (lo, mid)
            mid = 0.5 * (lo + hi)
        out.append((c, mid))
    return out


class TestFrontier:
    def test_overlap_frontiers_match_closed_forms(self):
        # individual and finite-coherent: r > q_same flips at lam = c + 1;
        # coherent-ad: r > 2 q_same flips at lam = c + u, where u > 0 solves
        # c / (u (2c + u)) = u - 1 / (2c + u), i.e. u^3 + 2c u^2 - u - c = 0.
        # The bisection stops within 1e-6, so its midpoint lies within 5e-7
        # of the flip; 1e-9 covers rounding.  The grid is the CLI default.
        grid, tol = np.linspace(0.1, 3.0, 30), 5e-7 + 1e-9
        for attack in (sec.INDIVIDUAL, sec.FINITE_COHERENT):
            for c, lam_star in sec.security_frontier(grid, attack):
                assert abs(lam_star - (c + 1.0)) <= tol, (attack, c)
        for c, lam_star in sec.security_frontier(grid, sec.COHERENT_AD):
            roots = np.roots([1.0, 2.0 * c, -1.0, -c])
            (u,) = roots[(np.abs(roots.imag) < 1e-12) & (roots.real > 0)].real
            assert abs(lam_star - (c + u)) <= tol, c

    def test_general_strictly_between_rails(self):
        pts = sec.security_frontier(np.array([1.0]), sec.GENERAL)
        (c, lam_star), = pts
        assert np.sqrt(1 + c * c) + 1e-4 < lam_star < c + 1.0 - 1e-4

    def test_huge_c_between_rails(self):
        # above c ~ 1e10 the float spacing exceeds the bisection width
        for c, lam_star in sec.security_frontier(np.array([1e9, 1e11]), sec.INDIVIDUAL):
            solid, dashed = sec.frontier_rails(c)
            assert solid < lam_star <= dashed, c

    def test_lower_rail_without_key(self):
        # at c = 1e-9 the best rate on the lifted lower rail is below the rate
        # floor, so the frontier is that rail and no bisection runs
        c = 1e-9
        lo = math.sqrt(1.0 + c * c) * (1.0 + 1e-12) + 1e-12
        assert sec.optimize_rate(SymmetricStateParams(lo, c, c))[1] <= sec._RATE_FLOOR
        assert sec.security_frontier([c], sec.GENERAL) == [(c, lo)]

    def test_rejects_bad_grid(self):
        # finiteness is checked before np.diff, whose inf - inf would warn
        for grid in ([], [1.0, 0.5], [0.0, 1.0], 0.5, [[0.5, 1.0]],
                     [np.inf], [np.nan], [0.5, np.nan], [0.5, np.inf, np.inf]):
            assert_rejects(lambda: sec.security_frontier(grid, sec.INDIVIDUAL),
                           "c grid must be 1-D, non-empty, finite, positive and strictly ascending")
        # below c ~ 2e-12 and above c ~ 1e12 the lifted lower rail reaches the upper one
        for c in (1e-12, 5e12, 1e200):
            assert_rejects(lambda: sec.security_frontier([c], sec.INDIVIDUAL),
                           f"c = {c:g}: the rails sqrt(1 + c^2) and c + 1 cannot be separated")

    @pytest.mark.parametrize("grid", [
        pytest.param(np.linspace(0.1, 3.0, 30), id="cli-default"),
        # three ranges of perfbench/refs/frontier_scan.json at the benchmark's 30 steps
        pytest.param(np.linspace(0.152, 2.6453, 30), id="scan-0.152"),
        pytest.param(np.linspace(0.3824, 2.941, 30), id="scan-0.3824"),
        pytest.param(np.linspace(0.1002, 2.8202, 30), id="scan-0.1002"),
        pytest.param([1e9, 1e11], id="mid-stops-moving"),
        pytest.param([3e-12], id="rails-within-width"),
        pytest.param([1e-9], id="lower-rail-without-key"),
    ])
    @pytest.mark.parametrize("attack", sec.ATTACK_KINDS)
    def test_lockstep_matches_bisection_per_c(self, grid, attack):
        assert sec.security_frontier(grid, attack) == reference_frontier(grid, attack)

    def test_general_rate_searches(self, monkeypatch):
        # the lockstep runs optimize_rate at exactly the points of the per-c
        # loop, 648 on the CLI default grid
        calls = []
        search = sec.optimize_rate

        def counted(p, x0_max=sec.X0_MAX):
            calls.append((p.lam, p.cx))
            return search(p, x0_max)

        monkeypatch.setattr(sec, "optimize_rate", counted)
        points = []
        for frontier in (sec.security_frontier, reference_frontier):
            calls.clear()
            frontier(np.linspace(0.1, 3.0, 30), sec.GENERAL)
            points.append(sorted(calls))
        assert points[0] == points[1] and len(points[0]) == 648

    def test_low_end_of_separable_range_bisects(self):
        # the rails are 1e-12 apart, within the bisection width: the frontier
        # is the bracket's midpoint, not a rail
        c = 3e-12
        solid, hi = sec.frontier_rails(c)
        lo = solid * (1.0 + 1e-12) + 1e-12
        assert sec.security_frontier([c], sec.INDIVIDUAL) == [(c, 0.5 * (lo + hi))]
        assert lo < 0.5 * (lo + hi) < hi


class TestAttackHierarchy:
    def test_general_versus_coherent_ad_recorded(self):
        # an empirical relation between the one-way-rate frontier and the
        # squared-overlap condition on these 40 states, 7 of them
        # general-secure; a rate at or below _RATE_FLOOR is rounding noise
        rng = np.random.default_rng(23)
        general = 0
        for _ in range(40):
            p = random_symmetric_params(rng, lam_range=(1.0, 2.5))
            if sec.optimize_rate(p)[1] > sec._RATE_FLOOR:
                general += 1
                assert sec.any_x0_secure(p, attack=sec.COHERENT_AD), p
        assert general == 7


class TestBuildReport:
    def test_reference_point(self):
        rep = sec.build_report(P111)
        assert rep.nppt
        assert rep.individual_secure and rep.coherent_ad_secure
        eps = error_probability(P111, rep.best_x0)
        assert abs(eps - rep.eps_ab) < 1e-15
        assert rep.individual_secure == (rep.eps_ab / (1 - rep.eps_ab) < rep.eve_overlap)
        assert rep.rate_lb <= 1.0

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(physical_params())
    def test_matches_threshold_readers_bit_for_bit(self, p):
        # the report reads eps and the overlap from the decay table that the
        # two public readers read, at the same threshold
        rep = sec.build_report(p)
        assert rep.eps_ab == error_probability(p, rep.best_x0)
        assert rep.eve_overlap == sec.eve_overlap(p, rep.best_x0)

    def test_scan_work_and_no_second_derivation(self, monkeypatch):
        # pinned scan counts: hoisting the per-state rows must not change the
        # search, and the report reads eps and the overlap from those rows
        scans = []
        minimize = matkit.minimize_scalar

        def counted(f, lo, hi, tol=1e-8):
            def objective(xs):
                scans.append(np.size(xs))
                return f(xs)

            return minimize(objective, lo, hi, tol)

        def forbidden(*args):
            raise AssertionError("build_report derived eps or the overlap a second time")

        monkeypatch.setattr(matkit, "minimize_scalar", counted)
        monkeypatch.setattr(protocol, "error_probability", forbidden)
        monkeypatch.setattr(sec, "eve_overlap", forbidden)
        for state, count in (((1.5, 1.0, 1.0), 5), ((2.0, 0.5, 0.5), 4)):
            scans.clear()
            sec.build_report(SymmetricStateParams(*state))
            assert scans == [64] * count, state

    def test_builds_one_decay_table(self, monkeypatch):
        # the rate search and the report's eps and overlap share one table
        built = []
        table = sec._decay_table

        def counted(p, ndim=0):
            built.append(ndim)
            return table(p, ndim)

        monkeypatch.setattr(sec, "_decay_table", counted)
        for state in ((1.5, 1.0, 1.0), (2.0, 0.5, 0.5), (1.0, 0.0, 0.0)):
            built.clear()
            sec.build_report(SymmetricStateParams(*state))
            assert len(built) == 1, state


def test_overlap_attacks_never_build_a_decay_table(monkeypatch):
    # their conditions are signs of polynomial margins in (lam, cx, cp), which
    # hold at every threshold, so no exponent and no exp(-k x0^2) is evaluated
    def forbidden(*args):
        raise AssertionError("an overlap attack read an exponent or built a decay table")

    monkeypatch.setattr(sec, "_decay_table", forbidden)
    monkeypatch.setattr(gaussian, "_decay_table", forbidden)
    monkeypatch.setattr(gaussian, "symmetric_exponents", forbidden)
    monkeypatch.setattr(sec, "symmetric_exponents", forbidden, raising=False)
    for attack in (sec.INDIVIDUAL, sec.FINITE_COHERENT, sec.COHERENT_AD):
        assert sec.any_x0_secure(P111, [0.5, 1.0], attack)
        assert not sec.any_x0_secure(SymmetricStateParams(2.0, 0.5, 0.0), attack=attack)
    assert sec.coherent_ad_secure(P111, 1.0)
    for attack in (sec.INDIVIDUAL, sec.COHERENT_AD):
        assert len(sec.security_frontier([0.5, 1.0, 2.0], attack)) == 3


class TestInputChecks:
    # the module's own input rules, each row with its exact message
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: sec.security_frontier([1.0], "nope"), "unknown attack kind 'nope'",
                     id="frontier-attack"),
        pytest.param(lambda: sec.any_x0_secure(SymmetricStateParams(1.5, 1.0, 1.0), attack="nope"),
                     "unknown attack kind 'nope'", id="any-x0-attack"),
        # one state at several thresholds would mix the table's rows and thresholds
        pytest.param(lambda: sec.effective_state(P111, np.array([1.0, 2.0, 3.0, 4.0])),
                     "x0 must be one finite nonzero number", id="effective-state-4-thresholds"),
        pytest.param(lambda: sec.effective_state(P111, np.full(7, 1.0)),
                     "x0 must be one finite nonzero number", id="effective-state-7-thresholds"),
        pytest.param(lambda: sec.effective_state(P111, [1.0]),
                     "x0 must be one finite nonzero number", id="effective-state-1-threshold"),
        # np.isfinite would raise numpy's TypeError
        pytest.param(lambda: sec.optimize_rate(P111, "a"), "x0_max must be finite and positive",
                     id="optimize-string-x0-max"),
        # float() would raise a ValueError, a TypeError, or accept the numeric string
        pytest.param(lambda: sec.frontier_rails("a"), "c must be finite", id="rails-string"),
        pytest.param(lambda: sec.frontier_rails(np.array([0.5, 1.0])), "c must be finite", id="rails-array"),
        pytest.param(lambda: sec.frontier_rails("1.5"), "c must be finite", id="rails-numeric-string"),
    ])
    def test_rejects(self, call, message):
        assert_rejects(call, message)


# every reader of a threshold, each taking one x0; the two that read several
# take it inside a list
_X0_READERS = {
    "error-probability": lambda x0: error_probability(P111, x0),
    "eve-overlap": lambda x0: sec.eve_overlap(P111, x0),
    "effective-state": lambda x0: sec.effective_state(P111, x0).rho,
    "eve-ensemble": lambda x0: sec.eve_ensemble(P111, x0).gram,
    "coherent-ad-secure": lambda x0: sec.coherent_ad_secure(P111, x0),
    "rate-lower-bound": lambda x0: sec.rate_lower_bound(P111, [x0]),
    "any-x0-secure": lambda x0: sec.any_x0_secure(P111, [x0]),
}
_ARRAY_READERS = ("rate-lower-bound", "any-x0-secure")
_BAD_X0 = {"zero": 0.0, "minus-zero": -0.0, "inf": math.inf, "minus-inf": -math.inf,
           "nan": math.nan, "array": np.array([1.0, 2.0])}


class TestThresholdRule:
    # gaussian._check_x0 is the one rule: x0 is one finite nonzero number
    @pytest.mark.parametrize("reader, bad", [
        pytest.param(reader, bad, id=f"{reader}-{bad}")
        for reader in _X0_READERS for bad in _BAD_X0
        # an array is the array readers' domain; inside a list it is two thresholds
        if not (bad == "array" and reader in _ARRAY_READERS)
    ])
    def test_rejects(self, reader, bad):
        assert_rejects(lambda: _X0_READERS[reader](_BAD_X0[bad]), "x0 must be one finite nonzero number")

    @pytest.mark.parametrize("reader", list(_X0_READERS))
    def test_sign_only_relabels(self, reader):
        for x0 in (1e-200, 0.7, 1.3, 1e200):
            assert np.array_equal(_X0_READERS[reader](-x0), _X0_READERS[reader](x0)), x0

    def test_empty_grid(self):
        assert_rejects(lambda: sec.any_x0_secure(P111, []), "x0_grid must not be empty")

    def test_one_rule_in_src(self):
        # _thresholds and _check_x0 are defined only in gaussian, and security raises no
        # InvalidInput about a threshold x0 (x0_max and x0_grid are its own parameters)
        defs = [path.stem for path in pathlib.Path(gaussian.__file__).parent.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name in ("_check_x0", "_thresholds")]
        messages = rejection_messages(pathlib.Path(sec.__file__))
        assert defs == ["gaussian", "gaussian"]
        assert messages and not [m for m in messages if m.startswith("x0 ")], messages

    def test_search_and_attack_scans_never_check_a_threshold(self, monkeypatch):
        # the rate search picks its own thresholds, and the overlap conditions
        # hold at every threshold, so neither reaches the rule
        def forbidden(x0):
            raise AssertionError("a threshold was checked")

        for name in ("_check_x0", "_thresholds"):
            monkeypatch.setattr(gaussian, name, forbidden)
            monkeypatch.setattr(sec, name, forbidden)
        assert sec.build_report(P111).rate_lb > 0
        assert sec.optimize_rate(P111)[1] > 0
        for attack in (sec.INDIVIDUAL, sec.GENERAL):
            assert len(sec.security_frontier([0.5, 1.0], attack)) == 2
        for attack in (sec.INDIVIDUAL, sec.FINITE_COHERENT, sec.COHERENT_AD):
            assert sec.any_x0_secure(P111, attack=attack)


class TestEveEnsembleHugeThresholds:
    # the generic route works in power-of-two units, so no numpy overflow
    # reaches the caller (pytest turns warnings into errors)
    @pytest.mark.parametrize("x0", [1e154, 1e200, 1e300, 1.7e308])
    def test_identity_limit(self, x0):
        # every overlap of (1.5, 1, 1) has underflowed: the Gram matrix is its limit
        assert np.array_equal(sec.eve_ensemble(P111, x0).gram, np.eye(4))

    @pytest.mark.parametrize("x0", [1e154, 1e200, 1e300, 1.7e308])
    def test_ill_conditioned_state_raises_one_error(self, x0):
        # the generic route fails on this state at every threshold, in its
        # purification rather than in a later purity check
        with pytest.raises(IllConditioned, match="purification is not pure"):
            sec.eve_ensemble(SymmetricStateParams(1e6, 1e6 - 1e-6, 0.0), x0)

    def test_displacement_past_float_range(self):
        # the +- sector moves by slightly more than x0
        assert_rejects(lambda: sec.eve_ensemble(P111, 1.7976931348623157e308),
                       "conditioned displacement exceeds the float range")
