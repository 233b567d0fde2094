import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_rejects, random_physical_cm
from gausskey import gaussian as g
from gausskey import matkit
from gausskey.errors import IllConditioned, InvalidInput


def kron(n):
    """The n-mode symplectic form, built independently of the package."""
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def raw_symmetric_cm(lam, cx, cp):
    """The family's 4x4 CM written out, with no physicality check."""
    return np.array(
        [[lam, 0.0, cx, 0.0], [0.0, lam, 0.0, -cp], [cx, 0.0, lam, 0.0], [0.0, -cp, 0.0, lam]]
    )


def builds(lam, cx, cp):
    """Whether ``SymmetricStateParams`` accepts the triple: its closed-form
    physicality test."""
    try:
        g.SymmetricStateParams(lam, cx, cp)
    except InvalidInput:
        return False
    return True


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(g._j(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_two_modes_block_diagonal(self):
        j2 = g._j(2)
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(j2[:2, :2], j)
        assert np.array_equal(j2[2:, 2:], j)
        assert np.array_equal(j2[:2, 2:], np.zeros((2, 2)))

    def test_algebraic_identities(self):
        j = g._j(3)
        assert np.array_equal(j.T, -j)
        assert np.array_equal(j @ j, -np.eye(6))

    def test_cached_form_is_read_only(self):
        # one array per mode count is shared by every caller
        with pytest.raises(ValueError):
            g._j(1)[0, 0] = 5.0
        assert g._j(1)[0, 0] == 0.0


class TestPhysicality:
    def test_vacuum(self):
        assert g.is_physical(np.eye(2))

    def test_sub_vacuum_variance(self):
        assert not g.is_physical(np.diag([0.5, 0.5]))

    def test_matches_closed_form_on_family(self):
        for triple in ((1.5, 1.0, 1.0), (1.5, 1.3, 1.0), (1.0, 1.0, 0.0)):
            assert g.is_physical(raw_symmetric_cm(*triple)) == builds(*triple), triple

    def test_rejects_odd_dimension(self):
        assert_rejects(lambda: g.is_physical(np.eye(3)), "cm must be square with even dimension")

    @pytest.mark.parametrize("margin, physical", [(-0.9999e-9, True), (-1.0001e-9, False)])
    def test_tolerance_edge(self, margin, physical):
        # cm + iJ of (1 + margin) I has eigenvalues margin and 2 + margin; a
        # relative 1e-4 either side of the 1e-9 band is far above their rounding
        assert g.is_physical((1.0 + margin) * np.eye(2)) == physical


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(1)
        cm = random_physical_cm(rng, 2)
        pt = g.partial_transpose(cm, [0])
        assert np.allclose(g.partial_transpose(pt, [0]), cm)
        assert np.abs(pt - pt.T).max() < 1e-12

    def test_product_state_physicality_preserved(self):
        cm = np.diag([2.0, 2.0, 3.0, 3.0])
        pt = g.partial_transpose(cm, [0])
        assert np.array_equal(np.abs(pt), np.abs(cm))
        assert g.is_physical(pt)

    def test_entangled_family_momentum_flip_detects(self):
        cm = g.symmetric_embed(g.SymmetricStateParams(1.5, 1.0, 1.0)).cm
        pt = g.partial_transpose(cm, [0])
        assert np.linalg.eigvalsh(pt + 1j * kron(2)).min() < 0


class TestNppt:
    def test_entangled_point(self):
        cm = g.symmetric_embed(g.SymmetricStateParams(1.5, 1.0, 1.0)).cm
        assert g.is_nppt(cm, [0])

    def test_product_state(self):
        cm = g.symmetric_embed(g.SymmetricStateParams(1.5, 0.0, 0.0)).cm
        assert not g.is_nppt(cm, [0])

    def test_boundary_not_strict(self):
        cm = g.symmetric_embed(g.SymmetricStateParams(1.5, 0.5, 0.5)).cm
        assert not g.is_nppt(cm, [0])

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.floats(0.0, 5.0), st.floats(0.0, 1.0), st.floats(-1.5, 1.5))
    def test_closed_forms_match_matrix_tests_across_the_boundary(self, cx, cp_share, offset):
        # lam sits offset away from the physical boundary (lam - cx)(lam + cp) = 1,
        # on either side; lam < cx is unphysical too (the X block is indefinite)
        cp = cx * cp_share
        lam = max(0.5 * (cx - cp + np.sqrt((cx + cp) ** 2 + 4.0)) + offset, 0.0)
        cm = raw_symmetric_cm(lam, cx, cp)
        if abs((lam - cx) * (lam + cp) - 1.0) > 1e-6:
            assert builds(lam, cx, cp) == g.is_physical(cm), (lam, cx, cp)
        if builds(lam, cx, cp):
            p = g.SymmetricStateParams(lam, cx, cp)
            assert np.array_equal(g.symmetric_embed(p).cm, cm)
            if abs((lam - cx) * (lam - cp) - 1.0) > 1e-6:
                assert g.is_nppt(cm, [0]) == g.npt_symmetric(p), (lam, cx, cp)


class TestSymplecticSpectrum:
    def test_vacuum(self):
        assert np.allclose(g.symplectic_spectrum(np.eye(6)), 1.0)

    def test_single_mode_thermal(self):
        assert np.allclose(g.symplectic_spectrum(np.diag([2.0, 2.0])), [2.0])

    def test_symmetric_family_closed_form(self):
        # nu = sqrt((lam +- cx)(lam -+ cp)), both sqrt(1.25) at (1.5, 1, 1)
        cm = g.symmetric_embed(g.SymmetricStateParams(1.5, 1.0, 1.0)).cm
        assert np.abs(g.symplectic_spectrum(cm) - np.sqrt(1.25)).max() < 1e-12

    def test_invariant_under_symplectic_conjugation(self):
        rng = np.random.default_rng(8)
        cm = random_physical_cm(rng, 2)
        s = g.williamson(cm).s
        assert np.allclose(g.symplectic_spectrum(s.T @ cm @ s), g.symplectic_spectrum(cm))


def assert_williamson(cm, tol=1e-12):
    """The gauge-free Williamson postconditions: ``s`` symplectic,
    ``s.T cm s = d`` diagonal with the ascending spectrum repeated pairwise."""
    wd = g.williamson(cm)
    j = kron(cm.shape[0] // 2)
    assert np.abs(wd.s.T @ j @ wd.s - j).max() < tol
    assert np.abs(wd.s.T @ cm @ wd.s - np.diag(np.repeat(wd.spectrum, 2))).max() < tol
    assert np.all(np.diff(wd.spectrum) >= -1e-12)
    return wd


class TestWilliamson:
    def test_identity(self):
        for n in (1, 2, 3):
            wd = assert_williamson(np.eye(2 * n))
            assert np.abs(wd.spectrum - 1.0).max() < 1e-12

    def test_squeezed_single_mode(self):
        wd = assert_williamson(np.diag([2.0, 0.5]))
        assert abs(wd.spectrum[0] - 1.0) < 1e-12

    def test_equal_multi_mode_spectra(self):
        wd = assert_williamson(np.diag([2.0, 2.0, 2.0, 2.0]))
        assert np.abs(wd.spectrum - 2.0).max() < 1e-12
        wd = assert_williamson(np.diag([3.0, 3.0, 1.0, 1.0, 3.0, 3.0]))
        assert np.abs(wd.spectrum - [1.0, 3.0, 3.0]).max() < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_postconditions_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        assert_williamson(random_physical_cm(rng, n), tol=1e-9)

    def test_near_singular_rejected(self):
        assert_rejects(lambda: g.williamson(1e-12 * np.eye(2)), "CM is numerically singular", IllConditioned)


class TestPurify:
    def test_pure_input_gives_product_with_mirror(self):
        cm = np.diag([2.0, 0.5])
        st = g.GaussianState(cm, np.array([0.3, -0.2]))
        out = g.purify(st)
        assert np.array_equal(out.cm[:2, 2:], np.zeros((2, 2)))
        theta = np.diag([1.0, -1.0])
        assert np.allclose(out.cm[2:, 2:], theta @ cm @ theta)
        assert np.allclose(out.dv, [0.3, -0.2, 0.3, 0.2])

    def test_rejects_unphysical(self):
        st = g.GaussianState(np.diag([0.5, 0.5]), np.zeros(2))
        assert_rejects(lambda: g.purify(st), "state is unphysical (symplectic eigenvalue below 1)")

    @pytest.mark.parametrize("margin", [-0.9999e-9, -1.0001e-9, 0.9999e-9, 1.0001e-9])
    def test_tolerance_edges(self, margin):
        # (1 + margin) I has symplectic eigenvalue 1 + margin: refused below
        # 1 - 1e-9, and coupled to its copy by exactly 0 up to 1 + 1e-9
        st = g.GaussianState((1.0 + margin) * np.eye(2), np.zeros(2))
        if margin < -1e-9:
            assert_rejects(lambda: g.purify(st), "state is unphysical (symplectic eigenvalue below 1)")
        else:
            assert (g.purify(st).cm[:2, 2:] == 0.0).all() == (margin < 1e-9)

    def test_output_purity_bound(self, monkeypatch):
        # the output's symplectic spectrum may stray 1e-6 from 1: a deviation
        # of 0.9x that is accepted and 1.1x rejected with the exact message
        st = g.GaussianState(np.diag([2.0, 2.0]), np.zeros(2))
        monkeypatch.setattr(g, "symplectic_spectrum", lambda cm: np.array([1.0, 1.0 + 0.9e-6]))
        assert g.purify(st).n_modes == 2
        monkeypatch.setattr(g, "symplectic_spectrum", lambda cm: np.array([1.0, 1.0 + 1.1e-6]))
        assert_rejects(lambda: g.purify(st), "purification is not pure (symplectic spectrum deviates from 1)",
                       IllConditioned)

    def test_ill_conditioned_output_raises(self):
        # a valid state whose purification comes out with spectrum
        # [0.99995, 0.99998, 31.7, 31.7], not all 1
        st = g.symmetric_embed(g.SymmetricStateParams(1e6, 1e6 - 1e-6, 0.0))
        with pytest.raises(IllConditioned, match="purification is not pure"):
            g.purify(st)


class TestConditionOnX:
    def test_uncorrelated_modes_unchanged(self):
        cond = g.condition_on_x(g.GaussianState(np.eye(4), np.zeros(4)), (0,), np.array([0.7]))
        assert np.array_equal(cond.state.cm, np.eye(2))
        assert np.array_equal(cond.state.dv, np.zeros(2))

    def test_two_mode_squeezed_conditioning(self):
        lam = 2.0
        pur = g.purify(g.GaussianState(np.diag([lam, lam]), np.zeros(2)))
        cond = g.condition_on_x(pur, (0,), np.array([0.8]))
        # remaining mode is pure with quadrature variances {lam, 1/lam}
        assert np.allclose(np.sort(np.diag(cond.state.cm)), [1.0 / lam, lam])
        assert abs(np.linalg.det(cond.state.cm) - 1.0) < 1e-12

    def test_cm_independent_of_outcome(self):
        rng = np.random.default_rng(4)
        pur = g.purify(g.GaussianState(random_physical_cm(rng, 2), np.zeros(4)))
        base = g.condition_on_x(pur, (0, 1), np.zeros(2)).state.cm
        for _ in range(10):
            out = rng.standard_normal(2) * 3.0
            cm = g.condition_on_x(pur, (0, 1), out).state.cm
            assert np.abs(cm - base).max() < 1e-12

    def test_dv_linear_in_outcome(self):
        rng = np.random.default_rng(14)
        pur = g.purify(g.GaussianState(random_physical_cm(rng, 2), np.zeros(4)))
        d1 = g.condition_on_x(pur, (0, 1), np.array([1.0, 0.0])).state.dv
        d2 = g.condition_on_x(pur, (0, 1), np.array([0.0, 1.0])).state.dv
        mix = g.condition_on_x(pur, (0, 1), np.array([0.3, -1.2])).state.dv
        assert np.abs(mix - (0.3 * d1 - 1.2 * d2)).max() < 1e-12

    def test_matches_pseudo_inverse_route(self):
        # the projected-block formula G_rm (Pi G_mm Pi)^+ with Pi onto the X
        # rows of the measured modes, against the X-X solve
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 3))
            pur = g.purify(g.GaussianState(random_physical_cm(rng, n), rng.standard_normal(2 * n)))
            modes = sorted(rng.choice(2 * n, size=int(rng.integers(1, 2 * n)), replace=False))
            outcomes = rng.standard_normal(len(modes)) * 2.0
            m_idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes])
            r_idx = np.setdiff1d(np.arange(4 * n), m_idx)
            g_rm = pur.cm[np.ix_(r_idx, m_idx)]
            proj = np.zeros((len(m_idx), len(m_idx)))
            xs = np.arange(0, len(m_idx), 2)
            proj[np.ix_(xs, xs)] = pur.cm[np.ix_(m_idx[xs], m_idx[xs])]
            gain = g_rm @ matkit.pseudo_inverse(proj)
            x_vec = np.zeros(len(m_idx))
            x_vec[xs] = outcomes
            want_cm = pur.cm[np.ix_(r_idx, r_idx)] - gain @ g_rm.T
            want_dv = pur.dv[r_idx] + gain @ (x_vec - pur.dv[m_idx])
            cond = g.condition_on_x(pur, modes, outcomes).state
            assert np.abs(cond.cm - want_cm).max() < 1e-12
            assert np.abs(cond.dv - want_dv).max() < 1e-12

    def test_singular_x_block_rejected(self):
        st = g.GaussianState(np.diag([0.0, 1.0, 1.0, 1.0]), np.zeros(4))
        assert_rejects(lambda: g.condition_on_x(st, (0,), np.array([0.5])),
                       "measured X block of the CM is singular", IllConditioned)

    def test_huge_outcomes_scale_exactly(self, purified_symmetric_111):
        # the displacement is linear in the outcomes, and power-of-two units
        # keep it exact up to the float range
        _, pur = purified_symmetric_111
        unit = g.condition_on_x(pur, (0, 1), np.array([1.0, -1.0])).state.dv
        for k in (-600, 3, 500, 1022):
            dv = g.condition_on_x(pur, (0, 1), np.array([2.0**k, -(2.0**k)])).state.dv
            assert np.array_equal(dv, unit * 2.0**k), k

    def test_rejects_bad_measured_sets(self):
        st = g.GaussianState(np.eye(4), np.zeros(4))
        for modes in ((), (0, 1)):
            assert_rejects(lambda: g.condition_on_x(st, modes, np.zeros(len(modes))),
                           "measured modes must be a proper non-empty subset")
        assert_rejects(lambda: g.condition_on_x(st, (0,), np.zeros(2)),
                       "need exactly one outcome per measured mode")


class TestPureOverlap:
    def test_identical_displacements(self):
        # the phase is exactly 0, not the rounding residue of d . J . d
        for d in ([1.0, 2.0], [0.1, 0.3], [1e154, 1e154]):
            assert g.pure_overlap(np.eye(2), np.array(d), np.array(d)) == 1.0, d

    def test_vacuum_displaced_magnitude(self):
        ov = g.pure_overlap(np.eye(2), np.zeros(2), np.array([2.0, 0.0]))
        assert abs(abs(ov) ** 2 - np.exp(-2.0)) < 1e-12

    def test_magnitude_symmetric(self):
        rng = np.random.default_rng(6)
        d1, d2 = rng.standard_normal(2), rng.standard_normal(2)
        a = g.pure_overlap(np.eye(2), d1, d2)
        b = g.pure_overlap(np.eye(2), d2, d1)
        assert abs(abs(a) - abs(b)) < 1e-14
        assert abs(a - np.conj(b)) < 1e-14

    def test_multiplicative_over_modes(self):
        cm1 = np.diag([2.0, 0.5])
        cm2 = np.diag([0.5, 2.0])
        rng = np.random.default_rng(16)
        d1, d2 = rng.standard_normal(4), rng.standard_normal(4)
        joint = g.pure_overlap(
            np.block([[cm1, np.zeros((2, 2))], [np.zeros((2, 2)), cm2]]), d1, d2
        )
        parts = g.pure_overlap(cm1, d1[:2], d2[:2]) * g.pure_overlap(cm2, d1[2:], d2[2:])
        assert abs(joint - parts) < 1e-12

    def test_rejects_mixed_state(self):
        # (1 + d) I has symplectic eigenvalue 1 + d: d = 1.1x the purity bound 1e-6
        assert_rejects(lambda: g.pure_overlap((1.0 + 1.1e-6) * np.eye(2), np.zeros(2), np.ones(2)),
                       "CM is not pure (symplectic spectrum deviates from 1)")

    def test_accepts_state_within_purity_bound(self):
        # d = 0.9x the bound 1e-6
        assert g.pure_overlap((1.0 + 0.9e-6) * np.eye(2), np.zeros(2), np.zeros(2)) == 1.0

    def test_huge_displacements(self):
        # a form past the float range gives exactly 0, with no numpy overflow
        for d in (1e154, 1e200, 1.7e308):
            assert g.pure_overlap(np.eye(2), np.array([d, 0.0]), np.array([-d, 0.0])) == 0, d


class TestSymmetricFamily:
    def test_uncorrelated_vacuum(self):
        st = g.symmetric_embed(g.SymmetricStateParams(1.0, 0.0, 0.0))
        assert np.array_equal(st.cm, np.eye(4))
        assert np.array_equal(st.dv, np.zeros(4))

    def test_embedding_layout(self):
        st = g.symmetric_embed(g.SymmetricStateParams(1.5, 1.0, 1.0))
        assert st.cm[0, 2] == 1.0 and st.cm[1, 3] == -1.0
        assert g.is_physical(st.cm)

    def test_unphysical_rejected(self):
        assert_rejects(lambda: g.SymmetricStateParams(1.5, 1.3, 1.0),
                       "unphysical parameters SymmetricStateParams(lam=1.5, cx=1.3, cp=1.0)")

    def test_pole_with_overflowing_sum_rejected(self):
        # lam == cx with lam + cp = inf makes the factored test 0 * inf = NaN
        assert_rejects(lambda: g.SymmetricStateParams(1e308, 1e308, 1e308),
                       "unphysical parameters SymmetricStateParams(lam=1e+308, cx=1e+308, cp=1e+308)")
        assert builds(1e308, 1e307, 1e307)

    def test_closed_form_predicates(self):
        for triple, entangled in (((1.5, 1.0, 1.0), True), ((1.0, 0.0, 0.0), False),
                                  ((1.7, 0.0, 0.0), False), ((3.0, 0.0, 0.0), False)):
            assert builds(*triple), triple
            assert g.npt_symmetric(g.SymmetricStateParams(*triple)) == entangled, triple
        assert not builds(1.5, 1.3, 1.0) and not builds(0.5, 0.0, 0.0)

    def test_ordering_violations_rejected(self):
        for triple in ((1.5, 0.5, 1.0), (-1.0, 0.0, 0.0), (1.0, 1.0, -0.1)):
            assert_rejects(lambda: g.SymmetricStateParams(*triple), "need lam >= 0 and cx >= cp >= 0")

    @pytest.mark.parametrize("cx, cp, coherent_ad", [(1.0, 1.0, True), (1.55, 0.2, False), (0.7, 0.35, True)])
    @pytest.mark.parametrize("margin, accepted", [(-0.9999e-9, True), (-1.0001e-9, False)])
    def test_physicality_band_edge(self, cx, cp, coherent_ad, margin, accepted):
        # lam puts (lam - cx)(lam + cp) - 1 at margin, a relative 1e-4 inside or
        # outside the -1e-9 band, far above the ~1e-15 rounding of the margin
        lam = 0.5 * ((cx - cp) + np.sqrt((cx + cp) ** 2 + 4.0 * (1.0 + margin)))
        assert abs((lam - cx) * (lam + cp) - 1.0 - margin) < 1e-14
        assert builds(lam, cx, cp) == accepted
        if accepted:
            # both verdicts are defined at the edge, where lam > cx still holds
            p = g.SymmetricStateParams(lam, cx, cp)
            assert p.lam > p.cx
            assert g.npt_symmetric(p) is True
            assert (g.squared_overlap_margin(p.lam, p.cx, p.cp) > 0.0) == coherent_ad

    def test_finiteness_check_takes_numpy_scalars_and_ints(self):
        for triple in ((np.float64(1.5), np.float32(1.0), np.int64(1)), (2, 1, 0)):
            assert g.SymmetricStateParams(*triple).lam == triple[0]
        for bad in (np.nan, np.inf, -np.inf, np.float64("nan"), np.float32("inf")):
            for triple in ((bad, 1.0, 1.0), (1.5, bad, 1.0), (1.5, 1.0, bad)):
                assert_rejects(lambda: g.SymmetricStateParams(*triple), "parameters must be finite")


class TestDecay:
    def test_log_decay_table(self):
        # rows: k = -1e-15 (rounding below 0), 0, 0.5, inf; columns: an x0
        # whose square underflows, one whose square is the least subnormal
        # (so 0.5 x0^2 underflows), 1, and one whose square overflows.  The
        # decay owns that overflow and the NaN of 0 * inf, so a caller's
        # over="raise" and invalid="raise" cannot reach them.  Every zero is
        # +0.0; numpy's fmin alone returns -0.0 or +0.0 for a -0.0 against
        # 0.0 depending on its loop, so the table is read at one threshold,
        # at each entry, and in a 64-point scan like the rate search's
        k = [-1e-15, 0.0, 0.5, np.inf]
        x0 = np.array([1e-170, 2e-162, 1.0, 1e200])
        want = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, -0.5, -np.inf], [0.0, -np.inf, -np.inf, -np.inf]])
        scan = np.arange(64) % len(x0)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            rows = g._decay_rows(k)
            tables = [
                g._log_decay(rows, x0),
                np.hstack([g._log_decay(rows, xx) for xx in x0.tolist()]),
                np.array([[g._log_decay(g._decay_rows([kk]), xx)[0, 0] for xx in x0.tolist()] for kk in k]),
                g._log_decay(rows, x0[scan]),
            ]
        for got, expected in zip(tables, (want, want, want, want[:, scan])):
            assert np.array_equal(got, expected)
            assert not np.signbit(got[got == 0.0]).any()

    def test_only_gaussian_sets_errstate(self):
        # the threshold decay handles its own overflow, so no caller needs
        # to know that x0^2 may be inf
        src = pathlib.Path(g.__file__).parent
        holders = {path.stem for path in src.glob("*.py") if "errstate" in path.read_text()}
        assert holders == {"gaussian"}


class TestGaussianState:
    def test_rejects_asymmetric_cm(self):
        cm = np.eye(2)
        cm[0, 1] = 1e-6
        assert_rejects(lambda: g.GaussianState(cm, np.zeros(2)), "cm must be symmetric")

    def test_symmetrizes_asymmetry_below_the_bound(self):
        # an asymmetry of 0.9x the bound 1e-12 * (1 + max|cm|) = 3e-12 is
        # accepted and averaged away; 1.1x is a TestInputChecks row
        cm = np.array([[1.0, 0.5 + 2.7e-12], [0.5, 2.0]])
        assert np.array_equal(g.GaussianState(cm, np.zeros(2)).cm, 0.5 * (cm + cm.T))

    def test_rejects_mismatched_dv(self):
        assert_rejects(lambda: g.GaussianState(np.eye(2), np.zeros(3)), "dv length must match the CM dimension")

    def test_immutability(self):
        st = g.GaussianState(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            st.cm[0, 0] = 2.0


_THERMAL_PURIFIED = g.purify(g.GaussianState(np.diag([2.0, 2.0]), np.zeros(2)))
# X1 = 1 moves X2 by 2
_GAIN_2 = g.GaussianState(np.array([[1.0, 0, 2, 0], [0, 1, 0, 0], [2, 0, 5, 0], [0, 0, 0, 1]]),
                          np.zeros(4))


class TestInputChecks:
    # the module's own input rules, each row with its exact message
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: g.condition_on_x(_THERMAL_PURIFIED, (-1,), [0.0]),
                     "measured modes must be indices in [0, n_modes)", id="condition-mode-negative"),
        pytest.param(lambda: g.condition_on_x(_GAIN_2, (0,), [1e308]),
                     "conditioned displacement exceeds the float range", id="condition-dv-overflow"),
        pytest.param(lambda: g.pure_overlap(np.eye(2), np.zeros(3), np.zeros(2)),
                     "displacement length must match the CM dimension", id="overlap-dv-length"),
        # an asymmetry of 1.1x the bound 1e-12 * (1 + max|cm|) = 3e-12
        pytest.param(lambda: g.GaussianState(np.array([[1.0, 0.5 + 3.3e-12], [0.5, 2.0]]), np.zeros(2)),
                     "cm must be symmetric", id="cm-past-symmetry-bound"),
        # math.isfinite would raise a bare TypeError
        pytest.param(lambda: g.SymmetricStateParams("a", 1.0, 1.0), "parameters must be finite",
                     id="params-string"),
        pytest.param(lambda: g.SymmetricStateParams(np.array([1.5, 2.0]), 1.0, 1.0), "parameters must be finite",
                     id="params-array"),
        # math.isfinite would raise a bare OverflowError
        pytest.param(lambda: g.SymmetricStateParams(10**400, 1.0, 1.0), "parameters must be finite",
                     id="params-huge-int"),
    ])
    def test_rejects(self, call, message):
        assert_rejects(call, message)
