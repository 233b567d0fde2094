import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_rejects, random_physical_cm, traced_peak
from gausskey import gaussian as g, oracle as o
from gausskey.errors import GridTooSmall, OutcomeUnlikely

AX = o.GridAxis(-8.0, 8.0, 201)


def dense_wavefunction(cm, dv, axis):
    """Reference tabulation: a broadcasting build in which every term is
    formed at full grid size; returns the normalized amplitude array."""
    cm = np.asarray(cm, dtype=float)
    dv = np.asarray(dv, dtype=float)
    n = cm.shape[0] // 2
    xbar, pbar = dv[0::2], dv[1::2]
    u = np.linalg.inv(cm[0::2, 0::2])
    v = -u @ cm[0::2, 1::2]
    m = u + 1j * (0.5 * (v + v.T))
    coords = [axis.nodes.reshape((1,) * k + (-1,) + (1,) * (n - 1 - k)) for k in range(n)]
    quad = np.zeros((axis.points,) * n, dtype=complex)
    phase = np.zeros((axis.points,) * n)
    for i in range(n):
        yi = coords[i] - xbar[i]
        phase = phase + pbar[i] * coords[i]
        for k in range(n):
            quad = quad + m[i, k] * (yi * (coords[k] - xbar[k]))
    psi = np.exp(-0.5 * quad + 1j * phase)
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * axis.spacing**n)


SIGNS = ((1, 1), (-1, -1), (1, -1), (-1, 1))  # the sector order of grid_sector_states


def full_build_sectors(cm, dv, axis, x0):
    """Reference for :func:`o.grid_sector_states`: the route it replaced, which
    builds the whole grid, slices it at the nodes nearest each sector and
    normalizes each slice.  Returns ``(weights, slices)``."""
    psi = o.wavefunction_from_pure(cm, dv, axis)
    dxk = axis.spacing ** (psi.n_modes - 2)
    norms2, slices = [], []
    for sa, sb in SIGNS:
        ia, ib = (int(np.abs(axis.nodes - s * x0).argmin()) for s in (sa, sb))
        slab = psi.amplitudes[ia, ib]
        norms2.append(float(np.vdot(slab, slab).real) * dxk)
        slices.append(slab / np.sqrt(norms2[-1]))
    return np.array(norms2) / sum(norms2), slices


def full_build_spectrum(weights, slices, axis):
    """Reference reduced-state spectrum, ``rho[s, t] = c_s c_t <e_t|e_s>``."""
    c = np.sqrt(weights)
    dxk = axis.spacing ** slices[0].ndim
    rho = np.array([[c[s] * c[t] * np.vdot(slices[t], slices[s]) * dxk for t in range(4)]
                    for s in range(4)])
    return np.linalg.eigvalsh(rho)


def covering_axis(cm, dv, points):
    """A grid that holds 6.5 sigma of every position marginal."""
    half = max(abs(dv[2 * i]) + 6.5 * np.sqrt(cm[2 * i, 2 * i] / 2.0) for i in range(len(dv) // 2))
    return o.GridAxis(-half, half, points)


def random_pure_state(squeezings, nu, z, dv):
    """A pure state on ``len(squeezings)`` modes: squeezed vacua, the first two
    of them replaced by the purification of a thermal mode of symplectic
    eigenvalue ``nu`` when ``nu`` is given, then mixed by the passive unitary
    ``qr(z).Q``."""
    n = len(squeezings)
    cm0 = np.diag(np.exp(np.repeat(squeezings, 2) * np.tile([2.0, -2.0], n)))
    if nu is not None:
        cm0[:4, :4] = g.purify(g.GaussianState(nu * np.eye(2), np.zeros(2))).cm
    q, _ = np.linalg.qr(z)
    idx = g.xxpp_indices(n)
    rot = np.empty((2 * n, 2 * n))
    rot[np.ix_(idx, idx)] = np.block([[q.real, -q.imag], [q.imag, q.real]])
    return rot @ cm0 @ rot.T, np.asarray(dv, dtype=float)


def draw_pure_state(data, n, squeeze):
    """A hypothesis draw of :func:`random_pure_state` on ``n`` modes with
    squeezings in ``[-squeeze, squeeze]`` and displacements in ``[-1, 1]``."""
    nu = data.draw(st.none() | st.floats(1.0, 2.0), label="nu") if n >= 2 else None
    r = data.draw(st.lists(st.floats(-squeeze, squeeze), min_size=n, max_size=n), label="r")
    parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n * n, max_size=2 * n * n))
    dv = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n), label="dv")
    z = np.reshape(parts[: n * n], (n, n)) + 1j * np.reshape(parts[n * n :], (n, n))
    return random_pure_state(r, nu, z, dv)


@pytest.fixture(scope="module")
def psi4(purified_symmetric_111):
    _, pur = purified_symmetric_111
    axis = o.GridAxis(-20.0 / 3.0, 20.0 / 3.0, 41)  # spacing 1/3, x0=1 on-grid
    return o.wavefunction_from_pure(pur.cm, pur.dv, axis)


class TestGridAxis:
    def test_rejects_even_points(self):
        assert_rejects(lambda: o.GridAxis(-8.0, 8.0, 200), "points per axis must be odd and at least 3")

    def test_rejects_asymmetric(self):
        assert_rejects(lambda: o.GridAxis(-7.0, 8.0, 201), "axis must be symmetric about 0")

    def test_finiteness_check_takes_numpy_scalars_and_ints(self):
        assert o.GridAxis(np.float32(-2.0), np.int64(2), 5).spacing == 1.0
        assert o.GridAxis(-3, 3, 7).spacing == 1.0
        for lo, hi in ((np.nan, 1.0), (-1.0, np.nan), (-np.inf, np.inf), (-np.float32("inf"), 1.0)):
            assert_rejects(lambda: o.GridAxis(lo, hi, 5), "need finite lo < hi")

    def test_accepts_asymmetry_below_the_bound(self):
        # |lo/2 + hi/2| at 0.9x the bound 5e-13 * (hi - lo); 1.1x is a TestInputChecks row
        assert o.GridAxis(-8.0 + 1.44e-11, 8.0, 41).points == 41

    def test_contains_zero(self):
        assert 0.0 in o.GridAxis(-6.0, 6.0, 41).nodes


class TestWavefunctionFromPure:
    def test_vacuum_textbook_form(self):
        w = o.wavefunction_from_pure(np.eye(2), np.zeros(2), AX)
        ref = np.pi**-0.25 * np.exp(-AX.nodes**2 / 2.0)
        assert np.abs(w.amplitudes - ref).max() < 1e-12
        cm, dv = o.grid_moments(w)
        assert abs(cm[0, 0] / 2.0 - 0.5) < 1e-6  # X variance 1/2
        assert np.abs(dv).max() < 1e-9

    def test_purified_thermal_marginal(self):
        pur = g.purify(g.GaussianState(np.diag([2.0, 2.0]), np.zeros(2)))
        w = o.wavefunction_from_pure(pur.cm, pur.dv, AX)
        cm, _ = o.grid_moments(w)
        assert abs(cm[0, 0] / 2.0 - 1.0) < 1e-3
        assert np.abs(cm - pur.cm).max() < 1e-3
        # grid-estimated CMs stay symmetric and physical
        assert np.abs(cm - cm.T).max() < 1e-12
        assert g.is_physical(cm)

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(st.data())
    def test_moments_of_random_pure_states(self, data):
        # squeezing along a rotated axis gives same-mode X-P entries up to
        # sinh(1.2) ~ 1.5, where the symmetrized <xp + px>/2 matters
        n = data.draw(st.integers(1, 2), label="modes")
        cm, dv = draw_pure_state(data, n, 0.6)
        w = o.wavefunction_from_pure(cm, dv, covering_axis(cm, dv, 401 if n == 1 else 161))
        cm_est, dv_est = o.grid_moments(w)
        assert np.abs(cm_est - cm).max() < 1e-6
        assert np.abs(dv_est - dv).max() < 1e-6

    def test_displacement_moments(self):
        dv = np.array([1.2, -0.7])
        w = o.wavefunction_from_pure(np.eye(2), dv, AX)
        _, dv_est = o.grid_moments(w)
        assert np.abs(dv_est - dv).max() < 1e-6

    def test_rejects_mixed_state(self):
        assert_rejects(lambda: o.wavefunction_from_pure(np.diag([2.0, 2.0]), np.zeros(2), AX),
                       "state is not pure")

    def test_rejects_small_grid(self):
        with pytest.raises(GridTooSmall):
            o.wavefunction_from_pure(np.eye(2), np.array([6.0, 0.0]), AX)

    def test_normalized(self):
        w = o.wavefunction_from_pure(np.diag([0.5, 2.0]), np.zeros(2), AX)
        total = np.sum(np.abs(w.amplitudes) ** 2) * AX.spacing
        assert abs(total - 1.0) < 1e-6


def _assert_matches_dense(cm, dv, axis):
    got = o.wavefunction_from_pure(cm, dv, axis).amplitudes
    ref = dense_wavefunction(cm, dv, axis)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSlabBuild:
    """The in-place build against the dense broadcasting reference."""

    def test_one_to_four_modes(self):
        rng = np.random.default_rng(0)
        z = lambda n: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pur2 = g.purify(g.GaussianState(random_physical_cm(rng, 1), np.array([0.4, -0.9])))
        # the 4-mode purification's position block has an inverse that is
        # symmetric only to rounding, so M's two halves really differ
        pur4 = g.purify(g.GaussianState(random_physical_cm(rng, 2), np.array([0.5, 1.0, -0.3, 0.7])))
        u = np.linalg.inv(pur4.cm[0::2, 0::2])
        assert not np.array_equal(u, u.T)
        cases = [
            (*random_pure_state([0.4], None, z(1), [0.7, -1.1]), 101),
            (pur2.cm, pur2.dv, 61),
            (*random_pure_state([0.3, -0.2, 0.1], 1.6, z(3), [0.5, 0.8, -0.6, -0.4, 0.2, 1.0]), 25),
            (pur4.cm, pur4.dv, 21),
        ]
        for cm, dv, points in cases:
            assert np.abs(dv[1::2]).min() > 0  # nonzero pbar on every mode
            _assert_matches_dense(cm, dv, covering_axis(cm, dv, points))

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(st.data())
    def test_random_pure_states(self, data):
        n = data.draw(st.integers(1, 3), label="modes")
        cm, dv = draw_pure_state(data, n, 0.5)
        _assert_matches_dense(cm, dv, covering_axis(cm, dv, 31))

    def test_traced_peak_is_one_amplitude_array(self, purified_symmetric_111):
        _, pur = purified_symmetric_111
        axis = o.GridAxis(-20.0 / 3.0, 20.0 / 3.0, 41)
        psi, peak = traced_peak(lambda: o.wavefunction_from_pure(pur.cm, pur.dv, axis))
        assert psi.amplitudes.shape == (41,) * 4
        assert peak <= 1.05 * psi.amplitudes.nbytes


class TestGridOverlap:
    def test_self_overlap(self):
        w = o.wavefunction_from_pure(np.eye(2), np.zeros(2), AX)
        assert abs(o.grid_overlap(w, w) - 1.0) < 1e-6

    def test_rejects_grid_mismatch(self):
        a = o.wavefunction_from_pure(np.eye(2), np.zeros(2), AX)
        b = o.wavefunction_from_pure(np.eye(2), np.zeros(2), o.GridAxis(-8.0, 8.0, 101))
        assert_rejects(lambda: o.grid_overlap(a, b), "wavefunctions live on different grids")


class TestGridConditionOnX:
    def test_product_state_unaffected(self):
        w2 = o.wavefunction_from_pure(np.eye(4), np.zeros(4), AX)
        cond = o.grid_condition_on_x(w2, [0], [0.48])  # on-grid node
        ref = o.wavefunction_from_pure(np.eye(2), np.zeros(2), AX)
        assert np.abs(cond.amplitudes - ref.amplitudes).max() < 1e-9

    def test_matches_covariance_conditioning(self, psi4, purified_symmetric_111):
        _, pur = purified_symmetric_111
        cond_grid = o.grid_condition_on_x(psi4, [0, 1], [1.0, 1.0])
        cm_est, dv_est = o.grid_moments(cond_grid)
        cond = g.condition_on_x(pur, (0, 1), np.array([1.0, 1.0]))
        assert np.abs(cm_est - cond.state.cm).max() < 2e-3
        assert np.abs(dv_est - cond.state.dv).max() < 2e-3

    def test_sign_flip_same_cm(self, psi4):
        a = o.grid_condition_on_x(psi4, [0, 1], [1.0, 1.0])
        b = o.grid_condition_on_x(psi4, [0, 1], [-1.0, -1.0])
        cm_a, _ = o.grid_moments(a)
        cm_b, _ = o.grid_moments(b)
        assert np.abs(cm_a - cm_b).max() < 1e-9

    def test_snaps_off_node_outcome(self):
        # the warning's bound is 1e-9: 0.9x of it past a node is silent (a
        # warning would fail the call), 1.1x of it warns
        w2 = o.wavefunction_from_pure(np.eye(4), np.zeros(4), AX)
        node = AX.nodes[106]
        o.grid_condition_on_x(w2, [0], [node + 0.9e-9])
        for x in (node + 1.1e-9, 0.4999):
            with pytest.warns(UserWarning) as caught:
                o.grid_condition_on_x(w2, [0], [x])
            assert [str(w.message) for w in caught] == [f"outcome {x} snapped to grid node {node}"]

    def test_unlikely_outcome_rejected(self):
        w2 = o.wavefunction_from_pure(np.eye(4), np.zeros(4), AX)
        with pytest.raises(OutcomeUnlikely):
            o.grid_condition_on_x(w2, [0], [8.0])

    def test_norm_floor(self):
        # the floor is 1e-12: on a unit-spacing grid whose node-0 slice holds
        # one amplitude a, that slice's norm is sqrt(fl(a^2)) = a exactly, so
        # 1.1x the floor is accepted and 0.9x rejected with the exact message
        def one_amplitude_slice(a):
            amp = np.zeros((3, 3))
            amp[0, 0], amp[1, 1] = 1.0, a
            return o.GridWavefunction(o.GridAxis(-1.0, 1.0, 3), amp)

        cond = o.grid_condition_on_x(one_amplitude_slice(1.1e-12), [0], [0.0])
        assert np.array_equal(cond.amplitudes, [0.0, 1.0, 0.0])
        assert_rejects(lambda: o.grid_condition_on_x(one_amplitude_slice(0.9e-12), [0], [0.0]),
                       "slice at [0.] has norm 9e-13", OutcomeUnlikely)

    def test_rejects_non_finite_outcome(self):
        w2 = o.wavefunction_from_pure(np.eye(4), np.zeros(4), AX)
        for x in (np.inf, np.nan):
            assert_rejects(lambda: o.grid_condition_on_x(w2, [0], [x]), "outcomes are not finite")


@pytest.fixture(scope="module")
def sectors4(purified_symmetric_111):
    _, pur = purified_symmetric_111
    return o.grid_sector_states(pur.cm, pur.dv, o.GridAxis(-20.0 / 3.0, 20.0 / 3.0, 41), 1.0)


class TestGridSectorStates:
    """The sector slices tabulated directly against the full-build route."""

    def test_matches_full_build(self, sectors4, purified_symmetric_111):
        _, pur = purified_symmetric_111
        weights, states = sectors4
        want_w, want = full_build_sectors(pur.cm, pur.dv, states[0].axis, 1.0)
        assert np.abs(weights - want_w).max() <= 1e-12
        for got, ref in zip(states, want):
            assert got.amplitudes.shape == (41, 41)
            assert np.abs(got.amplitudes - ref).max() <= 1e-12
        assert abs(weights.sum() - 1.0) <= 1e-12

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(st.data())
    def test_random_pure_states(self, data):
        n = data.draw(st.integers(3, 4), label="modes")
        cm, dv = draw_pure_state(data, n, 0.5)
        points = 15 if n == 4 else 21
        axis = covering_axis(cm, dv, points)
        x0 = axis.nodes[points // 2 + data.draw(st.integers(1, points // 4), label="x0 node")]
        weights, states = o.grid_sector_states(cm, dv, axis, x0)
        want_w, want = full_build_sectors(cm, dv, axis, x0)
        assert np.abs(weights - want_w).max() <= 1e-12
        for got, ref in zip(states, want):
            assert got.amplitudes.shape == (points,) * (n - 2)
            assert np.abs(got.amplitudes - ref).max() <= 1e-12
        spec = o.grid_reduced_spectrum(weights, states)
        assert np.abs(spec - full_build_spectrum(want_w, want, axis)).max() <= 1e-12

    def test_rejects_bad_input(self, purified_symmetric_111):
        _, pur = purified_symmetric_111
        axis = o.GridAxis(-20.0 / 3.0, 20.0 / 3.0, 41)
        assert_rejects(lambda: o.grid_sector_states(pur.cm, pur.dv, axis, 0.0), "x0 must be one positive number")
        assert_rejects(lambda: o.grid_sector_states(2.0 * np.eye(8), np.zeros(8), axis, 1.0), "state is not pure")
        with pytest.raises(GridTooSmall):
            o.grid_sector_states(pur.cm, pur.dv, o.GridAxis(-4.0, 4.0, 41), 1.0)
        assert_rejects(lambda: o.grid_sector_states(pur.cm, pur.dv, axis, 7.0), "outcome 7.0 outside the grid")
        assert_rejects(lambda: o.grid_sector_states(pur.cm, pur.dv, axis, np.inf), "x0 is not finite")

    def test_snaps_off_node_threshold(self, purified_symmetric_111):
        _, pur = purified_symmetric_111
        axis = o.GridAxis(-20.0 / 3.0, 20.0 / 3.0, 41)
        with pytest.warns(UserWarning, match="snapped"):
            _, states = o.grid_sector_states(pur.cm, pur.dv, axis, 1.01)
        _, on_node = o.grid_sector_states(pur.cm, pur.dv, axis, 1.0)
        assert all(np.array_equal(a.amplitudes, b.amplitudes) for a, b in zip(states, on_node))

    def test_sector_without_support_rejected(self):
        # |psi|^2 = exp(-4 * 30^2) at the pinned nodes underflows to 0
        with pytest.raises(OutcomeUnlikely, match="no support"):
            o.grid_sector_states(np.eye(8), np.zeros(8), o.GridAxis(-60.0, 60.0, 41), 30.0)


class TestGridReducedSpectrum:
    def test_pure_boundary_rank_one(self):
        lam = 1.25
        c = np.sqrt(lam**2 - 1.0)
        pur = g.purify(g.symmetric_embed(g.SymmetricStateParams(lam, c, c)))
        axis = o.GridAxis(-20.0 / 3.0, 20.0 / 3.0, 41)
        spec = np.sort(o.grid_reduced_spectrum(*o.grid_sector_states(pur.cm, pur.dv, axis, 1.0)))
        assert np.abs(spec - np.array([0.0, 0.0, 0.0, 1.0])).max() < 2e-3

    def test_rejects_wrong_mode_count(self, sectors4):
        axis = o.GridAxis(-20.0 / 3.0, 20.0 / 3.0, 41)
        assert_rejects(lambda: o.grid_sector_states(np.eye(4), np.zeros(4), axis, 1.0),
                       "need a purification with at least one adversary mode")
        weights, states = sectors4
        assert_rejects(lambda: o.grid_reduced_spectrum(weights[:3], states[:3]),
                       "need the four sectors of grid_sector_states")


_AXIS = o.GridAxis(-8.0, 8.0, 41)
_TINY = o.GridAxis(-1.0, 1.0, 3)
_VACUUM2 = o.wavefunction_from_pure(np.eye(4), np.zeros(4), _AXIS)


class TestInputChecks:
    # the module's own input rules, each row with its exact message
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: o.wavefunction_from_pure(np.eye(3), np.zeros(3), _AXIS),
                     "CM must be square with even dimension", id="pure-odd-cm"),
        pytest.param(lambda: o.wavefunction_from_pure(np.eye(10), np.zeros(10), _AXIS),
                     "at most 4 modes on the grid", id="pure-five-modes"),
        pytest.param(lambda: o.wavefunction_from_pure(np.eye(2), np.zeros(3), _AXIS),
                     "DV length must match the CM", id="pure-dv-length"),
        pytest.param(lambda: o.GridWavefunction(_TINY, np.array(1.0)),
                     "between 1 and 4 modes supported", id="wavefunction-0d"),
        pytest.param(lambda: o.GridWavefunction(_TINY, np.ones((3,) * 5)),
                     "between 1 and 4 modes supported", id="wavefunction-5d"),
        pytest.param(lambda: o.GridWavefunction(_TINY, np.ones(5)),
                     "amplitude array shape must match the axis", id="wavefunction-shape"),
        pytest.param(lambda: o.GridWavefunction(_TINY, np.ones(3)),
                     "wavefunction norm^2 is 3.0, not 1", id="wavefunction-norm"),
        pytest.param(lambda: o.grid_condition_on_x(_VACUUM2, [0, 1], [0.0, 0.0]),
                     "measured axes must be a proper non-empty subset", id="condition-all-axes"),
        pytest.param(lambda: o.grid_condition_on_x(_VACUUM2, [], []),
                     "measured axes must be a proper non-empty subset", id="condition-no-axis"),
        pytest.param(lambda: o.grid_condition_on_x(_VACUUM2, [0], [0.0, 1.0]),
                     "need one outcome per measured axis", id="condition-outcome-count"),
        # sqrt(-0.1) would warn and put NaN in the spectrum
        pytest.param(lambda: o.grid_reduced_spectrum([-0.1, 0.4, 0.35, 0.35], [_VACUUM2] * 4),
                     "weights must be finite and nonnegative", id="spectrum-negative-weight"),
        # (x - lo) / spacing would overflow to inf and end in a bare OverflowError
        pytest.param(lambda: o.grid_condition_on_x(_VACUUM2, [0], [1e308]),
                     "outcome 1e+308 outside the grid", id="condition-huge-outcome"),
        pytest.param(lambda: o.grid_sector_states(np.eye(6), np.zeros(6), _AXIS, 1e308),
                     "outcome 1e+308 outside the grid", id="sector-huge-x0"),
        # math.isfinite would raise a bare TypeError
        pytest.param(lambda: o.GridAxis("a", 8.0, 41), "need finite lo < hi", id="axis-string-lo"),
        pytest.param(lambda: o.GridAxis(-8.0, np.array([8.0, 9.0]), 41), "need finite lo < hi",
                     id="axis-array-hi"),
        # math.isfinite would raise a bare OverflowError
        pytest.param(lambda: o.GridAxis(-10**400, 10**400, 3), "need finite lo < hi", id="axis-huge-int"),
        # hi - lo is inf: the spacing would be inf and the nodes would warn
        pytest.param(lambda: o.GridAxis(-1e308, 1e308, 3), "need finite lo < hi", id="axis-overflowing-span"),
        # lo + hi would overflow to inf, and inf > 1e-12 * inf is false
        pytest.param(lambda: o.GridAxis(1e308, 1.7e308, 3), "axis must be symmetric about 0",
                     id="axis-huge-asymmetric"),
        # |lo/2 + hi/2| at 1.1x the bound 5e-13 * (hi - lo)
        pytest.param(lambda: o.GridAxis(-8.0 + 1.76e-11, 8.0, 41), "axis must be symmetric about 0",
                     id="axis-past-symmetry-bound"),
    ])
    def test_rejects(self, call, message):
        assert_rejects(call, message)
