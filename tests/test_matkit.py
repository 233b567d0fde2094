import numpy as np
import pytest

from conftest import assert_rejects
from gausskey import matkit
from gausskey.errors import EvaluationError, NotPSD


def char_poly_roots(h):
    """Oracle: eigenvalues as roots of the explicitly expanded characteristic
    polynomial, coefficients from the Faddeev-LeVerrier trace recursion."""
    n = h.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(h @ m) / k)
    return np.roots(np.array(coeffs))


def gauss_elim_inverse(m):
    """Oracle: matrix inverse by Gauss-Jordan elimination with partial
    pivoting, no numpy.linalg involved."""
    n = m.shape[0]
    aug = np.hstack([m.astype(float).copy(), np.eye(n)])
    for col in range(n):
        piv = col + np.argmax(np.abs(aug[col:, col]))
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


class TestEigh:
    def test_identity(self):
        w, v = matkit.eigh(np.eye(4))
        assert np.allclose(w, 1.0)
        assert np.allclose(v @ v.conj().T, np.eye(4))

    def test_pauli_x(self):
        w, _ = matkit.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_char_poly_oracle_dim4(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = random_hermitian(rng, 4)
            w, _ = matkit.eigh(h)
            roots = np.sort(char_poly_roots(h).real)
            assert np.abs(w - roots).max() < 1e-8

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            h = random_hermitian(rng, dim)
            w, v = matkit.eigh(h)
            resid = np.abs(h - (v * w) @ v.conj().T).max()
            assert resid <= 1e-9 * (1.0 + np.abs(h).max())
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(3)
        w, _ = matkit.eigh(random_hermitian(rng, 8))
        assert np.all(np.diff(w) >= 0)

    def test_rejects_nonfinite(self):
        assert_rejects(lambda: matkit.eigh(np.array([[np.nan, 0.0], [0.0, 1.0]])),
                       "matrix contains non-finite entries")

    def test_rejects_nonhermitian(self):
        assert_rejects(lambda: matkit.eigh(np.array([[0.0, 1.0], [0.0, 0.0]])),
                       "matrix is not Hermitian within tolerance")

    def test_symmetrizes_rounding_noise(self):
        # an asymmetry of 0.9x the bound 1e-12 * (1 + max|h|) = 3e-12 is
        # symmetrized away; 1.1x is a TestInputChecks row
        h = np.array([[1.0, 0.5 + 2.7e-12], [0.5, 2.0]])
        w, _ = matkit.eigh(h)
        ref, _ = matkit.eigh(np.array([[1.0, 0.5 + 1.35e-12], [0.5 + 1.35e-12, 2.0]]))
        assert np.abs(w - ref).max() < 1e-13


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(matkit.pseudo_inverse(np.eye(3)), np.eye(3))

    def test_rank_deficient_diagonal(self):
        out = matkit.pseudo_inverse(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_full_rank_matches_gauss_elimination(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            plus = matkit.pseudo_inverse(m)
            assert np.abs(plus - gauss_elim_inverse(m)).max() < 1e-9
            assert np.abs(m @ plus - np.eye(3)).max() < 1e-9

    def test_moore_penrose_identities_rank_deficient(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rank = int(rng.integers(1, 4))
            m = rng.standard_normal((4, rank)) @ rng.standard_normal((rank, 5))
            plus = matkit.pseudo_inverse(m)
            assert np.abs(m @ plus @ m - m).max() < 1e-9
            assert np.abs(plus @ m @ plus - plus).max() < 1e-9
            assert np.abs((m @ plus) - (m @ plus).T).max() < 1e-9
            assert np.abs((plus @ m) - (plus @ m).T).max() < 1e-9

    def test_rejects_bad_tol(self):
        assert_rejects(lambda: matkit.pseudo_inverse(np.eye(2), tol=0.0), "tol must be positive")


class TestMinimizeScalar:
    def test_quadratic(self):
        x, fx = matkit.minimize_scalar(lambda x: (x - 1.0) ** 2, 0.0, 3.0, tol=1e-8)
        assert abs(x - 1.0) < 1e-6
        assert fx < 1e-12

    def test_kink(self):
        x, _ = matkit.minimize_scalar(lambda x: abs(x - 0.3), 0.0, 1.0, tol=1e-8)
        assert abs(x - 0.3) < 1e-6

    def test_rate_bound_dense_grid_oracle(self):
        from gausskey.gaussian import SymmetricStateParams
        from gausskey.security import rate_lower_bound

        p = SymmetricStateParams(1.2, 0.55, 0.55)
        f = lambda x0: -rate_lower_bound(p, x0)
        x, fx = matkit.minimize_scalar(f, 1e-6, 5.0, tol=1e-6)
        grid = np.linspace(1e-6, 5.0, 10_000)
        vals = np.array([f(g) for g in grid])
        k = int(np.argmin(vals))
        spacing = grid[1] - grid[0]
        assert abs(x - grid[k]) <= spacing
        assert fx <= vals[k] + 1e-12

    def test_few_batched_calls(self):
        for f, lo, hi, want in ((lambda x: (x - 1.0) ** 2, 0.0, 3.0, 1.0),
                                (lambda x: abs(x - 0.3), 0.0, 1.0, 0.3)):
            batches = []

            def counted(xs):
                batches.append(np.shape(xs))
                return f(xs)

            x, _ = matkit.minimize_scalar(counted, lo, hi, tol=1e-8)
            assert abs(x - want) < 1e-6
            assert len(batches) <= 8
            assert all(shape == (64,) for shape in batches)

    def test_edge_minimum_returns_edge(self):
        x, fx = matkit.minimize_scalar(lambda x: x, 0.25, 1.0, tol=1e-8)
        assert x == 0.25 and fx == 0.25

    def test_scan_grids_are_linspace(self):
        # run each bracket down to float resolution: every grid, the last
        # few-ulp ones included, is np.linspace's, bit for bit; on (0.2, 0.9)
        # 63 steps from lo miss hi by an ulp, so the endpoint is set to hi.
        # np.float64 bounds, and int ones where the floats are integers, give
        # the same grids and result as Python floats
        brackets = ((0.0, 3.0), (5e-6, 5.0), (1e194, 1e200), (1.0, 1.0 + 1e-9), (0.2, 0.9))
        for lo, hi in brackets:
            def scan(lo_arg, hi_arg):
                grids = []

                def recording(xs):
                    grids.append(xs.copy())
                    return np.abs(xs - (0.3 * lo + 0.7 * hi))

                return grids, matkit.minimize_scalar(recording, lo_arg, hi_arg, tol=1e-300)

            grids, best = scan(lo, hi)
            assert len(grids) > 2 and (grids[0][0], grids[0][-1]) == (lo, hi)
            for xs in grids:
                assert np.array_equal(xs, np.linspace(xs[0], xs[-1], 64)), (lo, hi)
            variants = [(np.float64(lo), np.float64(hi))]
            if lo.is_integer() and hi.is_integer():
                variants.append((int(lo), int(hi)))
            for bounds in variants:
                other, other_best = scan(*bounds)
                assert len(other) == len(grids), bounds
                assert all(np.array_equal(a, b) for a, b in zip(other, grids)), bounds
                assert other_best == best, bounds

    def test_constant_scalar_objective_returns_lo(self):
        for lo, hi in ((0.0, 3.0), (5e-6, 5.0)):
            x, fx = matkit.minimize_scalar(lambda x: 1.0, lo, hi)
            assert x == lo and fx == 1.0

    def test_huge_bracket_terminates(self):
        # no bracket is narrower than tol among floats near 1e199
        for f, want in ((lambda x: np.abs(x - 5e199), 5e199), (lambda x: -x, 1e200)):
            x, _ = matkit.minimize_scalar(f, 1e194, 1e200, tol=1e-6)
            assert abs(x - want) <= 1e-14 * want

    def test_non_finite_objective(self):
        with pytest.raises(EvaluationError):
            matkit.minimize_scalar(lambda x: np.nan, 0.0, 1.0)

    def test_non_finite_anywhere_in_batch(self):
        with pytest.raises(EvaluationError) as info:
            matkit.minimize_scalar(lambda x: np.where(x > 0.7, np.nan, x), 0.0, 1.0)
        assert info.value.x > 0.7

    def test_bad_bracket(self):
        assert_rejects(lambda: matkit.minimize_scalar(lambda x: x, 1.0, 0.0), "need finite lo < hi")


class TestSampleMvn:
    def test_identity_covariance_statistics(self):
        rng = matkit.Rng(123)
        xs = matkit.sample_mvn(np.eye(2), 100_000, rng)
        emp = xs.T @ xs / len(xs)
        assert np.abs(emp - np.eye(2)).max() < 0.02
        # mean converges at 1/sqrt(n); 5 sigma bound
        assert np.abs(xs.mean(axis=0)).max() < 5.0 / np.sqrt(len(xs))

    def test_general_covariance_statistics(self):
        cov = np.array([[0.75, 0.5], [0.5, 0.75]])
        xs = matkit.sample_mvn(cov, 200_000, matkit.Rng(77))
        emp = xs.T @ xs / len(xs)
        # entrywise 5 sigma with var ~ (cov_ii cov_jj + cov_ij^2)/n
        bound = 5.0 * np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / len(xs))
        assert np.all(np.abs(emp - cov) < bound)

    def test_deterministic(self):
        a = matkit.sample_mvn(np.eye(3), 100, matkit.Rng(5))
        b = matkit.sample_mvn(np.eye(3), 100, matkit.Rng(5))
        assert np.array_equal(a, b)

    def test_zero_covariance(self):
        xs = matkit.sample_mvn(np.zeros((2, 2)), 10, matkit.Rng(0))
        assert np.array_equal(xs, np.zeros((10, 2)))

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            matkit.sample_mvn(np.diag([1.0, -1.0]), 10, matkit.Rng(0))


class TestBinaryEntropy:
    def test_maximum(self):
        assert matkit.binary_entropy(0.5) == 1.0

    def test_limits(self):
        assert matkit.binary_entropy(0.0) == 0.0
        assert matkit.binary_entropy(1.0) == 0.0

    def test_value(self):
        assert abs(matkit.binary_entropy(0.11) - 0.49992) < 1e-5

    def test_concavity_grid(self):
        ps = np.linspace(0.0, 1.0, 41)
        for p in ps:
            for q in ps:
                mid = matkit.binary_entropy((p + q) / 2.0)
                avg = 0.5 * (matkit.binary_entropy(p) + matkit.binary_entropy(q))
                assert mid >= avg - 1e-12

    def test_elementwise(self):
        ps = np.array([[0.0, 0.11], [0.5, 1.0]])
        want = np.vectorize(matkit.binary_entropy)(ps)
        assert np.array_equal(matkit.binary_entropy(ps), want)
        assert_rejects(lambda: matkit.binary_entropy(np.array([0.2, np.nan])), "probability must lie in [0, 1]")

    def test_rejects_out_of_range(self):
        for p in (1.5, -0.1):
            assert_rejects(lambda: matkit.binary_entropy(p), "probability must lie in [0, 1]")


class TestEntropyBits:
    def test_pure(self):
        assert matkit.entropy_bits([1.0, 0.0, 0.0]) == 0.0

    def test_uniform(self):
        assert abs(matkit.entropy_bits([0.25] * 4) - 2.0) < 1e-12

    def test_small_negative_clipped(self):
        assert matkit.entropy_bits([1.0, -1e-12]) == 0.0

    def test_rejects_large_negative(self):
        assert_rejects(lambda: matkit.entropy_bits([0.5, -0.5]), "weights must be nonnegative, got min -0.5")

    def test_stack_along_last_axis(self):
        got = matkit.entropy_bits([[1.0, 0.0, 0.0, 0.0], [0.25] * 4, [0.5, 0.5, 0.0, -1e-12]])
        assert np.abs(got - np.array([0.0, 2.0, 1.0])).max() < 1e-12


class TestRng:
    def test_same_seed_same_stream(self):
        a = matkit.Rng(42).generator.standard_normal(16)
        b = matkit.Rng(42).generator.standard_normal(16)
        assert np.array_equal(a, b)

    def test_substreams_disjoint_and_reproducible(self):
        base = matkit.Rng(42)
        s0 = base.substream(0).generator.standard_normal(64)
        s1 = base.substream(1).generator.standard_normal(64)
        again = matkit.Rng(42).substream(0).generator.standard_normal(64)
        assert np.array_equal(s0, again)
        assert not np.array_equal(s0, s1)

    def test_substream_independent_of_parent_draws(self):
        base = matkit.Rng(42)
        base.generator.standard_normal(1000)
        assert np.array_equal(
            base.substream(3).generator.standard_normal(8),
            matkit.Rng(42).substream(3).generator.standard_normal(8),
        )

    def test_rejects_bad_seed(self):
        assert_rejects(lambda: matkit.Rng(-1), "seed must be an integer in [0, 2**64)")

    @pytest.mark.parametrize("index", [0, 1, 2**20 - 1])
    def test_rekeyed_generator_draws_as_new_substream(self, index):
        # the re-keyed generator starts where numpy's own Philox for the child's
        # (key, counter) starts, whatever buffered Philox words or spare 32-bit
        # half its last draws left
        base = matkit.Rng(42, 7)
        stream = (7 << 20) + index + 1
        draws = (lambda g: g.random(5), lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                 lambda g: g.standard_normal(9))
        child = base.substream(5)
        for draw in draws:
            fresh = [np.random.Generator(np.random.Philox(counter=stream << 192, key=42)),
                     base.substream(index).generator]
            draw(child.generator)  # a partial draw on the chunk before
            assert base.substream(index, into=child) is child
            assert (child.seed, child.stream) == (42, stream)
            for d in draws:
                got = d(child.generator)
                for gen in fresh:
                    assert np.array_equal(got, d(gen))

    def test_rekey_rejects_as_substream(self):
        base, child = matkit.Rng(3), matkit.Rng(3, 9)
        assert_rejects(lambda: base.substream(2**20, into=child),
                       "substream index must be an integer in [0, 2**20)")
        deepest = matkit.Rng(3).substream(0).substream(0).substream(0)
        assert_rejects(lambda: deepest.substream(0, into=child), "stream must be an integer in [0, 2**60)")
        assert child.stream == 9
        assert np.array_equal(child.generator.random(4), matkit.Rng(3, 9).generator.random(4))


class TestInputChecks:
    # the module's own input rules, each row with its exact message
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: matkit.eigh(np.ones((2, 3))), "matrix must be square",
                     id="eigh-non-square"),
        pytest.param(lambda: matkit.eigh(np.eye(65)), "kernel supports dimension 64 at most",
                     id="eigh-dimension-65"),
        # an asymmetry of 1.1x the bound 1e-12 * (1 + max|h|) = 3e-12
        pytest.param(lambda: matkit.eigh(np.array([[1.0, 0.5 + 3.3e-12], [0.5, 2.0]])),
                     "matrix is not Hermitian within tolerance", id="eigh-past-hermiticity-bound"),
        pytest.param(lambda: matkit.pseudo_inverse(np.ones(3)), "matrix must be two-dimensional",
                     id="pinv-1d"),
        pytest.param(lambda: matkit.sample_mvn(np.ones((2, 3)), 2, matkit.Rng(0)), "cov must be square",
                     id="mvn-non-square"),
        pytest.param(lambda: matkit.sample_mvn(np.array([[1.0, 0.5], [0.0, 1.0]]), 2, matkit.Rng(0)),
                     "cov must be symmetric", id="mvn-asymmetric"),
        pytest.param(lambda: matkit.Rng(1, -1), "stream must be an integer in [0, 2**60)",
                     id="rng-stream-negative"),
        pytest.param(lambda: matkit.Rng(1).substream(-1), "substream index must be an integer in [0, 2**20)",
                     id="substream-negative"),
        # float() would accept the numeric strings; a string tol would raise a bare TypeError
        pytest.param(lambda: matkit.minimize_scalar(lambda x: x, "0", "1"), "need finite lo < hi",
                     id="minimize-string-bracket"),
        pytest.param(lambda: matkit.minimize_scalar(lambda x: x, 0.0, 1.0, "a"), "tol must be finite",
                     id="minimize-string-tol"),
        pytest.param(lambda: matkit.pseudo_inverse(np.eye(2), "a"), "tol must be positive", id="pinv-string-tol"),
    ])
    def test_rejects(self, call, message):
        assert_rejects(call, message)
