import dataclasses
import math

import numpy as np
import pytest

from invattn.linalg import (
    exact_svd_oracle,
    lu_logabsdet,
    norm_frobenius,
    norm_l1,
    power_iteration,
    spectral_normalize,
)


def naive_l1(m):
    best = 0.0
    for j in range(m.shape[1]):
        total = 0.0
        for i in range(m.shape[0]):
            total += abs(m[i, j])
        best = max(best, total)
    return best


def cofactor_det(m):
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * cofactor_det(minor)
    return total


def converged_state(m, seed=0):
    return power_iteration(m, iters=1000, tol=1e-15, seed=seed)


# every entry point reads its matrix through as_matrix, which reads any real
# array as float64; float32 input gives the result of its float64 cast
MATRIX_ENTRY_POINTS = {
    "norm_l1": norm_l1,
    "norm_frobenius": norm_frobenius,
    "power_iteration": lambda m: np.hstack(dataclasses.astuple(power_iteration(m, iters=50, tol=0.0, seed=3))),
    "spectral_normalize": lambda m: spectral_normalize(m, 0.5, converged_state(m.astype(np.float64))),
    "exact_svd_oracle": exact_svd_oracle,
    "lu_logabsdet": lambda m: np.array(lu_logabsdet(m)),
}


@pytest.mark.parametrize("name", MATRIX_ENTRY_POINTS)
def test_float32_matrix_read_as_float64(name):
    entry = MATRIX_ENTRY_POINTS[name]
    m = np.random.default_rng(15).standard_normal((6, 6)).astype(np.float32)
    got = np.asarray(entry(m))
    assert got.dtype == np.float64
    assert np.array_equal(got, np.asarray(entry(m.astype(np.float64))))


class TestNorms:
    def test_l1_identity(self):
        assert norm_l1(np.eye(3)) == 1.0

    def test_l1_small_example(self):
        assert norm_l1(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0

    def test_l1_matches_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.standard_normal((8, 8))
            assert norm_l1(m) == naive_l1(m)

    def test_frobenius_identity(self):
        assert norm_frobenius(np.eye(4)) == 2.0

    def test_frobenius_zero(self):
        assert norm_frobenius(np.zeros((3, 5))) == 0.0

    def test_frobenius_dominates_spectral(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((8, 8))
            assert exact_svd_oracle(m)[0] <= norm_frobenius(m) + 1e-12

    @pytest.mark.parametrize("bad", [np.zeros((0, 3)), np.zeros(4), np.zeros((2, 2, 2))])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            norm_l1(bad)
        with pytest.raises(ValueError):
            norm_frobenius(bad)

    def test_nonfinite_rejected(self):
        m = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            norm_frobenius(m)


def norm_loop_power_iteration(m, iters, tol, seed):
    """power_iteration's loop written out with np.linalg.norm as its norm;
    returns (u, v, sigma) and how often the loop restarted."""
    rng = np.random.default_rng(seed)

    def random_unit(n):
        while True:
            vec = rng.standard_normal(n)
            nrm = np.linalg.norm(vec)
            if nrm > 0.0:
                return vec / nrm

    u = random_unit(m.shape[0])
    v = np.zeros(m.shape[1])
    if not np.any(m):
        return (u, v, 0.0), 0
    sigma, restarts = 0.0, 0
    for _ in range(iters):
        vt = m.T @ u
        nv = np.linalg.norm(vt)
        if nv == 0.0:
            u, restarts = random_unit(m.shape[0]), restarts + 1
            continue
        v = vt / nv
        ut = m @ v
        nu = np.linalg.norm(ut)
        if nu == 0.0:
            u, restarts = random_unit(m.shape[0]), restarts + 1
            continue
        u = ut / nu
        prev = sigma
        sigma = float(nu)
        if abs(sigma - prev) < tol:
            break
    return (u, v, sigma), restarts


def assert_matches_norm_loop(m, iters=1000, tol=1e-15, seed=0):
    """power_iteration's iterates equal the np.linalg.norm loop's bit for
    bit; returns the loop's restart count."""
    (u, v, sigma), restarts = norm_loop_power_iteration(m, iters, tol, seed)
    state = power_iteration(m, iters=iters, tol=tol, seed=seed)
    assert np.array_equal(state.u, u)
    assert np.array_equal(state.v, v)
    assert state.sigma_estimate == sigma
    return restarts


class TestPowerIteration:
    @pytest.mark.parametrize("channels", [3, 12, 48, 192])
    def test_iterates_match_the_norm_loop(self, channels):
        # build_block's draws and power-iteration settings
        for seed in range(20):
            scale = 1.0 / np.sqrt(channels)
            m = np.random.default_rng(seed).uniform(-scale, scale, size=(channels, channels))
            assert assert_matches_norm_loop(m, seed=seed) == 0

    def test_zero_matrix_matches_the_norm_loop(self):
        assert assert_matches_norm_loop(np.zeros((5, 3)), seed=2) == 0

    def test_restart_matches_the_norm_loop(self):
        # the seeded start u0 lies in the null space of W' up to rounding, and
        # at this scale W'u0's squared norm underflows to an exact 0, so the
        # loop restarts once and then converges from the fresh direction
        seed, n = 9, 12
        u0 = np.random.default_rng(seed).standard_normal(n)
        u0 /= np.linalg.norm(u0)
        b = np.random.default_rng(10).standard_normal((n, n))
        m = 1e-150 * ((np.eye(n) - np.outer(u0, u0)) @ b)
        assert assert_matches_norm_loop(m, seed=seed) == 1
        top = exact_svd_oracle(m)[0]
        state = power_iteration(m, iters=1000, tol=1e-15 * top, seed=seed)
        assert abs(state.sigma_estimate - top) <= 1e-9 * top

    def test_diagonal_spectrum(self):
        state = power_iteration(np.diag([3.0, 1.0]), iters=200, tol=1e-12, seed=0)
        assert abs(state.sigma_estimate - 3.0) <= 1e-10

    def test_identity(self):
        state = power_iteration(np.eye(6), iters=50, tol=0.0, seed=1)
        assert abs(state.sigma_estimate - 1.0) <= 1e-12

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((16, 16))
        top = exact_svd_oracle(m)[0]
        state = power_iteration(m, iters=200, tol=1e-9, seed=2)
        assert abs(state.sigma_estimate - top) / top <= 1e-6

    def test_state_vectors_unit_norm(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((7, 5))
        for iters in range(1, 11):
            state = power_iteration(m, iters=iters, tol=0.0, seed=3)
            assert abs(np.linalg.norm(state.u) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(state.v) - 1.0) <= 1e-12

    def test_sigma_monotone_nondecreasing(self):
        # k cold-start steps from one seed are the first k iterates of a
        # single run, so the estimates must not fall as k grows
        rng = np.random.default_rng(5)
        m = rng.standard_normal((12, 12))
        previous = -1.0
        for iters in range(1, 61):
            state = power_iteration(m, iters=iters, tol=0.0, seed=4)
            assert state.sigma_estimate >= previous - 1e-12
            previous = state.sigma_estimate

    def test_never_exceeds_oracle_top_value(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            m = rng.standard_normal(tuple(rng.integers(2, 13, size=2)))
            state = power_iteration(m, iters=300, tol=1e-12, seed=6)
            assert state.sigma_estimate <= exact_svd_oracle(m)[0] + 1e-9

    def test_zero_matrix(self):
        state = power_iteration(np.zeros((4, 4)), iters=10, tol=1e-9, seed=5)
        assert state.sigma_estimate == 0.0

    def test_iters_validated(self):
        with pytest.raises(ValueError):
            power_iteration(np.eye(2), iters=0)


class TestExactSvdOracle:
    def test_diagonal(self):
        assert np.allclose(exact_svd_oracle(np.diag([3.0, 1.0])), [3.0, 1.0], atol=1e-12)

    def test_rank_one_outer_product(self):
        u = np.array([2.0, 0.0, 0.0])
        v = np.array([0.0, 3.0, 0.0, 0.0])
        sv = exact_svd_oracle(np.outer(u, v))
        assert abs(sv[0] - 6.0) <= 1e-12
        assert np.all(np.abs(sv[1:]) <= 1e-12)

    def test_spectrum_frobenius_identity(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((8, 8))
        sv = exact_svd_oracle(m)
        assert abs(np.sum(sv**2) - norm_frobenius(m) ** 2) <= 1e-9

    def test_against_lapack(self):
        rng = np.random.default_rng(8)
        for rows, cols in ((5, 9), (9, 5), (16, 16)):
            m = rng.standard_normal((rows, cols))
            gram = m @ m.T if rows <= cols else m.T @ m
            want = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))[::-1]
            assert np.allclose(exact_svd_oracle(m), want, rtol=0.0, atol=1e-11)

    def test_descending_and_nonnegative(self):
        rng = np.random.default_rng(9)
        sv = exact_svd_oracle(rng.standard_normal((10, 10)))
        assert np.all(sv >= 0.0)
        assert np.all(np.diff(sv) <= 1e-15)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exact_svd_oracle(np.eye(65))
        # min(rows, cols) governs the guard
        exact_svd_oracle(np.ones((2, 100)))


class TestSpectralNormalize:
    def test_scales_down(self):
        m = 2.0 * np.eye(3)
        out = spectral_normalize(m, 0.9, converged_state(m))
        assert np.allclose(out, 0.9 * np.eye(3), atol=1e-12)

    def test_leaves_small_matrices_alone(self):
        m = 0.5 * np.eye(3)
        out = spectral_normalize(m, 0.9, converged_state(m))
        assert np.array_equal(out, m)

    def test_bound_holds_via_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = rng.standard_normal((16, 16))
            out = spectral_normalize(m, 0.9, converged_state(m))
            assert exact_svd_oracle(out)[0] <= 0.9 + 1e-6

    def test_zero_matrix_returned_unchanged(self):
        m = np.zeros((3, 3))
        out = spectral_normalize(m, 0.9, converged_state(m))
        assert np.array_equal(out, m)

    @pytest.mark.parametrize("c", [0.0, -0.1, 1.5])
    def test_target_validated(self, c):
        m = np.eye(2)
        with pytest.raises(ValueError):
            spectral_normalize(m, c, converged_state(m))

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.standard_normal((12, 12))
            first = spectral_normalize(m, 0.9, converged_state(m))
            second = spectral_normalize(first, 0.9, converged_state(first))
            assert np.abs(second - first).max() <= 1e-12


class TestLuLogAbsDet:
    def test_identity(self):
        assert lu_logabsdet(np.eye(5)) == (0.0, 1)

    def test_diagonal(self):
        logabs, sign = lu_logabsdet(np.diag([2.0, 3.0]))
        assert abs(logabs - math.log(6.0)) <= 1e-12
        assert sign == 1

    def test_permutation_sign(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert lu_logabsdet(swap) == (0.0, -1)

    def test_singular(self):
        logabs, sign = lu_logabsdet(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sign == 0
        assert logabs == -np.inf

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            lu_logabsdet(np.ones((2, 3)))

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_cofactor_expansion(self, n):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = rng.standard_normal((n, n))
            det = cofactor_det(m)
            logabs, sign = lu_logabsdet(m)
            assert abs(logabs - math.log(abs(det))) <= 1e-9
            assert sign == int(np.sign(det))

    def test_near_identity_d192_matches_eigenvalues(self):
        # the size of the dense log-det oracle's Jacobian on a 4x4x12 grid
        rng = np.random.default_rng(14)
        m = np.eye(192) + 0.02 * rng.standard_normal((192, 192))
        m[0] = -m[0]  # negative determinant: the sign must come out too
        eig = np.linalg.eigvals(m)
        logabs, sign = lu_logabsdet(m)
        assert abs(logabs - float(np.sum(np.log(np.abs(eig))))) <= 1e-9
        assert sign == int(np.sign(np.prod(eig).real))

    def test_multiplicativity(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = rng.standard_normal((8, 8)) + 2.0 * np.eye(8)
            b = rng.standard_normal((8, 8)) + 2.0 * np.eye(8)
            la, sa = lu_logabsdet(a)
            lb, sb = lu_logabsdet(b)
            lab, sab = lu_logabsdet(a @ b)
            assert abs(lab - (la + lb)) <= 1e-8
            assert sab == sa * sb
