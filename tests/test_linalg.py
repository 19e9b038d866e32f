"""Tests for repro.linalg: triangular solves, Cholesky, PSD, shrinkage."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from repro.errors import LinAlgError
from repro.linalg.cholesky import cholesky, logdet_spd, solve_spd
from repro.linalg.psd import is_psd, is_symmetric, nearest_psd, symmetrize
from repro.linalg.shrinkage import ledoit_wolf_gamma, shrink_covariance
from repro.linalg.triangular import solve_lower, solve_upper


def random_spd(n: int, seed: int, condition: float = 100.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigvals = np.geomspace(1.0, condition, n)
    return q @ np.diag(eigvals) @ q.T


class TestTriangular:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_lower_matches_scipy(self, n, seed):
        rng = np.random.default_rng(seed)
        lower = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
        rhs = rng.standard_normal(n)
        ours = solve_lower(lower, rhs)
        ref = scipy.linalg.solve_triangular(lower, rhs, lower=True)
        assert np.allclose(ours, ref, atol=1e-10)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_upper_matches_scipy(self, n, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
        rhs = rng.standard_normal(n)
        assert np.allclose(
            solve_upper(upper, rhs),
            scipy.linalg.solve_triangular(upper, rhs, lower=False),
            atol=1e-10,
        )

    def test_matrix_rhs(self):
        lower = np.array([[2.0, 0.0], [1.0, 3.0]])
        rhs = np.eye(2)
        x = solve_lower(lower, rhs)
        assert np.allclose(lower @ x, rhs)

    def test_unit_diagonal(self):
        lower = np.array([[5.0, 0.0], [2.0, 7.0]])
        rhs = np.array([1.0, 1.0])
        x = solve_lower(lower, rhs, unit_diagonal=True)
        # Diagonal treated as 1: x0 = 1, x1 = 1 - 2*1 = -1
        assert np.allclose(x, [1.0, -1.0])

    def test_zero_pivot_raises(self):
        with pytest.raises(LinAlgError):
            solve_lower(np.zeros((2, 2)), np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(LinAlgError):
            solve_lower(np.eye(3), np.ones(2))

    def test_non_square(self):
        with pytest.raises(LinAlgError):
            solve_upper(np.ones((2, 3)), np.ones(2))


class TestCholesky:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_factor_reconstructs(self, n):
        a = random_spd(n, seed=n)
        lower = cholesky(a)
        assert np.allclose(lower @ lower.T, a, atol=1e-8)
        assert np.allclose(lower, np.tril(lower))

    def test_matches_numpy(self):
        a = random_spd(6, seed=42)
        assert np.allclose(cholesky(a), np.linalg.cholesky(a), atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(LinAlgError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_jitter_rescues_semidefinite(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        lower = cholesky(a, jitter=1e-8)
        assert np.allclose(lower @ lower.T, a + 1e-8 * np.eye(2), atol=1e-10)

    def test_solve_spd_matches_numpy(self):
        a = random_spd(7, seed=3)
        b = np.arange(7, dtype=float)
        assert np.allclose(solve_spd(a, b), np.linalg.solve(a, b), atol=1e-8)

    def test_logdet(self):
        a = random_spd(5, seed=9)
        assert logdet_spd(a) == pytest.approx(np.linalg.slogdet(a)[1], abs=1e-8)


class TestPsd:
    def test_symmetrize(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        s = symmetrize(a)
        assert np.allclose(s, s.T)
        assert s[0, 1] == 1.0

    def test_is_symmetric(self):
        assert is_symmetric(np.eye(3))
        assert not is_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert not is_symmetric(np.ones((2, 3)))

    def test_is_psd(self):
        assert is_psd(random_spd(4, seed=1))
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_nearest_psd_projects(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigvals 3, -1
        p = nearest_psd(a)
        assert is_psd(p)
        eigvals = np.linalg.eigvalsh(p)
        assert eigvals.min() >= -1e-12

    def test_nearest_psd_floor(self):
        p = nearest_psd(np.zeros((3, 3)), floor=0.5)
        assert np.allclose(p, 0.5 * np.eye(3))

    def test_nearest_psd_noop_on_spd(self):
        a = random_spd(4, seed=2)
        assert np.allclose(nearest_psd(a), a, atol=1e-10)


class TestShrinkage:
    def test_gamma_zero_identity(self):
        a = random_spd(4, seed=5)
        assert np.allclose(shrink_covariance(a, 0.0).covariance, symmetrize(a))

    def test_gamma_one_scaled_identity(self):
        a = random_spd(4, seed=6)
        result = shrink_covariance(a, 1.0)
        assert np.allclose(result.covariance, result.target_scale * np.eye(4))

    def test_trace_preserved(self):
        a = random_spd(5, seed=7)
        for gamma in (0.1, 0.5, 0.9):
            shrunk = shrink_covariance(a, gamma).covariance
            assert np.trace(shrunk) == pytest.approx(np.trace(symmetrize(a)))

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            shrink_covariance(np.eye(2), 1.5)

    def test_ledoit_wolf_in_unit_interval(self, rng):
        samples = rng.standard_normal((50, 10))
        gamma = ledoit_wolf_gamma(samples)
        assert 0.0 <= gamma <= 1.0

    def test_ledoit_wolf_small_sample_shrinks_more(self, rng):
        cov = random_spd(20, seed=8)
        chol = np.linalg.cholesky(cov)
        small = (chol @ rng.standard_normal((20, 25)).T[..., None]).squeeze(-1)
        small = rng.standard_normal((25, 20)) @ chol.T
        large = rng.standard_normal((5000, 20)) @ chol.T
        assert ledoit_wolf_gamma(small) > ledoit_wolf_gamma(large)

    def test_ledoit_wolf_identity_data(self, rng):
        # Strongly structured (identical) samples: d2 == 0 -> gamma 0
        samples = np.tile(rng.standard_normal(6), (10, 1))
        assert ledoit_wolf_gamma(samples) == 0.0

    def test_ledoit_wolf_needs_two_samples(self):
        from repro.errors import DataError

        with pytest.raises(DataError):
            ledoit_wolf_gamma(np.ones((1, 4)))
