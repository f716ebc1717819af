"""Unit tests for the randomized SVD."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import (
    exact_svd,
    krylov_iteration_count,
    randomized_svd,
    thin_qr,
)


@pytest.fixture
def low_rank_matrix(rng):
    """A 30x20 matrix with sharply decaying spectrum (easy to approximate)."""
    u, _ = np.linalg.qr(rng.standard_normal((30, 10)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 10)))
    s = 2.0 ** -np.arange(10) * 50.0
    return (u * s) @ v.T


class TestExactSVD:
    def test_reconstruction_full_rank(self, rng):
        matrix = rng.standard_normal((6, 4))
        result = exact_svd(matrix, 4)
        np.testing.assert_allclose(result.reconstruct(), matrix, atol=1e-10)

    def test_accepts_sparse(self, rng):
        dense = rng.random((8, 5))
        result = exact_svd(sp.csr_matrix(dense), 3)
        assert result.u.shape == (8, 3)
        assert result.rank == 3


class TestRandomizedSVD:
    @pytest.mark.parametrize("strategy", ["block_krylov", "power"])
    def test_close_to_exact(self, low_rank_matrix, strategy, rng):
        k = 5
        exact = exact_svd(low_rank_matrix, k)
        approx = randomized_svd(
            low_rank_matrix, k, epsilon=0.05, strategy=strategy, rng=rng
        )
        np.testing.assert_allclose(approx.s, exact.s, rtol=1e-4)
        # Compare projectors (vectors are sign/rotation ambiguous).
        exact_proj = exact.u @ exact.u.T
        approx_proj = approx.u @ approx.u.T
        np.testing.assert_allclose(approx_proj, exact_proj, atol=1e-3)

    def test_sparse_input(self, rng):
        dense = rng.random((40, 25))
        dense[dense < 0.7] = 0.0
        sparse = sp.csr_matrix(dense)
        approx = randomized_svd(sparse, 4, rng=rng)
        exact = exact_svd(sparse, 4)
        np.testing.assert_allclose(approx.s, exact.s, rtol=1e-3)

    def test_singular_values_sorted_non_negative(self, low_rank_matrix, rng):
        result = randomized_svd(low_rank_matrix, 6, rng=rng)
        assert (result.s >= 0).all()
        assert (np.diff(result.s) <= 1e-12).all()

    def test_orthonormal_factors(self, low_rank_matrix, rng):
        result = randomized_svd(low_rank_matrix, 5, rng=rng)
        np.testing.assert_allclose(
            result.u.T @ result.u, np.eye(5), atol=1e-8
        )
        np.testing.assert_allclose(
            result.vt @ result.vt.T, np.eye(5), atol=1e-8
        )

    def test_smaller_epsilon_not_worse(self, rng):
        # A harder spectrum: slow decay.
        matrix = rng.standard_normal((60, 40))
        k = 8
        exact = exact_svd(matrix, k)
        loose = randomized_svd(matrix, k, epsilon=0.9, iterations=1,
                               rng=np.random.default_rng(0))
        tight = randomized_svd(matrix, k, epsilon=0.05,
                               rng=np.random.default_rng(0))
        loose_err = np.abs(loose.s - exact.s).max()
        tight_err = np.abs(tight.s - exact.s).max()
        assert tight_err <= loose_err + 1e-12

    def test_reproducible_with_seed(self, low_rank_matrix):
        a = randomized_svd(low_rank_matrix, 3, rng=np.random.default_rng(9))
        b = randomized_svd(low_rank_matrix, 3, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.s, b.s)

    def test_explicit_iterations_override(self, low_rank_matrix, rng):
        result = randomized_svd(low_rank_matrix, 3, iterations=1, rng=rng)
        assert result.rank == 3

    def test_k_validation(self, low_rank_matrix, rng):
        with pytest.raises(ValueError):
            randomized_svd(low_rank_matrix, 0, rng=rng)
        with pytest.raises(ValueError):
            randomized_svd(low_rank_matrix, 21, rng=rng)

    def test_strategy_validation(self, low_rank_matrix, rng):
        with pytest.raises(ValueError, match="strategy"):
            randomized_svd(low_rank_matrix, 2, strategy="magic", rng=rng)

    def test_full_rank_k(self, rng):
        matrix = rng.standard_normal((10, 6))
        result = randomized_svd(matrix, 6, epsilon=0.01, rng=rng)
        exact = exact_svd(matrix, 6)
        np.testing.assert_allclose(result.s, exact.s, rtol=1e-5)


class TestIterationCount:
    def test_monotone_in_epsilon(self):
        assert krylov_iteration_count(1000, 0.01) >= krylov_iteration_count(
            1000, 0.5
        )

    def test_monotone_in_n(self):
        assert krylov_iteration_count(10 ** 6, 0.1) >= krylov_iteration_count(
            100, 0.1
        )

    def test_floor_of_two(self):
        assert krylov_iteration_count(2, 100.0) == 2

    def test_rejects_non_positive_epsilon(self):
        with pytest.raises(ValueError):
            krylov_iteration_count(100, 0.0)


class TestQRFirstRayleighRitz:
    """The QR-first Rayleigh-Ritz step against a dense SVD of ``Q^T A``.

    ``randomized_svd`` factors the ``n x c`` projection ``A^T Q`` by QR and
    takes the SVD of the small ``R`` factor; the oracle rebuilds the same
    power-iteration basis ``Q`` and takes the full SVD of ``Q^T A``.
    """

    @pytest.mark.parametrize("shape", [(300, 200), (200, 300), (900, 60)])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_matches_dense_svd_of_projection(self, shape, sparse):
        rng = np.random.default_rng(4)
        m, n = shape
        rank = 40
        left, _ = np.linalg.qr(rng.standard_normal((m, rank)))
        right, _ = np.linalg.qr(rng.standard_normal((n, rank)))
        dense = (left * np.geomspace(10.0, 0.1, rank)) @ right.T
        k, oversamples, iterations, seed = 10, 8, 2, 3
        result = randomized_svd(
            sp.csr_matrix(dense) if sparse else dense,
            k,
            n_oversamples=oversamples,
            iterations=iterations,
            rng=np.random.default_rng(seed),
        )

        omega = np.random.default_rng(seed).standard_normal((n, k + oversamples))
        basis, _ = thin_qr(dense @ omega)
        for _ in range(iterations):
            basis, _ = thin_qr(dense.T @ basis)
            basis, _ = thin_qr(dense @ basis)
        u_small, s_ref, vt_ref = np.linalg.svd(basis.T @ dense, full_matrices=False)
        u_ref = basis @ u_small[:, :k]

        tol = 1e-12 * s_ref[0]
        np.testing.assert_allclose(result.s, s_ref[:k], rtol=0, atol=tol)
        signs = np.sign(np.sum(result.u * u_ref, axis=0))
        np.testing.assert_allclose(result.u * signs, u_ref, rtol=0, atol=tol)
        np.testing.assert_allclose(
            result.vt * signs[:, np.newaxis], vt_ref[:k], rtol=0, atol=tol
        )
