"""Unit tests for QR utilities.

``thin_qr`` runs CholeskyQR2 on tall blocks and falls back to Householder
QR (``np.linalg.qr``) on short, wide, rank-deficient or ill-conditioned
ones.  Both paths must satisfy the same contract — orthonormal ``Q``,
``Q R == A``, upper-triangular ``R`` with a non-negative diagonal — and
``np.linalg.qr`` with the sign fix is the oracle on well-conditioned blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.linalg import is_semi_unitary, random_semi_unitary, thin_qr
from repro.linalg.qr import MAX_DIAG_RATIO, MIN_ASPECT


def _graded_block(seed, m, n, log_cond):
    """An ``m x n`` block with singular values graded from 1 to 10^-log_cond."""
    rng = np.random.default_rng(seed)
    rank = min(m, n)
    left, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    right, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    return (left * np.logspace(0, -log_cond, rank)) @ right.T


def _rank_deficient_block(seed, m, n, rank):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


def _kahan_block(seed, m, n, theta):
    """An orthonormal ``m x n`` basis times the ``n x n`` Kahan matrix.

    Its condition number is huge, yet its Cholesky factor's diagonal ratio
    is small: the block that defeats a diagonal-only condition estimate.
    """
    left, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, n)))
    s, c = np.sin(theta), np.cos(theta)
    kahan = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    return left @ kahan


def _oracle(block):
    """Householder QR with R's diagonal signs fixed non-negative."""
    q, r = np.linalg.qr(block, mode="reduced")
    signs = np.where(np.diagonal(r) < 0, -1.0, 1.0)
    return q * signs, r * signs[:, np.newaxis]


def _householder_calls(block):
    """How often ``thin_qr(block)`` took the Householder fallback."""
    with obs.collect() as collector:
        thin_qr(block)
    record = collector.timer.flatten().get("householder_qr")
    return 0 if record is None else record.calls


def _assert_qr_contract(block, q, r):
    m, n = block.shape
    rank = min(m, n)
    assert q.shape == (m, rank) and r.shape == (rank, n)
    np.testing.assert_allclose(q.T @ q, np.eye(rank), rtol=0, atol=1e-10)
    scale = max(np.linalg.norm(block), np.finfo(float).tiny)
    assert np.linalg.norm(q @ r - block) <= 1e-10 * scale
    assert np.all(np.tril(r, -1) == 0)
    assert np.all(np.diagonal(r) >= 0)


@st.composite
def graded_blocks(draw):
    """Tall, barely-tall and wide blocks with condition numbers 1 to 1e14."""
    n = draw(st.integers(1, 24))
    shape = draw(st.sampled_from(["tall", "barely_tall", "wide"]))
    if shape == "tall":
        m = MIN_ASPECT * n + draw(st.integers(0, 200))
    elif shape == "barely_tall":
        m = n + draw(st.integers(0, (MIN_ASPECT - 1) * n - 1)) if n > 1 else 1
    else:
        m, n = n, n + draw(st.integers(1, 24))
    log_cond = draw(st.floats(0.0, 14.0))
    return _graded_block(draw(st.integers(0, 2**32 - 1)), m, n, log_cond)


@st.composite
def rank_deficient_blocks(draw):
    n = draw(st.integers(2, 24))
    m = draw(st.integers(n, MIN_ASPECT * n + 200))
    rank = draw(st.integers(0, n - 1))
    return _rank_deficient_block(draw(st.integers(0, 2**32 - 1)), m, n, rank)


class TestThinQR:
    def test_reconstruction(self, rng):
        block = rng.standard_normal((10, 4))
        q, r = thin_qr(block)
        np.testing.assert_allclose(q @ r, block, atol=1e-10)

    def test_q_orthonormal(self, rng):
        q, _ = thin_qr(rng.standard_normal((20, 6)))
        np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-10)

    def test_r_upper_triangular(self, rng):
        _, r = thin_qr(rng.standard_normal((8, 5)))
        np.testing.assert_allclose(r, np.triu(r), atol=1e-12)

    def test_r_diagonal_non_negative(self, rng):
        for _ in range(5):
            _, r = thin_qr(rng.standard_normal((9, 4)))
            assert (np.diagonal(r) >= 0).all()

    def test_deterministic_sign_convention(self, rng):
        block = rng.standard_normal((10, 3))
        q1, r1 = thin_qr(block)
        q2, r2 = thin_qr(-block)
        # Same column space; R diagonals agree by the sign fix.
        np.testing.assert_allclose(
            np.abs(np.diagonal(r1)), np.abs(np.diagonal(r2)), atol=1e-10
        )

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            thin_qr(np.zeros(5))


class TestThinQRProperties:
    """Hypothesis sweep of both factorization paths."""

    @settings(max_examples=150, deadline=None)
    @given(graded_blocks())
    def test_contract_on_graded_blocks(self, block):
        _assert_qr_contract(block, *thin_qr(block))

    @settings(max_examples=100, deadline=None)
    @given(rank_deficient_blocks())
    def test_contract_on_rank_deficient_blocks(self, block):
        _assert_qr_contract(block, *thin_qr(block))

    @settings(max_examples=100, deadline=None)
    @given(graded_blocks())
    def test_idempotent_on_orthonormal_input(self, block):
        q, _ = thin_qr(block)
        q2, r2 = thin_qr(q)
        np.testing.assert_allclose(q2, q, rtol=0, atol=1e-10)
        np.testing.assert_allclose(r2, np.eye(q.shape[1]), rtol=0, atol=1e-10)


class TestCholeskyQR2:
    """The fast path: when it runs, and agreement with the oracle."""

    @pytest.mark.parametrize("shape", [(4000, 40), (400, 32), (41, 10), (8, 2)])
    @pytest.mark.parametrize("log_cond", [0.0, 2.0, 4.0])
    def test_matches_householder_oracle(self, shape, log_cond):
        block = _graded_block(7, *shape, log_cond)
        assert _householder_calls(block) == 0
        q, r = thin_qr(block)
        q_ref, r_ref = _oracle(block)
        np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-10 * 10**log_cond)
        np.testing.assert_allclose(
            r, r_ref, rtol=0, atol=1e-12 * np.linalg.norm(block)
        )

    def test_r_diagonal_positive_without_sign_fix(self, rng):
        _, r = thin_qr(-rng.standard_normal((400, 20)))
        assert np.all(np.diagonal(r) > 0)

    @pytest.mark.parametrize(
        "block",
        [
            pytest.param(np.ones((40, 11)), id="barely-tall"),
            pytest.param(np.ones((5, 9)), id="wide"),
            pytest.param(np.zeros((100, 4)), id="zero"),
            pytest.param(_rank_deficient_block(3, 400, 20, 12), id="rank-deficient"),
            pytest.param(_graded_block(3, 4000, 40, 12.0), id="ill-conditioned"),
            pytest.param(_kahan_block(0, 320, 40, 0.8), id="kahan"),
            pytest.param(np.full((100, 4), np.nan), id="nan"),
        ],
    )
    def test_falls_back_to_householder(self, block):
        assert _householder_calls(block) == 1

    def test_kahan_block_keeps_the_contract(self):
        # The diagonal ratio passes this block; without the check on the
        # first pass's Gram matrix, CholeskyQR2 returns a Q that is
        # orthonormal only to about 2e-3.
        block = _kahan_block(0, 320, 40, 0.8)
        diag = np.diagonal(np.linalg.cholesky(block.T @ block))
        assert diag.max() / diag.min() < MAX_DIAG_RATIO
        _assert_qr_contract(block, *thin_qr(block))

    def test_fallback_output_is_the_oracle(self):
        block = _rank_deficient_block(5, 400, 20, 12)
        q, r = thin_qr(block)
        q_ref, r_ref = _oracle(block)
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(r, r_ref)

    def test_empty_block(self):
        q, r = thin_qr(np.zeros((5, 0)))
        assert q.shape == (5, 0) and r.shape == (0, 0)


class TestRandomSemiUnitary:
    def test_is_semi_unitary(self, rng):
        z = random_semi_unitary(15, 5, rng=rng)
        assert is_semi_unitary(z)

    def test_shape(self, rng):
        assert random_semi_unitary(7, 3, rng=rng).shape == (7, 3)

    def test_square_case(self, rng):
        z = random_semi_unitary(4, 4, rng=rng)
        np.testing.assert_allclose(z @ z.T, np.eye(4), atol=1e-10)

    def test_reproducible(self):
        a = random_semi_unitary(6, 2, rng=np.random.default_rng(1))
        b = random_semi_unitary(6, 2, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)

    def test_invalid_sizes(self, rng):
        with pytest.raises(ValueError):
            random_semi_unitary(3, 5, rng=rng)
        with pytest.raises(ValueError):
            random_semi_unitary(3, 0, rng=rng)


class TestIsSemiUnitary:
    def test_detects_non_orthonormal(self, rng):
        block = rng.standard_normal((8, 3))
        assert not is_semi_unitary(block)

    def test_tolerance(self, rng):
        z = random_semi_unitary(10, 4, rng=rng)
        perturbed = z + 1e-6
        assert not is_semi_unitary(perturbed, tol=1e-9)
        assert is_semi_unitary(perturbed, tol=1e-3)
