"""QR utilities: orthonormalization and random semi-unitary starts.

Krylov subspace iteration (Algorithm 1, Line 7) and the randomized SVD
repeatedly re-orthonormalize tall, narrow iterate blocks with a thin QR
decomposition.  These helpers centralize the numerical conventions: an
economic QR whose ``R`` has a non-negative diagonal, so that factorizations
are deterministic, plus the random semi-unitary initializer from Line 1.

The factorization is CholeskyQR2 (Fukaya et al., 2014): a Gram GEMM, an
``n x n`` Cholesky and a GEMM against the inverse factor, run twice.  It
does about the FLOPs of Householder QR, but as BLAS-3 products instead of
LAPACK's panel factorization.  Blocks that are not tall enough, or too
ill-conditioned for it, take Householder QR (``np.linalg.qr``) instead.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..obs import active as _obs_active

__all__ = ["thin_qr", "random_semi_unitary", "is_semi_unitary"]


#: CholeskyQR2 needs ``m >= MIN_ASPECT * n``; Householder QR is as fast on
#: blocks closer to square, and the only choice on wide ones.
MIN_ASPECT = 4

#: Largest ``max/min`` ratio of the first Cholesky factor's diagonal that
#: CholeskyQR2 accepts.  It is stable for ``cond(A)`` below about
#: ``eps**-0.5`` (~7e7); the diagonal ratio is a lower bound on ``cond(A)``
#: that trails it by one to two orders on graded blocks, hence the margin.
MAX_DIAG_RATIO = 1e6

#: Largest entry of ``|Q1^T Q1 - I|`` after the first pass that CholeskyQR2
#: accepts.  The first pass loses orthonormality as ``eps * cond(A)**2``
#: (about 4e-4 at ``cond(A) = 1e7``), so this catches the blocks whose
#: diagonal ratio understates their condition number -- Kahan-type blocks
#: read as a ratio of 10-1e5 at ``cond(A) > 1e10`` and lose orthonormality
#: even after the second pass.
MAX_GRAM_DEVIATION = 1e-3


def thin_qr(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Economic QR with a deterministic sign convention.

    Every diagonal entry of ``R`` is non-negative.  This makes repeated
    factorizations stable targets for convergence checks and makes the
    extracted Ritz values (``R`` diagonal, Algorithm 1 Lines 8-10)
    non-negative as the paper assumes.  CholeskyQR2 yields it directly:
    ``R = (L1 L2)^T`` with both Cholesky factors' diagonals positive.  The
    Householder fallback gets it by flipping columns of ``Q`` (and rows of
    ``R``), and runs inside a ``householder_qr`` stage so a profiled run
    shows when the fast path was bypassed.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError("thin_qr expects a 2-D array")
    collector = _obs_active()
    collector.count_qr(block.shape[0], block.shape[1])
    collector.note_array(block.nbytes)
    factors = _cholesky_qr2(block)
    if factors is None:
        with collector.stage("householder_qr"):
            factors = _householder_qr(block)
    return factors


def _cholesky_qr2(block: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """CholeskyQR2 of a tall block, or ``None`` when it would be inaccurate.

    ``A = Q1 L1^T`` with ``L1 = chol(A^T A)``, then ``Q1 = Q L2^T`` with
    ``L2 = chol(Q1^T Q1)``; the second pass restores the orthonormality the
    first loses to the Gram matrix's squared condition number.
    """
    m, n = block.shape
    if not 0 < MIN_ASPECT * n <= m:
        return None
    try:
        l1 = np.linalg.cholesky(block.T @ block)
        diag = np.diagonal(l1)
        # Both checks are written so that NaN also falls back.
        if not diag.min() > diag.max() / MAX_DIAG_RATIO:
            return None
        q1 = block @ np.linalg.inv(l1).T
        gram = q1.T @ q1
        if not np.abs(gram - np.eye(n)).max() <= MAX_GRAM_DEVIATION:
            return None
        l2 = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    q = q1 @ np.linalg.inv(l2).T
    return q, (l1 @ l2).T


def _householder_qr(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LAPACK's Householder QR with ``R``'s diagonal signs fixed non-negative."""
    q, r = np.linalg.qr(block, mode="reduced")
    signs = np.where(np.diagonal(r) < 0, -1.0, 1.0)
    return q * signs[np.newaxis, :], r * signs[:, np.newaxis]


def random_semi_unitary(
    n: int, k: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """A random ``n x k`` matrix ``Z`` with ``Z.T @ Z = I`` (Algorithm 1 Line 1).

    Drawn by orthonormalizing a Gaussian block, which yields a sample from
    the Haar measure on the Stiefel manifold.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got n={n}, k={k}")
    rng = np.random.default_rng() if rng is None else rng
    gaussian = rng.standard_normal((n, k))
    q, _ = thin_qr(gaussian)
    return q


def is_semi_unitary(block: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether ``block.T @ block`` is the identity, within ``tol``."""
    block = np.asarray(block, dtype=np.float64)
    gram = block.T @ block
    return bool(np.allclose(gram, np.eye(block.shape[1]), atol=tol))
