"""NRP baseline [Yang et al., PVLDB 2020].

Homogeneous Network embedding via Reweighted personalized PageRank: NRP
factorizes the PPR matrix of the (homogeneous view of the) graph into
forward/backward embeddings and then learns per-node scalar weights so that
the aggregate predicted PPR mass of each node matches its degree — the
"reweighting" that corrects PPR's systematic distortion of high-degree
nodes.  It is the strongest scalable competitor in the paper (the only one
finishing on MAG) but, being bipartite-agnostic, trails GEBE on quality.

Implementation here:

1. Build the truncated PPR series ``Pi = sum_{l>=1} alpha (1-alpha)^l T^l``
   (``T`` = row-normalized homogeneous adjacency) as a matrix-free operator.
2. Randomized SVD of the operator gives forward/backward factors
   ``F = U_k sqrt(S)``, ``B = V_k sqrt(S)`` with ``F B^T ~= Pi``.
3. Alternating multiplicative reweighting: scale each node's forward
   (resp. backward) vector so its predicted out-mass (resp. in-mass)
   matches its weighted degree, iterating a few rounds as in NRP's
   coordinate updates.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.base import BipartiteEmbedder
from ..graph import BipartiteGraph
from ..linalg import randomized_svd
from .common import homogeneous_degrees

__all__ = ["NRP"]


class _PPRSeriesOperator:
    """Matrix-free truncated PPR matrix ``sum_l alpha (1-alpha)^l T^l``."""

    def __init__(self, transition: sp.csr_matrix, alpha: float, tau: int):
        self._t = transition
        self._weights = np.array(
            [alpha * (1 - alpha) ** ell for ell in range(1, tau + 1)]
        )

    @property
    def shape(self) -> tuple:
        return self._t.shape

    def _series(self, matrix: sp.spmatrix, block: np.ndarray) -> np.ndarray:
        power = np.asarray(block, dtype=np.float64)
        acc = np.zeros_like(power)
        for weight in self._weights:
            power = matrix @ power
            acc += weight * power
        return acc

    def __matmul__(self, block: np.ndarray) -> np.ndarray:
        return self._series(self._t, block)

    @property
    def T(self) -> "_TransposedSeries":
        return _TransposedSeries(self)


class _TransposedSeries:
    def __init__(self, parent: _PPRSeriesOperator):
        self._parent = parent

    @property
    def shape(self) -> tuple:
        return self._parent.shape

    def __matmul__(self, block: np.ndarray) -> np.ndarray:
        return self._parent._series(self._parent._t.T.tocsr(), block)


class NRP(BipartiteEmbedder):
    """PPR factorization with degree reweighting on the homogeneous view.

    Parameters
    ----------
    alpha:
        PPR decay factor (reference default 0.15 teleport; NRP uses 0.5-ish
        stop probability — 0.15 here follows the usual PPR convention).
    tau:
        Truncation of the PPR series.
    epsilon:
        Randomized SVD error parameter.
    reweight_rounds:
        Alternating reweighting iterations.
    """

    name = "NRP"

    def __init__(
        self,
        dimension: int = 128,
        *,
        alpha: float = 0.15,
        tau: int = 10,
        epsilon: float = 0.25,
        reweight_rounds: int = 10,
        seed: Optional[int] = None,
    ):
        super().__init__(dimension=dimension, seed=seed)
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self.tau = tau
        self.epsilon = epsilon
        self.reweight_rounds = reweight_rounds

    def _embed(
        self, graph: BipartiteGraph
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        adjacency = graph.adjacency()
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        inv_deg = np.zeros_like(degrees)
        np.divide(1.0, degrees, out=inv_deg, where=degrees > 0)
        transition = sp.diags(inv_deg) @ adjacency

        operator = _PPRSeriesOperator(sp.csr_matrix(transition), self.alpha, self.tau)
        k = min(self.dimension, graph.num_nodes)
        svd = randomized_svd(operator, k, self.epsilon, rng=self._rng())
        scale = np.sqrt(np.clip(svd.s, 0.0, None))
        forward = svd.u * scale[np.newaxis, :]
        backward = svd.vt.T * scale[np.newaxis, :]

        # Reweighting: alternately scale forward rows so predicted out-mass
        # matches degree, then backward rows for in-mass (multiplicative
        # coordinate updates, the spirit of NRP Section 4).
        target = np.maximum(homogeneous_degrees(graph, weighted=True), 1e-12)
        for _ in range(self.reweight_rounds):
            backward_sum = backward.sum(axis=0)
            out_mass = forward @ backward_sum
            forward *= (target / np.maximum(np.abs(out_mass), 1e-12))[:, None] ** 0.5
            forward_sum = forward.sum(axis=0)
            in_mass = backward @ forward_sum
            backward *= (target / np.maximum(np.abs(in_mass), 1e-12))[:, None] ** 0.5

        # Bipartite read-out: U-nodes use forward vectors (they act as PPR
        # sources), V-nodes use backward vectors (they are the targets), so
        # U[u] . V[v] ~= reweighted PPR(u -> v).
        u = forward[: graph.num_u]
        v = backward[graph.num_u :]
        metadata = {"alpha": self.alpha, "tau": self.tau}
        return u, v, metadata
