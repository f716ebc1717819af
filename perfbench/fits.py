"""The two fit workloads: ``fit-tall`` and ``offline-dense``.

fit-tall
    A resident ``GEBEPoisson(dimension=32)`` fit of a tall, sparse
    power-law graph.  The k^2 (|U| + |V|) orthonormalization term of the
    randomized SVD dominates, so ``linalg.thin_qr`` is most of the fit.
offline-dense
    The offline path on a small, dense, weighted graph, from a TSV edge
    list on disk: ``build_graph_store`` -> ``GraphStore.open().graph()`` ->
    store-backed ``gebe_poisson`` (Algorithm 1, tau=20, 20 iterations)
    under an ``ooc_budget_mb`` policy -> ``ArtifactStore.publish`` with the
    graph -> ``ArtifactStore.load(verify=True)``.  The k tau |E| Gram term
    dominates, so ``linalg.gram_apply`` is most of the fit; it is also the
    only workload that writes (ingest spill/merge, store, artifact).
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from common import CACHE, PeakRss, cache_dir, timed_probe

DIMENSION = 32
EPSILON = 0.1  # the fits' epsilon; Theorem 5.1's premise is checked at it
SETUP_REPEATS = 5
MIN_OPS = 3

#: One timed operation: returns (seconds, correctness checks passed).
Op = Callable[[], Tuple[float, bool]]

FIT_TALL = {
    "num_u": 8000,
    "num_v": 40000,
    "num_edges": 60000,
    "exponent": 0.8,
    "weighted": False,
}
OFFLINE_DENSE = {
    "num_u": 2000,
    "num_v": 1600,
    "num_edges": 150000,
    "exponent": 0.3,
    "weighted": True,
    "tau": 20,
    "iterations": 20,
    "ooc_budget_mb": 1.0,
}


def _graph(spec: Dict[str, Any], seed: int):
    from repro.datasets.random_bipartite import power_law_bipartite

    return power_law_bipartite(
        spec["num_u"],
        spec["num_v"],
        spec["num_edges"],
        exponent=spec["exponent"],
        weighted=spec["weighted"],
        seed=seed,
    )


def reference_singular_values(graph, count: int) -> np.ndarray:
    """Top ``count`` singular values of the spectrally normalized W (ARPACK).

    Computed independently of ``repro.core.preprocess``: D_U^-1/2 W D_V^-1/2
    scaled by the same spectral top.
    """
    from repro.core.preprocess import SPECTRAL_TOP

    w = sp.csr_matrix(graph.w, dtype=np.float64)
    deg_u = np.asarray(w.sum(axis=1)).ravel()
    deg_v = np.asarray(w.sum(axis=0)).ravel()
    inv_u = np.where(deg_u > 0, 1.0 / np.sqrt(np.where(deg_u > 0, deg_u, 1.0)), 0.0)
    inv_v = np.where(deg_v > 0, 1.0 / np.sqrt(np.where(deg_v > 0, deg_v, 1.0)), 0.0)
    normalized = sp.diags(inv_u) @ w @ sp.diags(inv_v) * SPECTRAL_TOP
    values = svds(normalized, k=count, return_singular_vectors=False, random_state=0)
    return np.sort(values)[::-1]


def premise_holds(approx: np.ndarray, exact: np.ndarray) -> bool:
    """Theorem 5.1's premise: approx_i >= exact_i - eps * exact_{k+1}, i <= k.

    ``approx`` holds the fit's k values (squared singular values or GEBE's
    eigenvalues), ``exact`` the reference's k+1 in the same form.
    """
    k = approx.size
    floor = exact[:k] - EPSILON * exact[k]
    return bool(np.all(approx >= floor - 1e-12 * exact[0]))


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
def _warm_up() -> None:
    """Import-time and first-call costs of the fit path, outside timing."""
    from repro.core import GEBEPoisson
    from repro.graph import BipartiteGraph

    GEBEPoisson(dimension=2, seed=0).fit(
        BipartiteGraph.from_dense([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    )


def _measure(op: Op, probe_args: List[str], seconds: float) -> Dict[str, Any]:
    """The end-to-end run: ``op`` for ``seconds``, one set-up probe before each.

    The probes are spread over the run, so their median follows the
    machine's speed over the whole run, not over a burst at its start.
    At least MIN_OPS operations and SETUP_REPEATS probes run.
    """
    _warm_up()
    rss = PeakRss(os.getpid())
    rss.reset()
    setup: List[float] = []
    times: List[float] = []
    failed = 0
    started = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - started < seconds:
        setup.append(timed_probe(probe_args))
        elapsed, ok = op()
        times.append(elapsed)
        failed += 0 if ok else 1
    while len(setup) < SETUP_REPEATS:
        setup.append(timed_probe(probe_args))
    return {
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            "setup_s": median(setup),
            "peak_rss_mb": rss.read_mb(),
            "p50_ms": median(times) * 1e3,
        },
        "samples": {"ops": len(times), "setup": len(setup)},
        "rss_method": rss.method,
    }


def _traced(op: Op, tracer) -> Dict[str, Any]:
    """The traced run: ``op`` once untraced, once under the wrappers and obs."""
    from repro import obs
    from spans import install

    _warm_up()
    op()  # first-call and page-cache costs, outside the comparison
    untraced, ok_plain = op()
    install(tracer)
    try:
        with obs.collect() as collector:
            traced, ok_traced = op()
    finally:
        tracer.uninstall()
    return {
        "attempted": 2,
        "failed": int(not ok_plain) + int(not ok_traced),
        "trace_overhead": traced / untraced - 1.0,
        "collector": collector,
    }


# ---------------------------------------------------------------------------
# fit-tall
# ---------------------------------------------------------------------------
def _fit_tall_inputs(seed: int) -> Tuple[Path, Any, np.ndarray]:
    from repro.graph import load_npz, save_npz

    where = cache_dir("fit-tall", seed, FIT_TALL)
    graph_path = where / "graph.npz"
    ref_path = where / "sigma.npy"
    if not ref_path.exists():
        graph = _graph(FIT_TALL, seed)
        save_npz(graph, graph_path)
        np.save(ref_path, reference_singular_values(graph, DIMENSION + 1))
    return graph_path, load_npz(graph_path), np.load(ref_path)


def _fit_tall_once(graph, seed: int, sigma: np.ndarray) -> Tuple[float, bool]:
    from repro.core import GEBEPoisson

    started = time.perf_counter()
    result = GEBEPoisson(dimension=DIMENSION, epsilon=EPSILON, seed=seed).fit(graph)
    elapsed = time.perf_counter() - started
    approx = np.asarray(result.metadata["singular_values"]) ** 2
    ok = premise_holds(approx, sigma ** 2) and bool(
        np.all(np.isfinite(result.u)) and np.all(np.isfinite(result.v))
    )
    return elapsed, ok


# ---------------------------------------------------------------------------
# offline-dense
# ---------------------------------------------------------------------------
def _offline_inputs(seed: int) -> Tuple[Path, Dict[str, Any]]:
    where = cache_dir("offline-dense", seed, OFFLINE_DENSE)
    tsv = where / "edges.tsv"
    ref_path = where / "lambda.npy"
    facts_path = where / "facts.npy"
    if not ref_path.exists():
        from repro.core.pmf import PoissonPMF

        graph = _graph(OFFLINE_DENSE, seed)
        coo = graph.w.tocoo()
        with open(tsv, "w", encoding="utf-8") as handle:
            for i, j, weight in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
                handle.write(f"{i}\t{j}\t{weight!r}\n")
        sigma = reference_singular_values(graph, DIMENSION + 1)
        weights = PoissonPMF(lam=1.0).weights(OFFLINE_DENSE["tau"])
        lam = np.array([sum(w * s ** (2 * ell) for ell, w in enumerate(weights)) for s in sigma])
        np.save(facts_path, np.array([graph.num_edges, math.fsum(coo.data.tolist())]))
        np.save(ref_path, lam)
    facts = np.load(facts_path)
    return tsv, {"lambda": np.load(ref_path), "nnz": int(facts[0]), "weight_sum": float(facts[1])}


def _pipeline_once(tsv: Path, seed: int, ref: Dict[str, Any]) -> Tuple[float, bool]:
    """Edge list -> verified, loadable artifact; returns (seconds, checks ok)."""
    from repro.core import gebe_poisson
    from repro.graph import ingest
    from repro.graph.store import GraphStore
    from repro.linalg import DtypePolicy
    from repro.serve.artifacts import ArtifactStore

    work = Path(tempfile.mkdtemp(prefix="offline-", dir=CACHE))
    try:
        started = time.perf_counter()
        store, _ = ingest.build_graph_store(tsv, work / "store", workdir=work)
        opened = GraphStore.open(store.path)
        graph = opened.graph()
        solver = gebe_poisson(
            DIMENSION,
            tau=OFFLINE_DENSE["tau"],
            seed=seed,
            max_iterations=OFFLINE_DENSE["iterations"],
            tolerance=0.0,
            dtype_policy=DtypePolicy(ooc_budget_mb=OFFLINE_DENSE["ooc_budget_mb"]),
        )
        result = solver.fit(graph)
        artifacts = ArtifactStore(work / "artifacts")
        # publish() stores a resident graph bundle; the store's resident
        # view is the same bytes.
        artifacts.publish(
            "offline", result.u, result.v, graph=opened.resident_graph(), method=result.method
        )
        loaded = artifacts.load("offline", verify=True)
        elapsed = time.perf_counter() - started

        data = np.asarray(store.csr("u2v").data)
        ok = (
            store.nnz == ref["nnz"]
            and math.fsum(data.tolist()) == ref["weight_sum"]
            and np.asarray(loaded.u).tobytes() == result.u.tobytes()
            and np.asarray(loaded.v).tobytes() == result.v.tobytes()
            and premise_holds(np.asarray(result.metadata["eigenvalues"]), ref["lambda"])
        )
        return elapsed, bool(ok)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def fit_tall(seed: int, seconds: float) -> Dict[str, Any]:
    graph_path, graph, sigma = _fit_tall_inputs(seed)
    return _measure(
        lambda: _fit_tall_once(graph, seed, sigma), ["graph", str(graph_path)], seconds
    )


def fit_tall_traced(seed: int, tracer) -> Dict[str, Any]:
    _, graph, sigma = _fit_tall_inputs(seed)
    return _traced(lambda: _fit_tall_once(graph, seed, sigma), tracer)


def offline_dense(seed: int, seconds: float) -> Dict[str, Any]:
    tsv, ref = _offline_inputs(seed)
    return _measure(lambda: _pipeline_once(tsv, seed, ref), ["edges", str(tsv)], seconds)


def offline_dense_traced(seed: int, tracer) -> Dict[str, Any]:
    tsv, ref = _offline_inputs(seed)
    return _traced(lambda: _pipeline_once(tsv, seed, ref), tracer)
