"""In-memory span recording around the public functions of ``repro``.

Nothing here lives in the program: :func:`install` replaces module and class
attributes with thin wrappers, at the attribute the caller resolves (for
example ``repro.linalg.randomized_svd.thin_qr`` and
``repro.linalg.krylov.thin_qr``, which each hold their own reference to
``repro.linalg.qr.thin_qr``).  Each call records one span (name, start, end,
parent, thread) plus layer counters.  A span's self time is its duration
minus the durations of its child spans on the same thread.

Products that run inside the Gram kernel (``GramKernel.pmf_apply`` and
``gram_apply``) are attributed to that kernel: a ``SparseKernel`` product
whose enclosing span is ``linalg.gram_apply`` records no span of its own, so
``linalg.sparse_matmul`` is the products the solvers and the service issue
directly.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

GRAM = "linalg.gram_apply"


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self._next_id = 0
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``; returns its result."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][1] if stack else -1
        stack.append((name, span_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(float(value))

    # -- patching ----------------------------------------------------------
    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(original)``; :meth:`uninstall` undoes it."""
        original = getattr(owner, attr)
        # Restore the raw class attribute (a classmethod stays a classmethod).
        raw = vars(owner).get(attr, original) if isinstance(owner, type) else original
        setattr(owner, attr, make(original))
        self._restore.append(lambda: setattr(owner, attr, raw))

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        account: Optional[Callable[..., None]] = None,
        cpu: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``account(tracer, args, result)`` adds layer counters after each
        call; ``cpu`` adds the process CPU time of the call to the
        ``<name>.cpu_s`` counter (its gap to the span time is waiting).
        """
        tracer = self

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                cpu_started = time.process_time()
                result = tracer.call(name, original, *args, **kwargs)
                if cpu:
                    tracer.count(f"{name}.cpu_s", time.process_time() - cpu_started)
                if account is not None:
                    account(tracer, args, result)
                return result

            return wrapper

        self.replace(owner, attr, make)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- read-out ----------------------------------------------------------
    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[span_id]
        return out

    def dump(self, path: str) -> None:
        """Write spans, counters and samples as one JSON document."""
        with self._lock:
            payload = {
                "spans": [list(span) for span in self.spans],
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "layers": self.layer_times(),
            }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ---------------------------------------------------------------------------
# Layer accounting
# ---------------------------------------------------------------------------
def _qr_account(tracer: Tracer, args, result) -> None:
    # Computed from the block shape: Householder QR (geqrf) plus forming the
    # explicit Q (orgqr), each 2mn^2 - 2n^3/3 flops; bytes are the block
    # read, Q written and R written, 8 bytes per float64.
    block = args[0]
    m, n = block.shape
    tracer.count("linalg.thin_qr.flops", 4.0 * m * n * n - 4.0 * n ** 3 / 3.0)
    tracer.count("linalg.thin_qr.bytes", 8.0 * (2 * m * n + n * n))


def _build_store_account(tracer: Tracer, args, result) -> None:
    store, stats = result
    tracer.count("graph.build_graph_store.edges_read", stats.edges_read)
    tracer.count("graph.build_graph_store.bytes", store.nbytes())


def _publish_account(tracer: Tracer, args, result) -> None:
    total = sum(p.stat().st_size for p in result.path.iterdir() if p.is_file())
    tracer.count("serve.publish.bytes", total)


def _top_items_account(tracer: Tracer, args, result) -> None:
    tracer.count("serve.top_items.users", len(result["users"]))


def _similar_account(tracer: Tracer, args, result) -> None:
    service = args[0]
    hops = 2 * service._similar_tau
    per_source = hops + 1 if result["mode"] == "mhp" else hops
    tracer.count("serve.similar.matvecs", per_source * len(result["sources"]))


def _sparse_product(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """A SparseKernel product wrapper that defers to an enclosing Gram span."""

    def wrapper(kernel, block, *args: Any, **kwargs: Any) -> Any:
        if tracer.current() == GRAM:
            return original(kernel, block, *args, **kwargs)
        result = tracer.call("linalg.sparse_matmul", original, kernel, block, *args, **kwargs)
        cols = 1 if block.ndim == 1 else block.shape[1]
        tracer.count("linalg.sparse_matmul.nnz_cols", float(kernel.w.nnz) * cols)
        return result

    return wrapper


def _batcher_run(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """MicroBatcher._run_batch wrapper: batch size, queue wait, wasted work.

    A request's wait is the time from ``submit`` to the start of the scoring
    call that serves it, i.e. its time in the batcher minus the time the
    score callback is busy.  A request whose future was cancelled (its
    caller gave up at the deadline) before the batch finished is wasted.
    """

    def wrapper(batcher, batch):
        started = time.perf_counter()
        for pending in batch:
            tracer.sample("serve.batcher.wait_ms", (started - pending.enqueued) * 1e3)
        tracer.sample("serve.batcher.batch", len(batch))
        result = tracer.call("serve.batcher.run_batch", original, batcher, batch)
        wasted = sum(1 for pending in batch if pending.future.cancelled())
        tracer.count("serve.batcher.requests", len(batch))
        tracer.count("serve.batcher.wasted", wasted)
        return result

    return wrapper


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced public function of ``repro``; undo with ``uninstall``."""
    qr = importlib.import_module("repro.linalg.qr")
    rsvd = importlib.import_module("repro.linalg.randomized_svd")
    krylov = importlib.import_module("repro.linalg.krylov")
    kernels = importlib.import_module("repro.linalg.kernels")
    base = importlib.import_module("repro.core.base")
    gebe = importlib.import_module("repro.core.gebe")
    gebe_p = importlib.import_module("repro.core.gebe_p")
    ingest = importlib.import_module("repro.graph.ingest")
    similarity = importlib.import_module("repro.tasks.similarity")
    artifacts = importlib.import_module("repro.serve.artifacts")
    service = importlib.import_module("repro.serve.service")
    batcher = importlib.import_module("repro.serve.batcher")

    for module in (qr, rsvd, krylov):
        tracer.patch(module, "thin_qr", "linalg.thin_qr", _qr_account)
    for module in (gebe, gebe_p, similarity):
        tracer.patch(module, "normalize_weights", "core.normalize_weights")
    for attr in ("matmul", "t_matmul"):
        tracer.replace(
            kernels.SparseKernel, attr, lambda original: _sparse_product(tracer, original)
        )
    tracer.patch(kernels.GramKernel, "pmf_apply", GRAM)
    tracer.patch(kernels.GramKernel, "gram_apply", GRAM)
    tracer.patch(base.BipartiteEmbedder, "fit", "core.fit")
    tracer.patch(
        ingest, "build_graph_store", "graph.build_graph_store", _build_store_account, cpu=True
    )
    tracer.patch(artifacts.ArtifactStore, "publish", "serve.publish", _publish_account)
    tracer.patch(artifacts.ArtifactStore, "load", "serve.load")
    tracer.patch(similarity.SimilarityEngine, "h_diagonal", "tasks.h_diagonal")
    tracer.patch(service.EmbeddingService, "top_items", "serve.top_items", _top_items_account)
    tracer.patch(service.EmbeddingService, "similar", "serve.similar", _similar_account)
    tracer.replace(
        batcher.MicroBatcher, "_run_batch", lambda original: _batcher_run(tracer, original)
    )
    return tracer
