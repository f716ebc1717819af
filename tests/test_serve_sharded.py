"""Differential and fault-injection tests for the scatter-gather tier.

The sharded serving mode (:mod:`repro.serve.sharded`) claims an *exact*
merge: pooling per-shard top-``n`` lists, restoring ascending global id
order, and re-running ``select_topn`` yields element-identical lists to one
engine scoring every item — the prefix property of the total order
``(score desc, id asc)``.  This suite pins that claim across shard counts
and thread counts, down to all-ties integer embeddings where only the
id-ascending tie-break separates candidates, and exercises the failure
policy with injected slow and dead shards (``shard_hook``): deadlines fire,
``on_failure="fail"`` raises / answers HTTP 503, ``on_failure="degrade"``
returns a partial answer that says so.

Runs under ``REPRO_NUM_THREADS=4`` as well (Makefile THREADED_TESTS): the
merge must hold however the per-shard scoring executors are sized.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.selection import select_topn
from repro.graph import BipartiteGraph
from repro.linalg.policy import DtypePolicy
from repro.serve import (
    ArtifactStore,
    EmbeddingServer,
    EmbeddingService,
    ServerConfig,
    ShardConfig,
    ShardFailure,
    ShardedTopK,
)
from repro.tasks import TopKEngine

NUM_USERS, NUM_ITEMS, DIM = 40, 120, 8


@pytest.fixture(scope="module")
def embeddings():
    rng = np.random.default_rng(11)
    return (
        rng.standard_normal((NUM_USERS, DIM)),
        rng.standard_normal((NUM_ITEMS, DIM)),
    )


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(12)
    edges = [
        (int(u), int(v), 1.0)
        for u in range(NUM_USERS)
        for v in rng.choice(NUM_ITEMS, size=5, replace=False)
    ]
    return BipartiteGraph.from_edges(edges)


def _sharded(u, v, **kwargs):
    """Context-managed ShardedTopK so scatter pools never leak."""

    class _Ctx:
        def __enter__(self):
            self.tier = ShardedTopK(u, v, **kwargs)
            return self.tier

        def __exit__(self, *exc):
            self.tier.close()

    return _Ctx()


class TestMergeDifferential:
    """The headline guarantee: shard count and thread count never change a list."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_identical_to_single_engine(
        self, embeddings, graph, n_shards, threads
    ):
        u, v = embeddings
        policy = DtypePolicy.default().with_threads(threads)
        expected = TopKEngine(u, v, policy=policy).top_items(10, exclude=graph)
        with _sharded(
            u,
            v,
            config=ShardConfig(n_shards=n_shards),
            graph=graph,
            policy=policy,
        ) as tier:
            result = tier.top_items(10)
        assert result["degraded"] is False
        assert result["failed_shards"] == []
        np.testing.assert_array_equal(result["items"], expected)

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_all_ties_integer_embeddings(self, n_shards):
        """Every score identical: only the id-ascending tie-break orders the
        merge, which is exactly where a shard-order merge would diverge."""
        u = np.ones((12, 4))
        v = np.ones((60, 4))
        expected = TopKEngine(u, v).top_items(9)
        with _sharded(u, v, config=ShardConfig(n_shards=n_shards)) as tier:
            result = tier.top_items(9, with_scores=True)
        np.testing.assert_array_equal(result["items"], expected)
        np.testing.assert_array_equal(result["scores"], np.full((12, 9), 4.0))

    def test_scores_match_single_engine(self, embeddings, graph):
        u, v = embeddings
        engine = TopKEngine(u, v)
        blocks = list(
            engine.iter_top_items(7, exclude=graph, with_scores=True)
        )
        expected_scores = np.concatenate([block[2] for block in blocks])
        with _sharded(
            u, v, config=ShardConfig(n_shards=3), graph=graph
        ) as tier:
            result = tier.top_items(7, with_scores=True)
        np.testing.assert_array_equal(result["scores"], expected_scores)

    def test_user_subset_and_no_exclusion(self, embeddings, graph):
        u, v = embeddings
        users = np.array([3, 17, 38], dtype=np.int64)
        expected = TopKEngine(u, v).top_items(5, users=users)
        with _sharded(
            u, v, config=ShardConfig(n_shards=4), graph=graph
        ) as tier:
            result = tier.top_items(5, users=users, exclude=False)
        np.testing.assert_array_equal(result["items"], expected)

    def test_n_larger_than_every_shard(self, embeddings):
        """n exceeding each shard's local item count still merges exactly —
        per-shard lists clamp locally, the pool still covers the winners."""
        u, v = embeddings
        expected = TopKEngine(u, v).top_items(50)
        with _sharded(u, v, config=ShardConfig(n_shards=4)) as tier:
            result = tier.top_items(50)
        np.testing.assert_array_equal(result["items"], expected)

    def test_shards_capped_at_item_count(self, embeddings):
        u, v = embeddings
        with _sharded(u, v[:3], config=ShardConfig(n_shards=8)) as tier:
            assert tier.n_shards == 3
            expected = TopKEngine(u, v[:3]).top_items(2)
            np.testing.assert_array_equal(tier.top_items(2)["items"], expected)

    def test_concurrent_clones_stay_identical(self, embeddings, graph):
        """Four caller threads on private clones over the shared scatter
        pool: every wave element-identical to the offline engine."""
        u, v = embeddings
        expected = TopKEngine(u, v).top_items(8, exclude=graph)
        failures = []
        with _sharded(
            u, v, config=ShardConfig(n_shards=3), graph=graph
        ) as tier:

            def caller() -> None:
                clone = tier.clone_for_worker()
                for _ in range(5):
                    result = clone.top_items(8)
                    if not np.array_equal(result["items"], expected):
                        failures.append(result["items"])

            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert failures == []


class TestShardConfig:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardConfig(n_shards=0)

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            ShardConfig(deadline_ms=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="on_failure"):
            ShardConfig(on_failure="retry")


def _dead_shard(target):
    """A shard_hook that kills one shard outright."""

    def hook(shard: int) -> None:
        if shard == target:
            raise RuntimeError(f"injected: shard {shard} is dead")

    return hook


def _slow_shard(target, delay):
    """A shard_hook that makes one shard blow any reasonable deadline."""

    def hook(shard: int) -> None:
        if shard == target:
            time.sleep(delay)

    return hook


class TestFaultInjection:
    def test_dead_shard_fail_policy_raises(self, embeddings):
        u, v = embeddings
        with _sharded(
            u,
            v,
            config=ShardConfig(n_shards=3, on_failure="fail"),
            shard_hook=_dead_shard(1),
        ) as tier:
            with pytest.raises(ShardFailure) as excinfo:
                tier.top_items(5)
            assert excinfo.value.failed == [1]

    def test_dead_shard_degrade_returns_partial_flagged(self, embeddings):
        u, v = embeddings
        with _sharded(
            u,
            v,
            config=ShardConfig(n_shards=3, on_failure="degrade"),
            shard_hook=_dead_shard(1),
        ) as tier:
            lo, hi = tier.ranges[1]
            result = tier.top_items(10, with_scores=True)
        assert result["degraded"] is True
        assert result["failed_shards"] == [1]
        # The partial answer is exactly the top-n with the dead shard's
        # items masked out — still ordered, still tie-broken by id.
        scores = u @ v.T
        scores[:, lo:hi] = -np.inf
        expected = select_topn(scores, 10)
        np.testing.assert_array_equal(result["items"], expected)

    def test_slow_shard_deadline_fires_fail_policy(self, embeddings):
        u, v = embeddings
        with _sharded(
            u,
            v,
            config=ShardConfig(
                n_shards=2, deadline_ms=50.0, on_failure="fail"
            ),
            shard_hook=_slow_shard(0, 1.5),
        ) as tier:
            with pytest.raises(ShardFailure, match="deadline"):
                tier.top_items(5)

    def test_slow_shard_deadline_fires_degrade_policy(self, embeddings):
        u, v = embeddings
        with _sharded(
            u,
            v,
            config=ShardConfig(
                n_shards=2, deadline_ms=50.0, on_failure="degrade"
            ),
            shard_hook=_slow_shard(1, 1.5),
        ) as tier:
            result = tier.top_items(5)
        assert result["degraded"] is True
        assert result["failed_shards"] == [1]

    def test_timed_out_engine_is_retired(self, embeddings):
        """After a timeout wave the straggler's engine is replaced; once the
        fault clears, the next wave is exact again (no poisoned workspace)."""
        u, v = embeddings
        fault = {"active": True}

        def hook(shard: int) -> None:
            if shard == 0 and fault["active"]:
                time.sleep(1.0)

        expected = TopKEngine(u, v).top_items(6)
        with _sharded(
            u,
            v,
            config=ShardConfig(
                n_shards=2, deadline_ms=50.0, on_failure="degrade"
            ),
            shard_hook=hook,
        ) as tier:
            degraded = tier.top_items(6)
            assert degraded["degraded"] is True
            fault["active"] = False
            time.sleep(1.2)  # let the cancelled straggler finish writing
            healthy = tier.top_items(6)
        assert healthy["degraded"] is False
        np.testing.assert_array_equal(healthy["items"], expected)

    def test_all_shards_dead_raises_even_degraded(self, embeddings):
        u, v = embeddings

        def hook(shard: int) -> None:
            raise RuntimeError("injected: total outage")

        with _sharded(
            u,
            v,
            config=ShardConfig(n_shards=2, on_failure="degrade"),
            shard_hook=hook,
        ) as tier:
            with pytest.raises(ShardFailure, match="nothing to degrade"):
                tier.top_items(5)

    def test_degraded_rows_pad_when_survivors_run_short(self, embeddings):
        """n close to num_items with a dead shard: the surviving pool holds
        fewer than n candidates, so rows right-pad with -1 / -inf."""
        u, v = embeddings
        with _sharded(
            u,
            v,
            config=ShardConfig(n_shards=2, on_failure="degrade"),
            shard_hook=_dead_shard(0),
        ) as tier:
            lo, hi = tier.ranges[0]
            survivors = NUM_ITEMS - (hi - lo)
            result = tier.top_items(NUM_ITEMS, with_scores=True)
        assert result["degraded"] is True
        assert np.all(result["items"][:, survivors:] == -1)
        assert np.all(np.isneginf(result["scores"][:, survivors:]))
        assert np.all(result["items"][:, :survivors] >= 0)

    def test_all_slow_wave_costs_one_deadline_not_n(self, embeddings):
        """A wave of 4 all-slow shards is bounded by ~1x ``deadline_ms``.

        The gather spends every ``future.result`` timeout from one shared
        wave clock; the per-future bug this pins against charged each slow
        shard its own full budget, so k stragglers cost k * deadline_ms.
        Here 4 shards each sleep well past a 150 ms deadline: the stacked
        version needs >= 0.6 s just in timeouts, the wave clock ~0.15 s.
        """
        u, v = embeddings

        def hook(shard: int) -> None:
            time.sleep(2.0)

        with _sharded(
            u,
            v,
            config=ShardConfig(
                n_shards=4, deadline_ms=150.0, on_failure="fail"
            ),
            shard_hook=hook,
        ) as tier:
            start = time.monotonic()
            with pytest.raises(ShardFailure) as excinfo:
                tier.top_items(5)
            elapsed = time.monotonic() - start
        assert excinfo.value.failed == [0, 1, 2, 3]
        assert elapsed >= 0.10  # the deadline did actually run down
        assert elapsed < 0.45, (
            f"4-shard all-slow wave took {elapsed:.3f}s; per-future "
            "deadlines are stacking instead of sharing one wave clock"
        )

    def test_straggler_keeps_submit_time_engine(self, embeddings):
        """A timed-out straggler scores with the engine bound at submit.

        Wave 1's shard-0 worker parks on an event until after the deadline
        fires and the gather retires ``_engines[0]``.  When released, the
        straggler must finish against the *retired* engine it was handed at
        submit time — reading ``self._engines[0]`` at run time would grab
        the replacement and race the next wave's workspace.
        """
        u, v = embeddings
        release = threading.Event()
        parked = threading.Event()
        state = {"first": True}

        def hook(shard: int) -> None:
            if shard == 0 and state["first"]:
                state["first"] = False
                parked.set()
                release.wait(timeout=10.0)

        calls = []

        def trace(engine, label):
            inner = engine.iter_top_items

            def wrapper(*args, **kwargs):
                calls.append(label)
                return inner(*args, **kwargs)

            engine.iter_top_items = wrapper

        try:
            with _sharded(
                u,
                v,
                config=ShardConfig(
                    n_shards=2, deadline_ms=50.0, on_failure="degrade"
                ),
                shard_hook=hook,
            ) as tier:
                original = tier._engines[0]
                trace(original, "original")
                degraded = tier.top_items(5)
                assert parked.is_set()
                assert degraded["degraded"] is True
                assert degraded["failed_shards"] == [0]
                replacement = tier._engines[0]
                assert replacement is not original
                trace(replacement, "replacement")
                release.set()
                deadline = time.monotonic() + 5.0
                while "original" not in calls and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert "original" in calls, (
                    "released straggler never scored with its submit-time "
                    "engine"
                )
                assert "replacement" not in calls, (
                    "straggler re-read self._engines after retirement and "
                    "raced the replacement's workspace"
                )
                healthy = tier.top_items(5)
                assert healthy["degraded"] is False
                assert "replacement" in calls  # wave 2 uses the new engine
        finally:
            release.set()  # never leave the worker parked on failure


def _shard_thread_count() -> int:
    return sum(
        thread.name.startswith("repro-shard")
        for thread in threading.enumerate()
    )


def _settle_shard_threads(at_most: int, timeout: float = 10.0) -> bool:
    """Poll until the scatter-pool thread count drops to ``at_most``.

    ``close()`` drains with ``shutdown(wait=False)``, so retired workers
    (including cancelled stragglers finishing an injected sleep) exit
    asynchronously — counting without a settle window would be flaky.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _shard_thread_count() <= at_most:
            return True
        time.sleep(0.05)
    return False


@pytest.fixture(scope="module")
def published(tmp_path_factory, embeddings, graph):
    store = ArtifactStore(tmp_path_factory.mktemp("store") / "artifacts")
    u, v = embeddings
    store.publish("toy", u, v, graph=graph, method="random")
    return store


class TestServiceIntegration:
    def test_sharded_service_matches_plain_service(
        self, published, embeddings, graph
    ):
        u, v = embeddings
        users = list(range(NUM_USERS))
        plain = EmbeddingService(published, "toy")
        sharded = EmbeddingService(
            published, "toy", shards=ShardConfig(n_shards=3)
        )
        try:
            expected = plain.top_items(users, 8)
            result = sharded.top_items(users, 8)
            np.testing.assert_array_equal(result["items"], expected["items"])
            assert result["degraded"] is False
            assert result["failed_shards"] == []
            assert result["model"] == "toy@v1"
        finally:
            sharded.close()

    def test_degrade_flags_response_and_counts(self, published):
        service = EmbeddingService(
            published,
            "toy",
            shards=ShardConfig(n_shards=3, on_failure="degrade"),
            shard_hook=_dead_shard(2),
        )
        try:
            result = service.top_items([0, 1], 5)
            assert result["degraded"] is True
            assert result["failed_shards"] == [2]
            assert service.metrics["degraded"] == 1
            assert service.metrics["shard_failures"] == 0
        finally:
            service.close()

    def test_fail_policy_raises_and_counts(self, published):
        service = EmbeddingService(
            published,
            "toy",
            shards=ShardConfig(n_shards=3, on_failure="fail"),
            shard_hook=_dead_shard(0),
        )
        try:
            with pytest.raises(ShardFailure):
                service.top_items([0], 5)
            assert service.metrics["shard_failures"] == 1
        finally:
            service.close()

    def test_ann_and_shards_are_mutually_exclusive(self, published):
        with pytest.raises(ValueError, match="mutually exclusive"):
            EmbeddingService(
                published, "toy", shards=ShardConfig(n_shards=2), ann=True
            )

    def test_nprobe_requires_ann(self, published):
        with pytest.raises(ValueError, match="nprobe requires"):
            EmbeddingService(published, "toy", nprobe=4)


class TestHttpTier:
    def _call(self, server, payload):
        import json
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/v1/topk",
            data=json.dumps(payload).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            body = error.read()
            return error.code, json.loads(body) if body else {}

    def test_sharded_responses_match_offline_engine(
        self, published, embeddings, graph
    ):
        u, v = embeddings
        expected = TopKEngine(u, v).top_items(6, exclude=graph)
        service = EmbeddingService(
            published, "toy", shards=ShardConfig(n_shards=3)
        )
        try:
            with EmbeddingServer(service, ServerConfig(batch=False)) as server:
                status, body = self._call(
                    server, {"users": [0, 5, 39], "n": 6}
                )
            assert status == 200
            assert body["degraded"] is False
            assert body["items"] == [
                expected[user].tolist() for user in (0, 5, 39)
                ]
        finally:
            service.close()

    def test_dead_shard_fail_policy_answers_503(self, published):
        service = EmbeddingService(
            published,
            "toy",
            shards=ShardConfig(n_shards=3, on_failure="fail"),
            shard_hook=_dead_shard(1),
        )
        try:
            with EmbeddingServer(service, ServerConfig(batch=False)) as server:
                status, body = self._call(server, {"users": [0, 1], "n": 5})
            assert status == 503
            assert "shard failure" in body["error"]
            assert service.metrics["shard_failures"] == 1
        finally:
            service.close()

    def test_dead_shard_degrade_answers_200_flagged(self, published):
        service = EmbeddingService(
            published,
            "toy",
            shards=ShardConfig(n_shards=3, on_failure="degrade"),
            shard_hook=_dead_shard(1),
        )
        try:
            with EmbeddingServer(service, ServerConfig(batch=False)) as server:
                status, body = self._call(server, {"users": [0, 1], "n": 5})
            assert status == 200
            assert body["degraded"] is True
            assert body["failed_shards"] == [1]
        finally:
            service.close()


class TestReloadLifecycle:
    """reload() must retire the old model's scatter pool, not leak it."""

    def test_ten_reloads_zero_thread_growth(self, published):
        """10 reloads leave exactly one pool's worth of shard threads.

        Every reload swaps in a fresh ``ShardedTopK`` (its own
        ``n_shards``-thread pool); the retired model's pool is drain-closed
        after the swap.  The leak this pins against kept every generation's
        pool alive, growing the process by ``n_shards`` threads per reload.
        """
        assert _settle_shard_threads(0), (
            "shard threads leaked in from earlier tests"
        )
        n_shards = 3
        service = EmbeddingService(
            published, "toy", shards=ShardConfig(n_shards=n_shards)
        )
        try:
            service.top_items([0, 1], 5)  # spin up the first pool's workers
            assert 1 <= _shard_thread_count() <= n_shards
            for _ in range(10):
                service.reload()
                result = service.top_items([0, 1], 5)
                assert result["degraded"] is False
            # The bound is one pool's worth, not the first wave's count:
            # ThreadPoolExecutor spawns workers lazily, so one pool may
            # start fewer than n_shards and a later one all of them.
            assert _settle_shard_threads(n_shards), (
                f"{_shard_thread_count()} shard threads alive after 10 "
                f"reloads (one pool is {n_shards}); retired pools are leaking"
            )
        finally:
            service.close()
        assert _settle_shard_threads(0), (
            "close() left the final scatter pool running"
        )
