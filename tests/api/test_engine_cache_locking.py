"""Regression tests for the RL001 findings fixed in the engine's table path.

The lock-discipline checker (RL001) found ``refresh``/``precompute``/
``__repr__`` touching the serving table and its counters
outside ``_cache_lock`` while concurrent ``rewrite`` calls mutate the same
structures under it.  The fix routes every access through the lock --
without ever holding it across a ``rewrite()`` call, which takes the
(non-reentrant) lock itself.  These tests pin the accounting under
concurrency and the absence of self-deadlock on the warm paths.
"""

import threading

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core.config import SimrankConfig


def build_engine(graph):
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=10),
        bid_filtering=False,
    )
    return RewriteEngine.from_graph(graph, config).fit()


class TestConcurrentCacheAccounting:
    def test_hits_plus_misses_equals_requests(self, small_weighted_graph):
        engine = build_engine(small_weighted_graph)
        queries = list(engine.graph.queries())
        rounds = 30
        threads = 4

        def serve():
            for _ in range(rounds):
                for query in queries:
                    engine.rewrite(query)

        workers = [threading.Thread(target=serve) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        stats = engine.cache_info()
        assert stats.hits + stats.misses == threads * rounds * len(queries)
        assert stats.size == len(queries)

    def test_precompute_races_with_serving_without_deadlock_or_drift(
        self, small_weighted_graph
    ):
        engine = build_engine(small_weighted_graph)
        queries = list(engine.graph.queries())
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                for query in queries:
                    engine.rewrite(query)

        server = threading.Thread(target=serve)
        server.start()
        try:
            for _ in range(10):
                engine.precompute(queries)
        finally:
            stop.set()
            server.join(timeout=10.0)
        assert not server.is_alive(), "serving thread wedged against precompute"
        assert engine.cache_info().size == len(queries)

    def test_repr_is_safe_during_serving(self, small_weighted_graph):
        engine = build_engine(small_weighted_graph)
        queries = list(engine.graph.queries())
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                for query in queries:
                    engine.rewrite(query)

        server = threading.Thread(target=serve)
        server.start()
        try:
            for _ in range(50):
                assert "RewriteEngine(" in repr(engine)
        finally:
            stop.set()
            server.join(timeout=10.0)
        assert not server.is_alive()
