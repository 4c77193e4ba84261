"""SQLite serving stores must be serving-equivalent for every backend.

The store layer's contract (ISSUE 10 acceptance criterion): for each
SimRank backend and each evidence mode, ``RewriteEngine.from_store(path)``
serves *byte-identical* rewrite lists -- same rewrites, same ranks,
bit-identical float64 scores -- to the fitted engine the store was
exported from.  The window-function ranking inside SQLite (``ROW_NUMBER()
OVER (... ORDER BY score DESC, repr ASC)``) must reproduce the in-memory
``(-score, repr(node))`` tie-break exactly, and the equivalence must hold
over repeated passes and after a full ``precompute()``.  The in-memory
reference is the fitted engine itself: its serving table must equal a
fresh run of the filter pipeline.
"""

from __future__ import annotations

import pytest

from backend_matrix import CONFIGS, MODES, SCENARIOS

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.registry import SIMRANK_BACKENDS

#: One multi-component scenario exercises sharding, stitching and isolated
#: nodes in a single graph; the full scenario matrix already runs in
#: test_backend_equivalence.py.
SCENARIO = "uneven_components_with_isolates"


def fitted_engine(method_name, backend):
    graph = SCENARIOS[SCENARIO]()
    return RewriteEngine.from_graph(
        graph,
        EngineConfig(
            method=method_name, backend=backend, similarity=CONFIGS["floored"]
        ),
        bid_terms={str(query) for query in graph.queries()},
    ).fit()


@pytest.mark.parametrize("backend", SIMRANK_BACKENDS)
@pytest.mark.parametrize("method_name", MODES)
def test_sqlite_store_serves_identical_rewrites(method_name, backend, tmp_path):
    engine = fitted_engine(method_name, backend)
    store_path = engine.export_store(tmp_path / f"{method_name}-{backend}.sqlite")
    served = RewriteEngine.from_store(store_path)

    assert served.is_fitted
    queries = engine._serving_universe()
    assert served.serving_profile(queries) == engine.serving_profile(queries)
    # The store's universe is the engine's precompute universe, verbatim.
    assert served.serving_store.queries() == queries


@pytest.mark.parametrize("backend", SIMRANK_BACKENDS)
@pytest.mark.parametrize("method_name", MODES)
def test_serving_table_serves_identical_rewrites(method_name, backend):
    """The in-memory reference: table entries equal a fresh pipeline run."""
    engine = fitted_engine(method_name, backend)
    queries = engine._serving_universe()
    engine.precompute()

    pipeline = engine._rewriter.compute_rewrites
    expected = [row for query in queries for row in pipeline(query).as_tuples()]
    assert engine.serving_profile(queries) == expected
    assert engine.cache_info().size <= len(engine.method.similarities().index)


def test_store_backed_engine_rereads_the_store_on_every_pass(tmp_path):
    """A store-backed engine keeps no table; repeated passes stay equal."""
    engine = fitted_engine("weighted_simrank", "matrix")
    store_path = engine.export_store(tmp_path / "passes.sqlite")
    served = RewriteEngine.from_store(store_path)

    queries = engine._serving_universe()
    expected = engine.serving_profile(queries)
    assert served.serving_profile(queries) == expected
    assert served.serving_profile(queries) == expected
    assert served.serving_store.lookups == 2 * len(queries)
    assert served.cache_info().size == 0


def test_store_equivalence_after_precompute(tmp_path):
    """precompute() fills the fitted engine's table and is a no-op on a
    store-backed engine; both serve equal rewrites afterwards."""
    engine = fitted_engine("weighted_simrank", "sharded")
    store_path = engine.export_store(tmp_path / "precomputed.sqlite")
    served = RewriteEngine.from_store(store_path)

    queries = engine._serving_universe()
    scored = [query for query in queries if query in engine.method.similarities()]
    assert engine.precompute() == len(scored)
    assert served.precompute() == 0
    assert served.serving_store.lookups == 0
    assert served.serving_profile(queries) == engine.serving_profile(queries)
    assert engine.cache_info().hits == len(scored)
