"""The package has one version number: pyproject.toml and ``repro.__version__`` agree."""

import importlib.util
import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_matches_package_version():
    # A regex, not tomllib: the suite also runs on Python 3.9.
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert match is not None, "pyproject.toml has no version line"
    assert match.group(1) == repro.__version__


def test_removed_shims_stay_removed():
    import repro.core
    import repro.serving

    for name in ("create_method", "SimilarityScores"):
        assert not hasattr(repro, name)
        assert not hasattr(repro.core, name)
    assert not hasattr(repro.serving, "load_engine_with_fallback")
    for module in ("repro.core.scores", "repro.core.registry"):
        assert importlib.util.find_spec(module) is None


def test_removed_cache_layers_stay_removed():
    import dataclasses

    import repro.store
    from repro.api.config import EngineConfig
    from repro.api.engine import CacheInfo
    from repro.core.rewriter import QueryRewriter

    assert "cache_size" not in {field.name for field in dataclasses.fields(EngineConfig)}
    assert {field.name for field in dataclasses.fields(CacheInfo)} == {"hits", "misses", "size"}
    assert not hasattr(QueryRewriter, "rewrites_for")
    for package in (repro, repro.store):
        assert not hasattr(package, "InMemoryServingStore")
    assert importlib.util.find_spec("repro.store.memory") is None
