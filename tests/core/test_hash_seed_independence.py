"""Pair-score sums must not depend on the process's string-hash seed.

``pearson_similarity`` and ``CosineSimilarity`` sum over the ads two queries
share.  Iterating that set in hash order would make the last bits of a
score -- and so the served profile -- differ between processes, so both sum
in ``repr`` order.  Each run happens in a fresh interpreter with its own
``PYTHONHASHSEED``, and the two profiles must be byte-equal.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROFILE_SCRIPT = """
import json
from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.synth.yahoo_like import yahoo_like_workload

workload = yahoo_like_workload("tiny", seed=3)
queries = sorted(workload.click_graph.queries(), key=repr)
profiles = {}
for method in ("pearson", "cosine"):
    engine = RewriteEngine.from_graph(
        workload.click_graph, EngineConfig(method=method), bid_terms=workload.bid_terms
    ).fit()
    profiles[method] = engine.serving_profile(queries)
print(json.dumps(profiles))
"""


def serving_profiles(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _PROFILE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout


def test_pearson_and_cosine_profiles_are_byte_equal_across_hash_seeds():
    first = serving_profiles("0")
    assert '"pearson": [[' in first and '"cosine": [[' in first
    assert serving_profiles("1") == first
