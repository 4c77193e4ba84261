"""Core query-similarity algorithms (the paper's contribution).

* :class:`BipartiteSimrank` -- plain bipartite SimRank (Jeh & Widom), Section 4.
* :class:`EvidenceSimrank` -- evidence-based SimRank, Section 7.
* :class:`WeightedSimrank` -- weighted SimRank / "Simrank++", Section 8.
* :class:`PearsonSimilarity` -- the Pearson-correlation baseline, Section 9.1.
* :mod:`repro.core.baselines` -- naive common-ad counting (Table 1) and extra
  comparators (Jaccard, cosine).
* :mod:`repro.core.complete_bipartite` -- closed-form scores on complete
  bipartite graphs (Theorems A.1-B.3), used as test oracles.
* :class:`MatrixSimrank` / :class:`SparseSimrank` -- the same SimRank
  fixpoints computed by one matrix iteration (:mod:`repro.core.simrank_kernel`)
  on dense numpy arrays over the whole graph, or on pruned ``scipy.sparse``
  CSR matrices whose cost tracks the nonzeros (the fast backends for the
  huge-but-sparse click graphs of practice).
* :class:`ShardedSimrank` -- either of them per connected component,
  stitched block-diagonally.
* :class:`QueryRewriter` -- the sponsored-search front-end that turns
  similarity scores into filtered, ranked query rewrites (Section 9.3).
"""

from repro.core.baselines import (
    CommonAdSimilarity,
    CosineSimilarity,
    JaccardSimilarity,
    common_ad_count,
)
from repro.core.complete_bipartite import (
    evidence_simrank_k22_score,
    simrank_k12_score,
    simrank_k22_score,
    simrank_km2_scores,
)
from repro.core.config import EvidenceKind, SimrankConfig
from repro.core.evidence import (
    common_neighbor_count,
    evidence_exponential,
    evidence_geometric,
    evidence_score,
)
from repro.core.evidence_simrank import EvidenceSimrank
from repro.core.hybrid import HybridSimilarity, TextSimilarity, text_similarity
from repro.core.pearson import PearsonSimilarity, pearson_similarity
from repro.core.rewriter import CandidateDecision, QueryRewriter, Rewrite, RewriteList
from repro.core.scores_array import ArraySimilarityScores
from repro.core.simrank import BipartiteSimrank, SimrankResult
from repro.core.simrank_matrix import MatrixSimrank
from repro.core.simrank_sharded import ShardedSimrank
from repro.core.simrank_sparse import SparseSimrank
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.weighted_simrank import WeightedSimrank, spread, transition_factors

__all__ = [
    "CommonAdSimilarity",
    "CosineSimilarity",
    "JaccardSimilarity",
    "common_ad_count",
    "evidence_simrank_k22_score",
    "simrank_k12_score",
    "simrank_k22_score",
    "simrank_km2_scores",
    "EvidenceKind",
    "SimrankConfig",
    "common_neighbor_count",
    "evidence_exponential",
    "evidence_geometric",
    "evidence_score",
    "EvidenceSimrank",
    "HybridSimilarity",
    "TextSimilarity",
    "text_similarity",
    "PearsonSimilarity",
    "pearson_similarity",
    "CandidateDecision",
    "QueryRewriter",
    "Rewrite",
    "RewriteList",
    "ArraySimilarityScores",
    "BipartiteSimrank",
    "SimrankResult",
    "MatrixSimrank",
    "ShardedSimrank",
    "SparseSimrank",
    "QuerySimilarityMethod",
    "WeightedSimrank",
    "spread",
    "transition_factors",
]
