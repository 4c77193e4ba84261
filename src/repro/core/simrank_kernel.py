"""The SimRank fixpoint, written once for the dense and the sparse backend.

Simrank++ is one Jacobi iteration in three variants (``mode``): plain
SimRank (paper Section 4); ``evidence``, the plain fixpoint scaled by the
evidence factors once it converges (Equations 7.5/7.6); and ``weighted``,
the weighted transitions of Section 8 with the evidence applied inside every
iteration.  With ``P_Q`` the query-to-ad transitions (row-normalised
adjacency, or the ``W(q, i)`` factors) and ``P_A`` the ad-to-query ones::

    S_Q <- C1 * P_Q @ S_A @ P_Q.T   (diagonal reset to 1)
    S_A <- C2 * P_A @ S_Q @ P_A.T   (diagonal reset to 1)

:func:`solve` builds what depends only on the graph once per fit from
:meth:`ClickGraph.to_sparse_matrix` -- node index, transitions, spread
vectors, evidence factors -- and runs the iteration on an ops adapter:
:class:`DenseOps` (numpy arrays, the ``matrix`` backend) or :class:`CsrOps`
(pruned CSR matrices, the ``sparse`` backend).  Only the transitions are
built with each backend's own arithmetic: dense divides by row sums over
zero-padded rows, CSR multiplies by reciprocal CSR sums, and the two round
differently in the last place.  Zero-degree nodes can only self-score, so the node index covers
edge-carrying nodes only, repr-sorted.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.config import EvidenceKind, SimrankConfig
from repro.core.scores_array import ArraySimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.warm_start import seed_csr
from repro.graph.click_graph import ClickGraph

__all__ = ["MODE_NAMES", "method_name", "Fixpoint", "solve", "KernelSimrank", "DenseOps", "CsrOps"]

Node = Hashable

#: Mode -> reported method name: the reference engine's, whichever backend ran.
MODE_NAMES = {"simrank": "simrank", "evidence": "evidence_simrank", "weighted": "weighted_simrank"}


def method_name(mode: str) -> str:
    """The reported method name of ``mode``; ``ValueError`` for unknown modes."""
    if mode not in MODE_NAMES:
        raise ValueError(f"mode must be one of {tuple(MODE_NAMES)}, got {mode!r}")
    return MODE_NAMES[mode]


@dataclass
class Fixpoint:
    """The query and ad similarity matrices of one fit, in the adapter's format."""

    query: Any
    ad: Any
    query_index: List[Node]
    ad_index: List[Node]
    iterations_run: int


def solve(graph: ClickGraph, config: SimrankConfig, mode: str, ops, seed=None) -> Fixpoint:
    """Run the ``mode`` fixpoint of ``graph`` on ``ops``, cold or from ``seed``.

    ``seed`` is a previous query score store (:mod:`repro.core.warm_start`);
    the ad side then starts one ad update away from it, so both sides start
    near the fixpoint together.
    """
    weighted = mode == "weighted"
    source = config.weight_source if weighted else None
    binary, weights, query_index, ad_index = _export(graph, source)
    n_q, n_a = binary.shape
    if binary.nnz == 0:
        return Fixpoint(ops.identity(0), ops.identity(0), [], [], 0)

    if weighted:
        rows = np.repeat(np.arange(n_q), np.diff(weights.indptr))
        ad_spread = _spread_vector(weights.indices, weights.data, n_a)
        query_spread = _spread_vector(rows, weights.data, n_q)
        p_query, p_ad = ops.weighted_transitions(weights, ad_spread, query_spread)
    else:
        p_query, p_ad = ops.transitions(binary)
    # The evidence factors depend only on the graph: built once per fit, and
    # never for plain SimRank, which does not read them.
    if mode == "simrank":
        evidence_query = evidence_ad = None
    else:
        floor = config.zero_evidence_floor
        evidence_query, evidence_ad = ops.evidence(binary, config.evidence, floor)

    def step(transitions, other_side, decay, evidence):
        updated = ops.product(transitions, other_side, decay)
        if weighted:
            updated = ops.apply_evidence(updated, evidence)
        return ops.prune(ops.unit_diagonal(updated))

    if seed is not None:
        sim_query = ops.seed(seed, query_index)
        sim_ad = step(p_ad, sim_query, config.c2, evidence_ad)
    else:
        sim_query, sim_ad = ops.identity(n_q), ops.identity(n_a)
    iterations_run = 0
    for _ in range(config.iterations):
        new_query = step(p_query, sim_ad, config.c1, evidence_query)
        new_ad = step(p_ad, sim_query, config.c2, evidence_ad)
        delta = 0.0
        if config.tolerance > 0:
            delta = max(ops.max_abs_diff(new_query, sim_query), ops.max_abs_diff(new_ad, sim_ad))
        sim_query, sim_ad = new_query, new_ad
        iterations_run += 1
        if config.tolerance > 0 and delta < config.tolerance:
            break

    if mode == "evidence":
        sim_query = ops.unit_diagonal(ops.apply_evidence(sim_query, evidence_query))
        sim_ad = ops.unit_diagonal(ops.apply_evidence(sim_ad, evidence_ad))
    return Fixpoint(sim_query, sim_ad, query_index, ad_index, iterations_run)


class KernelSimrank(QuerySimilarityMethod):
    """What the dense and sparse backends share: a fit through :func:`solve`.

    A subclass supplies its ops adapter (:meth:`_ops`), what it keeps of the
    ad side (:meth:`_ad_side`) and how :meth:`ad_similarity` reads it.
    """

    def __init__(
        self, config: Optional[SimrankConfig] = None, mode: str = "simrank", min_score: float = 1e-9
    ) -> None:
        super().__init__()
        self.name = method_name(mode)
        self.config = config or SimrankConfig()
        self.mode = mode
        self.min_score = min_score
        #: Iterations actually executed by the last fit (early exit included).
        self.iterations_run: Optional[int] = None
        #: Whether the last fit started from a warm seed instead of identity.
        self.warm_started: bool = False
        self._fit: Optional[Fixpoint] = None
        self._ad_scores = None

    @abc.abstractmethod
    def _ops(self):
        """A fresh ops adapter for one fit."""

    @abc.abstractmethod
    def _ad_side(self, fit: Fixpoint, ops):
        """What :meth:`ad_similarity` reads of the fitted ad side."""

    def _compute_query_scores(self, graph: ClickGraph) -> ArraySimilarityScores:
        ops = self._ops()
        seed = self._warm_start_scores
        self.warm_started = seed is not None
        fit = solve(graph, self.config, self.mode, ops, seed)
        self.iterations_run = fit.iterations_run
        self._ad_scores = self._ad_side(fit, ops)
        fit.ad = None  # the ad side lives on in _ad_scores; free the raw matrix
        self._fit = fit
        return ops.store(fit.query, fit.query_index)

    def restore(self, scores, graph=None) -> "KernelSimrank":
        """Adopt precomputed query scores; the fit-only extras are cleared."""
        super().restore(scores, graph)
        self.iterations_run = None
        self.warm_started = False
        self._fit = None
        self._ad_scores = None
        return self

    def query_matrix(self) -> Tuple[Any, List[Node]]:
        """The raw query-query similarity matrix and its (edge-carrying) index."""
        self._require_fitted()
        fit = self._require_fit_extra(self._fit, "raw query matrix")
        return fit.query, list(fit.query_index)


@dataclass
class DenseOps:
    """numpy-array operations of the fixpoint (the ``matrix`` backend)."""

    min_score: float

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n)

    def seed(self, initial_scores, index) -> np.ndarray:
        return seed_csr(initial_scores, index).toarray()

    def transitions(self, matrix, ad_spread=1.0, query_spread=1.0):
        # P_A stays the transpose of a query x ad array: BLAS rounds the
        # products differently in the other memory layout.
        dense = matrix.toarray()
        p_query = _divide(dense, dense.sum(axis=1, keepdims=True)) * ad_spread
        return p_query, _divide(dense, dense.sum(axis=0, keepdims=True)).T * query_spread

    weighted_transitions = transitions

    def evidence(self, binary, kind: EvidenceKind, floor: float):
        """Full evidence matrices: ``floor`` wherever two nodes share no neighbour."""
        dense = binary.toarray()
        sides = []
        for common in (dense @ dense.T, dense.T @ dense):
            evidence = _evidence_factors(common, kind)
            evidence[common <= 0] = floor
            sides.append(self.unit_diagonal(evidence))
        return sides

    def product(self, transitions, scores, decay):
        return decay * (transitions @ scores @ transitions.T)

    def apply_evidence(self, scores, evidence):
        scores *= evidence
        return scores

    def unit_diagonal(self, matrix):
        np.fill_diagonal(matrix, 1.0)
        return matrix

    def prune(self, matrix):
        return matrix

    def max_abs_diff(self, new, old) -> float:
        return float(np.max(np.abs(new - old)))

    def store(self, matrix, index) -> ArraySimilarityScores:
        return ArraySimilarityScores.from_dense(matrix, index, min_score=self.min_score)


@dataclass
class CsrOps:
    """CSR operations of the fixpoint, pruned after every step (``sparse``)."""

    min_score: float
    top_k: Optional[int]

    def identity(self, n: int) -> sparse.csr_matrix:
        return sparse.identity(n, format="csr")

    def seed(self, initial_scores, index) -> sparse.csr_matrix:
        return seed_csr(initial_scores, index)

    def transitions(self, binary):
        return _row_normalise(binary), _row_normalise(binary.T.tocsr())

    def weighted_transitions(self, weights, ad_spread, query_spread):
        inverse_rows = sparse.diags(_divide(1.0, np.asarray(weights.sum(axis=1)).ravel()))
        inverse_cols = sparse.diags(_divide(1.0, np.asarray(weights.sum(axis=0)).ravel()))
        p_query = (inverse_rows @ weights @ sparse.diags(ad_spread)).tocsr()
        p_ad = (sparse.diags(query_spread) @ weights @ inverse_cols).T.tocsr()
        return p_query, p_ad

    def evidence(self, binary, kind: EvidenceKind, floor: float):
        """``floor`` plus sparse offsets: scaling ``S`` is ``floor*S + S*offsets``."""
        sides = []
        for side in (binary, binary.T.tocsr()):
            offsets = (side @ side.T).tocsr()
            offsets.data = _evidence_factors(offsets.data, kind) - floor
            sides.append((offsets, floor))
        return sides

    def product(self, transitions, scores, decay):
        return (decay * (transitions @ scores @ transitions.T)).tocsr()

    def apply_evidence(self, scores, evidence):
        offsets, floor = evidence
        scaled = scores.multiply(offsets).tocsr()
        return (scaled + floor * scores).tocsr() if floor else scaled

    def unit_diagonal(self, matrix):
        diagonal = matrix.diagonal()
        if np.any(diagonal):
            matrix = matrix - sparse.diags(diagonal)
        return (matrix + sparse.identity(matrix.shape[0])).tocsr()

    def prune(self, matrix):
        if self.min_score > 0.0:
            matrix.data[matrix.data < self.min_score] = 0.0
            matrix.eliminate_zeros()
        return matrix if self.top_k is None else _retain_top_k(matrix, self.top_k)

    def max_abs_diff(self, new, old) -> float:
        difference = abs(new - old)
        return float(difference.max()) if difference.nnz else 0.0

    def store(self, matrix, index) -> ArraySimilarityScores:
        return ArraySimilarityScores.from_sparse(matrix, index, min_score=self.min_score)


# ---------------------------------------------------------------- internals


def _export(graph: ClickGraph, weight_source) -> Tuple[Any, Any, List[Node], List[Node]]:
    """Adjacency, weights (``None`` without a source) and index, in one edge pass.

    The weight export keeps explicit zeros, so its pattern is the adjacency.
    """
    if weight_source is None:
        weights = None
        binary, queries, ads = graph.to_sparse_matrix(binary=True)
    else:
        weights, queries, ads = graph.to_sparse_matrix(source=weight_source)
        binary = weights.copy()
        binary.data[:] = 1.0
    query_kept = np.diff(binary.indptr) > 0
    ad_kept = np.bincount(binary.indices, minlength=binary.shape[1]) > 0
    if not (query_kept.all() and ad_kept.all()):
        binary = binary[query_kept][:, ad_kept]
        if weights is not None:
            weights = weights[query_kept][:, ad_kept]
        queries = [node for node, kept in zip(queries, query_kept.tolist()) if kept]
        ads = [node for node, kept in zip(ads, ad_kept.tolist()) if kept]
    return binary, weights, queries, ads


def _divide(matrix, sums: np.ndarray) -> np.ndarray:
    """``matrix / sums`` (broadcast), with zero sums mapping to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sums > 0, matrix / np.where(sums > 0, sums, 1.0), 0.0)


def _row_normalise(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Divide each row by its sum (rows that sum to zero stay zero)."""
    return (sparse.diags(_divide(1.0, np.asarray(matrix.sum(axis=1)).ravel())) @ matrix).tocsr()


def _spread_vector(rows: np.ndarray, data: np.ndarray, n: int) -> np.ndarray:
    """``exp(-variance)`` of the non-zero weights ``data`` of each of ``n`` rows.

    ``rows[e]`` is the row of weight ``data[e]``; zero weights are not edges.
    """
    mask = data != 0
    counts = np.bincount(rows[mask], minlength=n)
    safe_counts = np.where(counts > 0, counts, 1)
    sums = np.bincount(rows[mask], weights=data[mask], minlength=n)
    means = sums / safe_counts
    deviations = np.where(mask, data - means[rows], 0.0)
    variances = np.bincount(rows, weights=deviations ** 2, minlength=n) / safe_counts
    return np.where(counts > 0, np.exp(-variances), 1.0)


def _evidence_factors(common: np.ndarray, kind: EvidenceKind) -> np.ndarray:
    """Evidence of common-neighbour counts (Equations 7.3/7.4) for counts above 0.

    Pairs with no common neighbour get the configured floor instead, which
    each adapter fills in its own representation.
    """
    if kind is EvidenceKind.GEOMETRIC:
        return 1.0 - np.power(0.5, common)
    if kind is EvidenceKind.EXPONENTIAL:
        return 1.0 - np.exp(-common)
    raise ValueError(f"unknown evidence kind: {kind!r}")


def _retain_top_k(matrix: sparse.csr_matrix, k: int) -> sparse.csr_matrix:
    """Keep each row's ``k`` largest off-diagonal entries (and the diagonal).

    An entry survives when *either* endpoint keeps it, so pruning never
    makes the matrix asymmetric.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    keep = np.ones(data.size, dtype=bool)
    for i in range(matrix.shape[0]):
        start, end = indptr[i], indptr[i + 1]
        off_diagonal = np.nonzero(indices[start:end] != i)[0]
        if off_diagonal.size <= k:
            continue
        row_values = data[start:end][off_diagonal]
        dropped = np.argpartition(row_values, row_values.size - k)[: row_values.size - k]
        keep[start + off_diagonal[dropped]] = False
    if keep.all():
        return matrix
    pruned = matrix.copy()
    pruned.data[~keep] = 0.0
    pruned.eliminate_zeros()
    return pruned.maximum(pruned.T).tocsr()
