"""Convergence diagnostics for the SimRank iterations.

SimRank's fixpoint iteration converges geometrically: the scores after ``k``
iterations are within ``C^{k+1} / (1 - C)``-style bounds of the exact
solution (Jeh & Widom).  These helpers quantify how far a run got and how
many iterations a target accuracy needs, which matters because the paper's
central observation (Section 6) is precisely about what happens when the
iteration count is small.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.scores_array import ArraySimilarityScores

__all__ = [
    "iteration_deltas",
    "iterations_for_accuracy",
    "theoretical_residual_bound",
    "has_converged",
]


def iteration_deltas(history: Sequence[ArraySimilarityScores]) -> List[float]:
    """Largest per-pair change between consecutive iteration snapshots."""
    deltas: List[float] = []
    for previous, current in zip(history, history[1:]):
        deltas.append(current.max_difference(previous))
    return deltas


def has_converged(history: Sequence[ArraySimilarityScores], tolerance: float) -> bool:
    """Whether the last recorded iteration changed scores by less than ``tolerance``."""
    if len(history) < 2:
        return False
    return history[-1].max_difference(history[-2]) < tolerance


def theoretical_residual_bound(c: float, iterations: int) -> float:
    """Upper bound on the distance of iteration-``k`` scores from the fixpoint.

    For decay factor ``c`` the per-iteration contraction gives the classical
    ``c^{k+1} / (1 - c)`` bound (``inf`` when ``c == 1``, where the iteration
    may not contract).
    """
    if not 0 < c <= 1:
        raise ValueError(f"c must be in (0, 1], got {c}")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if c == 1.0:
        return float("inf")
    return c ** (iterations + 1) / (1.0 - c)


def iterations_for_accuracy(c: float, epsilon: float) -> int:
    """Smallest iteration count whose theoretical residual bound is below ``epsilon``."""
    if not 0 < c < 1:
        raise ValueError(f"c must be in (0, 1), got {c}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    iterations = 0
    while theoretical_residual_bound(c, iterations) >= epsilon:
        iterations += 1
        if iterations > 10_000:
            raise RuntimeError("accuracy target unreachable within 10000 iterations")
    return iterations
