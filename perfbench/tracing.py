"""Spans around calls into the program's layers, recorded by the benchmark.

The program itself is not instrumented.  A traced benchmark process calls
:func:`install`, which wraps the public entry point of each layer -- on
the classes and modules it imports -- with a function that records a span
(name, start, end) in memory, nested under the span that caused it.
Nothing is written until :meth:`Tracer.summary` runs at the end of the
process.

Layers are named after the modules: ``graph``, ``core`` (similarity fit
and score store), ``core.rewriter``, ``text``, ``api.engine``,
``api.snapshot`` and ``serving.holder``.  ``serving.server`` is measured
through its own ``/stats`` endpoint instead.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One call into a layer; ``children`` are the calls it caused."""

    __slots__ = ("name", "start", "end", "children", "info")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = time.perf_counter_ns()
        self.end = 0
        self.children: List["Span"] = []
        self.info: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        function: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        after: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> Any:
        stack = self._stack()
        if any(open_span.name == name for open_span in stack):
            # A layer calling itself (a delegating fit, say) is one span.
            return function(*args, **kwargs)
        span = Span(name)
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        try:
            result = function(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)
        if after is not None:
            after(span, args, result)
        return result

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) with a traced call."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, function, args, kwargs, after)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def summary(self) -> Dict[str, Any]:
        """Per-layer samples: durations by span name plus derived counts."""
        durations: Dict[str, List[float]] = {}
        values: Dict[str, List[float]] = {}

        def add(table: Dict[str, List[float]], key: str, value: float) -> None:
            table.setdefault(key, []).append(value)

        for span in self.spans:
            add(durations, span.name, span.seconds)
            for key, value in span.info.items():
                if not key.startswith("_"):
                    add(values, key, value)
            child_names = [child.name for child in span.children]
            if span.name == "api.engine.rewrite":
                kind = "miss" if "core.rewriter.compute_rewrites" in child_names else "hit"
                add(durations, f"api.engine.rewrite_{kind}", span.seconds)
            elif span.name == "core.rewriter.compute_rewrites":
                add(values, "text.signature_calls", child_names.count("text.query_signature"))
        return {"durations": durations, "values": values}


# --------------------------------------------------------------- the layers


def _after_fit(span: Span, args: tuple, result: Any) -> None:
    method = args[0]
    iterations = getattr(method, "iterations_run", None)
    if iterations is not None:
        span.info["core.iterations_run"] = iterations
    span.info["core.scores_nnz"] = method.similarities().nonzero_count()


def _after_top_rewrites(span: Span, args: tuple, result: Any) -> None:
    span.info["_candidates"] = [candidate for candidate, _ in result]


def _after_compute_rewrites(span: Span, args: tuple, result: Any) -> None:
    """Accepted rewrites over the candidates the filter pipeline looked at.

    The pipeline walks the ranked pool until ``max_rewrites`` are accepted
    and stops at the next candidate, so the candidates scanned run up to
    one past the last accepted one (or the whole pool).
    """
    rewriter = args[0]
    pools = [
        child.info.pop("_candidates")
        for child in span.children
        if child.name == "core.top_rewrites" and "_candidates" in child.info
    ]
    if not pools:
        return
    pool = pools[0]
    accepted = [rewrite.rewrite for rewrite in result.rewrites]
    scanned = len(pool)
    if len(accepted) >= rewriter.max_rewrites:
        scanned = min(len(pool), pool.index(accepted[-1]) + 2)
    span.info["core.rewriter.accepted"] = len(accepted)
    span.info["core.rewriter.scanned"] = scanned


def _after_refresh(span: Span, args: tuple, result: Any) -> None:
    info = args[0].last_refresh
    if info is not None:
        span.info["api.engine.invalidated_per_refresh"] = info.invalidated_entries


def install(tracer: Tracer) -> None:
    """Trace every layer entry point the per-layer metrics are built from."""
    import repro.core.planner as planner
    import repro.core.rewriter as rewriter
    from repro.api.engine import RewriteEngine
    from repro.core.scores_array import ArraySimilarityScores
    from repro.core.similarity_base import QuerySimilarityMethod
    from repro.graph.click_graph import ClickGraph
    from repro.serving.holder import EngineHolder

    tracer.wrap(ClickGraph, "apply_delta", "graph.apply_delta")
    tracer.wrap(QuerySimilarityMethod, "fit", "core.method_fit", _after_fit)
    tracer.wrap(planner, "plan_fit", "core.plan")
    tracer.wrap(ArraySimilarityScores, "from_sparse", "core.scores_from_sparse")
    tracer.wrap(QuerySimilarityMethod, "top_rewrites", "core.top_rewrites", _after_top_rewrites)
    tracer.wrap(
        rewriter.QueryRewriter,
        "compute_rewrites",
        "core.rewriter.compute_rewrites",
        _after_compute_rewrites,
    )
    # The rewriter calls the text layer through its own module namespace.
    tracer.wrap(rewriter, "query_signature", "text.query_signature")
    tracer.wrap(RewriteEngine, "rewrite", "api.engine.rewrite")
    tracer.wrap(RewriteEngine, "rewrite_batch", "api.engine.rewrite_batch")
    tracer.wrap(RewriteEngine, "copy", "api.engine.copy")
    tracer.wrap(RewriteEngine, "refresh", "api.engine.refresh", _after_refresh)
    tracer.wrap(RewriteEngine, "save", "api.snapshot.save")
    tracer.wrap(RewriteEngine, "load", "api.snapshot.load")
    tracer.wrap(EngineHolder, "refresh", "serving.holder.refresh")
