"""RL001: attributes declared lock-guarded are only touched under their lock.

The concurrent pieces of this codebase (the serving holder, the circuit
breaker, the fault plan, the engine's serving cache) document which lock
guards which fields -- but documentation cannot fail a build.  This checker
makes the convention executable:

* A field is declared guarded either by an inline annotation on (or
  directly above) its assignment::

      #: guarded-by: _outcome
      self._publish_failures = 0

  or by an entry in :data:`GUARDED_BY`, the map seeded from the classes
  that established the convention (``repro/api/engine.py``,
  ``repro/serving/holder.py``, ``repro/serving/resilience.py``,
  ``repro/core/faults.py``).  Annotations and the seed map merge; an
  annotation wins on conflict.

* Inside the owning class, every read or write of a guarded field must be
  lexically within ``with self.<lock>:`` for the declared lock.  ``__init__``
  and ``__new__`` are exempt -- no other thread can hold a reference during
  construction.

* A helper that is documented as "caller holds the lock" declares it::

      # repro-lint: requires-lock=_lock
      def _maybe_half_open(self) -> None: ...

  and its whole body is treated as guarded (the Clang thread-safety
  ``REQUIRES()`` idiom; callers are not checked -- the annotation is an
  audited claim, kept visible at the definition).

Known limitations, by design: accesses from *outside* the owning class and
aliases (``cache = self._cache``) are not tracked; a nested function
defined inside a ``with`` block is treated as guarded even though it may
escape and run later.  The checker enforces the lexical discipline the
code actually uses, not a full may-happen-in-parallel analysis.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.framework import Checker, Project, SourceFile

__all__ = ["GUARDED_BY", "LockDisciplineChecker"]

#: The seed map: class name -> {guarded attribute -> lock attribute}.
#: Seeded from the classes that established the lock conventions this
#: checker enforces; new classes should prefer inline ``#: guarded-by:``
#: annotations, which merge with (and override) these entries.
GUARDED_BY: Dict[str, Dict[str, str]] = {
    # repro/serving/holder.py -- the publish-outcome ledger and the swap
    # bookkeeping /stats reads, all on the dedicated outcome lock so stats
    # readers never block behind an in-flight refit holding ``_mutate``.
    "EngineHolder": {
        "_publish_failures": "_outcome",
        "_consecutive_failures": "_outcome",
        "_last_error": "_outcome",
        "_last_failure_at": "_outcome",
        "_published_at": "_outcome",
        "_swaps": "_outcome",
        "_last_swap_seconds": "_outcome",
    },
    # repro/serving/resilience.py -- breaker state transitions.
    "CircuitBreaker": {
        "_state": "_lock",
        "_failures": "_lock",
        "_opened_at": "_lock",
        "_probing": "_lock",
    },
    # repro/core/faults.py -- central hit counting must stay exact under
    # multi-threaded fits.
    "FaultPlan": {
        "_hits": "_lock",
        "_spec_fired": "_lock",
        "fired": "_lock",
    },
    # repro/api/engine.py -- the serving table and its counters.
    "RewriteEngine": {
        "_table": "_cache_lock",
        "_hits": "_cache_lock",
        "_misses": "_cache_lock",
    },
    # repro/store/sqlite.py -- one shared connection, so every point
    # lookup (and the counters it bumps) serialises on the store lock.
    "SqliteServingStore": {
        "_connection": "_lock",
        "_lookups": "_lock",
        "_empty_lookups": "_lock",
        "_closed": "_lock",
    },
}

_GUARDED_ANNOTATION = re.compile(r"#:\s*guarded-by:\s*(?P<lock>\w+)")
_REQUIRES_LOCK = re.compile(r"#\s*repro-lint:\s*requires-lock=(?P<locks>[\w,\s]+)")

#: Methods exempt from the discipline: the object is not yet shared.
_CONSTRUCTORS = frozenset({"__init__", "__new__"})


class LockDisciplineChecker(Checker):
    code = "RL001"
    name = "lock-discipline"
    description = (
        "guarded attributes are only read/written inside `with self.<lock>:` "
        "in their owning class"
    )

    def check_file(self, file: SourceFile, project: Project) -> Iterator[Diagnostic]:
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(file, node)

    # ------------------------------------------------------------- per class

    def _check_class(
        self, file: SourceFile, cls: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        guarded = dict(GUARDED_BY.get(cls.name, {}))
        guarded.update(self._annotated_fields(file, cls))
        if not guarded:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _CONSTRUCTORS:
                continue
            held = self._required_locks(file, item)
            yield from self._check_function(file, cls, item, guarded, held)

    def _annotated_fields(
        self, file: SourceFile, cls: ast.ClassDef
    ) -> Dict[str, str]:
        """``#: guarded-by:`` declarations on ``self.X = ...`` assignments."""
        fields: Dict[str, str] = {}
        for node in ast.walk(cls):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                attr = _self_attribute(target)
                if attr is None:
                    continue
                lock = self._annotation_near(file, node.lineno)
                if lock is not None:
                    fields[attr] = lock
        return fields

    def _annotation_near(self, file: SourceFile, lineno: int) -> Optional[str]:
        """A ``guarded-by`` comment on the line, or directly above it."""
        for line in (lineno, lineno - 1):
            match = _GUARDED_ANNOTATION.search(file.comment_on(line))
            if match is not None:
                return match.group("lock")
        return None

    def _required_locks(
        self, file: SourceFile, func: ast.FunctionDef
    ) -> Set[str]:
        """Locks a ``requires-lock=`` annotation claims the caller holds."""
        lines = [func.lineno, func.lineno - 1]
        if func.decorator_list:
            first = min(d.lineno for d in func.decorator_list)
            lines.extend((first, first - 1))
        for line in lines:
            match = _REQUIRES_LOCK.search(file.comment_on(line))
            if match is not None:
                return {
                    lock.strip()
                    for lock in match.group("locks").split(",")
                    if lock.strip()
                }
        return set()

    # ---------------------------------------------------------- per function

    def _check_function(
        self,
        file: SourceFile,
        cls: ast.ClassDef,
        func: ast.FunctionDef,
        guarded: Dict[str, str],
        base_held: Set[str],
    ) -> Iterator[Diagnostic]:
        lock_names = set(guarded.values())

        def visit(node: ast.AST, held: Set[str]) -> Iterator[Diagnostic]:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired = set(held)
                for item in node.items:
                    lock = _self_attribute(item.context_expr)
                    if lock in lock_names:
                        acquired = acquired | {lock}
                    yield from visit(item.context_expr, held)
                for child in node.body:
                    yield from visit(child, acquired)
                return
            if isinstance(node, ast.Attribute):
                attr = _self_attribute(node)
                if attr is not None and attr in guarded:
                    lock = guarded[attr]
                    if lock not in held:
                        yield Diagnostic(
                            path=file.display,
                            line=node.lineno,
                            col=node.col_offset + 1,
                            code=self.code,
                            message=(
                                f"{cls.name}.{attr} is declared guarded by "
                                f"self.{lock} but is accessed in "
                                f"{func.name}() without holding it (wrap the "
                                f"access in `with self.{lock}:` or annotate "
                                f"the function `# repro-lint: "
                                f"requires-lock={lock}`)"
                            ),
                        )
            for child in ast.iter_child_nodes(node):
                yield from visit(child, held)

        for statement in func.body:
            yield from visit(statement, set(base_held))


def _self_attribute(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None
