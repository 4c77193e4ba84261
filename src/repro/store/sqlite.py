"""SQL-backed rewrite serving: materialized per-query top-k ranking tables.

The motivation (ROADMAP: "SQL-backed rewrite serving for stores bigger than
RAM"): a fitted Simrank++ engine serves *static* per-query top-k rewrite
lists, yet the snapshot path rehydrates the full CSR score matrix into
resident memory just to answer point lookups.  This module pushes the
ranking into the storage engine instead.  At export time
(:func:`export_serving_store`, wired as ``RewriteEngine.export_store``) the
fitted scores are spilled into SQLite and ranked *inside the database* with
a window-function query::

    ROW_NUMBER() OVER (
        PARTITION BY query
        ORDER BY score DESC, rewrite_repr ASC
    )

whose ordering is exactly the serving tie-break the in-memory path uses
(``(-score, repr(node))`` -- see ``ArraySimilarityScores.top``), so the
per-query candidate pools come out byte-identical.  The Section 9.3 filter
pipeline (bid-term filtering, stemmed deduplication, the max-rewrites cap)
then runs once per query over its ranked pool -- reusing the actual
:class:`~repro.core.rewriter.QueryRewriter` so the filter semantics cannot
drift -- and the surviving lists land in a ``rewrites`` table clustered on
``(query, rank)``.

Serving (:class:`SqliteServingStore`) is then an indexed point lookup per
query: resident memory is O(connection + page cache), not O(nnz), which is what lets a serving node answer from a store bigger
than its RAM.  The export is crash-safe via the shared staged-write
rename-publish discipline (:func:`repro.api.staging.staged_write`): a
killed export can never leave a half-written database discoverable.

On-disk layout (one SQLite file)::

    meta(key, value)             format/store version, engine config JSON,
                                 fit facts (method, counts)
    queries(query, position)     the precompute universe, in export order
    rewrites(query, rank,        the materialized serving lists, clustered
             rewrite, score)     on (query, rank) for point lookups

Node identifiers are JSON-encoded (the snapshot layer's exact-round-trip
types: str, int, float, bool); anything else raises :class:`StoreError` at
export time rather than coming back subtly changed.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.api.snapshot import _JSON_EXACT_NODE_TYPES
from repro.api.staging import staged_write
from repro.core.rewriter import QueryRewriter, Rewrite, RewriteList
from repro.store.base import Node, ServingStore, StoreError

__all__ = ["STORE_FORMAT_VERSION", "SqliteServingStore", "export_serving_store"]

PathLike = Union[str, Path]

#: Bumped whenever the database layout changes incompatibly; readers reject
#: stores written under a different version instead of misreading them.
STORE_FORMAT_VERSION = 1

#: Rows per executemany batch while spilling raw scores.
_INSERT_BATCH = 50_000

_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL) WITHOUT ROWID;
CREATE TABLE queries (
    query TEXT PRIMARY KEY,
    position INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE rewrites (
    query TEXT NOT NULL,
    rank INTEGER NOT NULL,
    rewrite TEXT NOT NULL,
    score REAL NOT NULL,
    PRIMARY KEY (query, rank)
) WITHOUT ROWID;
"""

#: The ranking pushed into the storage engine.  ``ORDER BY score DESC,
#: rewrite_repr ASC`` is byte-for-byte the in-memory tie-break: candidates
#: sort by ``(-score, repr(node))``, and ``rewrite_repr`` stores exactly
#: that ``repr`` (SQLite compares TEXT as UTF-8 bytes, which orders
#: identically to Python's code-point string comparison).  ``score >
#: :minimum`` mirrors the strict similarity floor of
#: ``ArraySimilarityScores.top``; ``rank <= :pool`` keeps the paper's
#: top-100 candidate pool per query.
_RANK_CANDIDATES = """
CREATE TABLE candidates AS
SELECT query, rewrite, score, rank
FROM (
    SELECT query, rewrite, score,
           ROW_NUMBER() OVER (
               PARTITION BY query
               ORDER BY score DESC, rewrite_repr ASC
           ) AS rank
    FROM raw_scores
    WHERE score > :minimum
)
WHERE rank <= :pool
"""


def _encode_node(node: Node) -> str:
    """A node id as its canonical JSON text (the database key)."""
    if not isinstance(node, _JSON_EXACT_NODE_TYPES):
        raise StoreError(
            f"node id {node!r} ({type(node).__name__}) does not round-trip "
            "through JSON; serving stores support str, int, float and bool "
            "node ids -- convert other identifier types before exporting"
        )
    return json.dumps(node)


def _decode_node(text: str) -> Node:
    return json.loads(text)


# ------------------------------------------------------------------ exporting


class _RankedCandidateSource:
    """Adapter feeding SQL-ranked candidate pools to the filter pipeline.

    Quacks like a fitted similarity method for the one call
    :class:`QueryRewriter` makes (``top_rewrites``), but answers from the
    ``candidates`` table the window-function query materialized -- so the
    exported rewrite lists are produced by the *actual* Section 9.3
    pipeline over the *database's* ranking, and any divergence between the
    SQL ordering and the in-memory ordering would surface as a test
    failure, not silent drift.
    """

    def __init__(self, connection: sqlite3.Connection) -> None:
        self._connection = connection

    def top_rewrites(
        self, query: Node, k: int, minimum: float = 0.0
    ) -> List[Tuple[Node, float]]:
        rows = self._connection.execute(
            "SELECT rewrite, score FROM candidates "
            "WHERE query = ? AND rank <= ? ORDER BY rank",
            (_encode_node(query), k),
        )
        return [(_decode_node(text), score) for text, score in rows]


def _raw_score_rows(scores) -> Iterator[Tuple[str, str, str, float]]:
    """Both directed orientations of every stored pair, ready to insert."""
    for first, second, value in scores.pairs():
        first_key = _encode_node(first)
        second_key = _encode_node(second)
        yield first_key, second_key, repr(second), value
        yield second_key, first_key, repr(first), value


def _insert_batched(connection: sqlite3.Connection, sql: str, rows) -> int:
    """executemany in bounded batches; returns the number of rows inserted."""
    total = 0
    batch: list = []
    for row in rows:
        batch.append(row)
        if len(batch) >= _INSERT_BATCH:
            connection.executemany(sql, batch)
            total += len(batch)
            batch.clear()
    if batch:
        connection.executemany(sql, batch)
        total += len(batch)
    return total


def export_serving_store(engine, path: PathLike) -> Path:
    """Materialize a fitted engine's serving lists into a SQLite store.

    Returns the store path.  Raises :class:`StoreError` for an unfitted
    engine or node identifiers that would not survive the JSON round trip.
    The write is staged and rename-published (the snapshot discipline, via
    :func:`repro.api.staging.staged_write`), so a crashed export can never
    leave a half-written database discoverable under ``path``.
    """
    if not engine.method.is_fitted:
        raise StoreError(
            "cannot export an unfitted engine to a serving store; call "
            ".fit(graph) or load a snapshot first"
        )
    scores = engine.method.similarities()
    rewriter: QueryRewriter = engine._rewriter
    universe = engine._serving_universe()
    universe_keys = [(_encode_node(query), position)
                     for position, query in enumerate(universe)]

    path = Path(path)
    with staged_write(path, directory=False, error=StoreError) as staging:
        connection = sqlite3.connect(str(staging))
        try:
            # The staging file is discarded wholesale on any failure (the
            # rename-publish discipline is the durability story), so
            # journaling and fsync buy nothing here but slow the export.
            connection.execute("PRAGMA journal_mode=OFF")
            connection.execute("PRAGMA synchronous=OFF")
            connection.executescript(_SCHEMA)
            connection.execute(
                "CREATE TABLE raw_scores ("
                "query TEXT NOT NULL, rewrite TEXT NOT NULL, "
                "rewrite_repr TEXT NOT NULL, score REAL NOT NULL)"
            )
            _insert_batched(
                connection,
                "INSERT INTO raw_scores VALUES (?, ?, ?, ?)",
                _raw_score_rows(scores),
            )
            connection.execute(
                _RANK_CANDIDATES,
                {"minimum": rewriter.min_score, "pool": rewriter.candidate_pool},
            )
            connection.execute(
                "CREATE INDEX candidates_by_query ON candidates (query, rank)"
            )
            # Every query the store must answer: the precompute universe
            # plus any score-store query outside it (an out-of-band restore
            # can leave the score index larger than the recorded universe).
            materialize = dict(universe_keys)
            for (key,) in connection.execute(
                "SELECT DISTINCT query FROM candidates"
            ).fetchall():
                materialize.setdefault(key, len(materialize))
            # The real filter pipeline over the database's ranking: same
            # bid-term signatures, stemmed dedup and max-rewrites cap as
            # live serving, fed by the window query's candidate pools.
            pipeline = QueryRewriter(
                _RankedCandidateSource(connection),
                bid_terms=rewriter.bid_terms,
                max_rewrites=rewriter.max_rewrites,
                candidate_pool=rewriter.candidate_pool,
                min_score=rewriter.min_score,
                deduplicate=rewriter.deduplicate,
            )
            _insert_batched(
                connection,
                "INSERT INTO rewrites VALUES (?, ?, ?, ?)",
                (
                    (key, accepted.rank, _encode_node(accepted.rewrite),
                     accepted.score)
                    for key in materialize
                    for accepted in pipeline.compute_rewrites(
                        _decode_node(key)
                    ).rewrites
                ),
            )
            connection.executemany(
                "INSERT INTO queries VALUES (?, ?)", universe_keys
            )
            row_count = connection.execute(
                "SELECT COUNT(*) FROM rewrites"
            ).fetchone()[0]
            meta = {
                "format_version": str(STORE_FORMAT_VERSION),
                "store_version": "1",
                "engine_config": json.dumps(engine.config.to_dict()),
                "method": engine.config.method,
                "num_queries": str(len(universe_keys)),
                "num_rewrites": str(row_count),
            }
            connection.executemany(
                "INSERT INTO meta VALUES (?, ?)", sorted(meta.items())
            )
            # The scratch tables dwarf the serving tables; drop and VACUUM
            # so the published file holds only what lookups need.
            connection.execute("DROP TABLE raw_scores")
            connection.execute("DROP TABLE candidates")
            connection.commit()
            connection.execute("VACUUM")
        finally:
            connection.close()
    return path


# ------------------------------------------------------------------- serving


class SqliteServingStore(ServingStore):
    """Indexed point lookups against an exported SQLite serving store.

    Opens the store read-only-by-convention (``PRAGMA query_only``) and
    answers each :meth:`rewrites` call with one clustered-index scan of the
    query's rows.  Thread-safe: the serving tier's executor threads share
    one connection, serialized by an internal lock -- lookups are
    microsecond-scale point reads, so the lock is not a throughput concern.
    """

    kind = "sqlite"

    def __init__(self, path: PathLike) -> None:
        path = Path(path)
        if not path.is_file():
            raise StoreError(f"no serving store at {path} (not a file)")
        try:
            connection = sqlite3.connect(str(path), check_same_thread=False)
            rows = connection.execute("SELECT key, value FROM meta").fetchall()
        except sqlite3.Error as error:
            raise StoreError(
                f"{path} is not a readable serving store: {error}"
            ) from error
        meta = dict(rows)
        version_text = meta.get("format_version")
        if version_text != str(STORE_FORMAT_VERSION):
            connection.close()
            raise StoreError(
                f"serving store at {path} has format version {version_text!r}; "
                f"this build reads version {STORE_FORMAT_VERSION}"
            )
        connection.execute("PRAGMA query_only=ON")
        self._path = path
        self._meta = meta
        self._version = int(meta.get("store_version", "1"))
        #: Serializes connection use and guards the lookup counters; one
        #: store instance is shared by every serving thread.
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._connection = connection
        #: guarded-by: _lock
        self._lookups = 0
        #: guarded-by: _lock
        self._empty_lookups = 0
        #: guarded-by: _lock
        self._closed = False

    @property
    def path(self) -> Path:
        return self._path

    # ------------------------------------------------------------- protocol

    def rewrites(self, query: Node, k: Optional[int] = None) -> RewriteList:
        try:
            key = _encode_node(query)
        except StoreError:
            # Identifier types the store cannot hold are simply unknown
            # queries: serve the same empty list the in-memory path would.
            key = None
        with self._lock:
            if self._closed:
                raise StoreError(f"serving store at {self._path} is closed")
            self._lookups += 1
            if key is None:
                rows = []
            else:
                rows = self._connection.execute(
                    "SELECT rewrite, score, rank FROM rewrites "
                    "WHERE query = ? ORDER BY rank",
                    (key,),
                ).fetchall()
            if not rows:
                self._empty_lookups += 1
        if k is not None:
            rows = rows[:k]
        return RewriteList(
            query=query,
            rewrites=[
                Rewrite(
                    query=query,
                    rewrite=_decode_node(text),
                    score=score,
                    rank=rank,
                )
                for text, score, rank in rows
            ],
        )

    def contains(self, query: Node) -> bool:
        try:
            key = _encode_node(query)
        except StoreError:
            return False
        with self._lock:
            if self._closed:
                raise StoreError(f"serving store at {self._path} is closed")
            row = self._connection.execute(
                "SELECT 1 FROM queries WHERE query = ?", (key,)
            ).fetchone()
        return row is not None

    def queries(self) -> List[Node]:
        with self._lock:
            if self._closed:
                raise StoreError(f"serving store at {self._path} is closed")
            rows = self._connection.execute(
                "SELECT query FROM queries ORDER BY position"
            ).fetchall()
        return [_decode_node(text) for (text,) in rows]

    @property
    def version(self) -> int:
        return self._version

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._connection.close()
                self._closed = True

    # ----------------------------------------------------------- accounting

    @property
    def lookups(self) -> int:
        with self._lock:
            return self._lookups

    @property
    def empty_lookups(self) -> int:
        """Lookups that found no materialized rewrites (unknown/empty queries)."""
        with self._lock:
            return self._empty_lookups

    def engine_config(self) -> Optional[Dict[str, object]]:
        payload = self._meta.get("engine_config")
        if payload is None:
            return None
        try:
            config = json.loads(payload)
        except json.JSONDecodeError as error:
            raise StoreError(
                f"serving store at {self._path} holds a corrupt engine "
                f"config: {error}"
            ) from error
        return config if isinstance(config, dict) else None

    def describe(self) -> Dict[str, object]:
        facts = super().describe()
        facts["path"] = str(self._path)
        facts["empty_lookups"] = self.empty_lookups
        return facts

    def __repr__(self) -> str:
        return (
            f"SqliteServingStore(path={str(self._path)!r}, "
            f"version={self.version}, lookups={self.lookups})"
        )
