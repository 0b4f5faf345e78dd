"""Knowledge graph store: N-Triples parsing, pruning, and binary snapshots.

The graph is built from a directed RDF triple stream and exposed as an
undirected structure: parallel connections between a node pair are collapsed
into one edge carrying the union of their predicate labels.

The array primitives ``distinct``, ``_csr`` and ``peel`` serve ingest, expansion and core graphs.
"""

from __future__ import annotations

import gzip
import re
import struct
import zlib
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import InputDataError, SnapshotError, UnknownNodeError

_TRIPLE_RE = re.compile(r"^<([^<>\s]+)>\s+<([^<>\s]+)>\s+(.+?)\s*\.$")
_NODE_RE = re.compile(r"^<([^<>\s]+)>$")
_LITERAL_RE = re.compile(
    r'^"((?:[^"\\]|\\.)*)"(?:@([A-Za-z0-9-]+)|\^\^<[^<>\s]+>)?$'
)
_LANG_RE = re.compile(r"^[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*$")

_UNESCAPE_RE = re.compile(r'\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|[tbnrf"\'\\])')
_SIMPLE_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape(value: str) -> str:
    if "\\" not in value:
        return value

    def sub(m: re.Match) -> str:
        esc = m.group(0)[1:]
        if esc[0] in ("u", "U"):
            return chr(int(esc[1:], 16))
        return _SIMPLE_ESCAPES[esc]

    return _UNESCAPE_RE.sub(sub, value)


@dataclass(frozen=True)
class TripleRecord:
    """One parsed triple. ``object`` is a node identifier or a literal value."""

    subject: str
    predicate: str
    object: str
    is_literal: bool = False
    lang: str | None = None


@dataclass
class ParseTally:
    """Running counts for a parse run; malformed lines are recorded, not fatal."""

    lines: int = 0
    records: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return len(self.errors)


def _open_triples(source) -> tuple[BinaryIO, list[BinaryIO]]:
    """Open ``source`` as a binary stream, transparently unwrapping gzip.

    Returns the stream plus the handles the caller must close (gzip wrappers
    do not close the file object they read from).
    """
    if hasattr(source, "read"):
        raw, own = source, []
    else:
        raw = open(source, "rb")
        own = [raw]
    if raw.seekable():
        pos = raw.tell()
        magic = raw.read(2)
        raw.seek(pos)
        if magic == b"\x1f\x8b":
            stream = gzip.open(raw, "rb")
            return stream, [stream, *own]
    return raw, own


def parse_ntriples(source, tally: ParseTally | None = None) -> Iterator[TripleRecord]:
    """Yield a TripleRecord per well-formed N-Triples line of ``source``.

    ``source`` is a path or a binary stream, optionally gzip-compressed.
    Malformed lines are skipped and counted in ``tally`` with their line
    number; blank lines and ``#`` comments are ignored silently.
    """
    if tally is None:
        tally = ParseTally()
    stream, owned = _open_triples(source)
    try:
        for lineno, raw_line in enumerate(stream, 1):
            tally.lines += 1
            try:
                line = raw_line.decode("utf-8")
            except UnicodeDecodeError:
                tally.errors.append((lineno, "invalid UTF-8"))
                continue
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = _TRIPLE_RE.match(line)
            if m is None:
                tally.errors.append((lineno, "unparseable line"))
                continue
            subject, predicate, obj = m.groups()
            node = _NODE_RE.match(obj)
            if node is not None:
                tally.records += 1
                yield TripleRecord(subject, predicate, node.group(1))
                continue
            lit = _LITERAL_RE.match(obj)
            if lit is None:
                tally.errors.append((lineno, "malformed object term"))
                continue
            value, lang = lit.groups()
            if lang is not None and not _LANG_RE.match(lang):
                tally.errors.append((lineno, f"malformed language tag {lang!r}"))
                continue
            tally.records += 1
            yield TripleRecord(subject, predicate, _unescape(value), True, lang)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        name = getattr(source, "name", "<stream>") if hasattr(source, "read") else source
        raise InputDataError(f"{name}: corrupt gzip stream after line {tally.lines}: "
                             f"{exc}") from None
    finally:
        for handle in owned:
            handle.close()


def read_stoplist(path) -> frozenset[str]:
    """Read a stoplist file: one node identifier per line, ``#`` comments allowed."""
    out = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            ident = line.split("#", 1)[0].strip()
            if ident:
                out.add(ident)
    return frozenset(out)


@dataclass(frozen=True)
class PruneConfig:
    english_only: bool = False
    min_out_degree: int = 20
    stoplist: frozenset[str] = frozenset()
    drop_leaves: bool = False

    def __post_init__(self):
        if self.min_out_degree < 0:
            raise ValueError(f"min_out_degree must be non-negative, got {self.min_out_degree}")


@dataclass(frozen=True)
class PassStats:
    name: str
    nodes: int
    node_triples: int
    literal_triples: int


@dataclass
class PruneStats:
    """Node/triple counts observed after each pruning pass."""

    passes: list[PassStats] = field(default_factory=list)
    collapsed_edges: int = 0

    def format_report(self) -> str:
        lines = [f"{'pass':<12} {'nodes':>10} {'node triples':>14} {'literals':>10}"]
        for p in self.passes:
            lines.append(
                f"{p.name:<12} {p.nodes:>10} {p.node_triples:>14} {p.literal_triples:>10}"
            )
        lines.append(f"collapsed undirected edges: {self.collapsed_edges}")
        return "\n".join(lines)


def _is_english(lang: str | None) -> bool:
    return lang is None or lang.lower() == "en" or lang.lower().startswith("en-")


def _pred_basename(predicate: str) -> str:
    return predicate.rsplit("/", 1)[-1].rsplit("#", 1)[-1]


def _title_priority(lang: str | None) -> int:
    """Rank of a ``type.object.name`` candidate by its language tag; lower wins."""
    lang = (lang or "").lower()
    if lang == "en":
        return 0
    if lang.startswith("en-"):
        return 1
    return 2 if not lang else 3


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Mask of the first row of each run of equal rows in sorted, equal-length columns."""
    first = np.zeros(len(cols[0]), dtype=bool)
    first[:1] = True
    for c in cols:
        first[1:] |= c[1:] != c[:-1]
    return first


def distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, without ``np.unique``."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def _distinct(*cols: np.ndarray) -> list[np.ndarray]:
    """The distinct rows of equal-length integer columns, in lexicographic order."""
    order = np.lexsort(cols[::-1])
    cols = [c[order] for c in cols]
    first = _run_starts(*cols)
    return [c[first] for c in cols]


@dataclass
class _Triples:
    """Interned triple columns: node triples ``(s, p, o)`` and literal triples
    ``(ls, lk)``, where ``lk`` numbers the literal's distinct ``(value, lang)``."""

    s: np.ndarray
    p: np.ndarray
    o: np.ndarray
    ls: np.ndarray
    lk: np.ndarray

    def restrict(self, keep: np.ndarray) -> "_Triples":
        """The triples whose subject and node object are both in the ``keep`` mask."""
        nodes = keep[self.s] & keep[self.o]
        lits = keep[self.ls]
        return _Triples(self.s[nodes], self.p[nodes], self.o[nodes],
                        self.ls[lits], self.lk[lits])

    def census(self, n: int, name: str, stats: PruneStats) -> np.ndarray:
        """Record the ``PassStats`` row and return the mask of the nodes present."""
        present = np.zeros(n, dtype=bool)
        for col in (self.s, self.o, self.ls):
            present[col] = True
        stats.passes.append(PassStats(name, int(present.sum()), len(self.s), len(self.ls)))
        return present


def _csr(u: np.ndarray, v: np.ndarray, n: int):
    """``indptr``, ``indices`` and ``edge_id`` of the undirected edges (u[e], v[e]) over
    ``n`` nodes; canonical pairs give sorted rows (lower neighbours come from ``u``)."""
    ends = np.concatenate([v, u])
    order = np.argsort(ends, kind="stable")
    indptr = np.searchsorted(ends[order], np.arange(n + 1))
    return indptr, np.concatenate([u, v])[order], order - len(u) * (order >= len(u))


def peel(size: int, pinned, u: np.ndarray, v: np.ndarray, *cols: np.ndarray):
    """Drop every node of degree <= 1 outside ``pinned``, with its edges, until
    none is left, from the undirected edges (u[e], v[e]) over ``size`` nodes;
    return the mask of the nodes left, then ``u``, ``v`` and each of ``cols``
    on the edges left.

    Rounds drop the same set as one-at-a-time: both keep the largest node set
    that holds every pinned node and in which every other node has degree >= 2.
    A round costs O(size + remaining edges); the number of rounds is the depth
    of the deepest pendant tree."""
    free = np.ones(size, dtype=bool)
    free[pinned] = False
    degree = np.bincount(u, minlength=size) + np.bincount(v, minlength=size)
    while True:
        drop = free & (degree <= 1)
        if not drop.any():
            break
        free &= ~drop
        gone = drop[u] | drop[v]
        degree -= np.bincount(u[gone], minlength=size) + np.bincount(v[gone], minlength=size)
        u, v, *cols = (c[~gone] for c in (u, v, *cols))
    free[pinned] = True
    return (free, u, v, *cols)


def _ranks(strings: list[str], ids: Iterable[int]) -> tuple[list[int], np.ndarray]:
    """``ids`` sorted by their strings, and each id's position in that order."""
    order = sorted(ids, key=strings.__getitem__)
    rank = np.zeros(len(strings), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return order, rank


def _intern(triples: Iterable[TripleRecord], cfg: PruneConfig):
    """Read the stream once into ``_Triples`` columns without keeping a record.

    Returns the columns, the mask of English literal triples, the node and
    predicate id tables, and per subject its best ``type.object.name``
    candidate that the English pass keeps, as (priority, input sequence,
    text); lower wins.
    """
    node_ids: dict[str, int] = {}
    pred_ids: dict[str, int] = {}
    lit_ids: dict[tuple[str, str | None], int] = {}
    cols = tuple(array("q") for _ in range(5))
    s, p, o, ls, lk = cols
    english = bytearray()
    names: dict[int, tuple[int, int, str]] = {}
    for seq, t in enumerate(triples):
        subject = node_ids.setdefault(t.subject, len(node_ids))
        if not t.is_literal:
            s.append(subject)
            p.append(pred_ids.setdefault(t.predicate, len(pred_ids)))
            o.append(node_ids.setdefault(t.object, len(node_ids)))
            continue
        ls.append(subject)
        # the value is interned only for the out-degree filter to count
        lk.append(lit_ids.setdefault((t.object, t.lang), len(lit_ids))
                  if cfg.min_out_degree else 0)
        en = _is_english(t.lang)
        english.append(en)
        if cfg.english_only and not en:
            continue
        if _pred_basename(t.predicate) == "type.object.name":
            cand = (_title_priority(t.lang), seq, t.object)
            if subject not in names or cand < names[subject]:
                names[subject] = cand
    ts = _Triples(*(np.frombuffer(c, dtype=np.int64) for c in cols))
    return ts, np.frombuffer(english, dtype=bool), node_ids, pred_ids, names


def _collapse(ts: _Triples, rank: np.ndarray, pred_ids: dict[str, int]):
    """One canonical undirected edge per node pair of the node triples, under
    the node ``rank``, with the sorted union of the pair's predicates: the
    graph's ``predicates``, ``edge_u``, ``edge_v``, ``pred_ptr`` and ``pred_ids``."""
    pred_strings = list(pred_ids)
    pred_order, pred_rank = _ranks(pred_strings, range(len(pred_strings)))
    u, v = rank[ts.s], rank[ts.o]
    links = u != v
    lo, hi, pr = _distinct(np.minimum(u, v)[links], np.maximum(u, v)[links],
                           pred_rank[ts.p][links])
    used = np.bincount(pr, minlength=len(pred_strings)) > 0
    starts = np.flatnonzero(_run_starts(lo, hi))
    return ([pred_strings[pred_order[r]] for r in np.flatnonzero(used).tolist()], lo[starts],
            hi[starts], np.append(starts, len(pr)), (np.cumsum(used) - 1)[pr])


def build_graph(triples: Iterable[TripleRecord], cfg: PruneConfig) -> "KnowledgeGraph":
    """Prune a triple stream and assemble the collapsed undirected graph.

    The stream is read once and no record is kept (``_intern``): subjects
    and objects become node ids and predicates predicate ids, a node triple
    becomes one row of integer columns, a literal triple keeps its subject
    and a number for its ``(value, lang)``, and per subject only the best
    ``type.object.name`` candidate is kept as text.

    Pruning passes run in a fixed order, once each: non-English literal
    removal, stoplist removal, source out-degree filtering, leaf removal.
    Each node pass computes a keep mask over node ids and drops the triples
    with an endpoint outside it in one ``restrict`` step. After every pass
    one ``census`` records its ``PassStats`` row and returns the mask of
    surviving nodes; the last census is the node table.
    Leaf removal iterates until no degree<=1 vertex remains so that every
    surviving node keeps degree >= 2. Literal triples for surviving nodes
    supply titles instead of edges.
    """
    ts, english, node_ids, pred_ids, names = _intern(triples, cfg)
    n = len(node_ids)
    stats = PruneStats()
    nodes = ts.census(n, "input", stats)

    if cfg.english_only:
        ts = _Triples(ts.s, ts.p, ts.o, ts.ls[english], ts.lk[english])
    nodes = ts.census(n, "english", stats)

    if cfg.stoplist:
        keep = nodes.copy()
        keep[[node_ids[x] for x in cfg.stoplist if x in node_ids]] = False
        ts = ts.restrict(keep)
    nodes = ts.census(n, "stoplist", stats)

    if cfg.min_out_degree > 0:
        out_degree = sum(np.bincount(_distinct(subjects, outs)[0], minlength=n)
                         for subjects, outs in ((ts.s, ts.o), (ts.ls, ts.lk)))
        ts = ts.restrict(out_degree >= cfg.min_out_degree)
    nodes = ts.census(n, "out-degree", stats)

    if cfg.drop_leaves:
        links = ts.s != ts.o
        keep, *_ = peel(n, [], *_distinct(np.minimum(ts.s, ts.o)[links],
                                          np.maximum(ts.s, ts.o)[links]))
        ts = ts.restrict(keep)
    nodes = ts.census(n, "leaves", stats)

    # node ranks follow the sorted identifiers, so the collapsed edges come
    # out in canonical order
    strings = list(node_ids)
    kept, rank = _ranks(strings, np.flatnonzero(nodes).tolist())
    ids = tuple(strings[i] for i in kept)
    titles = tuple(names[i][2] if i in names else strings[i] for i in kept)
    # on a full dump most interned nodes are pruned: free them before the
    # graph builds its own tables
    del node_ids, strings, names
    g = KnowledgeGraph.from_columns(ids, titles, *_collapse(ts, rank, pred_ids),
                                    prune_stats=stats)
    stats.collapsed_edges = g.num_edges
    return g


class KnowledgeGraph:
    """Immutable undirected graph with interned nodes and collapsed edges, in arrays.

    ``ids``, ``titles``; ``predicates``, the sorted predicates the edges carry; int64
    edge columns ``0 <= edge_u < edge_v < len(ids)``, pairs strictly increasing,
    edge ``e`` carrying the increasing ids ``pred_ids[pred_ptr[e]:pred_ptr[e + 1]]``
    (at least one); the CSR rows ``indices``/``edge_id`` from ``indptr[x]`` to
    ``indptr[x + 1]``: node ``x``'s sorted neighbours and the edges to them. The
    constructor interns (u, v) pairs and predicate strings into these columns,
    ``from_columns`` takes the columns; both call ``validate``.
    """

    def __init__(self, ids, titles, edge_endpoints, edge_predicates,
                 prune_stats: PruneStats | None = None):
        runs = [tuple(preds) for preds in edge_predicates]
        predicates = sorted({p for run in runs for p in run})
        index = {p: i for i, p in enumerate(predicates)}
        ends = np.array(list(edge_endpoints), dtype=np.int64).reshape(-1, 2)
        self._set(ids, titles, predicates, ends[:, 0], ends[:, 1],
                  np.cumsum([0, *map(len, runs)], dtype=np.int64),
                  np.array([index[p] for run in runs for p in run], dtype=np.int64),
                  prune_stats)

    @classmethod
    def from_columns(cls, ids, titles, predicates, edge_u, edge_v, pred_ptr, pred_ids,
                     prune_stats: PruneStats | None = None) -> "KnowledgeGraph":
        g = cls.__new__(cls)
        g._set(ids, titles, predicates, edge_u, edge_v, pred_ptr, pred_ids, prune_stats)
        return g

    def _set(self, ids, titles, predicates, edge_u, edge_v, pred_ptr, pred_ids, prune_stats):
        self.ids, self.titles, self.predicates = tuple(ids), tuple(titles), tuple(predicates)
        self.edge_u, self.edge_v, self.pred_ptr, self.pred_ids = edge_u, edge_v, pred_ptr, pred_ids
        self.prune_stats = prune_stats
        self._index = {ident: i for i, ident in enumerate(self.ids)}
        self.validate()
        self.indptr, self.indices, self.edge_id = _csr(edge_u, edge_v, len(self.ids))
        self.degrees = tuple(np.diff(self.indptr).tolist())

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_u)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return ((self.ids, self.titles, self.predicates)
                == (other.ids, other.titles, other.predicates)
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in ("edge_u", "edge_v", "pred_ptr", "pred_ids")))

    __hash__ = None

    @cached_property
    def edge_endpoints(self) -> tuple[tuple[int, int], ...]:
        """(u, v) per edge, built on first use; the pipeline reads the columns."""
        return tuple(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    @cached_property
    def edge_predicates(self) -> tuple[tuple[str, ...], ...]:
        """Predicate strings per edge, built on first use."""
        names = [self.predicates[p] for p in self.pred_ids.tolist()]
        bounds = self.pred_ptr.tolist()
        return tuple(tuple(names[a:b]) for a, b in zip(bounds, bounds[1:]))

    def has_node(self, ident: str) -> bool:
        return ident in self._index

    def node_index(self, ident: str) -> int:
        try:
            return self._index[ident]
        except KeyError:
            raise UnknownNodeError(f"unknown node identifier {ident!r}") from None

    def resolve(self, node: int | str) -> int:
        """Index of a node given by identifier or index, or UnknownNodeError."""
        if isinstance(node, str):
            return self.node_index(node)
        if not 0 <= node < len(self.ids):
            raise UnknownNodeError(f"node index {node} out of range")
        return node

    def title(self, node: int | str) -> str:
        return self.titles[self.resolve(node)]

    def neighbors(self, node: int | str) -> tuple[tuple[int, int], ...]:
        """Sorted (neighbor, edge index) pairs for ``node``."""
        node = self.resolve(node)
        a, b = self.indptr[node], self.indptr[node + 1]
        return tuple(zip(self.indices[a:b].tolist(), self.edge_id[a:b].tolist()))

    def closed_neighborhood(self, node: int | str) -> frozenset[int]:
        """The node itself plus all adjacent nodes, as internal indices."""
        node = self.resolve(node)
        return frozenset((node, *self.indices[self.indptr[node]:self.indptr[node + 1]].tolist()))

    def edge_between(self, u: int, v: int) -> int | None:
        """Edge index joining u and v, or None if not adjacent."""
        u, v = self.resolve(u), self.resolve(v)
        a, b = self.indptr[u], self.indptr[u + 1]
        i = a + np.searchsorted(self.indices[a:b], v)
        return int(self.edge_id[i]) if i < b and self.indices[i] == v else None

    @cached_property
    def _title_lookup(self) -> dict[str, int]:
        lookup: dict[str, int] = {}
        for i, title in enumerate(self.titles):
            lookup.setdefault(title.lower(), i)
        return lookup

    def title_to_node(self, text: str) -> int | None:
        """Lowest-index node whose title equals ``text`` case-insensitively."""
        return self._title_lookup.get(text.lower())

    def validate(self) -> None:
        """Check every rule of the class docstring; ValueError on the first broken."""
        n, k = len(self.ids), len(self.predicates)
        u, v, ptr, pred = self.edge_u, self.edge_v, self.pred_ptr, self.pred_ids
        if len(self.titles) != n:
            raise ValueError("title table size does not match node table")
        if len(self._index) != n:
            raise ValueError("node identifiers are not unique")
        if not (len(v) == len(u) == len(ptr) - 1 and ptr[0] == 0 and ptr[-1] == len(pred)):
            raise ValueError("predicate table size does not match edge table")
        bad = (u < 0) | (u >= v) | (v >= n)
        bad[1:] |= (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))
        if bad.any():
            e = bad.argmax()
            raise ValueError(f"edge {e} ({u[e]}, {v[e]}) breaks canonical order "
                             f"(0 <= u < v < {n}, pairs increasing)")
        empty = ptr[1:] <= ptr[:-1]
        if empty.any():
            raise ValueError(f"edge {empty.argmax()} has an empty predicate list")
        if len(pred) and not 0 <= pred.min() <= pred.max() < k:
            raise ValueError("predicate index out of range")
        rising = np.diff(pred) > 0
        rising[ptr[1:-1] - 1] = True  # a run may start below the previous one
        if not rising.all():
            e = np.searchsorted(ptr, rising.argmin(), side="right") - 1
            raise ValueError(f"predicate list of edge {e} not sorted/unique")
        if any(a >= b for a, b in zip(self.predicates, self.predicates[1:])):
            raise ValueError("predicate table not sorted/unique")
        if np.count_nonzero(np.bincount(pred, minlength=k)) < k:
            raise ValueError("predicate table holds a predicate no edge carries")


# Snapshot layout, version 1; every integer is little-endian and unsigned.
#   header  _HEADER: magic, version, node count, edge count, predicate count
#   strings the node ids, then the node titles, then the sorted predicate
#           table; each is a _U32 byte length followed by its UTF-8 bytes
#   edges   in canonical (u, v) order, each an _EDGE record (u, v, predicate
#           count) followed by one _U32 predicate-table index per predicate
# The file ends after the last edge.
_MAGIC = b"SEDKGRPH"
_VERSION = 1
_HEADER = struct.Struct("<8sIIII")
_U32 = struct.Struct("<I")
_EDGE = struct.Struct("<IIH")


def save_snapshot(g: KnowledgeGraph, path) -> None:
    """Serialize the graph; identical structures produce identical bytes."""
    ptr = g.pred_ptr.tolist()
    preds = g.pred_ids.astype("<u4").tobytes()
    with open(path, "wb") as out:
        out.write(_HEADER.pack(_MAGIC, _VERSION, len(g.ids), g.num_edges, len(g.predicates)))
        for s in (*g.ids, *g.titles, *g.predicates):
            raw = s.encode("utf-8")
            out.write(_U32.pack(len(raw)))
            out.write(raw)
        for u, v, a, b in zip(g.edge_u.tolist(), g.edge_v.tolist(), ptr, ptr[1:]):
            out.write(_EDGE.pack(u, v, b - a))
            out.write(preds[_U32.size * a:_U32.size * b])


def load_snapshot(path) -> KnowledgeGraph:
    """Load a snapshot written by save_snapshot; raise SnapshotError if corrupt."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:len(_MAGIC)]
    if magic != _MAGIC:
        raise SnapshotError(f"not a graph snapshot (magic {magic!r})")
    try:
        _, version, n_nodes, n_edges, n_preds = _HEADER.unpack_from(buf)
        if version != _VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        pos = _HEADER.size
        strings = []
        for _ in range(2 * n_nodes + n_preds):
            (size,) = _U32.unpack_from(buf, pos)
            pos += _U32.size + size
            if pos > len(buf):
                raise SnapshotError("truncated snapshot file")
            strings.append(buf[pos - size:pos].decode("utf-8"))
        edge_u, edge_v, pred_ptr, preds = array("q"), array("q"), array("q", [0]), bytearray()
        for _ in range(n_edges):
            u, v, k = _EDGE.unpack_from(buf, pos)
            edge_u.append(u)
            edge_v.append(v)
            pred_ptr.append(pred_ptr[-1] + k)
            pos += _EDGE.size + _U32.size * k
            preds += buf[pos - _U32.size * k:pos]
    except struct.error:
        raise SnapshotError("truncated snapshot file") from None
    except UnicodeDecodeError:
        raise SnapshotError("snapshot string is not valid UTF-8") from None
    if pos != len(buf):
        raise SnapshotError("truncated snapshot file" if pos > len(buf)
                            else "trailing bytes after snapshot payload")
    try:
        return KnowledgeGraph.from_columns(
            strings[:n_nodes], strings[n_nodes:2 * n_nodes], strings[2 * n_nodes:],
            *(np.frombuffer(c, dtype=np.int64) for c in (edge_u, edge_v, pred_ptr)),
            np.frombuffer(preds, dtype="<u4").astype(np.int64))
    except ValueError as exc:
        raise SnapshotError(f"inconsistent snapshot: {exc}") from None
