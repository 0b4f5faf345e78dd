"""Knowledge graph store: N-Triples parsing, pruning, and binary snapshots.

The graph is built from a directed RDF triple stream and exposed as an
undirected structure: parallel connections between a node pair are collapsed
into one edge carrying the union of their predicate labels.
"""

from __future__ import annotations

import gzip
import re
import struct
import zlib
from array import array
from dataclasses import dataclass, field
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


def _distinct(*cols: np.ndarray) -> list[np.ndarray]:
    """The distinct rows of equal-length integer columns, in lexicographic order."""
    if not len(cols[0]):
        return list(cols)
    order = np.lexsort(cols[::-1])
    cols = [c[order] for c in cols]
    first = np.zeros(len(order), dtype=bool)
    first[0] = True
    for c in cols:
        first[1:] |= c[1:] != c[:-1]
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


def _two_core(ts: _Triples, n: int) -> np.ndarray:
    """Mask of the nodes left once vertices of degree <= 1 in the simple
    undirected graph of the node triples are removed until none remains."""
    links = ts.s != ts.o
    a, b = _distinct(np.minimum(ts.s, ts.o)[links], np.maximum(ts.s, ts.o)[links])
    ends, others = np.concatenate([a, b]), np.concatenate([b, a])
    degree = np.bincount(ends, minlength=n)
    start = np.concatenate([[0], np.cumsum(degree)]).tolist()
    nbrs = others[np.argsort(ends, kind="stable")].tolist()
    left = degree.tolist()
    removed = (degree <= 1).tolist()
    queue = np.flatnonzero(degree == 1).tolist()
    while queue:
        v = queue.pop()
        for w in nbrs[start[v]:start[v + 1]]:
            if removed[w]:
                continue
            left[w] -= 1
            if left[w] <= 1:
                removed[w] = True
                queue.append(w)
    return ~np.array(removed, dtype=bool)


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
    the node ``rank``, with the sorted union of the pair's predicates."""
    pred_strings = list(pred_ids)
    pred_order, pred_rank = _ranks(pred_strings, range(len(pred_strings)))
    u, v = rank[ts.s], rank[ts.o]
    links = u != v
    lo, hi, pr = _distinct(np.minimum(u, v)[links], np.maximum(u, v)[links],
                           pred_rank[ts.p][links])
    new_pair = np.ones(len(lo), dtype=bool)
    new_pair[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    starts = np.flatnonzero(new_pair)
    endpoints = tuple(zip(lo[starts].tolist(), hi[starts].tolist()))
    labels = [pred_strings[pred_order[r]] for r in pr.tolist()]
    bounds = [*starts.tolist(), len(labels)]
    return endpoints, tuple(tuple(labels[a:b]) for a, b in zip(bounds, bounds[1:]))


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
        ts = ts.restrict(_two_core(ts, n))
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
    endpoints, predicates = _collapse(ts, rank, pred_ids)
    stats.collapsed_edges = len(endpoints)
    return KnowledgeGraph(ids, titles, endpoints, predicates, prune_stats=stats)


class KnowledgeGraph:
    """Immutable undirected graph with interned nodes and collapsed edges.

    Edges must come in canonical order: each node pair ``(u, v)`` has
    ``0 <= u < v < len(ids)`` and the pairs strictly increase, so none
    repeats and adjacency rows fill in sorted order. Any other order raises
    ``ValueError``.
    """

    __slots__ = (
        "ids", "titles", "edge_endpoints", "edge_predicates",
        "degrees", "prune_stats", "_index", "_adjacency", "_title_lookup",
    )

    def __init__(self, ids, titles, edge_endpoints, edge_predicates,
                 prune_stats: PruneStats | None = None):
        ids = tuple(ids)
        titles = tuple(titles)
        edge_endpoints = tuple(tuple(e) for e in edge_endpoints)
        edge_predicates = tuple(tuple(p) for p in edge_predicates)
        if len(titles) != len(ids):
            raise ValueError("title table size does not match node table")
        if len(edge_predicates) != len(edge_endpoints):
            raise ValueError("predicate table size does not match edge table")
        n = len(ids)
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        previous = (-1, -1)
        for e, pair in enumerate(edge_endpoints):
            u, v = pair
            if not (0 <= u < v < n and pair > previous):
                raise ValueError(f"edge {e} {pair} breaks canonical order "
                                 f"(0 <= u < v < {n}, after {previous})")
            if not edge_predicates[e]:
                raise ValueError(f"edge {e} has an empty predicate list")
            previous = pair
            adjacency[u].append((v, e))
            adjacency[v].append((u, e))
        self.ids = ids
        self.titles = titles
        self.edge_endpoints = edge_endpoints
        self.edge_predicates = edge_predicates
        self._index = {ident: i for i, ident in enumerate(ids)}
        if len(self._index) != n:
            raise ValueError("node identifiers are not unique")
        self._adjacency = tuple(map(tuple, adjacency))
        self.degrees = tuple(map(len, adjacency))
        self.prune_stats = prune_stats
        self._title_lookup = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_endpoints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.titles == other.titles
            and self.edge_endpoints == other.edge_endpoints
            and self.edge_predicates == other.edge_predicates
        )

    __hash__ = None

    def has_node(self, ident: str) -> bool:
        return ident in self._index

    def node_index(self, ident: str) -> int:
        try:
            return self._index[ident]
        except KeyError:
            raise UnknownNodeError(f"unknown node identifier {ident!r}") from None

    def title(self, node: int) -> str:
        return self.titles[node]

    def neighbors(self, node: int) -> tuple[tuple[int, int], ...]:
        """Sorted (neighbor, edge index) pairs for ``node``."""
        return self._adjacency[node]

    def closed_neighborhood(self, node: int | str) -> frozenset[int]:
        """The node itself plus all adjacent nodes, as internal indices."""
        if isinstance(node, str):
            node = self.node_index(node)
        elif not 0 <= node < len(self.ids):
            raise UnknownNodeError(f"node index {node} out of range")
        return frozenset((node, *(v for v, _ in self._adjacency[node])))

    def edge_between(self, u: int, v: int) -> int | None:
        """Edge index joining u and v, or None if not adjacent."""
        row = self._adjacency[u]
        lo, hi = 0, len(row)
        while lo < hi:
            mid = (lo + hi) // 2
            if row[mid][0] < v:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(row) and row[lo][0] == v:
            return row[lo][1]
        return None

    def title_to_node(self, text: str) -> int | None:
        """Lowest-index node whose title equals ``text`` case-insensitively."""
        if self._title_lookup is None:
            lookup: dict[str, int] = {}
            for i, title in enumerate(self.titles):
                lookup.setdefault(title.lower(), i)
            self._title_lookup = lookup
        return self._title_lookup.get(text.lower())

    def validate(self) -> None:
        """Full invariant scan; raises ValueError on any violation."""
        for e, (u, v) in enumerate(self.edge_endpoints):
            if u == v:
                raise ValueError(f"self-loop at edge {e}")
            if (u, e) not in self._adjacency[v] or (v, e) not in self._adjacency[u]:
                raise ValueError(f"asymmetric adjacency at edge {e}")
            preds = self.edge_predicates[e]
            if len(set(preds)) != len(preds) or tuple(sorted(preds)) != preds:
                raise ValueError(f"predicate list of edge {e} not sorted/unique")
        for i, row in enumerate(self._adjacency):
            if list(row) != sorted(row):
                raise ValueError(f"adjacency row {i} not sorted")
            if self.degrees[i] != len(row):
                raise ValueError(f"stale degree cache at node {i}")


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
    pred_table = sorted({p for preds in g.edge_predicates for p in preds})
    pred_index = {p: i for i, p in enumerate(pred_table)}
    with open(path, "wb") as out:
        out.write(_HEADER.pack(_MAGIC, _VERSION, len(g.ids), g.num_edges, len(pred_table)))
        for s in (*g.ids, *g.titles, *pred_table):
            raw = s.encode("utf-8")
            out.write(_U32.pack(len(raw)))
            out.write(raw)
        for (u, v), preds in zip(g.edge_endpoints, g.edge_predicates):
            out.write(_EDGE.pack(u, v, len(preds)))
            for p in preds:
                out.write(_U32.pack(pred_index[p]))


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
        pred_table = strings[2 * n_nodes:]
        endpoints, predicates = [], []
        for _ in range(n_edges):
            u, v, k = _EDGE.unpack_from(buf, pos)
            pos += _EDGE.size
            preds = []
            for _ in range(k):
                preds.append(pred_table[_U32.unpack_from(buf, pos)[0]])
                pos += _U32.size
            endpoints.append((u, v))
            predicates.append(tuple(preds))
    except struct.error:
        raise SnapshotError("truncated snapshot file") from None
    except IndexError:
        raise SnapshotError("predicate index out of range") from None
    except UnicodeDecodeError:
        raise SnapshotError("snapshot string is not valid UTF-8") from None
    if pos != len(buf):
        raise SnapshotError("trailing bytes after snapshot payload")
    try:
        return KnowledgeGraph(strings[:n_nodes], strings[n_nodes:2 * n_nodes],
                              endpoints, predicates)
    except ValueError as exc:
        raise SnapshotError(f"inconsistent snapshot: {exc}") from None
