"""Knowledge graph store: N-Triples parsing, pruning, and binary snapshots.

The graph is built from a directed RDF triple stream and exposed as an
undirected structure: parallel connections between a node pair are collapsed
into one edge carrying the union of their predicate labels.
"""

from __future__ import annotations

import gzip
import re
import struct
from collections import defaultdict
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator

from .errors import SnapshotError, UnknownNodeError

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


def _restrict(ts: list[TripleRecord], keep) -> list[TripleRecord]:
    """The triples whose subject and node object are both in ``keep``."""
    return [t for t in ts if t.subject in keep and (t.is_literal or t.object in keep)]


def _census(ts: list[TripleRecord], name: str, stats: PruneStats) -> set[str]:
    """Record the ``PassStats`` row for ``ts`` and return its node set."""
    nodes = set()
    node_triples = 0
    for t in ts:
        nodes.add(t.subject)
        if not t.is_literal:
            nodes.add(t.object)
            node_triples += 1
    stats.passes.append(PassStats(name, len(nodes), node_triples, len(ts) - node_triples))
    return nodes


def build_graph(triples: Iterable[TripleRecord], cfg: PruneConfig) -> "KnowledgeGraph":
    """Prune a triple stream and assemble the collapsed undirected graph.

    Pruning passes run in a fixed order, once each: non-English literal
    removal, stoplist removal, source out-degree filtering, leaf removal.
    Each node pass computes a keep-set and drops the triples with an
    endpoint outside it in one ``_restrict`` step. After every pass one
    ``_census`` records its ``PassStats`` row and returns the surviving
    nodes; the last census is the node table.
    Leaf removal iterates until no degree<=1 vertex remains so that every
    surviving node keeps degree >= 2. Literal triples for surviving nodes
    supply titles instead of edges.
    """
    ts = list(triples)
    stats = PruneStats()
    nodes = _census(ts, "input", stats)

    if cfg.english_only:
        ts = [t for t in ts if not t.is_literal or _is_english(t.lang)]
    nodes = _census(ts, "english", stats)

    if cfg.stoplist:
        ts = _restrict(ts, nodes - cfg.stoplist)
    nodes = _census(ts, "stoplist", stats)

    if cfg.min_out_degree > 0:
        out_nbrs: dict[str, set] = defaultdict(set)
        for t in ts:
            out_nbrs[t.subject].add((t.object, t.lang) if t.is_literal else t.object)
        ts = _restrict(ts, {n for n, outs in out_nbrs.items()
                            if len(outs) >= cfg.min_out_degree})
    nodes = _census(ts, "out-degree", stats)

    if cfg.drop_leaves:
        nbrs: dict[str, set] = defaultdict(set)
        for t in ts:
            if not t.is_literal and t.subject != t.object:
                nbrs[t.subject].add(t.object)
                nbrs[t.object].add(t.subject)
        # iterate to the 2-core so the degree >= 2 invariant holds
        queue = [n for n, ns in nbrs.items() if len(ns) <= 1]
        removed = set(queue)
        while queue:
            n = queue.pop()
            for other in nbrs[n]:
                if other in removed:
                    continue
                nbrs[other].discard(n)
                if len(nbrs[other]) <= 1:
                    removed.add(other)
                    queue.append(other)
        ts = _restrict(ts, nbrs.keys() - removed)
    nodes = _census(ts, "leaves", stats)

    ids = tuple(sorted(nodes))
    index = {ident: i for i, ident in enumerate(ids)}

    edge_map: dict[tuple[int, int], set[str]] = {}
    # title candidates ranked (priority, input sequence); lower wins
    title_cand: dict[int, tuple[int, int, str]] = {}
    for seq, t in enumerate(ts):
        if t.is_literal:
            if _pred_basename(t.predicate) != "type.object.name":
                continue
            lang = (t.lang or "").lower()
            if lang == "en":
                prio = 0
            elif lang.startswith("en-"):
                prio = 1
            elif not lang:
                prio = 2
            else:
                prio = 3
            n = index[t.subject]
            cand = (prio, seq, t.object)
            if n not in title_cand or cand < title_cand[n]:
                title_cand[n] = cand
        else:
            u, v = index[t.subject], index[t.object]
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            edge_map.setdefault(key, set()).add(t.predicate)

    titles = tuple(
        title_cand[i][2] if i in title_cand else ids[i] for i in range(len(ids))
    )
    endpoints = tuple(sorted(edge_map))
    predicates = tuple(tuple(sorted(edge_map[k])) for k in endpoints)
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
