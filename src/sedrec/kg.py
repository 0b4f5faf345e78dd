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
    """Immutable undirected graph with interned nodes and collapsed edges."""

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
        seen = set()
        for e, (u, v) in enumerate(edge_endpoints):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e} references unknown node")
            if u >= v:
                raise ValueError(f"edge {e} endpoints not normalized (u < v)")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge for node pair {(u, v)}")
            if not edge_predicates[e]:
                raise ValueError(f"edge {e} has an empty predicate list")
            seen.add((u, v))
            adjacency[u].append((v, e))
            adjacency[v].append((u, e))
        self.ids = ids
        self.titles = titles
        self.edge_endpoints = edge_endpoints
        self.edge_predicates = edge_predicates
        self._index = {ident: i for i, ident in enumerate(ids)}
        if len(self._index) != n:
            raise ValueError("node identifiers are not unique")
        self._adjacency = tuple(tuple(sorted(row)) for row in adjacency)
        self.degrees = tuple(len(row) for row in self._adjacency)
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


_MAGIC = b"SEDKGRPH"
_VERSION = 1


def _write_str(out: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    out.write(struct.pack("<I", len(raw)))
    out.write(raw)


class _Reader:
    def __init__(self, fh: BinaryIO):
        self.fh = fh

    def exact(self, n: int) -> bytes:
        data = self.fh.read(n)
        if len(data) != n:
            raise SnapshotError("truncated snapshot file")
        return data

    def u16(self) -> int:
        return struct.unpack("<H", self.exact(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.exact(4))[0]

    def string(self) -> str:
        return self.exact(self.u32()).decode("utf-8")


def save_snapshot(g: KnowledgeGraph, path) -> None:
    """Serialize the graph; identical structures produce identical bytes."""
    pred_table = sorted({p for preds in g.edge_predicates for p in preds})
    pred_index = {p: i for i, p in enumerate(pred_table)}
    with open(path, "wb") as out:
        out.write(_MAGIC)
        out.write(struct.pack("<I", _VERSION))
        out.write(struct.pack("<III", len(g.ids), g.num_edges, len(pred_table)))
        for ident in g.ids:
            _write_str(out, ident)
        for title in g.titles:
            _write_str(out, title)
        for p in pred_table:
            _write_str(out, p)
        for e, (u, v) in enumerate(g.edge_endpoints):
            preds = g.edge_predicates[e]
            out.write(struct.pack("<IIH", u, v, len(preds)))
            for p in preds:
                out.write(struct.pack("<I", pred_index[p]))


def load_snapshot(path) -> KnowledgeGraph:
    """Load a snapshot written by save_snapshot."""
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.exact(len(_MAGIC))
        if magic != _MAGIC:
            raise SnapshotError(f"not a graph snapshot (magic {magic!r})")
        version = r.u32()
        if version != _VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        n_nodes = r.u32()
        n_edges = r.u32()
        n_preds = r.u32()
        ids = tuple(r.string() for _ in range(n_nodes))
        titles = tuple(r.string() for _ in range(n_nodes))
        pred_table = [r.string() for _ in range(n_preds)]
        endpoints = []
        predicates = []
        for _ in range(n_edges):
            u, v, k = r.u32(), r.u32(), r.u16()
            idxs = [r.u32() for _ in range(k)]
            try:
                preds = tuple(pred_table[i] for i in idxs)
            except IndexError:
                raise SnapshotError("predicate index out of range") from None
            endpoints.append((u, v))
            predicates.append(preds)
        if fh.read(1):
            raise SnapshotError("trailing bytes after snapshot payload")
    try:
        return KnowledgeGraph(ids, titles, tuple(endpoints), tuple(predicates))
    except ValueError as exc:
        raise SnapshotError(f"inconsistent snapshot: {exc}") from None
