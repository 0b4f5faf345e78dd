"""Per-article subgraphs: bounded breadth-first expansion and pairwise unions.

``expand_many`` grows every article of a pass at once, in arrays over the
graph's CSR rows. It takes and returns ragged arrays: one flat array of
every article's seeds with per-article bounds in, and the sorted
article-keyed member keys ``article * n + node`` and edge keys ``article * E
+ edge`` with their per-article bounds out. The frontier gathers its rows
with ``np.repeat``, and each hop keeps the sorted distinct keys
(``kg.distinct``) not seen before. Pass one gathers each pair's union from
these arrays with ``ranges``, never per article in Python. ``expand`` is the
one-article call and returns a ``SubGraph``, the frozenset form the oracles,
perfbench and the single-pair scoring calls read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kg import KnowledgeGraph, distinct


@dataclass(frozen=True)
class ExpansionConfig:
    """Breadth-first expansion radius around an article's entities (1 or 2 hops)."""

    radius: int = 1

    def __post_init__(self):
        if self.radius not in (1, 2):
            raise ValueError(f"expansion radius must be 1 or 2, got {self.radius}")


@dataclass(frozen=True, eq=False)
class SubGraph:
    """Node/edge subset of a parent graph reachable from an article's entities.

    ``seeds`` are the entity nodes found in the parent graph. Edge values
    index into the parent graph's edge tables.
    """

    parent: KnowledgeGraph
    seeds: frozenset[int]
    members: frozenset[int]
    edges: frozenset[int]

    def __eq__(self, other):
        if not isinstance(other, SubGraph):
            return NotImplemented
        return (
            self.parent is other.parent
            and self.seeds == other.seeds
            and self.members == other.members
            and self.edges == other.edges
        )

    __hash__ = None

    @property
    def num_members(self) -> int:
        return len(self.members)

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """(neighbour, edge) rows of every member over this subgraph's edges;
        read in edge (canonical) order, each row comes out sorted."""
        edge_u, edge_v = memoryview(self.parent.edge_u), memoryview(self.parent.edge_v)
        adj: dict[int, list[tuple[int, int]]] = {m: [] for m in self.members}
        for e in sorted(self.edges):
            u, v = edge_u[e], edge_v[e]
            adj[u].append((v, e))
            adj[v].append((u, e))
        return adj


def contains(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` present in the sorted array ``table``."""
    if not len(table):
        return np.zeros(len(keys), dtype=bool)
    return table[np.minimum(np.searchsorted(table, keys), len(table) - 1)] == keys


def offsets(sizes: np.ndarray, width: int) -> np.ndarray:
    """``i * width`` repeated ``sizes[i]`` times: the key offset of each
    element of ``len(sizes)`` concatenated lists."""
    return np.repeat(np.arange(len(sizes), dtype=np.int64) * width, sizes)


def ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``start[i], start[i] + 1, ..., start[i] + count[i] - 1`` for every ``i``,
    concatenated."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def expand_many(g: KnowledgeGraph, nodes: np.ndarray, bounds: np.ndarray,
                radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ragged member and edge arrays of each article's ``radius``-hop subgraph.

    Article ``i``'s seeds are ``nodes[bounds[i]:bounds[i + 1]]``, valid node
    indices. One pass expands them all, on keys ``article * len(g) + node``
    for members and ``article * max(g.num_edges, 1) + edge`` for edges. The
    rows gathered are the rows of the nodes strictly inside the radius, and
    every edge on them is kept, as ``expand`` defines: the neighbour at its
    other end lies within the radius, so it is a member already and needs no
    lookup. Returns the sorted member keys, their per-article bounds (article
    ``i``'s keys run from ``member_bounds[i]`` to ``member_bounds[i + 1]``),
    the sorted edge keys and their bounds.
    """
    n, m = len(g), max(g.num_edges, 1)
    frontier = distinct(offsets(np.diff(bounds), n) + nodes)
    seen, rows = frontier, []
    for _ in range(radius):
        node, article = frontier % n, frontier // n
        start = g.indptr[node]
        count = g.indptr[node + 1] - start
        at = ranges(start, count)
        near = np.repeat(article * n, count) + g.indices[at]
        rows.append(np.repeat(article * m, count) + g.edge_id[at])
        frontier = distinct(near)
        frontier = frontier[~contains(seen, frontier)]
        seen = np.sort(np.concatenate([seen, frontier]))
    edges = distinct(np.concatenate(rows))
    split = np.arange(len(bounds), dtype=np.int64)
    return seen, np.searchsorted(seen, split * n), edges, np.searchsorted(edges, split * m)


def expand(g: KnowledgeGraph, seeds: Iterable[str | int],
           cfg: ExpansionConfig = ExpansionConfig()) -> SubGraph:
    """Grow a subgraph out to ``cfg.radius`` hops from every resolvable seed.

    Members are all nodes within the radius of some seed; an edge is included
    exactly when it extends a path of length <= radius from a seed, i.e. when
    its closer endpoint lies strictly inside the radius. Seed identifiers
    missing from the parent graph are dropped; a node index outside it raises
    ``UnknownNodeError``.
    """
    present: set[int] = set()
    for s in seeds:
        if not isinstance(s, str) or g.has_node(s):
            present.add(g.resolve(s))
    # one article, so its keys are the node and edge indices themselves
    members, _, edges, _ = expand_many(g, np.fromiter(present, np.int64, len(present)),
                                       np.array([0, len(present)]), cfg.radius)
    return SubGraph(
        parent=g,
        seeds=frozenset(present),
        members=frozenset(members.tolist()),
        edges=frozenset(edges.tolist()),
    )


def union(s1: SubGraph, s2: SubGraph) -> SubGraph:
    """Set union of two subgraphs built over the same parent graph."""
    if s1.parent is not s2.parent:
        raise ValueError("cannot union subgraphs of different parent graphs")
    return SubGraph(
        parent=s1.parent,
        seeds=s1.seeds | s2.seeds,
        members=s1.members | s2.members,
        edges=s1.edges | s2.edges,
    )
