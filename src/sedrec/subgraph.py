"""Per-article subgraphs: bounded breadth-first expansion and pairwise unions.

``expand_many`` grows every article of a pass at once, in arrays over the
graph's CSR rows: the article-keyed frontier ``article * n + node`` gathers
its rows with ``np.repeat``, and each hop keeps the sorted distinct keys
(``kg.distinct``) not seen before. ``expand`` is its one-article call and
returns a ``SubGraph``, the frozenset form the oracles, perfbench and the
single-pair scoring calls read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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

    ``seeds`` are the entity nodes found in the parent graph; identifiers that
    did not resolve are kept in ``missing_seeds`` for diagnostics. Edge values
    index into the parent graph's edge tables.
    """

    parent: KnowledgeGraph
    seeds: frozenset[int]
    members: frozenset[int]
    edges: frozenset[int]
    missing_seeds: frozenset[str] = frozenset()

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


def offsets(sizes: Sequence[int], width: int) -> np.ndarray:
    """``i * width`` repeated ``sizes[i]`` times: the key offset of each
    element of ``len(sizes)`` concatenated lists."""
    return np.repeat(np.arange(len(sizes), dtype=np.int64) * width, sizes)


def expand_many(g: KnowledgeGraph, seeds: Sequence[Sequence[int]],
                radius: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Sorted member and edge arrays of each seed list's ``radius``-hop subgraph.

    The seed lists hold valid node indices. One pass expands them all: keys
    ``article * len(g) + node`` for members and ``article * num_edges + edge``
    for edges. The rows gathered at the hops before the last are the rows of
    the nodes strictly inside the radius, and an edge is kept when such a row
    leads to a member, as ``expand`` defines.
    """
    n, m = len(g), max(g.num_edges, 1)
    frontier = distinct(offsets([len(s) for s in seeds], n)
                        + np.fromiter((x for s in seeds for x in s), np.int64))
    seen, rows = frontier, []
    for _ in range(radius):
        node, article = frontier % n, frontier // n
        start = g.indptr[node]
        count = g.indptr[node + 1] - start
        at = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
        near = np.repeat(article * n, count) + g.indices[at]
        rows.append((near, np.repeat(article * m, count) + g.edge_id[at]))
        frontier = distinct(near)
        frontier = frontier[~contains(seen, frontier)]
        seen = np.sort(np.concatenate([seen, frontier]))
    edges = distinct(np.concatenate([e[contains(seen, v)] for v, e in rows]))
    split = np.arange(len(seeds) + 1)
    bound_m, bound_e = np.searchsorted(seen, split * n), np.searchsorted(edges, split * m)
    return ([seen[a:b] - i * n for i, (a, b) in enumerate(zip(bound_m, bound_m[1:]))],
            [edges[a:b] - i * m for i, (a, b) in enumerate(zip(bound_e, bound_e[1:]))])


def expand(g: KnowledgeGraph, seeds: Iterable[str | int],
           cfg: ExpansionConfig = ExpansionConfig()) -> SubGraph:
    """Grow a subgraph out to ``cfg.radius`` hops from every resolvable seed.

    Members are all nodes within the radius of some seed; an edge is included
    exactly when it extends a path of length <= radius from a seed, i.e. when
    its closer endpoint lies strictly inside the radius. Seeds missing from
    the parent graph are dropped and reported via ``missing_seeds``; a node
    index outside it raises ``UnknownNodeError``.
    """
    present: set[int] = set()
    missing: set[str] = set()
    for s in seeds:
        if isinstance(s, str) and not g.has_node(s):
            missing.add(s)
        else:
            present.add(g.resolve(s))
    (members,), (edges,) = expand_many(g, [list(present)], cfg.radius)
    return SubGraph(
        parent=g,
        seeds=frozenset(present),
        members=frozenset(members.tolist()),
        edges=frozenset(edges.tolist()),
        missing_seeds=frozenset(missing),
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
        missing_seeds=s1.missing_seeds | s2.missing_seeds,
    )
