"""Per-article subgraphs: bounded breadth-first expansion and pairwise unions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .kg import KnowledgeGraph


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

    # the CSR rows read through memoryviews give Python ints, not numpy scalars
    ptr, nbrs, edge_id = memoryview(g.indptr), memoryview(g.indices), memoryview(g.edge_id)
    depth: dict[int, int] = {s: 0 for s in present}
    frontier = list(present)
    d = 0
    while frontier and d < cfg.radius:
        nxt = []
        for u in frontier:
            for v in nbrs[ptr[u]:ptr[u + 1]]:
                if v not in depth:
                    depth[v] = d + 1
                    nxt.append(v)
        frontier = nxt
        d += 1

    edges: set[int] = set()
    interior = cfg.radius - 1
    for u, du in depth.items():
        if du <= interior:
            a, b = ptr[u], ptr[u + 1]
            for v, e in zip(nbrs[a:b], edge_id[a:b]):
                if v in depth:
                    edges.add(e)
    return SubGraph(
        parent=g,
        seeds=frozenset(present),
        members=frozenset(depth),
        edges=frozenset(edges),
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

