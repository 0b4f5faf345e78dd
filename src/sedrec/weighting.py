"""Edge traversal costs: neighborhood-overlap weighting and frequency schemes.

All schemes map onto [0, 1] costs where better-connected or more informative
edges are cheaper. The overlap scheme is direction-of-traversal dependent;
the frequency schemes (attribute frequency and friends) are symmetric and
computed from whole-graph predicate statistics.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .kg import KnowledgeGraph, distinct


class WeightingScheme(Enum):
    UNWEIGHTED = "unweighted"
    RWS = "rws"
    AF = "af"
    IAF = "iaf"
    AF_IAF = "af-iaf"
    JOINT_IC = "jointic"


def rws_cost(g: KnowledgeGraph, source: int, target: int) -> float:
    """Overlap cost for traversing the edge source->target.

    One minus the conditional neighborhood-overlap probability of the target
    given the source, over closed first-order neighborhoods (each node counts
    itself). Always in [0, 1): adjacent nodes share at least both endpoints.
    """
    if g.edge_between(source, target) is None:
        raise ValueError(
            f"nodes {source} and {target} are not adjacent; "
            "edge costs are defined on edges only"
        )
    ns = g.closed_neighborhood(source)
    return 1.0 - len(ns & g.closed_neighborhood(target)) / len(ns)


def _incidence(g: KnowledgeGraph) -> np.ndarray:
    """A ``predicate * len(g) + node`` key per (edge, predicate): all u, then all v."""
    width = np.diff(g.pred_ptr)
    key = g.pred_ids * len(g)
    return np.concatenate([key + np.repeat(g.edge_u, width), key + np.repeat(g.edge_v, width)])


def _frequency(g: KnowledgeGraph, scheme: WeightingScheme) -> list[float]:
    """Normalized scores by predicate id: each log from ``math.log``."""
    if scheme not in (WeightingScheme.AF, WeightingScheme.IAF, WeightingScheme.AF_IAF):
        raise ValueError(f"{scheme} is not a frequency scheme")
    counts = np.bincount(g.pred_ids)
    af = (counts / counts.max()).tolist()
    # incident nodes per predicate: its distinct (predicate, node) keys
    raw = [math.log(len(g) / k) for k in np.bincount(distinct(_incidence(g)) // len(g)).tolist()]
    mx = max(raw)
    iaf = [r / mx if mx > 0.0 else 0.0 for r in raw]
    if scheme is WeightingScheme.AF_IAF:
        return [a * i for a, i in zip(af, iaf)]
    return af if scheme is WeightingScheme.AF else iaf


def frequency_scores(g: KnowledgeGraph, scheme: WeightingScheme) -> dict[str, float]:
    """Normalized per-predicate scores in [0, 1] for AF / IAF / AF-IAF.

    AF favors predicates common in the graph (count over max count); IAF
    favors rare ones (log of node count over incident nodes, scaled by its
    maximum); AF-IAF multiplies the two.
    """
    if not g.num_edges:
        return {}
    return dict(zip(g.predicates, _frequency(g, scheme)))


def frequency_costs(g: KnowledgeGraph, scheme: WeightingScheme) -> tuple[float, ...]:
    """Symmetric per-edge costs under a frequency scheme.

    An edge costs one minus the best (highest) score among its collapsed
    predicates, so favored predicates make cheap edges.
    """
    if not g.num_edges:
        return ()
    best = np.maximum.reduceat(np.array(_frequency(g, scheme))[g.pred_ids],
                               g.pred_ptr[:-1])
    return tuple((1.0 - best).tolist())


def joint_ic_costs(g: KnowledgeGraph) -> tuple[float, ...]:
    """Symmetric per-edge costs from joint information content.

    For each orientation (u, p, v) of an edge, the joint IC is the predicate's
    self-information plus the object's conditional self-information given the
    predicate, over collapsed-edge incidence frequencies. An edge's IC is its
    most informative orientation; costs are one minus the min-max normalized
    edge IC, so the globally most informative edge costs 0 and the least
    informative costs 1.

    Incidence counts come from numpy; the logs are taken with ``math.log``
    once per distinct (predicate, object degree), so every cost is the float
    the per-orientation definition gives.
    """
    if not g.num_edges:
        return ()
    counts = np.bincount(g.pred_ids).tolist()
    total = sum(counts)
    # (predicate, node) incidence counts, then each orientation's object degree
    _, slot = np.unique(_incidence(g), return_inverse=True)
    degree = np.bincount(slot)[slot]
    span = int(degree.max()) + 1
    keys, which = np.unique(np.concatenate([g.pred_ids, g.pred_ids]) * span + degree,
                            return_inverse=True)
    ic = np.array([(-math.log(counts[p] / total)) + (-math.log(d / (2 * counts[p])))
                   for p, d in zip((keys // span).tolist(), (keys % span).tolist())])
    best = np.maximum(ic[which[:len(g.pred_ids)]], ic[which[len(g.pred_ids):]])
    ics = np.maximum.reduceat(best, g.pred_ptr[:-1])
    lo, hi = ics.min(), ics.max()
    if hi == lo:
        return (0.0,) * g.num_edges
    return tuple((1.0 - (ics - lo) / (hi - lo)).tolist())


class EdgeCosts:
    """Direction-aware cost lookup for one graph under one scheme.

    Two paths. The symmetric schemes (unweighted, AF, IAF, AF-IAF, JointIC)
    build a whole-graph per-edge table up front from ``frequency_costs`` or
    ``joint_ic_costs``. RWS is direction dependent, but the size k of the
    endpoints' closed-neighbourhood intersection is not: k is computed lazily
    per queried edge, since only union-graph edges are ever relaxed, and
    memoized by edge index, over neighbourhoods memoized by
    ``functools.lru_cache``; either direction reads
    ``1 - k / (degree(source) + 1)``. Safe for concurrent reads; racing memo
    inserts write identical values.
    """

    def __init__(self, g: KnowledgeGraph, scheme: WeightingScheme):
        self.graph = g
        self.scheme = scheme
        self._shared: dict[int, int] = {}
        self._closed = functools.lru_cache(maxsize=None)(g.closed_neighborhood)
        self._table: tuple[float, ...] | None = None
        if scheme is WeightingScheme.UNWEIGHTED:
            self._table = (1.0,) * g.num_edges
        elif scheme is WeightingScheme.JOINT_IC:
            self._table = joint_ic_costs(g)
        elif scheme is not WeightingScheme.RWS:
            self._table = frequency_costs(g, scheme)

    def cost(self, source: int, target: int, edge: int) -> float:
        """Cost of relaxing ``edge`` in the direction source->target."""
        if self._table is not None:
            return self._table[edge]
        k = self._shared.get(edge)
        if k is None:
            k = len(self._closed(source) & self._closed(target))
            self._shared[edge] = k
        return 1.0 - k / (self.graph.degrees[source] + 1)
