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

from .errors import InputDataError
from .kg import KnowledgeGraph, _run_starts, distinct
from .subgraph import contains, ranges


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
    incidence = np.repeat(np.stack([g.edge_u, g.edge_v]), np.diff(g.pred_ptr), axis=1)
    incidence += g.pred_ids * len(g)
    return incidence.ravel()


def _frequency(g: KnowledgeGraph, scheme: WeightingScheme) -> list[float]:
    """Normalized scores in [0, 1] by predicate id, for AF / IAF / AF-IAF.

    AF favors predicates common in the graph (count over max count); IAF
    favors rare ones (log of node count over incident nodes, scaled by its
    maximum); AF-IAF multiplies the two. Each log is taken with ``math.log``.
    """
    if scheme not in (WeightingScheme.AF, WeightingScheme.IAF, WeightingScheme.AF_IAF):
        raise ValueError(f"{scheme} is not a frequency scheme")
    counts = np.bincount(g.pred_ids)
    af = (counts / counts.max()).tolist()
    if scheme is WeightingScheme.AF:
        return af
    # incident nodes per predicate: its distinct (predicate, node) keys
    raw = [math.log(len(g) / k) for k in np.bincount(distinct(_incidence(g)) // len(g)).tolist()]
    mx = max(raw)
    iaf = [r / mx if mx > 0.0 else 0.0 for r in raw]
    if scheme is WeightingScheme.AF_IAF:
        return [a * i for a, i in zip(af, iaf)]
    return iaf


def frequency_costs(g: KnowledgeGraph, scheme: WeightingScheme) -> np.ndarray:
    """Symmetric per-edge costs under a frequency scheme, as float64 by edge.

    An edge costs one minus the best (highest) score among its collapsed
    predicates, so favored predicates make cheap edges.
    """
    if not g.num_edges:
        return np.zeros(0)
    best = np.maximum.reduceat(np.array(_frequency(g, scheme))[g.pred_ids],
                               g.pred_ptr[:-1])
    return 1.0 - best


def _joint_ic_key_bits(predicates: int, nodes: int, incidences: int) -> int:
    """Bits of an incidence position in ``joint_ic_costs``'s packed key.

    The key ``incidence << bits | position`` is below
    ``predicates * nodes * 2 ** bits``; past ``2 ** 63`` that product
    raises ``InputDataError`` naming its three factors, so no key wraps.
    """
    bits = incidences.bit_length()
    if predicates * nodes * 2 ** bits > 2 ** 63:
        raise InputDataError(
            f"graph too large: the JointIC table packs {predicates} predicates x {nodes} "
            f"nodes x 2**{bits} incidence positions into int64 keys, past the limit "
            f"2**63; score with another --weighting")
    return bits


def joint_ic_costs(g: KnowledgeGraph) -> np.ndarray:
    """Symmetric per-edge costs from joint information content, as float64 by edge.

    For each orientation (u, p, v) of an edge, the joint IC is the predicate's
    self-information plus the object's conditional self-information given the
    predicate, over collapsed-edge incidence frequencies. An edge's IC is its
    most informative orientation; costs are one minus the min-max normalized
    edge IC, so the globally most informative edge costs 0 and the least
    informative costs 1.

    One in-place sort of the packed int64 keys ``incidence << bits |
    position`` groups the incidences into (predicate, node) slots, with each
    incidence's position in the low ``bits`` (the bit length of the
    incidence count): a mask recovers the positions and a shift the keys.
    The product of predicates, nodes and ``2 ** bits`` must stay within
    ``2 ** 63`` (``_joint_ic_key_bits``). Each slot reads its IC once from a
    table with one entry per incidence, indexed by (predicate, slot count),
    and one scatter writes it to the slot's incidences. The logs are taken
    with ``math.log`` once per distinct (predicate, slot count), so every
    cost is the float the per-orientation definition gives. Each temporary
    is freed once spent: the peak sets the pages a call faults in.
    """
    if not g.num_edges:
        return np.zeros(0)
    counts = np.bincount(g.pred_ids).tolist()
    total = sum(counts)
    size = 2 * len(g.pred_ids)
    bits = _joint_ic_key_bits(len(counts), len(g), size)
    packed = _incidence(g)
    position = np.arange(size)
    packed <<= bits
    packed |= position
    packed.sort()
    np.bitwise_and(packed, (1 << bits) - 1, out=position)
    packed >>= bits
    # each (predicate, node) slot's count d, and its index offset[p] + d - 1:
    # predicate p has 2 * counts[p] incidences, so each (p, d) has its own index
    offset = 2 * np.cumsum([0, *counts])
    head = np.flatnonzero(_run_starts(packed))
    slot = offset[packed[head] // len(g)]
    del packed
    degree = np.diff(head, append=size)
    del head
    slot += degree
    slot -= 1
    seen = np.zeros(size, dtype=bool)
    seen[slot] = True
    used = np.flatnonzero(seen)
    del seen
    pred = np.searchsorted(offset, used, "right") - 1
    table = np.empty(size)
    table[used] = [(-math.log(counts[p] / total)) + (-math.log(d / (2 * counts[p])))
                   for p, d in zip(pred.tolist(), (used - offset[pred] + 1).tolist())]
    ic = table[slot]
    del table, slot
    each = np.repeat(ic, degree)
    del ic, degree
    best = np.empty(size)
    best[position] = each
    del position, each
    # incidences run all u, then all v
    half = len(g.pred_ids)
    ics = np.maximum.reduceat(np.maximum(best[:half], best[half:], out=best[:half]),
                              g.pred_ptr[:-1])
    lo, hi = ics.min(), ics.max()
    if hi == lo:
        return np.zeros(g.num_edges)
    return 1.0 - (ics - lo) / (hi - lo)


class EdgeCosts:
    """Direction-aware cost lookup for one graph under one scheme.

    ``gather`` prices arrays of directed edges in one call; pass one calls it
    once per batch, repeated edges included. The symmetric schemes (unweighted,
    AF, IAF, AF-IAF, JointIC) index a whole-graph float64 table built up front
    from ``frequency_costs`` or ``joint_ic_costs``; JointIC's table groups its
    incidences by one sort of packed int64 keys, and a graph whose predicates
    x nodes x ``2 ** bits`` positions pass ``2 ** 63`` raises
    ``InputDataError`` (``_joint_ic_key_bits``). RWS is direction dependent,
    but the size k of the endpoints' closed-neighbourhood intersection is not:
    ``gather`` counts it once per distinct queried edge from the CSR
    (``_shared_counts``, the only place repeated edges are removed), since only
    core-graph edges are ever relaxed, and either direction reads
    ``1 - k / (degree(source) + 1)``. The count probes the neighbours of one
    end through a hashed mark table of the other ends' neighbours, then checks
    each marked probe exactly. The table has no false negatives, since equal
    keys hash equally, so k is exact. Its hash is a fixed multiplier, so k does
    not depend on ``PYTHONHASHSEED``. The table takes at most four times the
    bytes of its keys.

    The scalar ``cost`` is the definition that ``gather`` must equal, and it
    serves the batch-of-one calls (``scoring.distance_matrix`` and friends):
    a table entry, or k over closed neighbourhoods memoized by
    ``functools.lru_cache``, memoized by edge index.
    """

    def __init__(self, g: KnowledgeGraph, scheme: WeightingScheme):
        self.graph = g
        self.scheme = scheme
        self._shared: dict[int, int] = {}
        self._closed = functools.lru_cache(maxsize=None)(g.closed_neighborhood)
        self._table: np.ndarray | None = None
        if scheme is WeightingScheme.UNWEIGHTED:
            self._table = np.ones(g.num_edges)
        elif scheme is WeightingScheme.JOINT_IC:
            self._table = joint_ic_costs(g)
        elif scheme is not WeightingScheme.RWS:
            self._table = frequency_costs(g, scheme)

    def cost(self, source: int, target: int, edge: int) -> float:
        """Cost of relaxing ``edge`` in the direction source->target."""
        if self._table is not None:
            return float(self._table[edge])
        k = self._shared.get(edge)
        if k is None:
            k = len(self._closed(source) & self._closed(target))
            self._shared[edge] = k
        return 1.0 - k / (self.graph.degrees[source] + 1)

    def gather(self, source: np.ndarray, target: np.ndarray, edge: np.ndarray) -> np.ndarray:
        """``cost`` of each (source[i], target[i], edge[i]), as float64.

        For RWS this is exact: canonical, distinct edges (``validate``) mean
        no self-loop and no repeated edge, so adjacent ``s`` and ``t`` share
        exactly themselves and their common neighbours, and numpy's int to
        float64 division and subtraction round as Python's do.
        """
        if self._table is not None:
            return self._table[edge]
        g = self.graph
        degree = np.diff(g.indptr)
        return 1.0 - _shared_counts(g, degree, edge) / (degree[source] + 1)


def _shared_counts(g: KnowledgeGraph, degree: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """``2 + |N(u) & N(v)|`` for each edge (u, v) of ``edge``, the size of its
    ends' closed-neighbourhood intersection, counted once per distinct edge:
    the only place that removes the repeated edges pass one gathers.

    Each distinct edge walks the CSR row of its lower-degree end and probes
    each neighbour among the ``row * n + col`` keys of the other ends' rows
    only: rows are sorted, so those keys are too. Filter, then verify:

    - Every key sets its mark in a boolean table, at its ``_bucket`` hash.
      The table has ``2 ** (len(keys).bit_length() + 4)`` one-byte entries:
      more than 16 per key, and at most four times the bytes of ``keys``.
    - A probe whose mark is clear cannot be a key, because equal keys hash
      equally: the filter has no false negatives.
    - Each probe whose mark is set is looked up in ``keys`` by
      ``subgraph.contains``, so a false positive is never counted.

    So the count is exact, whatever the hash. The hash is fixed integer
    arithmetic, not Python's ``hash()``, and does not depend on
    ``PYTHONHASHSEED``.
    """
    edges = distinct(edge)
    u, v = g.edge_u[edges], g.edge_v[edges]
    low = degree[u] <= degree[v]
    walk, other = np.where(low, u, v), np.where(low, v, u)
    rows = distinct(other)
    keys = np.repeat(rows * len(g), degree[rows])
    keys += g.indices[ranges(g.indptr[rows], degree[rows])]
    width = degree[walk]
    probe = np.repeat(other * len(g), width) + g.indices[ranges(g.indptr[walk], width)]
    bits = len(keys).bit_length() + 4
    mark = np.zeros(1 << bits, dtype=bool)
    mark[_bucket(keys, bits)] = True
    likely = np.flatnonzero(mark[_bucket(probe, bits)])
    hit = likely[contains(keys, probe[likely])]
    # probes run edge by edge, ``width`` per edge
    shared = np.bincount(np.searchsorted(np.cumsum(width), hit, "right"), minlength=len(edges))
    return (2 + shared)[np.searchsorted(edges, edge)]


# 2 ** 64 over the golden ratio, made odd: Fibonacci hashing's multiplier
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _bucket(key: np.ndarray, bits: int) -> np.ndarray:
    """A ``bits``-bit hash of each non-negative int64 key: the top bits of the
    key times a fixed odd 64-bit constant, modulo 2 ** 64. Returned as int64,
    which numpy indexes with no cast."""
    return ((key.view(np.uint64) * _GOLDEN) >> np.uint64(64 - bits)).view(np.int64)
