"""Pairwise article distances: entity-set shortest distances over union
subgraphs, cosine baselines, z-normalization, and score tables.

Article distances are computed in two passes. Pass one (``pass_one``) finds
the raw seed-to-seed distances of every evaluated pair over the pair's union
graph, in both directions, so the corpus-wide maximum finite path cost is
shared by all variants and their cross-run identities hold exactly. Its
``PassOne`` result depends only on expansion, weighting, screening and
context words, and can be aggregated many times. Pass two (``score_from``)
calls ``aggregate`` once over every pair: it normalizes raw costs onto [0, 1],
substitutes the disconnection penalty for unreachable or unresolvable seeds,
and applies the ROW/SYM/AVG rule. ``score_sed`` runs both passes;
``sed_variant`` is the same two steps for a single pair.

Pass one runs in one process, on ragged arrays throughout, with no Python
loop over pairs or articles past reading the ids. The seeds of every
article are one flat node array with per-article bounds, and the pairs two
arrays of article indices. ``subgraph.expand_many`` expands every article at
once into article-keyed member and edge arrays with per-article bounds. The
pairs go in batches of at most ``_BATCH_EDGES`` union edges, or the graph's
edge count when that is larger; ``_chunk_matrices`` gathers each batch's
union keys from the ragged arrays with ``ranges``, rekeyed pair by pair, and
``_core_batch`` builds the core graphs of a batch in one numpy pass: union
edges keyed ``pair * E + edge``, node slots keyed ``pair * n + node``, the
members of union degree <= 1 that are not pinned seeds removed by
``kg.peel``, slots numbered pair by pair in sorted member order, rows
grouped by slot from ``kg._csr``, and one ``EdgeCosts.gather`` per batch
over all its directed core entries. ``_relax`` finds the distances from every
pinned seed, one search row per pair and seed, by pushes from the slots that
improved, over flat arrays, at most ``_CHUNK`` core entries and slots of
search rows at a time.
One rule, ``kg._cuts``, cuts both the batches and the chunks from a
cumulative sum. ``_cells`` lays the distances out as each pair's flat forward
and backward matrices (``Matrices``). ``pair_matrices``, ``distance_matrix``,
``node_pair_distance`` and ``sed_variant`` are the same code on a batch of one
union, priced by the scalar ``cost()`` of any costs object.

This is exact. A non-seed member of degree <= 1 lies inside no path between
two seeds, and relaxing back from it gives ``d + c >= d`` in floating point,
so it never lowers a distance. Let ``L[y]`` be the least left-to-right float
sum of costs over the paths from the source to ``y``; Dijkstra returns it at
every settled target, ties and zero-cost edges included. For any order of
pushes: each value written is ``fl(D[x] + c(x, y))`` of a value that is
itself a path sum (the source starts at 0), so ``D[y]`` is the float sum of
some path and never below ``L[y]``. The loop ends only after each slot that
improved has pushed to all its neighbours, so then every edge has ``D[y] <=
fl(D[x] + c(x, y))``. ``fl(d + c)`` is monotone in ``d``, so by induction
along any path ``D`` is at most the path's sum at each node: ``D <= L``, and
``D == L`` bit for bit. Chunks split the set of search rows, never a row, so
they cannot change a value. A cost depends only on its ``(source, target,
edge)`` arguments, so pricing a whole batch in one call gives every entry the
float its pair would get alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .articles import (
    Article,
    ContextWordConfig,
    EntityAnnotation,
    ScreeningConfig,
    augment_context_words,
    screen_entities,
    seed_ids,
    tfidf_vectors,
)
from .delimited import Number, read_table, write_table
from .errors import InputDataError
from .kg import KnowledgeGraph, _csr, _cuts, distinct, peel
from .subgraph import ExpansionConfig, SubGraph, expand_many, offsets, ranges
from .weighting import EdgeCosts, WeightingScheme

log = logging.getLogger(__name__)

DISCONNECTED = math.inf

Pair = tuple[str, str, str]  # (pair_id, article_a, article_b)


class SedVariant(Enum):
    ROW = "row"
    AVG = "avg"
    SYM = "sym"


@dataclass(frozen=True)
class ScoringConfig:
    variant: SedVariant = SedVariant.SYM
    penalty: float = 0.98
    weighting: WeightingScheme = WeightingScheme.RWS
    expansion: ExpansionConfig = ExpansionConfig()
    screening: ScreeningConfig = ScreeningConfig()
    context_words: ContextWordConfig = ContextWordConfig()
    reverse_direction: bool = False

    def __post_init__(self):
        if not 0.0 <= self.penalty <= 1.0:
            raise ValueError(f"penalty must lie in [0, 1], got {self.penalty}")


# ------------------------------------------------------------- distances

# A batch of core graphs holds at most this many union edges, or the graph's
# edge count when that is larger: pass-one memory stays within a constant
# factor of the graph, whatever the number of pairs.
_BATCH_EDGES = 2 ** 16

# A chunk of search rows relaxes at most this many core entries and slots at
# once, or one search row's when that is more, so the relaxation's arrays stay
# small whatever the batch. A chunk runs rounds until its slowest row
# converges, but a round pushes only from the slots that improved, so a larger
# chunk costs few extra entries and saves numpy's fixed cost per call. 2^16
# was the fastest of 2^12 to 2^18 on the grid pass ones, and hub's were flat
# from 2^15 up; a chunk's ``dist`` and ``lift`` take at most 512 kB each.
_CHUNK = 2 ** 16


# Prices directed edges: (source, target, edge) arrays -> float64 costs.
Price = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _core_batch(g: KnowledgeGraph, price: Price, members: np.ndarray, edges: np.ndarray,
                pins: np.ndarray, pairs: int):
    """Core graphs of a batch of ``pairs`` unions, in arrays.

    Union ``p`` has the member keys ``p * len(g) + node`` in ``members``, the
    edge keys ``p * max(g.num_edges, 1) + edge`` in ``edges`` and the keys of
    its pinned members in ``pins``, each array sorted and distinct. Slots are
    numbered pair by pair in sorted member order.
    Returns the directed core entries grouped by slot, then sorted by
    neighbour: each entry's neighbour slot and its out-cost, the cost of the
    step from the slot to that neighbour; each slot's first entry ``row``, one
    past the last slot's; each pair's first slot ``first``, one past the last
    pair's; and each pin's local id, its slot less its pair's first. One
    ``price`` call gathers every entry's out-cost, from its slot's node to its
    neighbour's, whether or not other pairs hold the same edge.
    """
    n, m = len(g), max(g.num_edges, 1)
    pair, edge = np.divmod(edges, m)
    su = np.searchsorted(members, pair * n + g.edge_u[edge])
    sv = np.searchsorted(members, pair * n + g.edge_v[edge])
    del pair
    pins = np.searchsorted(members, pins)
    keep, su, sv, edge = peel(len(members), pins, su, sv, edge)
    rank = np.cumsum(keep) - 1
    kept = members[keep]
    del keep
    first = np.searchsorted(kept, np.arange(pairs + 1) * n)
    node = kept % n
    pins = rank[pins]
    pin_local = pins - first[kept[pins] // n]
    del kept
    # the edges are canonical on ranks, so rows come out sorted by neighbour
    su, sv = rank[su], rank[sv]
    del rank
    row, near, at = _csr(su, sv, len(node))
    del su, sv
    out = price(np.repeat(node, np.diff(row)), node[near], edge[at])
    return near, out, row, first, pin_local


def _relax(near: np.ndarray, out: np.ndarray, row: np.ndarray, first: np.ndarray,
           pin_local: np.ndarray, pin_pair: np.ndarray, pin_first: np.ndarray) -> np.ndarray:
    """Shortest distances from every pin to each pin of its pair, over the
    ``_core_batch`` arrays: pin ``r`` of pair ``p`` gives ``pin_first[p + 1] -
    pin_first[p]`` values in pin order, and pins follow each other.

    A search row is one pin's distances over its pair's core slots. The search
    rows of a chunk share one flat ``dist``, where a slot sits at its row's
    ``base`` plus its local id. Each round pushes from the frontier, the slots
    that improved in the round before (at first, the pins): it gathers their
    entries from the core arrays, offers each neighbour ``dist[slot] + out``,
    lowers every neighbour to the least offer below its value
    (``np.minimum.at``), and makes the neighbours it lowered the next
    frontier, until none is lowered.
    """
    slots, entries = np.diff(first), np.diff(row[first])
    pins = np.diff(pin_first)
    bounds = _cuts((slots + entries)[pin_pair], _CHUNK)
    found = [np.zeros(0)]
    for a, b in zip(bounds, bounds[1:]):
        p = pin_pair[a:b]
        k = slots[p]
        base = np.cumsum(k) - k
        # a flat index plus its row's lift is the slot's number in the batch
        lift = np.repeat(first[p] - base, k)
        dist = np.full(len(lift), DISCONNECTED)
        front = base + pin_local[a:b]
        dist[front] = 0.0
        while len(front):
            shift = lift[front]
            at = front + shift
            degree = row[at + 1] - row[at]
            entry = ranges(row[at], degree)
            to = near[entry] - np.repeat(shift, degree)
            offer = np.repeat(dist[front], degree) + out[entry]
            better = offer < dist[to]
            to = to[better]
            np.minimum.at(dist, to, offer[better])
            front = distinct(to)
        count = pins[p]
        found.append(dist[np.repeat(base, count) + pin_local[ranges(pin_first[p], count)]])
    return np.concatenate(found)


def _cells(dist: np.ndarray, at: np.ndarray, pin_first: np.ndarray, a: np.ndarray,
           b: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    """Flat matrices from each pair's seeds ``a`` to its seeds ``b``, given
    as pin numbers (-1 for a seed outside the union): pair ``p``'s block
    holds ``size_a[p]`` rows of ``size_b[p]``. Pin ``r``'s ``_relax`` values
    start at ``at[r]``."""
    count = size_a * size_b
    pair = np.repeat(np.arange(len(count)), count)
    cell = ranges(np.zeros_like(count), count)
    width = size_b[pair]
    x = a[np.repeat(np.cumsum(size_a) - size_a, count) + cell // width]
    y = b[np.repeat(np.cumsum(size_b) - size_b, count) + cell % width]
    out = np.full(len(cell), DISCONNECTED)
    ok = (x >= 0) & (y >= 0)
    out[ok] = dist[at[x[ok]] + y[ok] - pin_first[pair[ok]]]
    return out


@dataclass(frozen=True, eq=False)
class Matrices:
    """Raw forward (s1 -> s2) and backward (s2 -> s1) distance matrices of a
    batch of pairs, flat: pair ``p``'s forward block holds ``rows[p]`` rows of
    ``cols[p]`` cells, its backward block ``cols[p]`` rows of ``rows[p]``, and
    blocks follow each other in pair order."""

    rows: np.ndarray
    cols: np.ndarray
    forward: np.ndarray
    backward: np.ndarray

    def _columns(self):
        return self.rows, self.cols, self.forward, self.backward

    def __eq__(self, other):
        if not isinstance(other, Matrices):
            return NotImplemented
        return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                   for x, y in zip(self._columns(), other._columns()))

    @classmethod
    def concat(cls, parts: Sequence["Matrices"]) -> "Matrices":
        return cls(*(np.concatenate(c) for c in zip(*(m._columns() for m in parts))))

    def pair(self, p: int) -> tuple[list[list[float]], list[list[float]]]:
        """Pair ``p``'s forward and backward matrices as nested lists."""
        r, c = int(self.rows[p]), int(self.cols[p])
        at = int(np.dot(self.rows[:p], self.cols[:p]))
        return (self.forward[at:at + r * c].reshape(r, c).tolist(),
                self.backward[at:at + r * c].reshape(c, r).tolist())


def _batch_matrices(g: KnowledgeGraph, price: Price, members: np.ndarray, edges: np.ndarray,
                    k1: np.ndarray, k2: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> Matrices:
    """Forward and backward matrices of each union of a batch between its two
    seed lists, over one core graph pinned at both. ``members`` and
    ``edges`` are the unions' ``_core_batch`` keys; pair ``p``'s seed lists
    are its next ``rows[p]`` keys of ``k1`` and ``cols[p]`` keys of ``k2``,
    each ``p * len(g) + node``, or -1 for a seed outside the union."""
    n = len(g)
    pins = distinct(np.concatenate([k1[k1 >= 0], k2[k2 >= 0]]))
    pin_pair = pins // n
    pin_first = np.searchsorted(pin_pair, np.arange(len(rows) + 1))
    dist = _relax(*_core_batch(g, price, members, edges, pins, len(rows)), pin_pair, pin_first)
    count = np.diff(pin_first)[pin_pair]
    at = np.cumsum(count) - count
    i1, i2 = (np.where(k < 0, -1, np.searchsorted(pins, k)) for k in (k1, k2))
    return Matrices(rows, cols, _cells(dist, at, pin_first, i1, i2, rows, cols),
                    _cells(dist, at, pin_first, i2, i1, cols, rows))


def _array(values: frozenset[int]) -> np.ndarray:
    return np.sort(np.fromiter(values, np.int64, len(values)))


def _union_nodes(u: SubGraph, ids: Sequence[str]) -> np.ndarray:
    g = u.parent
    nodes = (g.node_index(i) if g.has_node(i) else -1 for i in ids)
    return np.array([m if m in u.members else -1 for m in nodes], dtype=np.int64)


def _union_matrices(u: SubGraph, costs, n1: np.ndarray, n2: np.ndarray) -> Matrices:
    """``_batch_matrices`` of one union, priced by one scalar ``costs.cost()``
    per distinct directed edge: any object with that method will do. The one
    pair's keys are the node and edge indices themselves."""
    def price(source, target, edge):
        return np.fromiter(map(costs.cost, memoryview(source), memoryview(target),
                               memoryview(edge)), np.float64, len(edge))

    return _batch_matrices(u.parent, price, _array(u.members), _array(u.edges), n1, n2,
                           np.array([len(n1)], dtype=np.int64),
                           np.array([len(n2)], dtype=np.int64))


def node_pair_distance(u: SubGraph, costs: EdgeCosts, source: int, target: int) -> float:
    """Shortest path cost from source to target over the union's edges.

    Edge costs are direction-of-traversal dependent. Returns DISCONNECTED
    (infinity) when no path exists within the subgraph.
    """
    if source not in u.members:
        raise ValueError(f"source node {source} is not in the union graph")
    if target not in u.members:
        raise ValueError(f"target node {target} is not in the union graph")
    m = _union_matrices(u, costs, np.array([source]), np.array([target]))
    return float(m.forward[0])


def distance_matrix(u: SubGraph, costs: EdgeCosts,
                    from_ids: Sequence[str], to_ids: Sequence[str]) -> list[list[float]]:
    """Raw directed distances between two identifier lists over a union graph.

    Seeds that did not resolve into the graph, and unreachable targets, appear
    as DISCONNECTED entries.
    """
    return pair_matrices(u, costs, from_ids, to_ids)[0]


def normalize_distance(raw, corpus_max_finite: float, penalty: float) -> np.ndarray:
    """Scale finite raw costs by the corpus maximum; gaps become the penalty.

    Works elementwise on arrays, and gives a 0-d array for a number.
    """
    raw = np.asarray(raw, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isfinite(raw),
                        np.where(raw == 0.0, 0.0, raw / corpus_max_finite), penalty)


def pair_matrices(u: SubGraph, costs: EdgeCosts, s1: Sequence[str],
                  s2: Sequence[str]) -> tuple[list[list[float]], list[list[float]]]:
    """Raw forward (s1->s2) and backward (s2->s1) distance matrices.

    Both directions run over one core graph pinned at the seeds of both sets.
    """
    return _union_matrices(u, costs, _union_nodes(u, s1), _union_nodes(u, s2)).pair(0)


def _sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of each run of ``lengths[i]`` consecutive values, added strictly
    left to right: the longest runs go first, and step ``j`` adds the ``j``-th
    value of every run longer than ``j``."""
    order = np.argsort(-lengths, kind="stable")
    start = (np.cumsum(lengths) - lengths)[order]
    live = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0))).tolist()
    total = np.zeros(len(lengths))
    for j, n in enumerate(live):
        total[:n] += values[start[:n] + j]
    out = np.empty_like(total)
    out[order] = total
    return out


def aggregate(m: Matrices, cfg: ScoringConfig, max_finite: float) -> np.ndarray:
    """Article distance of every pair of ``m`` under the configured variant.

    ROW is the mean over rows of the minimum normalized distance (backward
    when reversed); SYM averages the forward and backward ROW values; AVG is
    the mean normalized distance over every seed pair. Sums accumulate left
    to right (``_sums``): ``sum()`` (compensated from Python 3.12) and numpy's
    pairwise sum can move the last ulp and so the score CSV bytes.
    """
    def row_mean(cells, height, width):
        norm = normalize_distance(cells, max_finite, cfg.penalty)
        size = np.repeat(width, height)
        return _sums(np.minimum.reduceat(norm, np.cumsum(size) - size), height) / height

    if cfg.variant is SedVariant.SYM:
        return (row_mean(m.forward, m.rows, m.cols) + row_mean(m.backward, m.cols, m.rows)) / 2.0
    cells, height, width = ((m.backward, m.cols, m.rows) if cfg.reverse_direction
                            else (m.forward, m.rows, m.cols))
    if cfg.variant is SedVariant.ROW:
        return row_mean(cells, height, width)
    size = height * width
    return _sums(normalize_distance(cells, max_finite, cfg.penalty), size) / size


def sed_variant(s1: Iterable[str], s2: Iterable[str], u: SubGraph,
                costs: EdgeCosts, cfg: ScoringConfig, max_finite: float) -> float:
    """Article distance of one seed-set pair under the configured variant.

    Seeds missing from the union graph contribute the penalty, so articles
    with unresolvable entities are not spuriously close.
    """
    s1, s2 = sorted(set(s1)), sorted(set(s2))
    if not s1 or not s2:
        raise ValueError("article seed sets must be non-empty")
    m = _union_matrices(u, costs, _union_nodes(u, s1), _union_nodes(u, s2))
    return float(aggregate(m, cfg, max_finite)[0])


# -------------------------------------------------------------- baselines

def _square_norm(v: Mapping[str, float]) -> float:
    return sum(w * w for w in v.values())


def baseline_distance(v1: Mapping[str, float], v2: Mapping[str, float]) -> float:
    """Cosine distance in [0, 1]: negative similarities clamp to zero."""
    return _cosine_distance(v1, v2, _square_norm(v1), _square_norm(v2))


def _cosine_distance(v1: Mapping[str, float], v2: Mapping[str, float],
                     s1: float, s2: float) -> float:
    """``baseline_distance`` given each vector's squared norm."""
    dot = sum(w * v2[t] for t, w in v1.items() if t in v2)
    if s1 == 0.0 or s2 == 0.0:
        return 1.0
    cos = min(dot / math.sqrt(s1 * s2), 1.0)
    return 1.0 - max(cos, 0.0)


# ---------------------------------------------------------- normalization

def znormalize(values: Sequence[float]) -> tuple[np.ndarray, float, float]:
    """Zero-mean unit-variance scores (population stddev) plus the constants.

    A zero-variance column yields all-zero scores and a warning; with the
    below-mean decision rule that means no recommendations.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("z-normalization needs at least two scores")
    mean = float(arr.mean())
    std = float(arr.std())
    if std == 0.0:
        log.warning("constant score column: z-scores degenerate to zero")
        return np.zeros_like(arr), mean, 0.0
    return (arr - mean) / std, mean, std


def ensemble(z_columns: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Per-pair mean of member z-scores, re-normalized to zero mean, unit var."""
    if len(z_columns) < 2:
        raise ValueError("an ensemble needs at least two methods")
    methods = sorted(z_columns)
    pair_sets = [set(z_columns[m]) for m in methods]
    for m, pairs in zip(methods[1:], pair_sets[1:]):
        if pairs != pair_sets[0]:
            diff = sorted(pairs ^ pair_sets[0])[:5]
            raise InputDataError(
                f"method {m!r} scores a different pair set (e.g. {diff})"
            )
    pids = sorted(pair_sets[0])
    combined = [
        sum(z_columns[m][p] for m in methods) / len(methods) for p in pids
    ]
    z, _, _ = znormalize(combined)
    return dict(zip(pids, (float(v) for v in z)))


# ------------------------------------------------------------ score table

class PairScore(NamedTuple):
    pair_id: str
    method: str
    raw_distance: float
    z_score: float
    decision: bool


@dataclass(frozen=True)
class MethodStats:
    mean: float
    std: float
    max_finite: float | None = None


_SCORE_HEADER = ["pair_id", "method", "raw_distance", "z_score", "decision"]


@dataclass
class ScoreTable:
    rows: list[PairScore] = field(default_factory=list)
    stats: dict[str, MethodStats] = field(default_factory=dict)

    def methods(self) -> list[str]:
        return list(dict.fromkeys(r.method for r in self.rows))

    def column(self, method: str) -> dict[str, PairScore]:
        out = {r.pair_id: r for r in self.rows if r.method == method}
        if not out:
            raise KeyError(f"no scores for method {method!r}")
        return out

    def merge(self, other: "ScoreTable") -> None:
        dupes = set(self.methods()) & set(other.methods())
        if dupes:
            raise InputDataError(f"duplicate methods across score tables: {sorted(dupes)}")
        self.rows.extend(other.rows)
        self.stats.update(other.stats)

    def write_csv(self, path) -> None:
        write_table(path, _SCORE_HEADER, (
            [r.pair_id, r.method, r.raw_distance, r.z_score, int(r.decision)]
            for r in sorted(self.rows, key=lambda r: (r.method, r.pair_id))))

    @classmethod
    def read_csv(cls, path) -> "ScoreTable":
        table = read_table(path, _SCORE_HEADER, ["pair_id", "method"],
                           {"raw_distance": Number(), "z_score": Number()})
        table.only("decision", {"0", "1"}, "bad decision")
        *cols, decisions = table.columns
        return cls(rows=list(map(PairScore, *cols, [d == "1" for d in decisions])))


def table_from_raw(method: str, raw: Mapping[str, float],
                   max_finite: float | None = None) -> ScoreTable:
    """Build a score table from raw distances: z-normalize, decide at z < 0."""
    pids = sorted(raw)
    z, mean, std = znormalize([raw[p] for p in pids])
    # tolist() gives Python floats, so no numpy scalar is made per pair
    rows = [PairScore(p, method, float(raw[p]), zv, zv < 0.0)
            for p, zv in zip(pids, z.tolist())]
    return ScoreTable(rows=rows, stats={method: MethodStats(mean, std, max_finite)})


def table_from_zscores(method: str, raw: Mapping[str, float],
                       z: Mapping[str, float]) -> ScoreTable:
    """Table for pre-normalized columns (ensembles): decide at z < 0."""
    rows = [
        PairScore(p, method, float(raw[p]), float(z[p]), bool(z[p] < 0.0))
        for p in sorted(z)
    ]
    mean = float(np.mean([raw[p] for p in sorted(z)]))
    std = float(np.std([raw[p] for p in sorted(z)]))
    return ScoreTable(rows=rows, stats={method: MethodStats(mean, std, None)})


# ---------------------------------------------------------- SED pipeline

def compute_seed_sets(articles: Mapping[str, Article],
                      annotations: Mapping[str, list[EntityAnnotation]],
                      kg: KnowledgeGraph, cfg: ScoringConfig,
                      article_ids: Iterable[str] | None = None) -> dict[str, frozenset[str]]:
    """Screened entities plus context-word nodes per article."""
    ids = sorted(article_ids) if article_ids is not None else sorted(articles)
    # augment_context_words reads no TF-IDF weights when asked for no words
    tfidf = tfidf_vectors(articles) if cfg.context_words.n_words > 0 else {}
    out = {}
    for aid in ids:
        if aid not in articles:
            raise InputDataError(f"article {aid!r} is missing from the corpus")
        screened = screen_entities(annotations.get(aid, []), cfg.screening)
        context = augment_context_words(articles[aid], kg, tfidf, cfg.context_words)
        out[aid] = seed_ids(screened, context)
    return out


def _take(values: np.ndarray, bounds: np.ndarray, index: np.ndarray):
    """Rows ``index`` of the ragged array ``values``, whose row ``j`` is
    ``values[bounds[j]:bounds[j + 1]]``, concatenated in order, and their
    lengths."""
    start = bounds[index]
    count = bounds[index + 1] - start
    return values[ranges(start, count)], count


def _chunk_matrices(graph: KnowledgeGraph, price: Price, a: np.ndarray, b: np.ndarray,
                    seeds: tuple[np.ndarray, np.ndarray],
                    expansion: tuple[np.ndarray, ...]) -> Matrices:
    """The matrices of the pairs of articles ``a[p]`` and ``b[p]``, in
    batches cut by ``_cuts`` at ``max(graph.num_edges, _BATCH_EDGES)`` union
    edges, counted before the two articles' edges are merged.

    ``seeds`` holds each article's sorted seed nodes (-1 for a seed outside
    the graph) and their bounds; ``expansion`` is ``expand_many``'s result.
    A batch gathers its pairs' union keys from these ragged arrays, so pair
    ``p`` of a batch holds its articles' keys rekeyed from ``article * width
    + x`` to ``p * width + x``.
    """
    n, m = len(graph), max(graph.num_edges, 1)
    members, member_bounds, edges, edge_bounds = expansion
    size = np.diff(edge_bounds)
    bounds = _cuts(size[a] + size[b], max(graph.num_edges, _BATCH_EDGES))

    def union_keys(keys, key_bounds, width, pa, pb):
        both = np.column_stack((pa, pb)).ravel()
        got, count = _take(keys, key_bounds, both)
        shift = np.repeat(np.arange(len(pa), dtype=np.int64), 2) - both
        return distinct(got + np.repeat(shift * width, count))

    def seed_keys(pa):
        nodes, count = _take(*seeds, pa)
        return np.where(nodes < 0, -1, offsets(count, n) + nodes), count

    parts = []
    for i, j in zip(bounds, bounds[1:]):
        pa, pb = a[i:j], b[i:j]
        (k1, rows), (k2, cols) = seed_keys(pa), seed_keys(pb)
        parts.append(_batch_matrices(
            graph, price, union_keys(members, member_bounds, n, pa, pb),
            union_keys(edges, edge_bounds, m, pa, pb), k1, k2, rows, cols))
    return Matrices.concat(parts)


_PASS_ONE_FIELDS = ("expansion", "weighting", "screening", "context_words")


def pass_one_key(cfg: ScoringConfig) -> tuple:
    """The settings pass one depends on: all but variant, penalty and direction."""
    return tuple(getattr(cfg, f) for f in _PASS_ONE_FIELDS)


@dataclass(frozen=True)
class PassOne:
    """Raw forward and backward seed-to-seed matrices of every pair (pair
    ``p`` of ``matrices`` is ``pair_ids[p]``), the corpus-wide maximum finite
    cost, and the ``pass_one_key`` they were built under."""
    key: tuple
    pair_ids: tuple[str, ...]
    matrices: Matrices
    max_finite: float


def pass_one(kg: KnowledgeGraph, articles: Mapping[str, Article],
             pairs: Sequence[Pair],
             annotations: Mapping[str, list[EntityAnnotation]],
             cfg: ScoringConfig) -> PassOne:
    """Every pair's ``pair_matrices``, from one batched expansion and batched
    core graphs, and the corpus-wide maximum finite cost.

    Both directions are kept, so the normalization constant and the matrices
    serve every variant, penalty and direction.
    """
    if len(pairs) < 2:
        raise InputDataError("scoring needs at least two article pairs")
    article_ids = {a for _, a, b in pairs} | {b for _, a, b in pairs}
    seeds = compute_seed_sets(articles, annotations, kg, cfg, article_ids)
    empty = sorted(a for a, s in seeds.items() if not s)
    if empty:
        raise InputDataError(
            f"articles with no seed entities (no annotations or context words): {empty[:5]}"
        )
    aids = sorted(seeds)
    lists = [sorted(seeds[a]) for a in aids]
    nodes = np.array([kg.node_index(s) if kg.has_node(s) else -1 for ids in lists for s in ids],
                     dtype=np.int64)
    bounds = np.cumsum([0] + [len(ids) for ids in lists])
    # the bounds of the resolved seeds: how many lie before each article's start
    resolved = np.concatenate([[0], np.cumsum(nodes >= 0)])[bounds]
    expansion = expand_many(kg, nodes[nodes >= 0], resolved, cfg.expansion.radius)
    index = {aid: i for i, aid in enumerate(aids)}
    a, b = (np.array([index[pair[k]] for pair in pairs], dtype=np.int64) for k in (1, 2))
    matrices = _chunk_matrices(kg, EdgeCosts(kg, cfg.weighting).gather, a, b,
                               (nodes, bounds), expansion)

    max_finite = max(float(np.max(x[np.isfinite(x)], initial=0.0))
                     for x in (matrices.forward, matrices.backward))
    return PassOne(pass_one_key(cfg), tuple(pid for pid, _, _ in pairs), matrices,
                   max_finite if max_finite > 0.0 else 1.0)


def score_from(p1: PassOne, cfg: ScoringConfig, method: str = "sed") -> ScoreTable:
    """Pass two: one ``aggregate`` per pair, then z-normalization.

    ``cfg`` may differ from the pass one's settings only in variant, penalty
    and direction.
    """
    differ = [f for f, have, want in zip(_PASS_ONE_FIELDS, p1.key, pass_one_key(cfg))
              if have != want]
    if differ:
        raise ValueError(f"pass one was built under other settings: {differ}")
    raw = dict(zip(p1.pair_ids, aggregate(p1.matrices, cfg, p1.max_finite).tolist()))
    return table_from_raw(method, raw, max_finite=p1.max_finite)


def score_sed(kg: KnowledgeGraph, articles: Mapping[str, Article],
              pairs: Sequence[Pair],
              annotations: Mapping[str, list[EntityAnnotation]],
              cfg: ScoringConfig, jobs: int = 1,
              method: str = "sed") -> ScoreTable:
    """Score every article pair under the configured distance variant.

    ``jobs`` is ignored, and any value but 1 logs a warning: the pair pass
    runs in this process. The keyword goes once perfbench stops passing it.
    """
    if jobs != 1:
        log.warning("jobs=%d is ignored; the pair pass runs in this process", jobs)
    return score_from(pass_one(kg, articles, pairs, annotations, cfg), cfg, method)


def score_tfidf(articles: Mapping[str, Article], pairs: Sequence[Pair],
                method: str = "tfidf") -> ScoreTable:
    """Cosine-distance baseline over the shared TF-IDF vector space."""
    if len(pairs) < 2:
        raise InputDataError("scoring needs at least two article pairs")
    vectors = tfidf_vectors(articles)
    norms = {aid: _square_norm(v) for aid, v in vectors.items()}
    raw = {}
    for pid, a, b in pairs:
        for aid in (a, b):
            if aid not in vectors:
                raise InputDataError(f"article {aid!r} is missing from the corpus")
        raw[pid] = _cosine_distance(vectors[a], vectors[b], norms[a], norms[b])
    return table_from_raw(method, raw)


def import_embedding_scores(path, expected_pairs: Iterable[str],
                            method: str = "embedding") -> ScoreTable:
    """Load precomputed embedding distances (CSV of pair_id,distance)."""
    expected = set(expected_pairs)
    table = read_table(path, ["pair_id", "distance"], ["pair_id"],
                       {"distance": Number(float, 0.0, 1.0)})
    table.only("pair_id", expected, "unknown pair id")
    raw = dict(zip(*table.columns))
    missing = sorted(expected - set(raw))
    if missing:
        raise InputDataError(f"embedding file lacks {len(missing)} pairs (e.g. {missing[:5]})")
    if len(raw) < 2:
        raise InputDataError("scoring needs at least two article pairs")
    return table_from_raw(method, raw)
