"""Pairwise article distances: entity-set shortest distances over union
subgraphs, cosine baselines, z-normalization, and score tables.

Article distances are computed in two passes. Pass one (``pass_one``) finds
the raw seed-to-seed distances of every evaluated pair over the pair's union
graph, in both directions, so the corpus-wide maximum finite path cost is
shared by all variants and their cross-run identities hold exactly. Its
``PassOne`` result depends only on expansion, weighting, screening and
context words, and can be aggregated many times. Pass two (``score_from``)
calls ``aggregate`` per pair: it normalizes raw costs onto [0, 1],
substitutes the disconnection penalty for unreachable or unresolvable seeds,
and applies the ROW/SYM/AVG rule. ``score_sed`` runs both passes;
``sed_variant`` is the same two steps for a single pair.

Pass one works on arrays up to the core graphs. ``subgraph.expand_many``
expands every article at once, and ``_core_batch`` builds the core graphs of
a batch of pairs in one numpy pass: union edges keyed ``pair * E + edge``,
node slots keyed ``pair * n + node``, the members of union degree <= 1 that
are not pinned seeds removed by ``kg.peel``, local ids in sorted member
order, and rows sorted by neighbour from ``kg._csr``. ``_cores`` then turns
one pair at a time into Python rows, with one ``cost()`` per surviving
directed edge, for the early-stopping Dijkstra (``_shortest``/``_matrix``).
``pair_matrices``, ``distance_matrix`` and ``node_pair_distance`` are the
same code on a batch of one union.

This is exact. A non-seed member of degree <= 1 lies inside no path between
two seeds, and relaxing back from it gives ``d + c >= d`` in floating point,
so it never lowers a distance. Settled Dijkstra distances are final, and the
rows and local ids are those of a per-pair build, so every heap sees the
same entries in the same order.
"""

from __future__ import annotations

import heapq
import logging
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

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
from .kg import KnowledgeGraph, _csr, distinct, peel
from .subgraph import ExpansionConfig, SubGraph, expand_many, offsets
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


def _core_batch(g: KnowledgeGraph, members: Sequence[Sequence[np.ndarray]],
                edges: Sequence[Sequence[np.ndarray]], pinned: Sequence[Sequence[int]]):
    """Core graphs of a batch of unions, in arrays.

    Union ``p`` is the union of the arrays ``members[p]`` and ``edges[p]``, and
    ``pinned[p]`` lists its pinned members, distinct. Returns the directed core
    edges sorted by source slot, then by neighbour (their ``source`` and
    ``target`` nodes, ``local`` target ids and ``edge`` ids); each slot's first
    entry ``row``, one past the last slot's; each pair's first slot ``first``,
    one past the last pair's; and each pinned member's local id, in order.
    """
    n, m = len(g), max(g.num_edges, 1)

    def keyed(parts, width):
        keys = np.concatenate([x for part in parts for x in part])
        keys += offsets([sum(map(len, part)) for part in parts], width)
        return distinct(keys)

    pair, edge = np.divmod(keyed(edges, m), m)
    slots = keyed(members, n)
    su = np.searchsorted(slots, pair * n + g.edge_u[edge])
    sv = np.searchsorted(slots, pair * n + g.edge_v[edge])
    del pair
    pins = np.searchsorted(slots, offsets([len(p) for p in pinned], n)
                           + np.fromiter((x for p in pinned for x in p), np.int64))
    keep, su, sv, edge = peel(len(slots), pins, su, sv, edge)
    rank = np.cumsum(keep) - 1
    kept = slots[keep]
    first = np.searchsorted(kept, np.arange(len(pinned) + 1) * n)
    node = kept % n
    local = np.arange(len(kept)) - first[kept // n]
    # the edges are canonical on ranks, so rows come out sorted by neighbour
    row, target, at = _csr(rank[su], rank[sv], len(kept))
    del su, sv
    return (np.repeat(node, np.diff(row)), node[target], local[target], edge[at], row, first,
            local[rank[pins]])


def _cores(g: KnowledgeGraph, costs: EdgeCosts, members, edges,
           pinned: Sequence[Sequence[int]]):
    """Yield each union's core graph: a dict from its pinned members to local
    ids, and its sorted (neighbour, cost) rows on local ids.

    One ``_core_batch`` builds them all, and its temporaries are freed before
    the first yield. Rows become Python lists one pair at a time, with one
    ``cost()`` per directed core edge.
    """
    source, target, local, edge, row, first, pin_local = _core_batch(g, members, edges, pinned)
    row, first, pin_local = row.tolist(), first.tolist(), pin_local.tolist()
    cost = costs.cost
    at = 0
    for p, pins in enumerate(pinned):
        a, b = first[p], first[p + 1]
        lo, hi = row[a], row[b]
        entries = list(zip(local[lo:hi].tolist(),
                           map(cost, source[lo:hi].tolist(), target[lo:hi].tolist(),
                               edge[lo:hi].tolist())))
        yield (dict(zip(pins, pin_local[at:at + len(pins)])),
               [entries[x - lo:y - lo] for x, y in zip(row[a:b], row[a + 1:b + 1])])
        at += len(pins)


def _batch_matrices(g: KnowledgeGraph, costs: EdgeCosts, members, edges,
                    queries: Sequence[tuple[list[int | None], list[int | None]]]):
    """Forward and backward matrices of each union between its two seed lists
    ``queries[p]``, over one core graph pinned at both."""
    pinned = [sorted({*n1, *n2} - {None}) for n1, n2 in queries]
    return [(_matrix(core, n1, n2), _matrix(core, n2, n1))
            for core, (n1, n2) in zip(_cores(g, costs, members, edges, pinned), queries)]


def _union_core(u: SubGraph, costs: EdgeCosts, pinned: set[int]):
    """The core graph of one union, as a batch of one."""
    (core,) = _cores(u.parent, costs, [(_array(u.members),)], [(_array(u.edges),)],
                     [sorted(pinned)])
    return core


def _array(values: frozenset[int]) -> np.ndarray:
    return np.fromiter(values, np.int64, len(values))


def _shortest(rows: list[list[tuple[int, float]]], source: int,
              targets: set[int]) -> list[float]:
    """Dijkstra over a core graph; stops once every target is settled."""
    dist = [DISCONNECTED] * len(rows)
    dist[source] = 0.0
    left = set(targets)
    heap = [(0.0, source)]
    while heap:
        d, a = heapq.heappop(heap)
        if d > dist[a]:
            continue
        left.discard(a)
        if not left:
            break
        for b, c in rows[a]:
            nd = d + c
            if nd < dist[b]:
                dist[b] = nd
                heapq.heappush(heap, (nd, b))
    return dist


def _matrix(core, sources: list[int | None],
            targets: list[int | None]) -> list[list[float]]:
    """One early-stopping Dijkstra per source; None stands for a missing seed."""
    local, rows = core
    goal = {local[t] for t in targets if t is not None}
    out = []
    for s in sources:
        dist = None if s is None else _shortest(rows, local[s], goal)
        out.append([DISCONNECTED if dist is None or t is None else dist[local[t]]
                    for t in targets])
    return out


def _union_nodes(u: SubGraph, ids: Sequence[str]) -> list[int | None]:
    g = u.parent
    nodes = [g.node_index(i) if g.has_node(i) else None for i in ids]
    return [m if m in u.members else None for m in nodes]


def node_pair_distance(u: SubGraph, costs: EdgeCosts, source: int, target: int) -> float:
    """Shortest path cost from source to target over the union's edges.

    Edge costs are direction-of-traversal dependent. Returns DISCONNECTED
    (infinity) when no path exists within the subgraph.
    """
    if source not in u.members:
        raise ValueError(f"source node {source} is not in the union graph")
    if target not in u.members:
        raise ValueError(f"target node {target} is not in the union graph")
    return _matrix(_union_core(u, costs, {source, target}), [source], [target])[0][0]


def distance_matrix(u: SubGraph, costs: EdgeCosts,
                    from_ids: Sequence[str], to_ids: Sequence[str]) -> list[list[float]]:
    """Raw directed distances between two identifier lists over a union graph.

    Seeds that did not resolve into the graph, and unreachable targets, appear
    as DISCONNECTED entries.
    """
    sources, targets = _union_nodes(u, from_ids), _union_nodes(u, to_ids)
    return _matrix(_union_core(u, costs, {*sources, *targets} - {None}), sources, targets)


def normalize_distance(raw: float, corpus_max_finite: float, penalty: float) -> float:
    """Scale a finite raw cost by the corpus maximum; gaps become the penalty."""
    if not math.isfinite(raw):
        return penalty
    if raw == 0.0:
        return 0.0
    return raw / corpus_max_finite


def pair_matrices(u: SubGraph, costs: EdgeCosts, s1: Sequence[str],
                  s2: Sequence[str]) -> tuple[list[list[float]], list[list[float]]]:
    """Raw forward (s1->s2) and backward (s2->s1) distance matrices.

    Both directions run over one core graph pinned at the seeds of both sets.
    """
    return _batch_matrices(u.parent, costs, [(_array(u.members),)], [(_array(u.edges),)],
                           [(_union_nodes(u, s1), _union_nodes(u, s2))])[0]


def aggregate(forward: list[list[float]], backward: list[list[float]],
              cfg: ScoringConfig, max_finite: float) -> float:
    """Article distance from a pair's raw matrices under the configured variant.

    ROW is the mean over rows of the minimum normalized distance (backward
    when reversed); SYM averages the forward and backward ROW values; AVG is
    the mean normalized distance over every seed pair. Sums accumulate left
    to right: ``sum()`` (compensated from Python 3.12) and numpy's pairwise
    sum can move the last ulp and so the score CSV bytes.
    """
    def row_mean(mat) -> float:
        total = 0.0
        for row in mat:
            total += min(normalize_distance(d, max_finite, cfg.penalty) for d in row)
        return total / len(mat)

    if cfg.variant is SedVariant.SYM:
        return (row_mean(forward) + row_mean(backward)) / 2.0
    mat = backward if cfg.reverse_direction else forward
    if cfg.variant is SedVariant.ROW:
        return row_mean(mat)
    total = 0.0
    for row in mat:
        for d in row:
            total += normalize_distance(d, max_finite, cfg.penalty)
    return total / (len(mat) * len(mat[0]))


def sed_variant(s1: Iterable[str], s2: Iterable[str], u: SubGraph,
                costs: EdgeCosts, cfg: ScoringConfig, max_finite: float) -> float:
    """Article distance of one seed-set pair under the configured variant.

    Seeds missing from the union graph contribute the penalty, so articles
    with unresolvable entities are not spuriously close.
    """
    s1, s2 = sorted(set(s1)), sorted(set(s2))
    if not s1 or not s2:
        raise ValueError("article seed sets must be non-empty")
    return aggregate(*pair_matrices(u, costs, s1, s2), cfg, max_finite)


# -------------------------------------------------------------- baselines

def baseline_distance(v1: Mapping[str, float], v2: Mapping[str, float]) -> float:
    """Cosine distance in [0, 1]: negative similarities clamp to zero."""
    dot = sum(w * v2[t] for t, w in v1.items() if t in v2)
    s1 = sum(w * w for w in v1.values())
    s2 = sum(w * w for w in v2.values())
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

@dataclass(frozen=True)
class PairScore:
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
    tfidf = tfidf_vectors(articles)
    out = {}
    for aid in ids:
        if aid not in articles:
            raise InputDataError(f"article {aid!r} is missing from the corpus")
        screened = screen_entities(annotations.get(aid, []), cfg.screening)
        context = augment_context_words(articles[aid], kg, tfidf, cfg.context_words)
        out[aid] = seed_ids(screened, context)
    return out


# worker context inherited through fork; see pass_one
_PAIR_CTX: dict | None = None


def _chunk_matrices(pairs: Sequence[Pair], graph: KnowledgeGraph, costs: EdgeCosts,
                    members: Mapping[str, np.ndarray], edges: Mapping[str, np.ndarray],
                    nodes: Mapping[str, list[int | None]]):
    """(pair_id, forward, backward) per pair, in batches of at most
    ``max(graph.num_edges, _BATCH_EDGES)`` union edges, counted before the
    two articles' edges are merged."""
    cap = max(graph.num_edges, _BATCH_EDGES)
    batches, size = [], 0
    for pair in pairs:
        grow = len(edges[pair[1]]) + len(edges[pair[2]])
        if not batches or size + grow > cap:
            batches.append([])
            size = 0
        batches[-1].append(pair)
        size += grow
    out = []
    for batch in batches:
        out += [(pid, *mats) for (pid, _, _), mats in zip(batch, _batch_matrices(
            graph, costs, [(members[a], members[b]) for _, a, b in batch],
            [(edges[a], edges[b]) for _, a, b in batch],
            [(nodes[a], nodes[b]) for _, a, b in batch]))]
    return out


def _pair_chunk(pairs: list[Pair]):
    return _chunk_matrices(pairs, **_PAIR_CTX)


def _run_pair_pass(pairs: list[Pair], jobs: int):
    if jobs > 1:
        start = multiprocessing.get_start_method(allow_none=False)
        if start == "fork":
            size = max(1, len(pairs) // (4 * jobs))
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                return [r for chunk in pool.map(_pair_chunk, [
                    pairs[i:i + size] for i in range(0, len(pairs), size)]) for r in chunk]
        log.warning("jobs=%d needs the 'fork' start method, not %r; "
                    "running the pair pass serially", jobs, start)
    return _pair_chunk(pairs)


_PASS_ONE_FIELDS = ("expansion", "weighting", "screening", "context_words")


def pass_one_key(cfg: ScoringConfig) -> tuple:
    """The settings pass one depends on: all but variant, penalty and direction."""
    return tuple(getattr(cfg, f) for f in _PASS_ONE_FIELDS)


@dataclass(frozen=True)
class PassOne:
    """Raw forward and backward seed-to-seed matrices of every pair, the
    corpus-wide maximum finite cost, and the ``pass_one_key`` they were built
    under."""
    key: tuple
    matrices: dict[str, tuple[list[list[float]], list[list[float]]]]
    max_finite: float


def pass_one(kg: KnowledgeGraph, articles: Mapping[str, Article],
             pairs: Sequence[Pair],
             annotations: Mapping[str, list[EntityAnnotation]],
             cfg: ScoringConfig, jobs: int = 1) -> PassOne:
    """Every pair's ``pair_matrices``, from one batched expansion and batched
    core graphs, and the corpus-wide maximum finite cost.

    Both directions are kept, so the normalization constant and the matrices
    serve every variant, penalty and direction. Results do not depend on
    ``jobs``.
    """
    global _PAIR_CTX
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
    nodes = {a: [kg.node_index(s) if kg.has_node(s) else None for s in sorted(seeds[a])]
             for a in aids}
    members, edges = expand_many(kg, [[x for x in nodes[a] if x is not None] for a in aids],
                                 cfg.expansion.radius)
    costs = EdgeCosts(kg, cfg.weighting)

    _PAIR_CTX = {"graph": kg, "costs": costs, "members": dict(zip(aids, members)),
                 "edges": dict(zip(aids, edges)), "nodes": nodes}
    try:
        results = _run_pair_pass(list(pairs), jobs)
    finally:
        _PAIR_CTX = None

    max_finite = max((d for _, mat_f, mat_b in results for mat in (mat_f, mat_b)
                      for row in mat for d in row if math.isfinite(d)), default=0.0)
    if max_finite <= 0.0:
        max_finite = 1.0
    return PassOne(pass_one_key(cfg),
                   {pid: (mat_f, mat_b) for pid, mat_f, mat_b in results}, max_finite)


def score_from(p1: PassOne, cfg: ScoringConfig, method: str = "sed") -> ScoreTable:
    """Pass two: one ``aggregate`` per pair, then z-normalization.

    ``cfg`` may differ from the pass one's settings only in variant, penalty
    and direction.
    """
    differ = [f for f, have, want in zip(_PASS_ONE_FIELDS, p1.key, pass_one_key(cfg))
              if have != want]
    if differ:
        raise ValueError(f"pass one was built under other settings: {differ}")
    raw = {pid: aggregate(mat_f, mat_b, cfg, p1.max_finite)
           for pid, (mat_f, mat_b) in p1.matrices.items()}
    return table_from_raw(method, raw, max_finite=p1.max_finite)


def score_sed(kg: KnowledgeGraph, articles: Mapping[str, Article],
              pairs: Sequence[Pair],
              annotations: Mapping[str, list[EntityAnnotation]],
              cfg: ScoringConfig, jobs: int = 1,
              method: str = "sed") -> ScoreTable:
    """Score every article pair under the configured distance variant."""
    return score_from(pass_one(kg, articles, pairs, annotations, cfg, jobs), cfg, method)


def score_tfidf(articles: Mapping[str, Article], pairs: Sequence[Pair],
                method: str = "tfidf") -> ScoreTable:
    """Cosine-distance baseline over the shared TF-IDF vector space."""
    if len(pairs) < 2:
        raise InputDataError("scoring needs at least two article pairs")
    vectors = tfidf_vectors(articles)
    raw = {}
    for pid, a, b in pairs:
        for aid in (a, b):
            if aid not in vectors:
                raise InputDataError(f"article {aid!r} is missing from the corpus")
        raw[pid] = baseline_distance(vectors[a], vectors[b])
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
    return table_from_raw(method, raw)
