"""Pairwise article distances: entity-set shortest distances over union
subgraphs, cosine baselines, z-normalization, and score tables.

Article distances are computed in two passes. Pass one (``pass_one``) calls
``pair_matrices`` for every evaluated pair: raw seed-to-seed distances over
the pair's union graph, in both directions, so the corpus-wide maximum finite
path cost is shared by all variants and their cross-run identities hold
exactly. Its ``PassOne`` result depends only on expansion, weighting,
screening and context words, and can be aggregated many times. Pass two
(``score_from``) calls ``aggregate`` per pair: it normalizes raw costs onto
[0, 1], substitutes the disconnection penalty for unreachable or unresolvable
seeds, and applies the ROW/SYM/AVG rule. ``score_sed`` runs both passes;
``sed_variant`` is the same two steps for a single pair.

Every distance runs over a weighted core graph (``_core``): the union on
local ids after repeatedly dropping members of union degree <= 1 that are
not requested seeds, with one cost looked up per surviving directed edge.
Each Dijkstra (``_shortest``) stops once its last target is settled. Both
are exact. A non-seed member of degree <= 1 lies inside no path between two
seeds, and relaxing back from it gives ``d + c >= d`` in floating point, so
it never lowers a distance; settled Dijkstra distances are final; and local
ids change only the heap's tie order, not the distance values.
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
from .kg import KnowledgeGraph
from .subgraph import ExpansionConfig, SubGraph, expand, union
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

def _core(u: SubGraph, costs: EdgeCosts, pinned: set[int]):
    """Local ids and sorted (neighbour, cost) rows of the union's core graph,
    peeled down to members of degree >= 2 and the ``pinned`` seeds."""
    adj = u.adjacency()
    degree = {m: len(row) for m, row in adj.items()}
    peel = [m for m, d in degree.items() if d <= 1 and m not in pinned]
    dropped = set()
    while peel:
        m = peel.pop()
        dropped.add(m)
        for v, _ in adj[m]:
            if v not in dropped:
                degree[v] -= 1
                if degree[v] == 1 and v not in pinned:
                    peel.append(v)
    local = {m: i for i, m in enumerate(sorted(adj.keys() - dropped))}
    cost = costs.cost
    # adjacency rows are sorted, and local ids keep the members' order
    rows = [[(local[v], cost(m, v, e)) for v, e in adj[m] if v in local] for m in local]
    return local, rows


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
    return _matrix(_core(u, costs, {source, target}), [source], [target])[0][0]


def distance_matrix(u: SubGraph, costs: EdgeCosts,
                    from_ids: Sequence[str], to_ids: Sequence[str]) -> list[list[float]]:
    """Raw directed distances between two identifier lists over a union graph.

    Seeds that did not resolve into the graph, and unreachable targets, appear
    as DISCONNECTED entries.
    """
    sources, targets = _union_nodes(u, from_ids), _union_nodes(u, to_ids)
    return _matrix(_core(u, costs, {*sources, *targets} - {None}), sources, targets)


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
    n1, n2 = _union_nodes(u, s1), _union_nodes(u, s2)
    core = _core(u, costs, {*n1, *n2} - {None})
    return _matrix(core, n1, n2), _matrix(core, n2, n1)


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


def _pair_matrices(pair: Pair):
    ctx = _PAIR_CTX
    pid, a, b = pair
    u = union(ctx["subgraphs"][a], ctx["subgraphs"][b])
    return pid, *pair_matrices(u, ctx["costs"], sorted(ctx["seeds"][a]),
                               sorted(ctx["seeds"][b]))


def _run_pair_pass(pairs: list[Pair], jobs: int):
    if jobs > 1:
        start = multiprocessing.get_start_method(allow_none=False)
        if start == "fork":
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(_pair_matrices, pairs,
                                     chunksize=max(1, len(pairs) // (4 * jobs))))
        log.warning("jobs=%d needs the 'fork' start method, not %r; "
                    "running the pair pass serially", jobs, start)
    return [_pair_matrices(p) for p in pairs]


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
    """Run ``pair_matrices`` for every pair and take the corpus-wide maximum.

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
    subgraphs = {aid: expand(kg, seeds[aid], cfg.expansion) for aid in sorted(seeds)}
    costs = EdgeCosts(kg, cfg.weighting)

    _PAIR_CTX = {"subgraphs": subgraphs, "seeds": seeds, "costs": costs}
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
