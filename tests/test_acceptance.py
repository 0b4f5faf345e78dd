"""Acceptance suite: every release criterion at its stated tolerance.

Quantitative checks (criteria 1-5) run against the benchmark root supplied
via the CNREC_ROOT environment variable, or against the deterministic
synthetic stand-in that reproduces the published corpus statistics. The
property and oracle checks (6-12) run on synthetic fixtures alone.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math
import random
import time

import numpy as np
import pytest

from sedrec.articles import ContextWordConfig, EntityAnnotation, ScreeningConfig
from sedrec.evaluation import (
    EvalCondition,
    confusion_and_f1,
    correlations,
    f1_from_precision_recall,
    label_pairs,
    load_cnrec,
    positive_rate,
)
from sedrec.kg import PruneConfig, build_graph, load_snapshot, save_snapshot
from sedrec.scoring import (
    DISCONNECTED,
    ScoringConfig,
    distance_matrix,
    SedVariant,
    node_pair_distance,
    score_sed,
    score_tfidf,
    sed_variant,
    znormalize,
)
from sedrec.subgraph import ExpansionConfig, SubGraph, expand
from sedrec.weighting import EdgeCosts, WeightingScheme, rws_cost

import mini_fixture
from helpers import IDENTITY_PRUNE, graph_from_edges, lit, nt
from oracles import blocks_of, enum_shortest_from


def report(number: int, ok: bool, description: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}")


# --------------------------------------------------------- 1: corpus shape

def test_01_benchmark_loads_with_published_shape(cnrec_root):
    articles, records = load_cnrec(cnrec_root)
    ok = (
        len(articles) == 300
        and len(records) == 2700
        and all(len(r.q1) == 6 and len(r.q2) == 6 for r in records)
    )
    report(1, ok, "300 articles, 2700 pairs, six ratings per question")
    assert ok


# -------------------------------------------------------- 2: positive rates

def test_02_positive_rates_match_published_table(cnrec_root):
    _, records = load_cnrec(cnrec_root)
    expected = {("GR", 0.75): 0.25, ("GR", 0.5): 0.40,
                ("DR", 0.75): 0.08, ("DR", 0.5): 0.21}
    rates = {}
    ok = True
    for (family, thr), want in expected.items():
        rate = positive_rate(label_pairs(records, EvalCondition(family, thr)))
        rates[f"{family}@{thr}"] = round(rate * 100, 2)
        ok = ok and abs(rate - want) <= 0.015
    report(2, ok, f"positive rates within 1.5pp of 25/40/8/21: {rates}")
    assert ok


# ----------------------------------------------- 3: similarity correlation

def test_03_similarity_vs_recommendation_pearson(cnrec_root):
    _, records = load_cnrec(cnrec_root)
    mq1 = {r.pair_id: r.mean_q1 for r in records}
    mq2 = {r.pair_id: r.mean_q2 for r in records}
    pearson, _ = correlations(mq1, mq2)
    ok = pearson is not None and abs(pearson - 0.7371) <= 0.01
    report(3, ok, f"Pearson(mean q1, mean q2) = {pearson:.4f} (0.7371 +/- 0.01)")
    assert ok


# ------------------------------------------------- 4: TF-IDF baseline F1

def test_04_tfidf_baseline_end_to_end(cnrec_root):
    started = time.monotonic()
    articles, records = load_cnrec(cnrec_root)
    pairs = [(r.pair_id, r.article_a, r.article_b) for r in records]
    table = score_tfidf(articles, pairs)
    decisions = {pid: ps.decision for pid, ps in table.column("tfidf").items()}
    labels = label_pairs(records, EvalCondition("GR", 0.5))
    metrics = confusion_and_f1(labels, decisions)
    elapsed = time.monotonic() - started
    ok = 0.80 <= metrics.f1 <= 0.90 and elapsed < 60.0
    report(4, ok, f"TF-IDF GR@.5 F1 = {metrics.f1:.4f} in [0.80, 0.90], "
                  f"{elapsed:.1f}s < 60s")
    assert ok


# ------------------------------------------ 5: published F1 arithmetic row

def test_05_f1_arithmetic_from_published_precision_recall():
    f1 = f1_from_precision_recall(0.6731, 0.3947)
    ok = abs(f1 - 0.4976) <= 0.0005
    report(5, ok, f"F1(0.6731, 0.3947) = {f1:.4f} = 0.4976 +/- 0.0005")
    assert ok


# ------------------------------------------------ 6: shortest-path oracle

class _TableCosts:
    def __init__(self, table):
        self.table = table

    def cost(self, u, v, e):
        return self.table[(u, v)]


def test_06_shortest_path_enumeration_oracle():
    rng = random.Random(60312)
    checked = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        names = [f"n{i}" for i in range(n)]
        possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        cap = len(possible) if n <= 7 else int(1.6 * n)
        m = rng.randint(1, min(len(possible), cap))
        g = graph_from_edges(rng.sample(possible, m))
        table = {}
        adjacency = {u: [] for u in range(len(g))}
        for u in range(len(g)):
            for v, _ in g.neighbors(u):
                adjacency[u].append(v)
                # dyadic weights make every path sum exact in binary floats
                table[(u, v)] = rng.randint(0, 16) / 16.0
        sg = SubGraph(parent=g, seeds=frozenset(),
                      members=frozenset(range(len(g))),
                      edges=frozenset(range(g.num_edges)))
        costs = _TableCosts(table)
        source = rng.randrange(len(g))
        best = enum_shortest_from(len(g), table, adjacency, source)
        for target in range(len(g)):
            got = node_pair_distance(sg, costs, source, target)
            want = best.get(target, DISCONNECTED)
            assert got == want, (g.ids, source, target, got, want)
            checked += 1
    report(6, True, f"1000 random graphs: Dijkstra == simple-path enumeration "
                    f"exactly ({checked} node pairs)")


# ------------------------------------------------------- 7: SED identities

def _random_article_fixture(rng):
    n = rng.randint(4, 12)
    names = [f"n{i}" for i in range(n)]
    possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    m = rng.randint(2, min(len(possible), 2 * n))
    g = graph_from_edges(rng.sample(possible, m))
    def seed_set():
        seeds = set(rng.sample(sorted(g.ids), rng.randint(1, 3)))
        if rng.random() < 0.3:
            seeds.add(f"ghost{rng.randint(0, 9)}")
        return seeds
    s1, s2 = seed_set(), seed_set()
    radius = ExpansionConfig(rng.choice((1, 2)))
    u = expand(g, s1 | s2, radius)
    scheme = rng.choice((WeightingScheme.RWS, WeightingScheme.UNWEIGHTED,
                         WeightingScheme.AF))
    costs = EdgeCosts(g, scheme)
    # the constant the two-pass pipeline would use: the largest finite
    # distance among the evaluated seed pairs, in either direction
    finite = [
        d
        for a, b in ((sorted(s1), sorted(s2)), (sorted(s2), sorted(s1)))
        for row in distance_matrix(u, costs, a, b)
        for d in row
        if math.isfinite(d)
    ]
    max_finite = max(finite) if finite and max(finite) > 0 else 1.0
    penalty = rng.choice((1.0, 0.98, 0.95, 0.9))
    return g, u, costs, s1, s2, penalty, max_finite


def test_07_sed_identities_on_random_fixtures():
    rng = random.Random(70707)
    for _ in range(500):
        g, u, costs, s1, s2, penalty, mx = _random_article_fixture(rng)
        cfg_row = ScoringConfig(variant=SedVariant.ROW, penalty=penalty)
        cfg_rev = ScoringConfig(variant=SedVariant.ROW, penalty=penalty,
                                reverse_direction=True)
        cfg_sym = ScoringConfig(variant=SedVariant.SYM, penalty=penalty)
        forward = sed_variant(s1, s2, u, costs, cfg_row, mx)
        backward = sed_variant(s1, s2, u, costs, cfg_rev, mx)
        sym = sed_variant(s1, s2, u, costs, cfg_sym, mx)
        sym_swapped = sed_variant(s2, s1, u, costs, cfg_sym, mx)
        assert sym == (forward + backward) / 2.0
        assert sym == sym_swapped
        for value in (forward, backward, sym):
            assert 0.0 <= value <= 1.0
    report(7, True, "500 fixtures: SYM == mean of ROW directions exactly, "
                    "order-invariant, values in [0, 1]")


# ----------------------------------------------------- 8: overlap weights

def test_08_overlap_weighting_properties():
    rng = random.Random(80808)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        names = [f"n{i}" for i in range(n)]
        possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        g = graph_from_edges(rng.sample(possible, rng.randint(1, len(possible))))
        for e, (u, v) in enumerate(g.edge_endpoints):
            for a, b in ((u, v), (v, u)):
                c = rws_cost(g, a, b)
                assert 0.0 <= c < 1.0
                if g.closed_neighborhood(a) <= g.closed_neighborhood(b):
                    assert c == 0.0
                checked += 1
    pair = graph_from_edges([("i", "j")])
    assert rws_cost(pair, 0, 1) == 0.0 and rws_cost(pair, 1, 0) == 0.0
    report(8, True, f"overlap costs in [0, 1), subset neighborhoods cost 0, "
                    f"isolated pair costs 0 ({checked} directed edges)")


# ------------------------------------------------ 9: penalty monotonicity

def test_09_penalty_monotonicity():
    rng = random.Random(90909)
    grid = (1.0, 0.98, 0.95, 0.90)
    fixtures = [_random_article_fixture(rng) for _ in range(120)]
    # ensure genuinely disconnected fixtures are present
    g = graph_from_edges([("a", "b"), ("x", "y")])
    u = expand(g, {"a", "x"}, ExpansionConfig(1))
    fixtures.append((g, u, EdgeCosts(g, WeightingScheme.UNWEIGHTED),
                     {"a"}, {"y"}, None, 1.0))
    for gph, u, costs, s1, s2, _, mx in fixtures:
        for variant in (SedVariant.ROW, SedVariant.SYM, SedVariant.AVG):
            values = [
                sed_variant(s1, s2, u, costs,
                            ScoringConfig(variant=variant, penalty=p), mx)
                for p in grid
            ]
            for earlier, later in zip(values, values[1:]):
                assert later <= earlier + 1e-15
    report(9, True, "SED non-increasing as penalty falls over 1.0/0.98/0.95/0.90")


# ------------------------------------------- 10: z-normalization, Spearman

def test_10_znormalization_and_spearman_invariance():
    rng = random.Random(101010)
    for _ in range(50):
        values = [rng.uniform(0, 1) for _ in range(rng.randint(10, 400))]
        z, _, _ = znormalize(values)
        assert abs(float(np.mean(z))) < 1e-9
        assert abs(float(np.var(z)) - 1.0) < 1e-9
    scores = {f"p{i}": rng.uniform(-2, 2) for i in range(300)}
    targets = {f"p{i}": rng.choice((0, 1, 2)) / 2 for i in range(300)}
    _, s_base = correlations(scores, targets)
    for transform in (lambda v: 3.0 * v + 1.0,
                      lambda v: v ** 3,
                      lambda v: math.exp(v)):
        moved = {k: transform(v) for k, v in scores.items()}
        _, s_t = correlations(moved, targets)
        assert abs(s_t - s_base) < 1e-12
    report(10, True, "z-moments within 1e-9; Spearman invariant to 1e-12 "
                     "under monotone transforms")


# ------------------------------------------------- 11: snapshot round-trip

def test_11_snapshot_round_trip_on_random_pruned_graphs(tmp_path):
    rng = random.Random(111111)
    langs = (None, "en", "fr")
    for i in range(100):
        triples = []
        for _ in range(rng.randint(0, 60)):
            u = f"n{rng.randint(0, 14)}"
            v = f"n{rng.randint(0, 14)}"
            if rng.random() < 0.15:
                triples.append(lit(u, "type.object.name",
                                   f"T{rng.randint(0, 9)}", rng.choice(langs)))
            else:
                triples.append(nt(u, rng.choice("pqr"), v))
        cfg = PruneConfig(
            english_only=rng.random() < 0.5,
            min_out_degree=rng.choice((0, 0, 1, 2)),
            drop_leaves=rng.random() < 0.5,
        )
        g = build_graph(blocks_of(triples), cfg)
        first = tmp_path / f"g{i}a.snap"
        second = tmp_path / f"g{i}b.snap"
        save_snapshot(g, first)
        loaded = load_snapshot(first)
        save_snapshot(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded == g
    report(11, True, "100 random pruned graphs: build-save-load-save is "
                     "byte-identical")


# -------------------------------------------------- 12: end-to-end mini run

def test_12_end_to_end_mini_pipeline():
    mf = mini_fixture
    triples = [nt(u, "rel", v) for u, v in mf.EDGES]
    for node, title in mf.TITLES.items():
        triples.append(lit(node, "type.object.name", title, "en"))
    kg = build_graph(blocks_of(triples), IDENTITY_PRUNE)
    assert len(kg) == 30

    from sedrec.articles import Article

    articles = {aid: Article(aid, t, b) for aid, (t, b) in mf.ARTICLES.items()}
    annotations = {}
    for art, mention, ent, etype, count, offset in mf.ANNOTATION_ROWS:
        annotations.setdefault(art, []).append(
            EntityAnnotation(art, mention, ent, etype, count, offset))

    cfg = ScoringConfig(
        variant=SedVariant.SYM,
        penalty=mf.PENALTY,
        weighting=WeightingScheme.RWS,
        expansion=ExpansionConfig(1),
        screening=ScreeningConfig(drop_types=frozenset({"LOC", "GPE"}), top_k=5),
        context_words=ContextWordConfig(2),
    )

    # the pipeline's screened + context-word seeds must equal the hand table
    from sedrec.scoring import compute_seed_sets

    seeds = compute_seed_sets(articles, annotations, kg, cfg)
    assert {a: set(s) for a, s in seeds.items()} == mf.EXPECTED_SEEDS

    # the frozen table must match a live oracle recomputation
    live_raw, live_max = mf.reference_scores()
    assert live_max == mf.EXPECTED_MAX_FINITE
    for pid, want in mf.EXPECTED_SYM.items():
        assert live_raw[pid] == pytest.approx(want, abs=1e-12)

    table = score_sed(kg, articles, mf.PAIRS, annotations, cfg)
    col = table.column("sed")
    assert table.stats["sed"].max_finite == pytest.approx(
        mf.EXPECTED_MAX_FINITE, abs=1e-12)
    worst = 0.0
    for pid, want in mf.EXPECTED_SYM.items():
        got = col[pid].raw_distance
        worst = max(worst, abs(got - want))
        assert got == pytest.approx(want, abs=1e-9)
    decisions = {pid: ps.decision for pid, ps in col.items()}
    assert decisions == mf.EXPECTED_DECISIONS
    report(12, True, f"mini pipeline reproduces oracle scores "
                     f"(max |delta| = {worst:.2e}) and all 15 decisions")
