import gc
import hashlib
import logging
import math
import multiprocessing
import os
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedrec.articles import (
    Article,
    ContextWordConfig,
    EntityAnnotation,
    ScreeningConfig,
    load_annotations,
)
from sedrec.errors import InputDataError
from sedrec.evaluation import load_cnrec
from sedrec.kg import PruneConfig, build_graph, parse_ntriples
from sedrec import scoring
from sedrec.scoring import (
    DISCONNECTED,
    ScoreTable,
    ScoringConfig,
    SedVariant,
    baseline_distance,
    compute_seed_sets,
    distance_matrix,
    ensemble,
    import_embedding_scores,
    node_pair_distance,
    normalize_distance,
    pair_matrices,
    pass_one,
    score_from,
    score_sed,
    score_tfidf,
    sed_variant,
    table_from_raw,
    znormalize,
)
from sedrec.subgraph import ExpansionConfig, SubGraph, expand, union
from sedrec.weighting import EdgeCosts, WeightingScheme

from helpers import graph_from_edges
from oracles import bfs_hops, enum_shortest_from, expand_bfs, union_distance_matrix


def full_subgraph(g, seed_names=()):
    return SubGraph(
        parent=g,
        seeds=frozenset(g.node_index(s) for s in seed_names),
        members=frozenset(range(len(g))),
        edges=frozenset(range(g.num_edges)),
    )


class TableCosts:
    """Arbitrary directed cost table, for oracle comparisons."""

    def __init__(self, table):
        self.table = table

    def cost(self, u, v, e):
        return self.table[(u, v)]


@pytest.fixture
def chain():
    return graph_from_edges([("a", "b"), ("b", "c")])


def unit_costs(g):
    return EdgeCosts(g, WeightingScheme.UNWEIGHTED)


# ------------------------------------------------------ node_pair_distance

def test_distance_to_self_is_zero(chain):
    sg = full_subgraph(chain)
    a = chain.node_index("a")
    assert node_pair_distance(sg, unit_costs(chain), a, a) == 0.0


def test_unweighted_chain_distance(chain):
    sg = full_subgraph(chain)
    a, c = chain.node_index("a"), chain.node_index("c")
    assert node_pair_distance(sg, unit_costs(chain), a, c) == 2.0


def test_distance_disconnected(chain):
    g = graph_from_edges([("a", "b"), ("x", "y")])
    sg = full_subgraph(g)
    d = node_pair_distance(sg, unit_costs(g), g.node_index("a"), g.node_index("x"))
    assert d == DISCONNECTED


def test_distance_requires_membership(chain):
    sg = expand(chain, {"a"}, ExpansionConfig(1))  # a, b only
    with pytest.raises(ValueError):
        node_pair_distance(sg, unit_costs(chain), chain.node_index("a"),
                           chain.node_index("c"))


def test_distance_respects_union_edge_subset(chain):
    # c is a member but its edge to b is outside the 1-hop expansion of {a}
    g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    sg = expand(g, {"a"}, ExpansionConfig(1))
    d = node_pair_distance(sg, unit_costs(g), g.node_index("b"), g.node_index("c"))
    assert d == 2.0  # must go b-a-c; the direct edge is not in the subgraph


def test_weighted_distance_matches_enumeration_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 8)
        names = [f"n{i}" for i in range(n)]
        possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        m = rng.randint(1, min(len(possible), 2 * n))
        g = graph_from_edges(rng.sample(possible, m))
        table = {}
        adjacency = {}
        for u in range(len(g)):
            adjacency[u] = [v for v, _ in g.neighbors(u)]
            for v, _ in g.neighbors(u):
                table[(u, v)] = rng.randint(0, 16) / 16.0
        costs = TableCosts(table)
        sg = full_subgraph(g)
        source = rng.randrange(len(g))
        best = enum_shortest_from(len(g), table, adjacency, source)
        for target in range(len(g)):
            got = node_pair_distance(sg, costs, source, target)
            want = best.get(target, DISCONNECTED)
            assert got == want, (g.ids, source, target)


def test_unweighted_distance_equals_bfs_hops():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 9)
        names = [f"n{i}" for i in range(n)]
        possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        g = graph_from_edges(rng.sample(possible, rng.randint(1, len(possible))))
        sg = full_subgraph(g)
        costs = unit_costs(g)
        adjacency = {u: [v for v, _ in g.neighbors(u)] for u in range(len(g))}
        source = rng.randrange(len(g))
        hops = bfs_hops(adjacency, source)
        for target in range(len(g)):
            got = node_pair_distance(sg, costs, source, target)
            assert got == hops.get(target, DISCONNECTED)


@st.composite
def union_case(draw):
    """A graph with pendant chains and maybe a second component, a two-article
    union inside it, and two query seed lists drawn independently of the
    union, so seeds may be leaves, outside the union or missing."""
    preds = st.sampled_from(["p", "q", "r"])
    n = draw(st.integers(2, 8))
    names = [f"n{i}" for i in range(n)]
    possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = [(a, b, p) for (a, b), p in draw(st.lists(
        st.tuples(st.sampled_from(possible), preds), min_size=1, max_size=14))]
    for c in range(draw(st.integers(0, 2))):
        prev = draw(st.sampled_from(names))
        for k in range(draw(st.integers(1, 3))):
            edges.append((prev, f"t{c}.{k}", draw(preds)))
            prev = f"t{c}.{k}"
    if draw(st.booleans()):
        edges += [("x0", "x1", "p"), ("x1", "x2", "q")]
    g = graph_from_edges(edges)
    ids = sorted(g.ids)
    cfg = ExpansionConfig(draw(st.sampled_from([1, 2])))
    grow = st.sets(st.sampled_from(ids), min_size=1, max_size=3)
    u = union(expand(g, draw(grow), cfg), expand(g, draw(grow), cfg))
    query = st.lists(st.sampled_from(ids + ["m.missing"]), min_size=1, max_size=4,
                     unique=True)
    return g, u, sorted(draw(query)), sorted(draw(query))


@given(union_case(), st.sampled_from(list(WeightingScheme)))
@settings(max_examples=150, deadline=None)
def test_core_pair_pass_equals_full_dijkstra_oracle(case, scheme):
    g, u, s1, s2 = case
    costs = EdgeCosts(g, scheme)
    forward = union_distance_matrix(u, costs, s1, s2)
    backward = union_distance_matrix(u, costs, s2, s1)
    assert distance_matrix(u, costs, s1, s2) == forward
    assert pair_matrices(u, costs, s1, s2) == (forward, backward)


# ------------------------------------------------------------ sed variants

def row_sed(s1, s2, sg, costs, penalty, max_finite):
    cfg = ScoringConfig(variant=SedVariant.ROW, penalty=penalty)
    return sed_variant(s1, s2, sg, costs, cfg, max_finite)


def test_sed_identical_seed_sets_is_zero(chain):
    sg = expand(chain, {"a", "b"}, ExpansionConfig(1))
    d = row_sed({"a", "b"}, {"a", "b"}, sg, unit_costs(chain), 0.98, 4.0)
    assert d == 0.0


def test_sed_directional_normalizes_by_corpus_max(chain):
    sg = full_subgraph(chain)
    d = row_sed({"a"}, {"c"}, sg, unit_costs(chain), 0.98, 4.0)
    assert d == pytest.approx(0.5)


def test_sed_directional_penalty_for_disconnected():
    g = graph_from_edges([("a", "b"), ("z", "w")])
    sg = full_subgraph(g)
    d = row_sed({"a"}, {"z"}, sg, unit_costs(g), 0.98, 4.0)
    assert d == 0.98


def test_sed_directional_missing_seed_contributes_penalty(chain):
    sg = full_subgraph(chain)
    d = row_sed({"a", "ghost"}, {"c"}, sg, unit_costs(chain), 0.9, 2.0)
    # row a: 2/2 = 1.0; row ghost: penalty 0.9
    assert d == pytest.approx((1.0 + 0.9) / 2)


def test_sed_directional_rejects_empty(chain):
    sg = full_subgraph(chain)
    with pytest.raises(ValueError):
        row_sed(set(), {"a"}, sg, unit_costs(chain), 0.98, 1.0)
    with pytest.raises(ValueError):
        row_sed({"a"}, set(), sg, unit_costs(chain), 0.98, 1.0)


def test_sed_variant_worked_example(chain):
    sg = full_subgraph(chain)
    costs = unit_costs(chain)
    mx = 2.0
    base = dict(u=sg, costs=costs, max_finite=mx)
    row = sed_variant({"a"}, {"b", "c"}, sg, costs,
                      ScoringConfig(variant=SedVariant.ROW), mx)
    assert row == pytest.approx(0.5)
    row_rev = sed_variant({"a"}, {"b", "c"}, sg, costs,
                          ScoringConfig(variant=SedVariant.ROW, reverse_direction=True), mx)
    assert row_rev == pytest.approx(0.75)
    sym = sed_variant({"a"}, {"b", "c"}, sg, costs,
                      ScoringConfig(variant=SedVariant.SYM), mx)
    assert sym == pytest.approx(0.625)
    avg = sed_variant({"a"}, {"b", "c"}, sg, costs,
                      ScoringConfig(variant=SedVariant.AVG), mx)
    assert avg == pytest.approx(0.75)


def test_sym_is_argument_order_invariant(chain):
    sg = full_subgraph(chain)
    costs = unit_costs(chain)
    cfg = ScoringConfig(variant=SedVariant.SYM)
    d1 = sed_variant({"a"}, {"b", "c"}, sg, costs, cfg, 2.0)
    d2 = sed_variant({"b", "c"}, {"a"}, sg, costs, cfg, 2.0)
    assert d1 == d2


def test_sym_equals_mean_of_rows(chain):
    sg = full_subgraph(chain)
    costs = unit_costs(chain)
    cfg_row = ScoringConfig(variant=SedVariant.ROW)
    f = sed_variant({"a", "b"}, {"c"}, sg, costs, cfg_row, 2.0)
    b = sed_variant({"c"}, {"a", "b"}, sg, costs, cfg_row, 2.0)
    sym = sed_variant({"a", "b"}, {"c"}, sg, costs,
                      ScoringConfig(variant=SedVariant.SYM), 2.0)
    assert sym == (f + b) / 2.0


def test_penalty_monotonicity(chain):
    g = graph_from_edges([("a", "b"), ("z", "w")])
    sg = full_subgraph(g)
    costs = unit_costs(g)
    values = [
        sed_variant({"a", "z"}, {"b", "w"}, sg, costs,
                    ScoringConfig(variant=SedVariant.SYM, penalty=p), 1.0)
        for p in (1.0, 0.98, 0.95, 0.90)
    ]
    assert values == sorted(values, reverse=True)


def test_scoring_config_validates_penalty():
    with pytest.raises(ValueError):
        ScoringConfig(penalty=1.5)


# -------------------------------------------------------------- normalize

def test_normalize_zero():
    assert normalize_distance(0.0, 4.0, 0.98) == 0.0


def test_normalize_endpoint():
    assert normalize_distance(4.0, 4.0, 0.98) == 1.0


def test_normalize_disconnected_uses_penalty():
    assert normalize_distance(DISCONNECTED, 4.0, 0.95) == 0.95


# -------------------------------------------------------------- baselines

def test_baseline_identical_vectors():
    assert baseline_distance({"x": 2.0, "y": 1.0}, {"x": 2.0, "y": 1.0}) == 0.0


def test_baseline_negative_cosine_clamps():
    assert baseline_distance({"x": 1.0, "y": -1.0}, {"x": -1.0, "y": 1.0}) == 1.0


def test_baseline_orthogonal():
    assert baseline_distance({"x": 1.0}, {"y": 1.0}) == 1.0


def test_baseline_zero_vector():
    assert baseline_distance({}, {"x": 1.0}) == 1.0


# ---------------------------------------------------------- znormalize

def test_znormalize_two_point():
    z, mean, std = znormalize([1.0, 3.0])
    assert list(z) == [-1.0, 1.0]
    assert (mean, std) == (2.0, 1.0)


def test_znormalize_constant_warns(caplog):
    with caplog.at_level(logging.WARNING):
        z, _, std = znormalize([2.0, 2.0, 2.0])
    assert std == 0.0
    assert list(z) == [0.0, 0.0, 0.0]
    assert any("constant" in r.message for r in caplog.records)


def test_znormalize_moments():
    rng = random.Random(3)
    values = [rng.uniform(0, 5) for _ in range(101)]
    z, _, _ = znormalize(values)
    assert abs(float(np.mean(z))) < 1e-9
    assert abs(float(np.var(z)) - 1.0) < 1e-9


def test_znormalize_needs_two():
    with pytest.raises(ValueError):
        znormalize([1.0])


# ------------------------------------------------------------- ensembles

def test_ensemble_with_self_is_identity():
    raw = {f"p{i}": float(i * i % 7) for i in range(10)}
    t = table_from_raw("m", raw)
    col = {r.pair_id: r.z_score for r in t.rows}
    combined = ensemble({"m1": col, "m2": col})
    for pid, z in combined.items():
        assert z == pytest.approx(col[pid], abs=1e-9)


def test_ensemble_cancellation_yields_no_recommendations(caplog):
    c1 = {"p1": 1.0, "p2": -1.0}
    c2 = {"p1": -1.0, "p2": 1.0}
    with caplog.at_level(logging.WARNING):
        combined = ensemble({"a": c1, "b": c2})
    assert combined == {"p1": 0.0, "p2": 0.0}


def test_ensemble_three_method_hand_check():
    cols = {
        "a": {"p1": 1.0, "p2": 0.0, "p3": -1.0},
        "b": {"p1": 0.5, "p2": -0.5, "p3": 0.0},
        "c": {"p1": 0.0, "p2": 1.0, "p3": -1.0},
    }
    means = {p: (cols["a"][p] + cols["b"][p] + cols["c"][p]) / 3 for p in cols["a"]}
    vals = [means[p] for p in sorted(means)]
    mu = sum(vals) / 3
    sd = math.sqrt(sum((v - mu) ** 2 for v in vals) / 3)
    expected = {p: (means[p] - mu) / sd for p in means}
    combined = ensemble(cols)
    for p in expected:
        assert combined[p] == pytest.approx(expected[p])


def test_ensemble_rejects_mismatched_pairs():
    with pytest.raises(InputDataError):
        ensemble({"a": {"p1": 0.0, "p2": 1.0}, "b": {"p1": 0.0, "p3": 1.0}})


# ------------------------------------------------------- embedding import

def test_import_embedding_ok(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("pair_id,distance\np1,0.25\np2,1.0\n")
    table = import_embedding_scores(path, ["p1", "p2"])
    col = table.column("embedding")
    assert col["p1"].raw_distance == 0.25


def test_import_embedding_rejects_out_of_range(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("pair_id,distance\np1,1.3\np2,0.5\n")
    with pytest.raises(InputDataError, match=":2"):
        import_embedding_scores(path, ["p1", "p2"])


def test_import_embedding_rejects_missing_pair(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("pair_id,distance\np1,0.5\n")
    with pytest.raises(InputDataError, match="p2"):
        import_embedding_scores(path, ["p1", "p2"])


def test_import_embedding_rejects_unknown_pair(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("pair_id,distance\nweird,0.5\n")
    with pytest.raises(InputDataError, match="weird"):
        import_embedding_scores(path, ["p1"])


# ------------------------------------------------------------- score table

def test_score_table_round_trip(tmp_path):
    t = table_from_raw("m", {"p1": 0.3, "p2": 0.9, "p3": 0.5})
    path = tmp_path / "scores.csv"
    t.write_csv(path)
    back = ScoreTable.read_csv(path)
    assert {r.pair_id: r.z_score for r in back.rows} == \
        {r.pair_id: r.z_score for r in t.rows}
    assert back.column("m")["p1"].decision == t.column("m")["p1"].decision


def test_score_table_merge_rejects_duplicate_methods():
    t1 = table_from_raw("m", {"p1": 0.1, "p2": 0.2})
    t2 = table_from_raw("m", {"p1": 0.3, "p2": 0.4})
    with pytest.raises(InputDataError):
        t1.merge(t2)


# ------------------------------------------------------------ sed pipeline

@pytest.fixture
def mini_world():
    g = graph_from_edges(
        [("m.a1", "m.hub"), ("m.a2", "m.hub"), ("m.b1", "m.hub2"),
         ("m.b2", "m.hub2"), ("m.hub", "m.hub2"), ("m.b1", "m.hub"),
         ("m.c1", "m.c2")],
        titles={"m.a1": "Alphaone", "m.b1": "Betaone"},
    )
    articles = {
        "art1": Article("art1", "alpha news", "talk of alphaone and more"),
        "art2": Article("art2", "beta news", "betaone developments continue"),
        "art3": Article("art3", "gamma news", "isolated topic entirely"),
    }
    annotations = {
        "art1": [EntityAnnotation("art1", "A1", "m.a1", "PER", 3, 0),
                 EntityAnnotation("art1", "A2", "m.a2", "ORG", 1, 10)],
        "art2": [EntityAnnotation("art2", "B1", "m.b1", "PER", 2, 0)],
        "art3": [EntityAnnotation("art3", "C1", "m.c1", "FAC", 1, 0)],
    }
    pairs = [("p1", "art1", "art2"), ("p2", "art1", "art3"), ("p3", "art2", "art3")]
    return g, articles, annotations, pairs


def test_score_sed_pipeline_runs(mini_world):
    g, articles, annotations, pairs = mini_world
    cfg = ScoringConfig(variant=SedVariant.SYM, weighting=WeightingScheme.RWS,
                        context_words=ContextWordConfig(0))
    table = score_sed(g, articles, pairs, annotations, cfg)
    col = table.column("sed")
    assert set(col) == {"p1", "p2", "p3"}
    assert all(0.0 <= r.raw_distance <= 1.0 for r in col.values())
    # art1/art2 share a connected region; art3 is off on its own
    assert col["p1"].raw_distance < col["p2"].raw_distance


def test_score_sed_jobs_do_not_change_results(mini_world):
    g, articles, annotations, pairs = mini_world
    cfg = ScoringConfig()
    t1 = score_sed(g, articles, pairs, annotations, cfg, jobs=1)
    t2 = score_sed(g, articles, pairs, annotations, cfg, jobs=3)
    assert [(r.pair_id, r.raw_distance, r.z_score) for r in t1.rows] == \
        [(r.pair_id, r.raw_distance, r.z_score) for r in t2.rows]


def test_score_sed_serial_fallback_is_logged(mini_world, monkeypatch, caplog):
    g, articles, annotations, pairs = mini_world
    cfg = ScoringConfig()
    serial = score_sed(g, articles, pairs, annotations, cfg, jobs=1)
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: "spawn")
    with caplog.at_level(logging.WARNING, logger="sedrec.scoring"):
        fallback = score_sed(g, articles, pairs, annotations, cfg, jobs=2)
    assert any(r.levelno == logging.WARNING and "serially" in r.getMessage()
               for r in caplog.records)
    assert fallback.rows == serial.rows


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the pair pass runs in workers only under fork")
def test_score_sed_jobs_split_small_pair_lists(mini_world, monkeypatch, tmp_path):
    g, articles, annotations, pairs = mini_world
    pids = tmp_path / "pids"
    real = scoring._chunk_matrices

    def recording(*args, **kwargs):
        time.sleep(0.05)  # hold the chunk so an idle worker takes the next one
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(scoring, "_chunk_matrices", recording)
    eight = [(f"q{i}", *pairs[i % 3][1:]) for i in range(8)]
    score_sed(g, articles, eight, annotations, ScoringConfig(), jobs=2)
    workers = set(pids.read_text().split())
    assert len(workers) > 1 and str(os.getpid()) not in workers


@pytest.mark.parametrize("scheme", [WeightingScheme.RWS, WeightingScheme.JOINT_IC])
def test_score_sed_agrees_with_sed_variant(mini_world, scheme):
    g, articles, annotations, pairs = mini_world
    configs = [
        ScoringConfig(variant=SedVariant.ROW, weighting=scheme),
        ScoringConfig(variant=SedVariant.ROW, weighting=scheme, reverse_direction=True),
        ScoringConfig(variant=SedVariant.SYM, weighting=scheme),
        ScoringConfig(variant=SedVariant.AVG, weighting=scheme),
        ScoringConfig(variant=SedVariant.AVG, weighting=scheme, reverse_direction=True),
    ]
    costs = EdgeCosts(g, scheme)
    for cfg in configs:
        table = score_sed(g, articles, pairs, annotations, cfg)
        mx = table.stats["sed"].max_finite
        seeds = compute_seed_sets(articles, annotations, g, cfg)
        col = table.column("sed")
        for pid, a, b in pairs:
            u = union(expand(g, seeds[a], cfg.expansion), expand(g, seeds[b], cfg.expansion))
            want = sed_variant(seeds[a], seeds[b], u, costs, cfg, max_finite=mx)
            assert col[pid].raw_distance == want, (cfg, pid)


@pytest.mark.parametrize("scheme", [WeightingScheme.RWS, WeightingScheme.JOINT_IC])
def test_one_pass_one_serves_every_variant_and_penalty(mini_world, scheme):
    g, articles, annotations, pairs = mini_world
    p1 = pass_one(g, articles, pairs, annotations, ScoringConfig(weighting=scheme))
    for variant, reverse in [(SedVariant.ROW, False), (SedVariant.ROW, True),
                             (SedVariant.SYM, False), (SedVariant.AVG, False),
                             (SedVariant.AVG, True)]:
        for penalty in (1.0, 0.98, 0.9):
            cfg = ScoringConfig(variant=variant, reverse_direction=reverse,
                                penalty=penalty, weighting=scheme)
            want = score_sed(g, articles, pairs, annotations, cfg)
            got = score_from(p1, cfg)
            assert got.rows == want.rows and got.stats == want.stats, cfg


@pytest.mark.parametrize("change", [
    {"expansion": ExpansionConfig(2)},
    {"weighting": WeightingScheme.AF},
    {"screening": ScreeningConfig(top_k=1)},
    {"context_words": ContextWordConfig(0)},
], ids=["expansion", "weighting", "screening", "context_words"])
def test_score_from_rejects_other_pass_one_settings(mini_world, change):
    g, articles, annotations, pairs = mini_world
    p1 = pass_one(g, articles, pairs, annotations, ScoringConfig())
    with pytest.raises(ValueError, match=next(iter(change))):
        score_from(p1, ScoringConfig(**change))


def random_pass_world(seed, n_articles=5):
    """A seeded random graph with three predicates and an isolated node
    ``lone``; articles that share seeds; articles with an unresolvable seed,
    the isolated seed, and only unresolvable seeds; and pairs that share
    articles, repeat one pair and join the two unresolvable articles into an
    empty union."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(14)]
    possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    g = graph_from_edges([(a, b, rng.choice("pqr")) for a, b in rng.sample(possible, 24)],
                         titles={"lone": "Lone"})
    linked = sorted(set(g.ids) - {"lone"})
    seeds = {f"a{k}": rng.sample(linked, rng.randint(1, 3)) for k in range(n_articles)}
    seeds.update(unresolved=[linked[0], "m.missing"], isolated=["lone", linked[-1]],
                 gone1=["m.missing"], gone2=["m.gone"])
    articles = {a: Article(a, f"title {a}", "body") for a in seeds}
    annotations = {a: [EntityAnnotation(a, s, s, "PER", 1, i) for i, s in enumerate(ss)]
                   for a, ss in seeds.items()}
    chosen = [(a, b) for i, a in enumerate(sorted(seeds)) for b in sorted(seeds)[i:]
              if rng.random() < 0.4]
    chosen += [("a0", "a1"), ("a0", "a1"), ("a0", "a0"), ("unresolved", "a2"),
               ("isolated", "a3"), ("gone1", "gone2"), ("isolated", "gone1")]
    pairs = [(f"p{k:03d}", a, b) for k, (a, b) in enumerate(chosen)]
    return g, articles, annotations, pairs, {a: frozenset(ss) for a, ss in seeds.items()}


def pass_config(scheme, radius):
    return ScoringConfig(weighting=scheme, expansion=ExpansionConfig(radius),
                         screening=ScreeningConfig(drop_types=frozenset(), top_k=None),
                         context_words=ContextWordConfig(0))


def oracle_subgraph(g, seeds, radius):
    nodes = [g.node_index(s) for s in seeds if g.has_node(s)]
    members, edges = expand_bfs(g, nodes, radius)
    return SubGraph(g, frozenset(nodes), frozenset(members), frozenset(edges))


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("scheme", list(WeightingScheme), ids=lambda s: s.value)
def test_batched_pass_one_equals_full_dijkstra_oracle(scheme, radius):
    for seed in range(4):
        g, articles, annotations, pairs, seeds = random_pass_world(seed)
        p1 = pass_one(g, articles, pairs, annotations, pass_config(scheme, radius))
        costs = EdgeCosts(g, scheme)
        assert list(p1.matrices) == [pid for pid, _, _ in pairs]
        finite = [0.0]
        for pid, a, b in pairs:
            u = union(oracle_subgraph(g, seeds[a], radius), oracle_subgraph(g, seeds[b], radius))
            s1, s2 = sorted(seeds[a]), sorted(seeds[b])
            want = (union_distance_matrix(u, costs, s1, s2),
                    union_distance_matrix(u, costs, s2, s1))
            assert p1.matrices[pid] == want, (seed, pid)
            finite += [d for mat in want for row in mat for d in row if math.isfinite(d)]
        assert p1.max_finite == (max(finite) if max(finite) > 0.0 else 1.0)


@pytest.mark.parametrize("scheme", [WeightingScheme.RWS, WeightingScheme.AF_IAF])
def test_pass_one_is_unchanged_by_small_batches(monkeypatch, scheme):
    g, articles, annotations, pairs, _ = random_pass_world(5, n_articles=8)
    cfg = pass_config(scheme, 2)
    whole = pass_one(g, articles, pairs, annotations, cfg)
    batches = []
    real = scoring._core_batch

    def counting(*args):
        batches.append(len(args[-1]))
        return real(*args)

    monkeypatch.setattr(scoring, "_core_batch", counting)
    monkeypatch.setattr(scoring, "_BATCH_EDGES", 1)
    assert pass_one(g, articles, pairs, annotations, cfg) == whole
    assert len(batches) > 1 and sum(batches) == len(pairs)


def test_pass_one_memory_per_union_edge():
    """Pass one's tracemalloc peak, per union edge, on a 2-hop graph: 83
    bytes measured here. The peak is one batch of core-graph arrays over all
    27 pairs; a per-pair dict core measured 69, held one union at a time."""
    rng = random.Random(3)
    n, m = 2000, 10000
    edges = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((f"n{u:04d}", f"n{v:04d}"))
    g = graph_from_edges(sorted(edges))
    seeds = {f"a{k:02d}": rng.sample(g.ids, 2) for k in range(12)}
    articles = {a: Article(a, f"title {a}", "body") for a in seeds}
    annotations = {a: [EntityAnnotation(a, s, s, "PER", 1, i) for i, s in enumerate(ss)]
                   for a, ss in seeds.items()}
    aids = sorted(seeds)
    pairs = [(f"p{k:02d}", a, b) for k, (a, b) in enumerate(
        (a, b) for i, a in enumerate(aids) for b in aids[i + 1:] if rng.random() < 0.5)]
    cfg = pass_config(WeightingScheme.UNWEIGHTED, 2)
    union_edges = sum(len(union(expand(g, seeds[a], cfg.expansion),
                                expand(g, seeds[b], cfg.expansion)).edges) for _, a, b in pairs)
    pass_one(g, articles, pairs, annotations, cfg)  # warm caches and imports
    gc.collect()
    tracemalloc.start()
    try:
        pass_one(g, articles, pairs, annotations, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert union_edges > 10000
    assert peak / union_edges < 110, (peak, union_edges)


def test_score_sed_row_directions_average_to_sym(mini_world):
    g, articles, annotations, pairs = mini_world
    fwd = score_sed(g, articles, pairs, annotations,
                    ScoringConfig(variant=SedVariant.ROW))
    rev = score_sed(g, articles, pairs, annotations,
                    ScoringConfig(variant=SedVariant.ROW, reverse_direction=True))
    sym = score_sed(g, articles, pairs, annotations,
                    ScoringConfig(variant=SedVariant.SYM))
    f = {r.pair_id: r.raw_distance for r in fwd.rows}
    b = {r.pair_id: r.raw_distance for r in rev.rows}
    s = {r.pair_id: r.raw_distance for r in sym.rows}
    for pid in s:
        assert s[pid] == (f[pid] + b[pid]) / 2.0


def test_score_sed_requires_seeds(mini_world):
    g, articles, annotations, pairs = mini_world
    annotations = dict(annotations)
    del annotations["art3"]
    cfg = ScoringConfig(context_words=ContextWordConfig(0))
    with pytest.raises(InputDataError, match="art3"):
        score_sed(g, articles, pairs, annotations, cfg)


def test_score_tfidf_pipeline(mini_world):
    _, articles, _, pairs = mini_world
    table = score_tfidf(articles, pairs)
    col = table.column("tfidf")
    assert set(col) == {"p1", "p2", "p3"}
    assert all(0.0 <= r.raw_distance <= 1.0 for r in col.values())


def test_scoring_rejects_single_pair(mini_world):
    g, articles, annotations, pairs = mini_world
    with pytest.raises(InputDataError, match="two article pairs"):
        score_sed(g, articles, pairs[:1], annotations, ScoringConfig())
    with pytest.raises(InputDataError, match="two article pairs"):
        score_tfidf(articles, pairs[:1])


def test_frequency_scheme_costs_are_symmetric(mini_world):
    g, articles, annotations, pairs = mini_world
    costs = EdgeCosts(g, WeightingScheme.AF)
    u, v = g.edge_endpoints[0]
    first = costs.cost(u, v, 0)
    assert costs.cost(v, u, 0) == first  # one table entry per edge
    assert 0.0 <= first <= 1.0


@pytest.mark.parametrize("cfg, digest", [
    (ScoringConfig(),
     "cd8feb6db5e2ba97f1092fa1d3a716bab5ad66055dba8dab1368f22d6bce4558"),
    (ScoringConfig(expansion=ExpansionConfig(2)),
     "ae7ecf9d3af63954b3796989ad8bf79e80040e035f18eaa292384d8ecba1aaee"),
    (ScoringConfig(variant=SedVariant.AVG, weighting=WeightingScheme.JOINT_IC,
                   expansion=ExpansionConfig(2)),
     "20ce49daaa663f3081467857e660ecb6efaba79d1ae461e7ff57c9bdea6f123d"),
    (ScoringConfig(variant=SedVariant.ROW, reverse_direction=True,
                   weighting=WeightingScheme.AF),
     "3175f1ef67e408430e8b948d736f2e12ee984d8e40936f71ca21f7733b2a8530"),
], ids=["sym-rws-1hop", "sym-rws-2hop", "avg-jointic-2hop", "row-reversed-af-1hop"])
def test_score_csv_digests_are_pinned(synthetic_root, tmp_path, cfg, digest):
    g = build_graph(parse_ntriples(synthetic_root / "kg.nt"),
                    PruneConfig(english_only=True, min_out_degree=0))
    articles, records = load_cnrec(synthetic_root)
    annotations = load_annotations(synthetic_root / "entities.tsv")
    pairs = [(r.pair_id, r.article_a, r.article_b) for r in records]
    score_sed(g, articles, pairs, annotations, cfg).write_csv(tmp_path / "sed.csv")
    assert hashlib.sha256((tmp_path / "sed.csv").read_bytes()).hexdigest() == digest
