import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedrec import weighting
from sedrec.errors import InputDataError
from sedrec.kg import KnowledgeGraph
from sedrec.weighting import (
    EdgeCosts,
    WeightingScheme,
    _frequency,
    frequency_costs,
    joint_ic_costs,
    rws_cost,
)

from helpers import graph_from_edges

from oracles import frequency_loop, joint_ic_loop, overlap_cost


def by_predicate(g, scheme):
    """``_frequency``'s scores keyed by predicate name; none without edges."""
    return dict(zip(g.predicates, _frequency(g, scheme))) if g.num_edges else {}


def neighbor_sets(g):
    return {i: {v for v, _ in g.neighbors(i)} for i in range(len(g))}


# ------------------------------------------------------------------ RWS

def test_rws_mutually_isolated_pair_is_zero():
    g = graph_from_edges([("i", "j")])
    i, j = g.node_index("i"), g.node_index("j")
    assert rws_cost(g, i, j) == 0.0
    assert rws_cost(g, j, i) == 0.0


def test_rws_directional_hand_count():
    g = graph_from_edges([("i", "j"), ("i", "x"), ("i", "y"), ("j", "x")])
    i, j = g.node_index("i"), g.node_index("j")
    assert rws_cost(g, i, j) == pytest.approx(0.25)
    assert rws_cost(g, j, i) == 0.0


def test_rws_triangle_all_zero():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    for u in range(3):
        for v, _ in g.neighbors(u):
            assert rws_cost(g, u, v) == 0.0


def test_rws_requires_adjacency():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    with pytest.raises(ValueError):
        rws_cost(g, g.node_index("a"), g.node_index("c"))


def test_rws_subset_neighborhood_costs_zero():
    # closed nbhd of j ({i,j,x}) is a subset of i's ({i,j,x,y})
    g = graph_from_edges([("i", "j"), ("i", "x"), ("i", "y"), ("j", "x")])
    assert rws_cost(g, g.node_index("j"), g.node_index("i")) == 0.0


# ---------------------------------------------------- frequency schemes

def test_af_single_predicate_all_zero():
    g = graph_from_edges([("a", "b", "p"), ("b", "c", "p")])
    assert frequency_costs(g, WeightingScheme.AF).tolist() == [0.0, 0.0]


def test_af_two_predicates_counts_10_and_5():
    edges = [(f"a{i}", f"b{i}", "p1") for i in range(10)]
    edges += [(f"c{i}", f"d{i}", "p2") for i in range(5)]
    g = graph_from_edges(edges)
    scores = by_predicate(g, WeightingScheme.AF)
    assert scores == {"p1": 1.0, "p2": 0.5}
    costs = frequency_costs(g, WeightingScheme.AF)
    by_pred = {g.edge_predicates[e][0]: c for e, c in enumerate(costs)}
    assert by_pred == {"p1": 0.0, "p2": 0.5}


def test_iaf_ubiquitous_predicate_costs_one():
    # p touches every node; q only two of them
    g = graph_from_edges([("a", "b", "p"), ("b", "c", "p"), ("c", "d", "p"),
                          ("a", "d", "q")])
    costs = frequency_costs(g, WeightingScheme.IAF)
    by_pred = {g.edge_predicates[e][0]: c for e, c in enumerate(costs)}
    assert by_pred["p"] == 1.0
    assert by_pred["q"] == 0.0  # rarest predicate is free


def test_iaf_degenerate_all_predicates_everywhere():
    g = graph_from_edges([("a", "b", "p"), ("b", "c", "p"), ("a", "c", "p")])
    assert frequency_costs(g, WeightingScheme.IAF).tolist() == [1.0, 1.0, 1.0]


def test_af_iaf_is_product_of_normalized_scores():
    edges = [(f"a{i}", f"b{i}", "p1") for i in range(4)]
    edges += [("x", "y", "p2")]
    g = graph_from_edges(edges)
    af = by_predicate(g, WeightingScheme.AF)
    iaf = by_predicate(g, WeightingScheme.IAF)
    both = by_predicate(g, WeightingScheme.AF_IAF)
    assert both == {p: af[p] * iaf[p] for p in af}


def test_frequency_cost_uses_best_predicate_on_collapsed_edge():
    edges = [(f"a{i}", f"b{i}", "p1") for i in range(10)]
    edges += [("x", "y", "p1"), ("x", "y", "p2")]
    g = graph_from_edges(edges)
    e = g.edge_between(g.node_index("x"), g.node_index("y"))
    assert frequency_costs(g, WeightingScheme.AF)[e] == 0.0


# --------------------------------------------------------------- JointIC

# A 4-cycle of p edges with a p chord plus one rare q edge: predicate degrees
# vary on both endpoints, so the information contents genuinely spread out.
_JOINT_IC_TOY = [
    ("a", "b", "p"), ("b", "c", "p"), ("c", "d", "p"), ("d", "a", "p"),
    ("a", "c", "p"), ("b", "d", "q"),
]


def test_joint_ic_endpoints_of_normalization():
    g = graph_from_edges(_JOINT_IC_TOY)
    costs = joint_ic_costs(g)
    assert min(costs) == 0.0
    assert max(costs) == 1.0
    assert all(0.0 <= c <= 1.0 for c in costs)
    # the rare predicate's edge is the most informative, hence free
    e_q = g.edge_between(g.node_index("b"), g.node_index("d"))
    assert costs[e_q] == 0.0
    # the chord joins the two best-connected p nodes: least informative
    e_chord = g.edge_between(g.node_index("a"), g.node_index("c"))
    assert costs[e_chord] == 1.0


def test_joint_ic_toy_graph_vs_hand_computation():
    g = graph_from_edges(_JOINT_IC_TOY)
    counts = {"p": 5, "q": 1}
    total = 6
    deg = {}
    for e, preds in enumerate(g.edge_predicates):
        u, v = g.edge_endpoints[e]
        for p in preds:
            deg[(p, u)] = deg.get((p, u), 0) + 1
            deg[(p, v)] = deg.get((p, v), 0) + 1
    expected_ic = []
    for e, preds in enumerate(g.edge_predicates):
        u, v = g.edge_endpoints[e]
        best = -math.inf
        for p in preds:
            for obj in (u, v):
                ic = -math.log(counts[p] / total) - math.log(
                    deg[(p, obj)] / (2 * counts[p]))
                best = max(best, ic)
        expected_ic.append(best)
    lo, hi = min(expected_ic), max(expected_ic)
    expected = tuple(1.0 - (ic - lo) / (hi - lo) for ic in expected_ic)
    assert joint_ic_costs(g) == pytest.approx(expected)


def test_joint_ic_degenerate_uniform_graph():
    g = graph_from_edges([("a", "b", "p"), ("c", "d", "p")])
    assert joint_ic_costs(g).tolist() == [0.0, 0.0]


def heavy_tailed_graph(seed=26):
    """Four hubs of degree 150-320 over 500 nodes, one predicate in half the
    draws and 2-3 predicates on about a quarter of the edges: (predicate, node)
    slots count up to 174 incidences, and 1,663 slots share 55 (predicate,
    count) pairs."""
    rng = random.Random(seed)
    n, preds, weights = 500, ["p0", "p1", "p2", "p3", "p4", "p5"], [16, 8, 4, 2, 1, 1]
    edges = {}

    def add(u, v):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), set()).update(
                rng.choices(preds, weights, k=rng.choice((1, 1, 1, 1, 2, 3))))

    for hub in range(4):
        for v in rng.sample(range(4, n), rng.randint(150, 320)):
            add(hub, v)
    for _ in range(900):
        add(rng.randrange(4, n), rng.randrange(4, n))
    endpoints = sorted(edges)
    return KnowledgeGraph([f"n{i}" for i in range(n)], [f"N{i}" for i in range(n)],
                          endpoints, [tuple(sorted(edges[e])) for e in endpoints])


def joint_ic_oracle_bytes(g):
    return np.array(joint_ic_loop(g), dtype=np.float64).tobytes()


@pytest.mark.parametrize("g", [
    graph_from_edges([("a", "b", "p"), ("a", "b", "q"), ("b", "c", "q"),
                      ("c", "d", "r"), ("c", "d", "p"), ("a", "c", "p")]),
    graph_from_edges([("a", "b", "p"), ("c", "d", "p")]),
    KnowledgeGraph([], [], [], []),
    KnowledgeGraph(["n"], ["N"], [], []),
    heavy_tailed_graph(),
], ids=["multi-predicate", "uniform", "empty", "no-edges", "heavy-tailed"])
def test_joint_ic_table_equals_loop_oracle(g):
    got = joint_ic_costs(g)
    assert got.dtype == np.float64 and got.shape == (g.num_edges,)
    assert got.tobytes() == joint_ic_oracle_bytes(g)


def test_joint_ic_heavy_tailed_table_is_pinned():
    g = heavy_tailed_graph()
    g.validate()
    slots = np.bincount(weighting._incidence(g))
    assert max(g.degrees) >= 300 and slots.max() >= 100
    assert np.count_nonzero(np.diff(g.pred_ptr) > 1) > g.num_edges // 5
    got = joint_ic_costs(g)
    assert hashlib.sha256(got.tobytes()).hexdigest() == (
        "7df837f41ce146cc95c207a983293f4ff93b840761ab1a2ba62f44ebb0568e8e")


@pytest.mark.parametrize("sizes, bits", [
    ((12, 50_000, 454_622), 19),
    ((2 ** 20, 2 ** 24, 2 ** 19 - 1), 19),
    ((2 ** 20, 2 ** 24 + 1, 2 ** 19 - 1), None),
    ((2 ** 20, 2 ** 24, 2 ** 19), None),
    ((2, 2 ** 61, 1), 1),
    ((2, 2 ** 61, 2), None),
], ids=["hub", "at-limit", "nodes-past", "positions-past", "one-position", "two-positions"])
def test_joint_ic_key_bits_refuses_a_key_past_int64(sizes, bits):
    if bits is not None:
        assert weighting._joint_ic_key_bits(*sizes) == bits
        return
    with pytest.raises(InputDataError) as exc:
        weighting._joint_ic_key_bits(*sizes)
    predicates, nodes, incidences = sizes
    assert str(exc.value).startswith(
        f"graph too large: the JointIC table packs {predicates} predicates x {nodes} "
        f"nodes x 2**{incidences.bit_length()} incidence positions into int64 keys, "
        f"past the limit 2**63")


# ------------------------------------------------------------ EdgeCosts

def test_unweighted_costs_are_exactly_one():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    costs = EdgeCosts(g, WeightingScheme.UNWEIGHTED)
    a, b = g.node_index("a"), g.node_index("b")
    e = g.edge_between(a, b)
    assert costs.cost(a, b, e) == 1.0 and costs.cost(b, a, e) == 1.0


def test_edge_costs_memoized_rws_matches_direct():
    g = graph_from_edges([("i", "j"), ("i", "x"), ("i", "y"), ("j", "x")])
    costs = EdgeCosts(g, WeightingScheme.RWS)
    i, j = g.node_index("i"), g.node_index("j")
    e = g.edge_between(i, j)
    assert costs.cost(i, j, e) == rws_cost(g, i, j)
    assert costs.cost(i, j, e) == costs.cost(i, j, e)  # memo path
    assert costs.cost(i, j, e) == pytest.approx(0.25)
    assert costs.cost(j, i, e) == 0.0


def test_edge_cost_pair_rejects_non_edges():
    # a node pair without an edge has no edge index to pass to cost();
    # rws_cost, the node-pair entry point, refuses it in either direction
    g = graph_from_edges([("a", "b"), ("b", "c")])
    a, c = g.node_index("a"), g.node_index("c")
    for source, target in ((a, c), (c, a)):
        with pytest.raises(ValueError):
            rws_cost(g, source, target)


# ------------------------------------------------------------ properties

@st.composite
def random_graph(draw, min_nodes=2, max_nodes=10):
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"n{i}" for i in range(n)]
    possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    preds = st.sampled_from(["p", "q", "r", "s"])
    chosen = draw(st.lists(st.tuples(st.sampled_from(possible), preds),
                           min_size=1, max_size=20))
    return graph_from_edges([(u, v, p) for (u, v), p in chosen])


@given(random_graph())
@settings(max_examples=80)
def test_rws_costs_in_unit_interval_and_match_oracle(g):
    sets = neighbor_sets(g)
    for e, (u, v) in enumerate(g.edge_endpoints):
        for a, b in ((u, v), (v, u)):
            c = rws_cost(g, a, b)
            assert 0.0 <= c < 1.0
            assert c == pytest.approx(overlap_cost(sets, a, b))


@given(random_graph(), st.sampled_from(list(WeightingScheme)))
@settings(max_examples=80)
def test_edge_costs_match_scheme_functions(g, scheme):
    costs = EdgeCosts(g, scheme)
    if scheme is WeightingScheme.UNWEIGHTED:
        table = (1.0,) * g.num_edges
    elif scheme is WeightingScheme.JOINT_IC:
        table = joint_ic_costs(g)
    elif scheme is not WeightingScheme.RWS:
        table = frequency_costs(g, scheme)
    for e, (u, v) in enumerate(g.edge_endpoints):
        for a, b in ((u, v), (v, u)):
            want = rws_cost(g, a, b) if scheme is WeightingScheme.RWS else table[e]
            assert costs.cost(a, b, e) == want


def priced_both_ways(g):
    return [step for e, (u, v) in enumerate(g.edge_endpoints) for step in ((u, v, e), (v, u, e))]


@given(random_graph(), st.sampled_from(list(WeightingScheme)), st.randoms(use_true_random=False))
@example(graph_from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]),
         WeightingScheme.RWS, random.Random(0))
@example(graph_from_edges([("i", "j")]), WeightingScheme.RWS, random.Random(1))
@example(KnowledgeGraph([], [], [], []), WeightingScheme.RWS, random.Random(2))
@example(KnowledgeGraph(["n"], ["N"], [], []), WeightingScheme.JOINT_IC, random.Random(3))
@settings(max_examples=120)
def test_gather_equals_scalar_cost(g, scheme, rng):
    """Every directed edge once, then a shuffled draw with repeats that may be
    empty; the examples hold RWS zero-cost edges (a triangle, an isolated
    pair) and edgeless graphs."""
    costs = EdgeCosts(g, scheme)
    steps = priced_both_ways(g)
    draws = [rng.choice(steps) for _ in range(rng.randint(0, 2 * len(steps)))] if steps else []
    for query in (steps, draws, []):
        got = costs.gather(*np.array(query, dtype=np.int64).reshape(-1, 3).T)
        assert got.dtype == np.float64
        assert got.tolist() == [costs.cost(*step) for step in query]


def rws_batches():
    """(graph, batch) cases that stress ``_shared_counts``' filter at its ends."""
    complete = graph_from_edges([(f"k{i}", f"k{j}") for i in range(12) for j in range(i + 1, 12)])
    star = graph_from_edges([("hub", f"leaf{i}") for i in range(30)])
    hub = star.node_index("hub")
    pendant = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("a", "x"), ("a", "y"),
                                ("b", "z"), ("c", "d"), ("d", "e")])
    mixed = graph_from_edges([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d"),
                              ("d", "e"), ("e", "f"), ("f", "a"), ("e", "g")])
    backward = [(t, s, e) for s, t, e in priced_both_ways(pendant)[::2]]
    return {
        # every probe but the other end itself hits, so nearly every mark read is set
        "complete": (complete, priced_both_ways(complete)[::2]),
        # the walked end is always a degree-1 leaf, whose one probe is the hub
        "star": (star, [step for step in priced_both_ways(star) if step[1] == hub]),
        "pendant": (pendant, backward + backward[::-1]),
        "both-directions": (mixed, priced_both_ways(mixed) + priced_both_ways(mixed)[::-3]),
        "empty": (mixed, []),
    }


@pytest.mark.parametrize("case", list(rws_batches()))
@pytest.mark.parametrize("hashing", ["fixed", "constant"])
def test_rws_gather_bytes_equal_scalar_cost(monkeypatch, case, hashing):
    """RWS ``gather`` on adversarial batches is byte-equal to ``cost``, also
    when every key hashes alike and the filter lets every probe through."""
    if hashing == "constant":
        monkeypatch.setattr(weighting, "_bucket", lambda key, bits: np.zeros(len(key), np.int64))
    g, query = rws_batches()[case]
    costs = EdgeCosts(g, WeightingScheme.RWS)
    got = costs.gather(*np.array(query, dtype=np.int64).reshape(-1, 3).T)
    want = np.array([costs.cost(*step) for step in query], dtype=np.float64)
    assert got.dtype == np.float64 and len(got) == len(query)
    assert got.tobytes() == want.tobytes()


@given(random_graph(), st.sampled_from([WeightingScheme.AF, WeightingScheme.IAF,
                                        WeightingScheme.AF_IAF]))
@settings(max_examples=60)
def test_frequency_costs_in_unit_interval(g, scheme):
    assert all(0.0 <= c <= 1.0 for c in frequency_costs(g, scheme))


@given(random_graph())
@settings(max_examples=60)
def test_joint_ic_costs_in_unit_interval(g):
    assert all(0.0 <= c <= 1.0 for c in joint_ic_costs(g))


@given(random_graph())
@settings(max_examples=80)
def test_joint_ic_costs_equal_loop_oracle(g):
    got = joint_ic_costs(g)
    assert got.dtype == np.float64
    assert got.tobytes() == joint_ic_oracle_bytes(g)


@given(random_graph(), st.sampled_from([WeightingScheme.AF, WeightingScheme.IAF,
                                        WeightingScheme.AF_IAF]))
@example(KnowledgeGraph([], [], [], []), WeightingScheme.AF)
@example(KnowledgeGraph(["n"], ["N"], [], []), WeightingScheme.AF_IAF)
@settings(max_examples=80)
def test_frequency_tables_equal_loop_oracle(g, scheme):
    scores, costs = frequency_loop(g, scheme.value)
    assert by_predicate(g, scheme) == scores
    got = frequency_costs(g, scheme)
    assert got.tolist() == list(costs)
    assert got.dtype == np.float64


@given(random_graph(), st.randoms(use_true_random=False),
       st.sampled_from([WeightingScheme.AF, WeightingScheme.IAF,
                        WeightingScheme.AF_IAF, WeightingScheme.JOINT_IC]))
@settings(max_examples=50)
def test_frequency_schemes_invariant_under_relabeling(g, rng, scheme):
    # rebuild the same graph under a random identifier bijection
    new_names = [f"m{i:03d}" for i in range(len(g))]
    rng.shuffle(new_names)
    relabel = {g.ids[i]: new_names[i] for i in range(len(g))}
    edges = []
    for e, (u, v) in enumerate(g.edge_endpoints):
        for p in g.edge_predicates[e]:
            edges.append((relabel[g.ids[u]], relabel[g.ids[v]], p))
    g2 = graph_from_edges(edges)
    if scheme is WeightingScheme.JOINT_IC:
        c1, c2 = joint_ic_costs(g), joint_ic_costs(g2)
    else:
        c1, c2 = frequency_costs(g, scheme), frequency_costs(g2, scheme)
    # compare per unordered node-identifier pair
    def by_pair(graph, costs):
        return {
            frozenset((graph.ids[u], graph.ids[v])): c
            for (u, v), c in zip(graph.edge_endpoints, costs)
        }
    m1 = {frozenset(relabel[x] for x in k): v for k, v in by_pair(g, c1).items()}
    m2 = by_pair(g2, c2)
    assert set(m1) == set(m2)
    for k in m1:
        assert m1[k] == pytest.approx(m2[k])
