import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedrec.subgraph import ExpansionConfig, expand, expand_many, union

from helpers import graph_from_edges
from oracles import expand_bfs


def ids(g, *names):
    return {g.node_index(n) for n in names}


@pytest.fixture
def chain():
    return graph_from_edges([("a", "b"), ("b", "c")])


def test_radius_must_be_one_or_two():
    ExpansionConfig(1)
    ExpansionConfig(2)
    with pytest.raises(ValueError):
        ExpansionConfig(3)
    with pytest.raises(ValueError):
        ExpansionConfig(0)


def test_expand_chain_one_hop(chain):
    sg = expand(chain, {"a"}, ExpansionConfig(1))
    assert sg.members == ids(chain, "a", "b")
    assert len(sg.edges) == 1


def test_expand_chain_two_hops(chain):
    sg = expand(chain, {"a"}, ExpansionConfig(2))
    assert sg.members == ids(chain, "a", "b", "c")
    assert len(sg.edges) == 2


def test_expand_star_two_seeds_one_hop():
    edges = [("h", f"x{i}") for i in range(1, 6)]
    g = graph_from_edges(edges)
    sg = expand(g, {"x1", "x2"}, ExpansionConfig(1))
    assert sg.members == ids(g, "x1", "x2", "h")
    got = {frozenset(g.edge_endpoints[e]) for e in sg.edges}
    assert got == {
        frozenset(ids(g, "x1", "h")),
        frozenset(ids(g, "x2", "h")),
    }


def test_expand_excludes_frontier_to_frontier_edges():
    # u and v are both at depth 1 from the seed and joined to each other:
    # with L=1 that edge would complete a length-2 path, so it stays out.
    g = graph_from_edges([("s", "u"), ("s", "v"), ("u", "v")])
    sg = expand(g, {"s"}, ExpansionConfig(1))
    assert sg.members == ids(g, "s", "u", "v")
    assert len(sg.edges) == 2
    sg2 = expand(g, {"s"}, ExpansionConfig(2))
    assert len(sg2.edges) == 3


def test_expand_drops_missing_seeds(chain):
    sg = expand(chain, {"a", "ghost"}, ExpansionConfig(1))
    assert sg.seeds == ids(chain, "a")


def test_expand_empty_surviving_seed_set(chain):
    sg = expand(chain, {"ghost"}, ExpansionConfig(1))
    assert sg.members == frozenset() and sg.edges == frozenset()


def test_union_idempotent(chain):
    s = expand(chain, {"a"}, ExpansionConfig(1))
    assert union(s, s) == s


def test_union_with_empty_is_identity(chain):
    s = expand(chain, {"a"}, ExpansionConfig(1))
    empty = expand(chain, set(), ExpansionConfig(1))
    assert union(s, empty) == s
    assert union(s, empty).seeds == s.seeds


def test_union_disjoint_components():
    g = graph_from_edges([("a", "b"), ("c", "d")])
    s1 = expand(g, {"a"}, ExpansionConfig(1))
    s2 = expand(g, {"c"}, ExpansionConfig(1))
    u = union(s1, s2)
    assert u.members == ids(g, "a", "b", "c", "d")
    assert len(u.edges) == 2


def test_union_rejects_different_parents(chain):
    other = graph_from_edges([("a", "b"), ("b", "c")])
    s1 = expand(chain, {"a"}, ExpansionConfig(1))
    s2 = expand(other, {"a"}, ExpansionConfig(1))
    with pytest.raises(ValueError):
        union(s1, s2)


# ------------------------------------------------------------ properties

@st.composite
def random_graph_and_seeds(draw):
    n = draw(st.integers(2, 10))
    names = [f"n{i}" for i in range(n)]
    possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=18))
    g = graph_from_edges(edges)
    seeds = draw(st.sets(st.sampled_from(sorted(g.ids)), min_size=1, max_size=3))
    return g, seeds


@given(random_graph_and_seeds())
@settings(max_examples=80)
def test_two_hop_is_supergraph_of_one_hop(gs):
    g, seeds = gs
    s1 = expand(g, seeds, ExpansionConfig(1))
    s2 = expand(g, seeds, ExpansionConfig(2))
    assert s1.members <= s2.members
    assert s1.edges <= s2.edges
    assert s1.seeds == s2.seeds


@given(random_graph_and_seeds(), st.integers(1, 2))
@settings(max_examples=80)
def test_every_edge_has_an_interior_endpoint(gs, radius):
    g, seeds = gs
    sg = expand(g, seeds, ExpansionConfig(radius))
    # recompute hop depths independently
    depth = {s: 0 for s in sg.seeds}
    frontier = list(sg.seeds)
    for d in range(radius):
        nxt = []
        for u in frontier:
            for v, _ in g.neighbors(u):
                if v not in depth:
                    depth[v] = d + 1
                    nxt.append(v)
        frontier = nxt
    assert set(depth) == sg.members
    for e in sg.edges:
        u, v = g.edge_endpoints[e]
        assert min(depth[u], depth[v]) <= radius - 1


@st.composite
def sibling_subgraphs(draw, count=3):
    n = draw(st.integers(3, 9))
    names = [f"n{i}" for i in range(n)]
    possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=14))
    g = graph_from_edges(edges)
    subs = []
    for _ in range(count):
        seeds = draw(st.sets(st.sampled_from(sorted(g.ids)), max_size=3))
        radius = draw(st.integers(1, 2))
        subs.append(expand(g, seeds, ExpansionConfig(radius)))
    return subs


@given(sibling_subgraphs())
@settings(max_examples=60)
def test_union_is_commutative_associative_idempotent(subs):
    s1, s2, s3 = subs
    assert union(s1, s2) == union(s2, s1)
    assert union(union(s1, s2), s3) == union(s1, union(s2, s3))
    assert union(s1, s1) == s1


@given(random_graph_and_seeds())
@settings(max_examples=40)
def test_subgraph_structural_invariants(gs):
    g, seeds = gs
    sg = expand(g, seeds, ExpansionConfig(2))
    assert sg.seeds <= sg.members
    for e in sg.edges:
        u, v = g.edge_endpoints[e]
        assert u != v
        assert u in sg.members and v in sg.members
    adj = sg.adjacency()
    assert set(adj) == sg.members


@st.composite
def graph_and_seed_lists(draw):
    """A graph, maybe with an isolated node, and up to five seed lists that may
    be empty or repeat one another."""
    n = draw(st.integers(2, 12))
    names = [f"n{i}" for i in range(n)]
    possible = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=24))
    g = graph_from_edges(edges, titles={"lone": "Lone"} if draw(st.booleans()) else None)
    lists = draw(st.lists(st.lists(st.integers(0, len(g) - 1), max_size=4, unique=True)
                          .map(sorted), max_size=5))
    return g, lists


@given(graph_and_seed_lists(), st.integers(1, 2))
@settings(max_examples=120, deadline=None)
def test_batched_expansion_equals_bfs_oracle(case, radius):
    g, lists = case
    bounds = np.cumsum([0] + [len(s) for s in lists])
    nodes = np.array([x for s in lists for x in s], dtype=np.int64)
    keys_m, bounds_m, keys_e, bounds_e = expand_many(g, nodes, bounds, radius)
    n, m = len(g), max(g.num_edges, 1)
    members = [keys_m[a:b] - i * n for i, (a, b) in enumerate(zip(bounds_m, bounds_m[1:]))]
    edges = [keys_e[a:b] - i * m for i, (a, b) in enumerate(zip(bounds_e, bounds_e[1:]))]
    assert len(members) == len(edges) == len(lists)
    assert bounds_m[-1] == len(keys_m) and bounds_e[-1] == len(keys_e)
    for seeds, got_m, got_e in zip(lists, members, edges):
        want_m, want_e = expand_bfs(g, seeds, radius)
        assert got_m.tolist() == sorted(want_m)
        assert got_e.tolist() == sorted(want_e)
        sg = expand(g, seeds, ExpansionConfig(radius))
        assert (sg.members, sg.edges) == (want_m, want_e)
