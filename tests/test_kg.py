import gc
import gzip
import hashlib
import io
import itertools
import random
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedrec.errors import SnapshotError, UnknownNodeError
from sedrec.kg import (
    KnowledgeGraph,
    ParseTally,
    PruneConfig,
    build_graph,
    load_snapshot,
    parse_ntriples,
    peel,
    read_stoplist,
    save_snapshot,
)
from sedrec.subgraph import expand

from helpers import IDENTITY_PRUNE, graph_from_edges, lit, nt
from oracles import build_graph_lists


# ---------------------------------------------------------------- parsing

def parse_text(text):
    tally = ParseTally()
    records = list(parse_ntriples(io.BytesIO(text.encode()), tally))
    return records, tally


def test_parse_literal_with_language_tag():
    records, tally = parse_text('<m.0k8z> <type.object.name> "Apple Inc."@en .\n')
    assert records == [lit("m.0k8z", "type.object.name", "Apple Inc.", "en")]
    assert tally.error_count == 0


def test_parse_node_triple():
    records, _ = parse_text("<a> <p> <b> .\n")
    assert records == [nt("a", "p", "b")]


def test_parse_garbage_line_skip_and_count():
    records, tally = parse_text("garbage line\n<a> <p> <b> .\n")
    assert records == [nt("a", "p", "b")]
    assert tally.error_count == 1
    assert tally.errors[0][0] == 1


def test_parse_blank_and_comment_lines_are_not_errors():
    records, tally = parse_text("\n# comment\n<a> <p> <b> .\n")
    assert len(records) == 1
    assert tally.error_count == 0
    assert tally.lines == 3


def test_parse_unescapes_literals():
    records, _ = parse_text(r'<a> <p> "line\nbreak \"q\" é" .' + "\n")
    assert records[0].object == 'line\nbreak "q" é'
    assert records[0].lang is None


def test_parse_typed_literal_keeps_value():
    records, _ = parse_text('<a> <p> "1912-06-23"^^<xsd:date> .\n')
    assert records[0].is_literal and records[0].object == "1912-06-23"


def test_parse_bad_language_tag_counted():
    _, tally = parse_text('<a> <p> "x"@en_US!! .\n')
    assert tally.error_count == 1


def test_parse_gzip_stream():
    payload = gzip.compress(b"<a> <p> <b> .\n")
    records = list(parse_ntriples(io.BytesIO(payload)))
    assert records == [nt("a", "p", "b")]


def test_parse_from_path(tmp_path):
    p = tmp_path / "kg.nt"
    p.write_text("<a> <p> <b> .\n")
    assert list(parse_ntriples(p)) == [nt("a", "p", "b")]


def test_read_stoplist(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("# header\nm.one\n\nm.two   # trailing\n")
    assert read_stoplist(p) == {"m.one", "m.two"}


# ---------------------------------------------------------------- pruning

def test_min_out_degree_removes_low_degree_node():
    triples = [nt("a", "p", f"b{i}") for i in range(19)]
    # give the b-nodes enough out-degree to survive on their own
    g = build_graph(triples, PruneConfig(min_out_degree=20))
    assert not g.has_node("a")
    assert len(g) == 0


def test_min_out_degree_keeps_node_at_threshold():
    triples = [nt("a", "p", f"b{i}") for i in range(20)]
    g = build_graph(triples, PruneConfig(min_out_degree=20, drop_leaves=False))
    # b-nodes have out-degree 0 and are removed, taking their edges with them
    assert not g.has_node("b0")
    assert not g.has_node("a") or g.degrees[g.node_index("a")] == 0


def test_identity_config_retains_everything():
    triples = [nt("a", "p", "b"), nt("b", "q", "c"), nt("c", "r", "a")]
    g = build_graph(triples, IDENTITY_PRUNE)
    assert len(g) == 3 and g.num_edges == 3


def test_parallel_predicates_collapse_to_one_edge():
    triples = [nt("a", "p1", "b"), nt("a", "p2", "b"), nt("b", "p3", "a")]
    g = build_graph(triples, IDENTITY_PRUNE)
    assert g.num_edges == 1
    assert g.edge_predicates[0] == ("p1", "p2", "p3")


def test_english_only_drops_foreign_literals():
    triples = [
        nt("a", "p", "b"),
        lit("a", "type.object.name", "Apple", "en"),
        lit("a", "type.object.name", "Pomme", "fr"),
    ]
    g = build_graph(triples, PruneConfig(english_only=True, min_out_degree=0))
    assert g.title(g.node_index("a")) == "Apple"


def test_stoplist_removes_node_and_incident_edges():
    triples = [nt("a", "p", "b"), nt("b", "p", "c"), nt("c", "p", "a")]
    cfg = PruneConfig(min_out_degree=0, stoplist=frozenset({"b"}))
    g = build_graph(triples, cfg)
    assert sorted(g.ids) == ["a", "c"]
    assert g.num_edges == 1


def test_drop_leaves_prunes_chain_to_cycle():
    # tail-chain hangs off a triangle; only the triangle survives
    triples = [
        nt("a", "p", "b"), nt("b", "p", "c"), nt("c", "p", "a"),
        nt("c", "p", "d"), nt("d", "p", "e"),
    ]
    g = build_graph(triples, PruneConfig(min_out_degree=0, drop_leaves=True))
    assert sorted(g.ids) == ["a", "b", "c"]
    assert all(d >= 2 for d in g.degrees)


def test_drop_leaves_removes_pure_chain_entirely():
    triples = [nt("a", "p", "b"), nt("b", "p", "c")]
    g = build_graph(triples, PruneConfig(min_out_degree=0, drop_leaves=True))
    assert len(g) == 0


def test_self_loops_never_enter_graph():
    g = build_graph([nt("a", "p", "a"), nt("a", "p", "b")], IDENTITY_PRUNE)
    assert g.num_edges == 1
    assert g.edge_endpoints[0] == (g.node_index("a"), g.node_index("b")) or \
        g.edge_endpoints[0] == (g.node_index("b"), g.node_index("a"))


def test_title_falls_back_to_identifier():
    g = graph_from_edges([("a", "b")])
    assert g.title(g.node_index("a")) == "a"


def test_title_prefers_english_name():
    triples = [
        nt("a", "p", "b"),
        lit("a", "type.object.name", "Sans Titre", "fr"),
        lit("a", "type.object.name", "Proper Title", "en"),
    ]
    g = build_graph(triples, IDENTITY_PRUNE)
    assert g.title(g.node_index("a")) == "Proper Title"


def test_full_uri_name_predicate_recognized():
    triples = [
        nt("a", "p", "b"),
        lit("a", "http://rdf.freebase.com/ns/type.object.name", "Apple", "en"),
    ]
    g = build_graph(triples, IDENTITY_PRUNE)
    assert g.title(g.node_index("a")) == "Apple"


def test_prune_stats_recorded():
    triples = [nt("a", "p", "b"), lit("a", "type.object.name", "A", "en")]
    g = build_graph(triples, IDENTITY_PRUNE)
    names = [p.name for p in g.prune_stats.passes]
    assert names == ["input", "english", "stoplist", "out-degree", "leaves"]
    assert g.prune_stats.collapsed_edges == 1
    assert "collapsed" in g.prune_stats.format_report()


def test_prune_stats_count_every_pass():
    triples = [
        # square core a-b-c-d, each node named
        nt("a", "p", "b"), nt("b", "p", "c"), nt("c", "p", "d"), nt("d", "p", "a"),
        lit("a", "type.object.name", "A", "en"), lit("b", "type.object.name", "B", "en"),
        lit("c", "type.object.name", "C", "en"), lit("d", "type.object.name", "D", "en"),
        lit("a", "type.object.name", "Ah", "fr"),  # english
        nt("a", "p", "s"), nt("s", "p", "b"), lit("s", "type.object.name", "S", "en"),
        # e reaches out-degree 2 only through its untagged literal
        nt("e", "p", "a"), lit("e", "label", "E label"), nt("c", "p", "e"),
        nt("f", "p", "a"),  # out-degree 1
        # leaf chain d-g-h
        nt("d", "p", "g"), nt("g", "p", "h"), lit("g", "type.object.name", "G", "en"),
        lit("h", "type.object.name", "H", "en"), lit("h", "type.object.name", "H2"),
    ]
    cfg = PruneConfig(english_only=True, min_out_degree=2, stoplist=frozenset({"s"}),
                      drop_leaves=True)
    g = build_graph(triples, cfg)
    passes = g.prune_stats.passes
    assert [(p.name, p.nodes, p.node_triples, p.literal_triples) for p in passes] == [
        ("input", 9, 11, 10),
        ("english", 9, 11, 9),
        ("stoplist", 8, 9, 8),
        ("out-degree", 7, 8, 8),
        ("leaves", 5, 6, 5),
    ]
    assert passes[-1].nodes == len(g)
    assert sorted(g.ids) == ["a", "b", "c", "d", "e"]
    assert g.num_edges == g.prune_stats.collapsed_edges == 6


@pytest.mark.parametrize("min_out_degree, stoplisted, leaves, digest, counts", [
    (0, False, False,
     "340a9e01356f95dbd14be6e0dc143658dd0ea527eca57819b569dafc20efeb64",
     [(274, 473, 275), (274, 473, 274), (274, 473, 274), (274, 473, 274),
      (274, 473, 274)]),
    (2, True, True,
     "d06094085e5b00b56683f0d7712f58aa2eb1a82217e67735459099d26e205fce",
     [(274, 473, 275), (274, 473, 274), (270, 353, 270), (263, 296, 263),
      (138, 206, 138)]),
])
def test_synthetic_snapshot_bytes_are_pinned(synthetic_root, tmp_path, min_out_degree,
                                             stoplisted, leaves, digest, counts):
    stoplist = read_stoplist(synthetic_root / "stoplist.txt") if stoplisted else frozenset()
    cfg = PruneConfig(english_only=True, min_out_degree=min_out_degree,
                      stoplist=stoplist, drop_leaves=leaves)
    g = build_graph(parse_ntriples(synthetic_root / "kg.nt"), cfg)
    save_snapshot(g, tmp_path / "kg.snap")
    assert hashlib.sha256((tmp_path / "kg.snap").read_bytes()).hexdigest() == digest
    assert [(p.nodes, p.node_triples, p.literal_triples)
            for p in g.prune_stats.passes] == counts


# ------------------------------------------------------- graph structure

def test_closed_neighborhood_isolated_node():
    g = build_graph([lit("n", "type.object.name", "N", "en")], IDENTITY_PRUNE)
    n = g.node_index("n")
    assert g.closed_neighborhood(n) == {n}


def test_closed_neighborhood_path_midpoint():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    got = g.closed_neighborhood(g.node_index("b"))
    assert got == {g.node_index("a"), g.node_index("b"), g.node_index("c")}


def test_closed_neighborhood_triangle():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    assert g.closed_neighborhood("a") == set(range(3))


def test_closed_neighborhood_unknown_node():
    g = graph_from_edges([("a", "b")])
    with pytest.raises(UnknownNodeError):
        g.closed_neighborhood("nope")
    with pytest.raises(UnknownNodeError):
        g.closed_neighborhood(99)


def test_interning_is_bijective():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("d", "a")])
    assert len(set(g.ids)) == len(g.ids)
    for i, ident in enumerate(g.ids):
        assert g.node_index(ident) == i


def test_edge_between():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    a, b, c = (g.node_index(x) for x in "abc")
    assert g.edge_between(a, b) is not None
    assert g.edge_between(a, c) is None


def test_constructor_accepts_canonical_edge_order():
    g = KnowledgeGraph("abcd", "ABCD", [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)],
                       [("p",)] * 5)
    g.validate()
    assert g.neighbors(3) == ((0, 1), (1, 3), (2, 4))
    assert all(list(g.neighbors(i)) == sorted(g.neighbors(i)) for i in range(4))


@pytest.mark.parametrize("edges", [
    [(1, 2), (0, 1)],
    [(0, 2), (0, 1)],
    [(0, 1), (0, 1)],
    [(1, 0)],
    [(1, 1)],
    [(0, 3)],
    [(-1, 0)],
], ids=["unsorted", "unsorted-v", "duplicate", "reversed", "self-loop", "unknown",
        "negative"])
def test_constructor_rejects_non_canonical_edges(edges):
    with pytest.raises(ValueError, match="canonical order"):
        KnowledgeGraph("abc", "ABC", edges, [("p",)] * len(edges))


@pytest.mark.parametrize("preds, message", [
    ([("q", "p")], "not sorted/unique"),
    ([("p", "p")], "not sorted/unique"),
    ([()], "empty predicate list"),
], ids=["unsorted", "repeated", "empty"])
def test_constructor_rejects_bad_predicate_lists(preds, message):
    with pytest.raises(ValueError, match=message):
        KnowledgeGraph("ab", "AB", [(0, 1)], preds)


def test_from_columns_rejects_bad_predicate_table():
    cols = [np.array(c, dtype=np.int64) for c in ([0], [1], [0, 1], [0])]
    for table, message in [(("q", "p"), "sorted/unique"), (("p", "q"), "no edge carries"),
                           ((), "out of range")]:
        with pytest.raises(ValueError, match=message):
            KnowledgeGraph.from_columns("ab", "AB", table, *cols)


@pytest.mark.parametrize("call", [
    lambda g: g.edge_between(-1, 1),
    lambda g: g.edge_between(0, 3),
    lambda g: g.closed_neighborhood(-1),
    lambda g: expand(g, [-1]),
    lambda g: expand(g, [7]),
    lambda g: g.neighbors(-1),
    lambda g: g.neighbors(len(g)),
    lambda g: g.title(-1),
    lambda g: g.title(len(g)),
], ids=["edge-between-negative", "edge-between-past-end", "neighborhood-negative",
        "expand-negative", "expand-past-end", "neighbors-negative", "neighbors-past-end",
        "title-negative", "title-past-end"])
def test_node_indices_are_range_checked(call):
    g = graph_from_edges([("a", "b"), ("b", "c")])
    with pytest.raises(UnknownNodeError):
        call(g)


def test_edge_columns_and_csr_agree_with_the_views():
    g = graph_from_edges([("a", "b", "p"), ("a", "c", "q"), ("b", "c", "p"),
                          ("b", "c", "r"), ("c", "d", "q")])
    assert g.predicates == ("p", "q", "r")
    assert g.edge_endpoints == tuple(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    assert g.edge_predicates == (("p",), ("q",), ("p", "r"), ("q",))
    assert g.pred_ptr.tolist() == [0, 1, 2, 4, 5] and g.pred_ids.tolist() == [0, 1, 0, 2, 1]
    for x in range(len(g)):
        row = [(v, e) for e, (a, b) in enumerate(g.edge_endpoints)
               for v in ((b,) if a == x else (a,) if b == x else ())]
        assert g.neighbors(x) == tuple(sorted(row))
        assert g.degrees[x] == len(row)
    # built once, not per access
    assert g.edge_endpoints is g.edge_endpoints
    assert g.edge_predicates is g.edge_predicates


def test_graph_memory_per_edge(tmp_path):
    """A loaded graph holds arrays, not per-edge Python objects: 116 bytes
    per edge here with the node tables, against 389 with tuple rows."""
    rng = random.Random(7)
    n, m = 5000, 20000
    edges = {}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges[(u, v)] = tuple(sorted(rng.sample([f"rel.p{k}" for k in range(12)],
                                                rng.choice((1, 1, 1, 2)))))
    pairs = sorted(edges)
    path = tmp_path / "g.snap"
    save_snapshot(KnowledgeGraph([f"m.{i:05d}" for i in range(n)],
                                 [f"Node {i}" for i in range(n)],
                                 pairs, [edges[p] for p in pairs]), path)
    gc.collect()
    tracemalloc.start()
    try:
        g = load_snapshot(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == m
    assert held / m < 150


def test_title_lookup_is_case_insensitive_lowest_index():
    triples = [
        nt("a", "p", "b"), nt("b", "p", "c"),
        lit("a", "type.object.name", "Ebola", "en"),
        lit("c", "type.object.name", "EBOLA", "en"),
    ]
    g = build_graph(triples, IDENTITY_PRUNE)
    assert g.title_to_node("ebola") == min(g.node_index("a"), g.node_index("c"))
    assert g.title_to_node("absent") is None


# ------------------------------------------------------------- snapshots

def test_snapshot_round_trip_empty(tmp_path):
    g = build_graph([], IDENTITY_PRUNE)
    path = tmp_path / "empty.snap"
    save_snapshot(g, path)
    assert load_snapshot(path) == g


def test_snapshot_round_trip_triangle_bit_identical(tmp_path):
    g = graph_from_edges(
        [("a", "b", "p1"), ("b", "c", "p2"), ("a", "c", "p3"), ("a", "b", "p4")],
        titles={"a": "Alpha"},
    )
    p1, p2 = tmp_path / "one.snap", tmp_path / "two.snap"
    save_snapshot(g, p1)
    loaded = load_snapshot(p1)
    assert loaded == g
    save_snapshot(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_wrong_magic(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_bytes(b"NOTAGRPH" + b"\x00" * 16)
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_snapshot_truncated(tmp_path):
    g = graph_from_edges([("a", "b")])
    path = tmp_path / "trunc.snap"
    save_snapshot(g, path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_snapshot_wrong_version(tmp_path):
    g = graph_from_edges([("a", "b")])
    path = tmp_path / "ver.snap"
    save_snapshot(g, path)
    data = bytearray(path.read_bytes())
    data[8] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def pack_snapshot(ids, edges, preds=("rel",), runs=None):
    """v1 snapshot bytes, packed by hand; titles equal ids, and edge i carries
    the predicate-table indices ``runs[i]`` (by default predicate 0 alone)."""
    runs = [[0]] * len(edges) if runs is None else runs
    out = [struct.pack("<8sIIII", b"SEDKGRPH", 1, len(ids), len(edges), len(preds))]
    for s in (*ids, *ids, *preds):
        raw = s.encode("utf-8")
        out += [struct.pack("<I", len(raw)), raw]
    out += [struct.pack(f"<IIH{len(run)}I", u, v, len(run), *run)
            for (u, v), run in zip(edges, runs)]
    return b"".join(out)


def test_hand_packed_snapshot_matches_saved_bytes(tmp_path):
    path = tmp_path / "g.snap"
    save_snapshot(graph_from_edges([("a", "b"), ("b", "c")]), path)
    assert path.read_bytes() == pack_snapshot("abc", [(0, 1), (1, 2)])


@pytest.mark.parametrize("data, message", [
    (b"hello", "not a graph snapshot (magic b'hello')"),
    (pack_snapshot("ab", [(0, 1)])[:-4] + struct.pack("<I", 1),
     "predicate index out of range"),
    (pack_snapshot("ab", [(0, 1)]) + b"\x00", "trailing bytes"),
    (pack_snapshot("ab", [(0, 1)])[:24] + struct.pack("<I", 1000) + b"a",
     "truncated snapshot file"),
    (pack_snapshot("ab", [])[:-1], "truncated snapshot file"),
    (pack_snapshot("ab", [(0, 1)]).replace(b"a", b"\xff", 1), "not valid UTF-8"),
    (pack_snapshot("abc", [(1, 2), (0, 1)]), "inconsistent snapshot"),
    (pack_snapshot("ab", [(0, 1), (0, 1)]), "inconsistent snapshot"),
    (pack_snapshot("ab", [(1, 0)]), "inconsistent snapshot"),
    (pack_snapshot("ab", [(0, 1)], ("p", "q"), [[1, 0]]), "inconsistent snapshot"),
    (pack_snapshot("ab", [(0, 1)], ("p",), [[0, 0]]), "inconsistent snapshot"),
    (pack_snapshot("ab", [(0, 1)], ("q", "p"), [[0, 1]]), "inconsistent snapshot"),
    (pack_snapshot("ab", [(0, 1)], ("p", "q"), [[0]]), "inconsistent snapshot"),
    (pack_snapshot("ab", [(0, 1)], ("p",), [[]]), "inconsistent snapshot"),
], ids=["short-magic", "predicate-index", "trailing", "string-past-end",
        "last-string-past-end", "utf8", "unsorted-edges", "duplicate-edge", "reversed-edge",
        "unsorted-predicates", "repeated-predicate", "unsorted-table", "unused-table-entry",
        "no-predicate"])
def test_corrupt_snapshot_is_snapshot_error(tmp_path, data, message):
    path = tmp_path / "bad.snap"
    path.write_bytes(data)
    with pytest.raises(SnapshotError) as exc:
        load_snapshot(path)
    assert message in str(exc.value)


def test_build_graph_deterministic_bytes(tmp_path):
    triples = [nt("b", "p", "a"), nt("a", "q", "c"), nt("c", "p", "b")]
    p1, p2 = tmp_path / "g1.snap", tmp_path / "g2.snap"
    save_snapshot(build_graph(triples, IDENTITY_PRUNE), p1)
    save_snapshot(build_graph(list(triples), IDENTITY_PRUNE), p2)
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------------ peel

def brute_peel(size, pinned, edges):
    """Kept nodes and kept edge indices when unpinned nodes of degree <= 1
    are removed one at a time, lowest first."""
    alive, live = set(range(size)), set(range(len(edges)))
    while True:
        degree = dict.fromkeys(alive, 0)
        for e in live:
            for x in edges[e]:
                degree[x] += 1
        leaves = sorted(x for x in alive if x not in pinned and degree[x] <= 1)
        if not leaves:
            return alive, live
        alive.discard(leaves[0])
        live = {e for e in live if leaves[0] not in edges[e]}


def check_peel(size, pinned, edges):
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    ids = np.arange(len(edges), dtype=np.int64)
    keep, pu, pv, pids, tag = peel(size, sorted(pinned), u, v, ids, ids * 10 + 3)
    alive, live = brute_peel(size, set(pinned), edges)
    assert set(np.flatnonzero(keep).tolist()) == alive
    assert sorted(pids.tolist()) == pids.tolist() and set(pids.tolist()) == live
    # the extra columns stay aligned with the kept edges
    assert pu.tolist() == u[pids].tolist() and pv.tolist() == v[pids].tolist()
    assert tag.tolist() == (pids * 10 + 3).tolist()
    return alive


@pytest.mark.parametrize("size, pinned, edges, kept", [
    (4, [], [], set()),
    (4, [1, 3], [], {1, 3}),
    (5, [], [(0, 1), (1, 2), (2, 3), (3, 4)], set()),
    (5, [4], [(0, 1), (1, 2), (2, 3), (3, 4)], {4}),
    (5, [0, 4], [(0, 1), (1, 2), (2, 3), (3, 4)], {0, 1, 2, 3, 4}),
    (7, [], [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 1)], {0, 1, 2}),
    (7, [4, 6], [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 1)], {0, 1, 2, 3, 4, 6}),
    (6, [5], [(1, 0), (2, 1), (0, 2), (3, 4)], {0, 1, 2, 5}),
], ids=["empty", "pinned-isolated", "path", "path-pin-end", "path-pin-both",
        "cycle-tails", "cycle-pinned-tail-and-isolated", "reversed-ends"])
def test_peel_cases(size, pinned, edges, kept):
    assert check_peel(size, pinned, edges) == kept


def test_peel_matches_one_at_a_time_on_random_graphs():
    rng = random.Random(11)
    for _ in range(300):
        size = rng.randint(1, 12)
        pairs = [(a, b) for a in range(size) for b in range(size) if a != b]
        # both orientations of a pair make two parallel edges, counted twice
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * size)))
        pinned = rng.sample(range(size), rng.randint(0, min(size, 3)))
        check_peel(size, pinned, edges)


# ------------------------------------------------------------ properties

node_names = st.sampled_from([f"n{i}" for i in range(12)])
triple_lists = st.lists(
    st.tuples(node_names, st.sampled_from(["p", "q", "r"]), node_names),
    max_size=40,
)


@given(triple_lists)
def test_random_graphs_satisfy_invariants(raw):
    g = build_graph([nt(*t) for t in raw], IDENTITY_PRUNE)
    g.validate()


@given(triple_lists, st.booleans())
@settings(max_examples=60)
def test_drop_leaves_leaves_min_degree_two(raw, english):
    cfg = PruneConfig(english_only=english, min_out_degree=0, drop_leaves=True)
    g = build_graph([nt(*t) for t in raw], cfg)
    g.validate()
    assert all(d >= 2 for d in g.degrees)


@given(raw=triple_lists)
@settings(max_examples=40)
def test_snapshot_round_trip_random(tmp_path_factory, raw):
    g = build_graph([nt(*t) for t in raw], IDENTITY_PRUNE)
    d = tmp_path_factory.mktemp("snaps")
    save_snapshot(g, d / "a.snap")
    g2 = load_snapshot(d / "a.snap")
    save_snapshot(g2, d / "b.snap")
    assert (d / "a.snap").read_bytes() == (d / "b.snap").read_bytes()
    assert g2 == g


# ------------------------------------------------- interned build vs oracle

ALL_PRUNE_CONFIGS = [
    PruneConfig(english_only=english, min_out_degree=degree, drop_leaves=leaves,
                stoplist=frozenset({"n1", "absent"}) if stop else frozenset())
    for english, stop, degree, leaves in itertools.product(
        (False, True), (False, True), (0, 1, 2, 3), (False, True))
]
PRUNE_IDS = [
    f"{'en' if c.english_only else 'all'}-{'stop' if c.stoplist else 'nostop'}"
    f"-deg{c.min_out_degree}-{'leaves' if c.drop_leaves else 'keep'}"
    for c in ALL_PRUNE_CONFIGS
]

NAME = "type.object.name"
# self-loops, repeated triples, a value under two language tags, nodes seen
# only as objects (n6), subjects with only literals (l1, l2) and tied names
COVERING_STREAM = [
    nt("n0", "p", "n1"), nt("n0", "p", "n1"), nt("n1", "q", "n2"), nt("n2", "p", "n0"),
    nt("n2", "p", "n2"), nt("n3", "p", "n3"), nt("n0", "r", "n3"), nt("n3", "p", "n6"),
    nt("n1", "p", "n3"), nt("n4", "p", "n0"), nt("n4", "q", "n0"), nt("n0", "q", "n4"),
    nt("n5", "p", "n1"), nt("n5", "p", "n4"), nt("n3", "q", "n4"), nt("n1", "p", "n0"),
    lit("n0", NAME, "Zero", "en"), lit("n0", NAME, "Nul", "en"), lit("n0", NAME, "Null", "de"),
    lit("n1", NAME, "Same", "en"), lit("n1", NAME, "Same", "fr"), lit("n1", "label", "Same"),
    lit("n2", NAME, "Two", "EN-gb"), lit("n2", NAME, "Deux", "en-GB"),
    lit("n3", f"http://rdf.freebase.com/ns/{NAME}", "Three"), lit("n3", NAME, "Drei", "de"),
    lit("n4", NAME, "Four", "fr"), lit("n4", "label", "4"), lit("n4", "label", "4"),
    lit("l1", NAME, "Lit one", "en"), lit("l1", "label", "x"), lit("l1", "label", "x", "en"),
    lit("l2", NAME, "Lit two", "fr"),
]


# a 300-node pendant chain on a 5-cycle, plus a 40-node path component: the
# leaf pass keeps only the cycle and takes 300 rounds to do so
PENDANT_STREAM = ([nt(f"c{i}", "p", f"c{(i + 1) % 5}") for i in range(5)]
                  + [nt("c0", "p", "t0")] + [nt(f"t{i}", "q", f"t{i + 1}") for i in range(299)]
                  + [nt(f"r{i}", "p", f"r{i + 1}") for i in range(39)])


def assert_same_as_oracle(records, cfg):
    got = build_graph(iter(records), cfg)
    want = build_graph_lists(records, cfg)
    assert got == want
    assert got.prune_stats == want.prune_stats
    got.validate()


@pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS, ids=PRUNE_IDS)
def test_build_graph_matches_list_oracle_on_covering_stream(cfg):
    assert_same_as_oracle(COVERING_STREAM, cfg)
    assert_same_as_oracle([], cfg)
    assert_same_as_oracle(PENDANT_STREAM, cfg)


oracle_node_triples = st.builds(
    nt, st.sampled_from([f"n{i}" for i in range(6)]),
    st.sampled_from(["p", "q", "http://x.org/ns/r"]),
    st.sampled_from([f"n{i}" for i in range(7)]))
oracle_literal_triples = st.builds(
    lit, st.sampled_from(["n0", "n1", "n2", "n6", "l1", "l2"]),
    st.sampled_from([NAME, f"http://rdf.freebase.com/ns/{NAME}", "label"]),
    st.sampled_from(["A", "B", "b"]),
    st.sampled_from([None, "en", "EN", "en-GB", "fr", "de"]))
oracle_streams = st.lists(st.one_of(oracle_node_triples, oracle_literal_triples),
                          max_size=40)


@pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS, ids=PRUNE_IDS)
@given(records=oracle_streams)
@settings(max_examples=20, deadline=None)
def test_build_graph_matches_list_oracle(cfg, records):
    assert_same_as_oracle(records, cfg)


def test_build_graph_keeps_no_record():
    live = 0
    peak = 0
    refs = []

    def died(_):
        nonlocal live
        live -= 1

    def stream():
        nonlocal live, peak
        for i in range(3000):
            if i % 3:
                rec = nt(f"n{i % 400}", f"p{i % 7}", f"n{(i * 37) % 400}")
            else:
                rec = lit(f"n{i % 400}", NAME, f"Name {i}", ("en", "fr", None)[i % 5 % 3])
            refs.append(weakref.ref(rec, died))
            live += 1
            peak = max(peak, live)
            yield rec

    cfg = PruneConfig(english_only=True, min_out_degree=3, drop_leaves=True)
    g = build_graph(stream(), cfg)
    # the record being yielded and the one build_graph still holds
    assert peak <= 2
    assert len(refs) == 3000 and len(g) > 0
    assert g == build_graph_lists(list(stream()), cfg)
