import gc
import gzip
import hashlib
import io
import itertools
import random
import struct
import tracemalloc
import weakref
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedrec import kg
from sedrec.errors import InputDataError, SnapshotError, UnknownNodeError
from sedrec.kg import (
    KnowledgeGraph,
    ParseTally,
    PruneConfig,
    TripleBlock,
    build_graph,
    load_snapshot,
    parse_ntriples,
    peel,
    read_stoplist,
    save_snapshot,
)
from sedrec.subgraph import expand

from helpers import IDENTITY_PRUNE, graph_from_edges, lit, nt, random_pruned_graphs
from oracles import (
    blocks_of,
    build_graph_lists,
    csr_argsort,
    distinct_rows_lexsort,
    parse_lines,
    records_of,
)


# ---------------------------------------------------------------- parsing

def parse_text(text):
    tally = ParseTally()
    records = list(records_of(parse_ntriples(io.BytesIO(text.encode()), tally)))
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
    records = list(records_of(parse_ntriples(io.BytesIO(payload))))
    assert records == [nt("a", "p", "b")]


def test_parse_from_path(tmp_path):
    p = tmp_path / "kg.nt"
    p.write_text("<a> <p> <b> .\n")
    assert list(records_of(parse_ntriples(p))) == [nt("a", "p", "b")]


class Unseekable(io.RawIOBase):
    """A pipe-like stream: it reads, but cannot seek or peek."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buf):
        return self._data.readinto(buf)


def test_parse_gzip_stream_that_cannot_seek():
    stream = Unseekable(gzip.compress(b"<a> <p> <b> .\n<a> <p> \"x\"@en .\n"))
    tally = ParseTally()
    records = list(records_of(parse_ntriples(stream, tally)))
    assert records == [nt("a", "p", "b"), lit("a", "p", "x", "en")]
    assert tally == ParseTally(lines=2, records=2)
    # the caller's stream stays open
    assert not stream.closed


# a line of parts: lead, subject, separator, predicate, separator, object, end;
# the plain choices repeat so that many lines take the block pattern
ODD_SPACE = ["\xa0", "\x85", "\u2028", "\x0b", "\x1c"]
LINE_IRIS = ["n0", "n1", "n2", "http://x.org/ns/type.object.name", "type.object.name",
             "p", "m.0k8z", "a\"b", "a\\b", "é", "a b", "", *(f"a{c}b" for c in ODD_SPACE)]
LINE_VALUES = ["", "x", "Apple Inc.", 'say \\"hi\\"', "back\\\\slash", "caf\\u00e9",
               "\\U0001F600", "tab\\tthen", "bad\\q", "trail\\", "a\rb", "<n0>", 'un"quoted',
               *(f"a{c}b" for c in ODD_SPACE)]
LINE_SUFFIXES = ["", "", "@en", "@en", "@en-GB", "@EN", "@fr", "@en_US", "@abcdefghi", "@e-",
                 "@-x", "@", "^^<xsd:date>", "^^<http://x.org/t#int>", "^^<bad type>", "^^<é>"]
LINE_SEPS = [" "] * 8 + ["\t", "  ", " \t", "", "\r", "\x0c", *ODD_SPACE]
LINE_LEADS = [""] * 8 + [" ", "\t", *ODD_SPACE]
LINE_ENDS = [" ."] * 8 + [".", "\t.", " . ", " .\r", " ..", " . x", "", " .#",
                          *(f" .{c}" for c in ODD_SPACE), *(f"{c}." for c in ODD_SPACE)]
OTHER_LINES = ["", "   ", "\r", "# comment", "  # comment after whitespace", "\t#", "\xa0#x",
               "garbage", "<n0> <p>", "<n0> <p> .", '<n0> <p> "x" . .']
BAD_UTF8 = [b'<n0> <p> "\xff" .', b"\xc3", b"<\xe9> <p> <n1> .", b"\xed\xa0\x80"]

node_terms = st.sampled_from(LINE_IRIS).map("<{}>".format)
literal_terms = st.builds('"{}"{}'.format, st.sampled_from(LINE_VALUES),
                          st.sampled_from(LINE_SUFFIXES))
triple_lines = st.builds("".join, st.tuples(
    st.sampled_from(LINE_LEADS), node_terms, st.sampled_from(LINE_SEPS), node_terms,
    st.sampled_from(LINE_SEPS), st.one_of(node_terms, literal_terms), st.sampled_from(LINE_ENDS)))
dump_lines = st.one_of(triple_lines.map(str.encode), triple_lines.map(str.encode),
                       st.sampled_from(OTHER_LINES).map(str.encode), st.sampled_from(BAD_UTF8))


@st.composite
def ntriples_dumps(draw, lines=dump_lines):
    """Dump bytes, LF or CRLF per line, the last newline maybe missing, maybe
    gzipped; and a block size, small ones cutting the dump into many blocks."""
    body = b"".join(line + draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
                    for line in draw(st.lists(lines, max_size=30)))
    if draw(st.booleans()):
        body = body.rstrip(b"\n")
    if draw(st.booleans()):
        body = gzip.compress(body)
    return body, draw(st.sampled_from([1, 16, 100, 1 << 17]))


@given(dump=ntriples_dumps())
@settings(max_examples=400, deadline=None)
def test_block_parse_equals_line_oracle(dump):
    data, block = dump
    with mock.patch.object(kg, "_BLOCK_BYTES", block):
        tally = ParseTally()
        got = list(records_of(parse_ntriples(io.BytesIO(data), tally)))
    want_tally = ParseTally()
    assert got == list(parse_lines(io.BytesIO(data), want_tally))
    assert tally == want_tally


def test_read_stoplist(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("# header\nm.one\n\nm.two   # trailing\n")
    assert read_stoplist(p) == {"m.one", "m.two"}


# ---------------------------------------------------------------- pruning

def test_min_out_degree_removes_low_degree_node():
    triples = [nt("a", "p", f"b{i}") for i in range(19)]
    # give the b-nodes enough out-degree to survive on their own
    g = build_graph(blocks_of(triples), PruneConfig(min_out_degree=20))
    assert not g.has_node("a")
    assert len(g) == 0


def test_min_out_degree_keeps_node_at_threshold():
    triples = [nt("a", "p", f"b{i}") for i in range(20)]
    g = build_graph(blocks_of(triples), PruneConfig(min_out_degree=20, drop_leaves=False))
    # b-nodes have out-degree 0 and are removed, taking their edges with them
    assert not g.has_node("b0")
    assert not g.has_node("a") or g.degrees[g.node_index("a")] == 0


def test_identity_config_retains_everything():
    triples = [nt("a", "p", "b"), nt("b", "q", "c"), nt("c", "r", "a")]
    g = build_graph(blocks_of(triples), IDENTITY_PRUNE)
    assert len(g) == 3 and g.num_edges == 3


def test_parallel_predicates_collapse_to_one_edge():
    triples = [nt("a", "p1", "b"), nt("a", "p2", "b"), nt("b", "p3", "a")]
    g = build_graph(blocks_of(triples), IDENTITY_PRUNE)
    assert g.num_edges == 1
    assert g.edge_predicates[0] == ("p1", "p2", "p3")


def test_english_only_drops_foreign_literals():
    triples = [
        nt("a", "p", "b"),
        lit("a", "type.object.name", "Apple", "en"),
        lit("a", "type.object.name", "Pomme", "fr"),
    ]
    g = build_graph(blocks_of(triples), PruneConfig(english_only=True, min_out_degree=0))
    assert g.titles[g.node_index("a")] == "Apple"


def test_stoplist_removes_node_and_incident_edges():
    triples = [nt("a", "p", "b"), nt("b", "p", "c"), nt("c", "p", "a")]
    cfg = PruneConfig(min_out_degree=0, stoplist=frozenset({"b"}))
    g = build_graph(blocks_of(triples), cfg)
    assert sorted(g.ids) == ["a", "c"]
    assert g.num_edges == 1


def test_drop_leaves_prunes_chain_to_cycle():
    # tail-chain hangs off a triangle; only the triangle survives
    triples = [
        nt("a", "p", "b"), nt("b", "p", "c"), nt("c", "p", "a"),
        nt("c", "p", "d"), nt("d", "p", "e"),
    ]
    g = build_graph(blocks_of(triples), PruneConfig(min_out_degree=0, drop_leaves=True))
    assert sorted(g.ids) == ["a", "b", "c"]
    assert all(d >= 2 for d in g.degrees)


def test_drop_leaves_removes_pure_chain_entirely():
    triples = [nt("a", "p", "b"), nt("b", "p", "c")]
    g = build_graph(blocks_of(triples), PruneConfig(min_out_degree=0, drop_leaves=True))
    assert len(g) == 0


def test_self_loops_never_enter_graph():
    g = build_graph(blocks_of([nt("a", "p", "a"), nt("a", "p", "b")]), IDENTITY_PRUNE)
    assert g.num_edges == 1
    assert g.edge_endpoints[0] == (g.node_index("a"), g.node_index("b")) or \
        g.edge_endpoints[0] == (g.node_index("b"), g.node_index("a"))


def test_title_falls_back_to_identifier():
    g = graph_from_edges([("a", "b")])
    assert g.titles[g.node_index("a")] == "a"


def test_title_prefers_english_name():
    triples = [
        nt("a", "p", "b"),
        lit("a", "type.object.name", "Sans Titre", "fr"),
        lit("a", "type.object.name", "Proper Title", "en"),
    ]
    g = build_graph(blocks_of(triples), IDENTITY_PRUNE)
    assert g.titles[g.node_index("a")] == "Proper Title"


def test_full_uri_name_predicate_recognized():
    triples = [
        nt("a", "p", "b"),
        lit("a", "http://rdf.freebase.com/ns/type.object.name", "Apple", "en"),
    ]
    g = build_graph(blocks_of(triples), IDENTITY_PRUNE)
    assert g.titles[g.node_index("a")] == "Apple"


def test_prune_stats_recorded():
    triples = [nt("a", "p", "b"), lit("a", "type.object.name", "A", "en")]
    g = build_graph(blocks_of(triples), IDENTITY_PRUNE)
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
    g = build_graph(blocks_of(triples), cfg)
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
     "b57489502c29ff219fd7f0facb22d467c614134677f36a197fb5ca8ed41ba4bb",
     [(274, 473, 275), (274, 473, 274), (274, 473, 274), (274, 473, 274),
      (274, 473, 274)]),
    (2, True, True,
     "f5e34ca0b2806c58569951cb7b89c685fa5bcc3358bf93f16450bf9630f2e360",
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
    g = build_graph(blocks_of([lit("n", "type.object.name", "N", "en")]), IDENTITY_PRUNE)
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
], ids=["edge-between-negative", "edge-between-past-end", "neighborhood-negative",
        "expand-negative", "expand-past-end", "neighbors-negative", "neighbors-past-end"])
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


def test_csr_matches_one_stable_argsort_on_random_canonical_edges():
    """``_csr`` sorts only ``edge_v``; its arrays, dtypes included, equal one
    stable argsort of both ends, on edge lists from empty to dense, with
    isolated nodes and nodes past the last edge."""
    rng = np.random.default_rng(17)
    for trial in range(400):
        n = int(rng.integers(1, 25))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        chosen = sorted(pairs[i] for i in rng.permutation(len(pairs))[:rng.integers(0, 40)])
        u = np.array([a for a, _ in chosen], dtype=np.int64)
        v = np.array([b for _, b in chosen], dtype=np.int64)
        n += int(rng.integers(0, 3))  # nodes no edge touches
        got, want = kg._csr(u, v, n), csr_argsort(u, v, n)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y), (trial, chosen, n)
    empty = np.zeros(0, dtype=np.int64)
    for x, y in zip(kg._csr(empty, empty, 0), csr_argsort(empty, empty, 0)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_graph_memory_per_edge(tmp_path):
    """A loaded graph holds arrays, not per-edge Python objects: 114 bytes
    per edge here with the node tables, against 389 with tuple rows. The
    file's bytes are freed before the graph builds its tables, so the load
    peaks at 165 bytes per edge (188 with the bytes kept alive); the peak
    bound is that 165 plus 15."""
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
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == m
    assert held / m < 150
    assert peak / m < 180


def test_title_lookup_is_case_insensitive_lowest_index():
    triples = [
        nt("a", "p", "b"), nt("b", "p", "c"),
        lit("a", "type.object.name", "Ebola", "en"),
        lit("c", "type.object.name", "EBOLA", "en"),
    ]
    g = build_graph(blocks_of(triples), IDENTITY_PRUNE)
    assert g.title_to_node("ebola") == min(g.node_index("a"), g.node_index("c"))
    assert g.title_to_node("absent") is None


# ------------------------------------------------------------- snapshots

def test_snapshot_round_trip_empty(tmp_path):
    g = build_graph(blocks_of([]), IDENTITY_PRUNE)
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


def pack_snapshot_v2(ids, edges, preds=("rel",), runs=None):
    """v2 snapshot bytes, packed by hand; titles equal ids, and edge i carries
    the predicate-table indices ``runs[i]`` (by default predicate 0 alone)."""
    runs = [[0]] * len(edges) if runs is None else runs
    refs = [p for run in runs for p in run]

    def block(values):
        return struct.pack(f"<{len(values)}I", *values)

    out = [struct.pack("<8sIIIII", b"SEDKGRPH", 2, len(ids), len(edges), len(preds),
                       len(refs))]
    for table in (ids, ids, preds):
        raws = [s.encode("utf-8") for s in table]
        out += [block([len(r) for r in raws]), *raws]
    out += [block([u for u, _ in edges]), block([v for _, v in edges]),
            block([len(run) for run in runs]), block(refs)]
    return b"".join(out)


def test_hand_packed_snapshot_matches_saved_bytes(tmp_path):
    path = tmp_path / "g.snap"
    for edges, args in (
            ([("a", "b"), ("b", "c")], ("abc", [(0, 1), (1, 2)])),
            ([("a", "b", "p"), ("a", "b", "q"), ("b", "c", "q"), ("a", "c", "p")],
             ("abc", [(0, 1), (0, 2), (1, 2)], ("p", "q"), [[0, 1], [0], [1]]))):
        g = graph_from_edges(edges)
        save_snapshot(g, path)
        assert path.read_bytes() == pack_snapshot_v2(*args)


V2 = pack_snapshot_v2("ab", [(0, 1)])
# the graph V2 holds as version 1 wrote it, each string right after its
# length, then per edge u, v, a <u2 predicate count and the predicate ids;
# and the version 1 file of an empty graph, shorter than a version 2 header
V1 = (struct.pack("<8sIIII", b"SEDKGRPH", 1, 2, 1, 1)
      + b"".join(struct.pack("<I", len(s)) + s for s in (b"a", b"b", b"a", b"b", b"rel"))
      + struct.pack("<IIHI", 0, 1, 1, 0))
V1_EMPTY = struct.pack("<8sIIII", b"SEDKGRPH", 1, 0, 0, 0)


@pytest.mark.parametrize("data, message", [
    (b"hello", "not a graph snapshot (magic b'hello')"),
    (V1, "unsupported snapshot version 1"),
    (V1_EMPTY, "unsupported snapshot version 1"),
    (V2[:10], "truncated snapshot file"),
    (V2[:24], "truncated snapshot file"),
    (V2[:32], "truncated snapshot file"),
    (V2[:28] + struct.pack("<2I", 1, 1000) + b"ab", "truncated snapshot file"),
    (V2[:36] + b"a", "truncated snapshot file"),
    (V2[:-14], "truncated snapshot file"),
    (V2[:-2], "truncated snapshot file"),
    (V2 + b"\x00", "trailing bytes"),
    (V2.replace(b"ab", b"\xffb", 1), "not valid UTF-8"),
    (V2[:-4] + struct.pack("<I", 1), "predicate index out of range"),
    (V2[:-12] + struct.pack("<3I", 2, 0, 0), "inconsistent snapshot"),
    (pack_snapshot_v2("abc", [(1, 2), (0, 1)]), "inconsistent snapshot"),
    (pack_snapshot_v2("ab", [(0, 1), (0, 1)]), "inconsistent snapshot"),
    (pack_snapshot_v2("ab", [(1, 0)]), "inconsistent snapshot"),
    (pack_snapshot_v2("ab", [(0, 1)], ("p", "q"), [[1, 0]]), "inconsistent snapshot"),
    (pack_snapshot_v2("ab", [(0, 1)], ("p",), [[0, 0]]), "inconsistent snapshot"),
    (pack_snapshot_v2("ab", [(0, 1)], ("q", "p"), [[0, 1]]), "inconsistent snapshot"),
    (pack_snapshot_v2("ab", [(0, 1)], ("p", "q"), [[0]]), "inconsistent snapshot"),
    (pack_snapshot_v2("ab", [(0, 1)], ("p",), [[]]), "inconsistent snapshot"),
], ids=["short-magic", "v1", "v1-empty", "short-version",
        "v2-header", "v2-length-block", "v2-string-past-end", "v2-string-blob",
        "v2-edge-column", "v2-predicate-column", "v2-trailing", "v2-utf8",
        "v2-predicate-index", "v2-reference-count", "v2-unsorted-edges",
        "v2-duplicate-edge", "v2-reversed-edge", "v2-unsorted-predicates",
        "v2-repeated-predicate", "v2-unsorted-table", "v2-unused-table-entry",
        "v2-no-predicate"])
def test_corrupt_snapshot_is_snapshot_error(tmp_path, data, message):
    path = tmp_path / "bad.snap"
    path.write_bytes(data)
    with pytest.raises(SnapshotError) as exc:
        load_snapshot(path)
    assert message in str(exc.value)


def test_snapshot_writer_refuses_values_outside_u4(tmp_path):
    for name, values in (("edge_v", [0, 2**32]), ("pred_ids", [-1, 0])):
        with pytest.raises(ValueError, match=name):
            kg._pack_u4(name, np.array(values, dtype=np.int64))
    assert kg._pack_u4("edge_u", np.array([0, 2**32 - 1])) == struct.pack("<2I", 0, 2**32 - 1)
    # save_snapshot checks every block before it opens the file
    g = graph_from_edges([("a", "b")])
    g.pred_ids = g.pred_ids + 2**32
    with pytest.raises(ValueError, match="pred_ids"):
        save_snapshot(g, tmp_path / "g.snap")
    assert not (tmp_path / "g.snap").exists()


def test_snapshots_round_trip_to_the_same_graph(synthetic_root, tmp_path):
    """On criterion 11's graphs and the synthetic benchmark graph,
    save_snapshot's bytes load to the graph, and re-saving the load gives
    the same bytes."""
    synthetic = build_graph(parse_ntriples(synthetic_root / "kg.nt"),
                            PruneConfig(english_only=True, min_out_degree=0))
    path, again = tmp_path / "g.snap", tmp_path / "again.snap"
    for g in (*random_pruned_graphs(), synthetic):
        save_snapshot(g, path)
        loaded = load_snapshot(path)
        assert loaded == g
        save_snapshot(loaded, again)
        assert again.read_bytes() == path.read_bytes()
    assert len(synthetic) == 274


def test_build_graph_deterministic_bytes(tmp_path):
    triples = [nt("b", "p", "a"), nt("a", "q", "c"), nt("c", "p", "b")]
    p1, p2 = tmp_path / "g1.snap", tmp_path / "g2.snap"
    save_snapshot(build_graph(blocks_of(triples), IDENTITY_PRUNE), p1)
    save_snapshot(build_graph(blocks_of(triples, 1), IDENTITY_PRUNE), p2)
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


@st.composite
def row_columns(draw):
    """Two or three non-negative int64 columns, maybe empty, with repeated
    rows; each column's values are small or near the largest that packs: the
    first two fold to at most ``2**63`` keys, and a third times at most 40
    distinct pairs stays below it."""
    caps = [draw(st.sampled_from([3, cap])) for cap in
            (2 ** 32 - 1, 2 ** 31 - 1, 2 ** 56)[:draw(st.sampled_from([2, 3]))]]
    rows = draw(st.lists(st.tuples(*(st.one_of(st.integers(0, 3), st.integers(cap - 3, cap))
                                     for cap in caps)), max_size=30))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
    return list(np.array(rows, dtype=np.int64).reshape(-1, len(caps)).T.copy())


@given(cols=row_columns())
@settings(max_examples=300)
def test_distinct_rows_equal_the_lexsort_oracle(cols):
    got = kg._distinct(*cols)
    want = distinct_rows_lexsort(*cols)
    assert len(got) == len(want) == len(cols)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("cols, refusal", [
    (([2 ** 32 - 1, 0], [2 ** 31 - 1, 5]), None),
    (([2 ** 32], [2 ** 31 - 1]), "4294967297 values of column 1 x 2147483648 values of column 2"),
    (([3 * 10 ** 9], [3 * 10 ** 9]), None),
    (([31 * 10 ** 8], [31 * 10 ** 8]),
     "3100000001 values of column 1 x 3100000001 values of column 2"),
    (([0, 1], [0, 0], [2 ** 62 - 1, 0]), None),
    (([0, 1], [0, 0], [2 ** 62, 0]),
     "2 distinct rows of columns 1-2 x 4611686018427387905 values of column 3"),
], ids=["two-at-limit", "two-past", "3.0e9-ids", "3.1e9-ids", "three-at-limit", "three-past"])
def test_distinct_refuses_a_key_past_int64(cols, refusal):
    cols = [np.array(c, dtype=np.int64) for c in cols]
    if refusal is None:
        for g, w in zip(kg._distinct(*cols), distinct_rows_lexsort(*cols)):
            np.testing.assert_array_equal(g, w)
    else:
        with pytest.raises(InputDataError) as exc:
            kg._distinct(*cols)
        message = str(exc.value)
        assert f"({refusal}), past the limit 2**63" in message
        assert message.endswith("about 3.04e9 node identifiers, node ids x distinct literals, "
                                "and distinct node pairs x predicates")


def test_number_gives_dense_ids_in_first_seen_order():
    ids = {}
    assert list(kg._number(ids, ("b", "a", "b", "c", "a"))) == [0, 1, 0, 2, 1]
    assert list(kg._number(ids, [])) == []
    assert list(kg._number(ids, ["d", "a", "d", "e", "b"])) == [3, 1, 3, 4, 0]
    assert ids == {"b": 0, "a": 1, "c": 2, "d": 3, "e": 4}
    rng = random.Random(5)
    ids, want = {}, {}
    for _ in range(50):
        keys = [(rng.choice("xyz" * 3 + "uvw"), rng.choice(["", "en"]))
                for _ in range(rng.randint(0, 12))]
        assert list(kg._number(ids, keys)) == [want.setdefault(k, len(want)) for k in keys]
        assert list(ids.items()) == list(want.items())
    assert sorted(ids.values()) == list(range(len(ids)))


# ------------------------------------------------------------ properties

node_names = st.sampled_from([f"n{i}" for i in range(12)])
triple_lists = st.lists(
    st.tuples(node_names, st.sampled_from(["p", "q", "r"]), node_names),
    max_size=40,
)


@given(triple_lists)
def test_random_graphs_satisfy_invariants(raw):
    g = build_graph(blocks_of(nt(*t) for t in raw), IDENTITY_PRUNE)
    g.validate()


@given(triple_lists, st.booleans())
@settings(max_examples=60)
def test_drop_leaves_leaves_min_degree_two(raw, english):
    cfg = PruneConfig(english_only=english, min_out_degree=0, drop_leaves=True)
    g = build_graph(blocks_of(nt(*t) for t in raw), cfg)
    g.validate()
    assert all(d >= 2 for d in g.degrees)


@given(raw=triple_lists)
@settings(max_examples=40)
def test_snapshot_round_trip_random(tmp_path_factory, raw):
    g = build_graph(blocks_of(nt(*t) for t in raw), IDENTITY_PRUNE)
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
    got = build_graph(blocks_of(records, 5), cfg)
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


# mostly well-formed triples over the nodes of ALL_PRUNE_CONFIGS' stoplist,
# with names in several tags, and lines that only the per-line rules take
graph_lines = st.one_of(
    st.builds("<{}> <{}> <{}> .".format, st.sampled_from([f"n{i}" for i in range(6)]),
              st.sampled_from(["p", "q", "http://x.org/ns/r"]),
              st.sampled_from([f"n{i}" for i in range(7)])),
    st.builds('<{}> <{}> "{}"{} .'.format, st.sampled_from(["n0", "n1", "l1"]),
              st.sampled_from([NAME, f"http://rdf.freebase.com/ns/{NAME}", "label"]),
              st.sampled_from(["A", "B", "b", "caf\\u00e9", 'say \\"B\\"']),
              st.sampled_from(["", "@en", "@EN", "@en-GB", "@fr", "@de", "^^<xsd:string>"])),
    st.sampled_from(["<n\xa0> <p> <n1> .", "\xa0<n0> <p> <n1> .", "<n0>\x85<p> <n3> .",
                     "<é> <p> <n0> .", f'<n2> <{NAME}> "Zwei"@de .\xa0', "# comment",
                     "", "garbage"]),
).map(str.encode)


@pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS, ids=PRUNE_IDS)
@given(dump=ntriples_dumps(graph_lines))
@settings(max_examples=10, deadline=None)
def test_build_graph_from_parse_equals_oracle(cfg, dump):
    data, block = dump
    with mock.patch.object(kg, "_BLOCK_BYTES", block):
        got = build_graph(parse_ntriples(io.BytesIO(data)), cfg)
    want = build_graph_lists(list(parse_lines(io.BytesIO(data))), cfg)
    assert got == want
    assert got.prune_stats == want.prune_stats


@pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS, ids=PRUNE_IDS)
def test_build_graph_from_parse_equals_oracle_on_synthetic_dump(cfg, synthetic_root):
    cfg = PruneConfig(cfg.english_only, cfg.min_out_degree,
                      frozenset({"m.glob0", "absent"}) if cfg.stoplist else frozenset(),
                      cfg.drop_leaves)
    with mock.patch.object(kg, "_BLOCK_BYTES", 1 << 12):
        got = build_graph(parse_ntriples(synthetic_root / "kg.nt"), cfg)
    want = build_graph_lists(list(parse_lines(synthetic_root / "kg.nt")), cfg)
    assert got == want
    assert got.prune_stats == want.prune_stats


def test_build_graph_on_a_parse_makes_no_record(monkeypatch, synthetic_root):
    """``build_graph`` reads a parse's block columns: on a dump the block
    pattern takes whole, it sends no line through the per-line rules."""
    path = synthetic_root / "kg.nt"
    cfg = PruneConfig(english_only=True, min_out_degree=0)
    want = build_graph_lists(list(parse_lines(path)), cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("ran the per-line rules")

    monkeypatch.setattr(kg, "_line_row", refuse)
    assert build_graph(parse_ntriples(path), cfg) == want


def test_block_parse_memory_does_not_grow_with_the_dump(tmp_path, monkeypatch):
    """Draining ``parse_ntriples`` peaks within the same multiple of the block size
    on a dump four times the size of another, and far below the larger dump."""
    block = 1 << 14
    monkeypatch.setattr(kg, "_BLOCK_BYTES", block)
    sizes, peaks = [], []
    for n in (2000, 8000):
        path = tmp_path / f"dump{n}.nt"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(f"<http://x.org/ns/m.{i % 997}> <http://x.org/ns/p{i % 13}> "
                         f"<http://x.org/ns/m.{i * 31 % 997}> .\n" if i % 3 else
                         f'<http://x.org/ns/m.{i % 997}> <http://x.org/ns/{NAME}> '
                         f'"Name \\"{i}\\" caf\\u00e9"@en .\n')
        sizes.append(path.stat().st_size)
        gc.collect()
        tracemalloc.start()
        try:
            for _ in parse_ntriples(path):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert sizes[1] > 3 * sizes[0]
    assert max(peaks) < 16 * block < sizes[1] / 2


class Column(list):
    """A block column that a weak reference can follow."""


def test_build_graph_keeps_no_record():
    """Of a streamed block generator, ``build_graph`` holds at most two blocks:
    the one being yielded and the one it still reads. A block is held while
    any of its columns lives."""
    records = [nt(f"n{i % 400}", f"p{i % 7}", f"n{(i * 37) % 400}") if i % 3 else
               lit(f"n{i % 400}", NAME, f"Name {i}", ("en", "fr", None)[i % 5 % 3])
               for i in range(3000)]
    columns, refs = [], []  # live columns per block yielded, and their weak refs
    live = peak = 0

    def died(block, _):
        nonlocal live
        columns[block] -= 1
        if not columns[block]:
            live -= 1

    def stream():
        nonlocal live, peak
        for b in blocks_of(records, 100):
            cols = [Column(c) for c in b[1:]]
            refs.extend(weakref.ref(c, partial(died, len(columns))) for c in cols)
            columns.append(len(cols))
            live += 1
            peak = max(peak, live)
            yield TripleBlock(b.seq, *cols)

    cfg = PruneConfig(english_only=True, min_out_degree=3, drop_leaves=True)
    g = build_graph(stream(), cfg)
    assert peak <= 2
    assert len(columns) == 30 and live == 0 and len(g) > 0
    assert g == build_graph_lists(records, cfg)
