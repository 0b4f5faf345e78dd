"""Shared construction helpers for the test suite."""

from __future__ import annotations

import random

from sedrec.kg import KnowledgeGraph, PruneConfig, build_graph

from oracles import TripleRecord, blocks_of

IDENTITY_PRUNE = PruneConfig(english_only=False, min_out_degree=0)


def nt(subject, predicate, obj):
    return TripleRecord(subject, predicate, obj)


def lit(subject, predicate, value, lang=None):
    return TripleRecord(subject, predicate, value, is_literal=True, lang=lang)


def graph_from_edges(edges, titles=None) -> KnowledgeGraph:
    """Build a graph from (u, v) or (u, v, predicate) tuples, no pruning."""
    triples = []
    for edge in edges:
        u, v, *rest = edge
        pred = rest[0] if rest else "rel"
        triples.append(nt(u, pred, v))
    if titles:
        for ident, title in titles.items():
            triples.append(lit(ident, "type.object.name", title, "en"))
    return build_graph(blocks_of(triples), IDENTITY_PRUNE)


def random_pruned_graphs():
    """The 100 seeded random pruned graphs of acceptance criterion 11, drawn
    in the same order from the same seed."""
    rng = random.Random(111111)
    langs = (None, "en", "fr")
    for _ in range(100):
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
        yield build_graph(blocks_of(triples), cfg)
