#!/usr/bin/env python3
"""Run the hyper-parameter grid on a benchmark root and print F1 tables.

Covers the expansion radius, weighting schemes, entity screening and context
words, the disconnection penalty, the distance variants, the conventional
baselines, and their ensembles. Works on the synthetic benchmark out of the
box; point --root at a converted real dataset to reproduce the same grid
there (a kg.nt and entities.tsv are then expected alongside it).
"""

import argparse
import tempfile
from collections import Counter
from pathlib import Path

from sedrec.articles import ContextWordConfig, ScreeningConfig, load_annotations
from sedrec.evaluation import evaluate_scores, load_cnrec
from sedrec.kg import PruneConfig, build_graph, parse_ntriples
from sedrec.scoring import (
    PassOne,
    ScoringConfig,
    SedVariant,
    ensemble,
    import_embedding_scores,
    pass_one,
    pass_one_key,
    score_from,
    score_tfidf,
)
from sedrec.subgraph import ExpansionConfig
from sedrec.synthetic import generate_benchmark
from sedrec.weighting import WeightingScheme


VARIANTS_TABLE = "variants, baselines, ensembles"


def sed_tables() -> list[tuple[str, list[tuple[str, ScoringConfig]]]]:
    """Every table's SED rows in print order, as (title, [(row name, config)])."""
    base = dict(variant=SedVariant.SYM, weighting=WeightingScheme.RWS,
                expansion=ExpansionConfig(1))
    radius = [(f"{'W' if scheme is WeightingScheme.RWS else 'UnW'}/{hops}hop",
               ScoringConfig(variant=SedVariant.SYM, weighting=scheme,
                             expansion=ExpansionConfig(hops)))
              for hops in (1, 2)
              for scheme in (WeightingScheme.UNWEIGHTED, WeightingScheme.RWS)]
    screens = [("all", ScreeningConfig(drop_types=frozenset(), top_k=None), 0),
               ("nlg8", ScreeningConfig(top_k=8), 0),
               ("nlg5", ScreeningConfig(top_k=5), 0),
               ("nlg5+c2", ScreeningConfig(top_k=5), 2),
               ("nlg5+c4", ScreeningConfig(top_k=5), 4)]
    screening = [(name, ScoringConfig(**base, screening=screen,
                                      context_words=ContextWordConfig(n_ctx)))
                 for name, screen, n_ctx in screens]
    schemes = [(scheme.value, ScoringConfig(variant=SedVariant.SYM, weighting=scheme,
                                            expansion=ExpansionConfig(1)))
               for scheme in (WeightingScheme.RWS, WeightingScheme.AF, WeightingScheme.IAF,
                              WeightingScheme.AF_IAF, WeightingScheme.JOINT_IC)]
    penalties = [(f"P{penalty:.2f}", ScoringConfig(**base, penalty=penalty))
                 for penalty in (1.0, 0.98, 0.95, 0.90)]
    variants = [(f"sed-{variant.value}",
                 ScoringConfig(variant=variant, weighting=WeightingScheme.RWS,
                               expansion=ExpansionConfig(1)))
                for variant in (SedVariant.AVG, SedVariant.ROW, SedVariant.SYM)]
    return [("expansion radius and weighting", radius),
            ("entity screening and context words", screening),
            ("edge weighting schemes", schemes),
            ("disconnection penalty", penalties),
            (VARIANTS_TABLE, variants)]


def run(root: Path) -> None:
    articles, records = load_cnrec(root)
    pairs = [(r.pair_id, r.article_a, r.article_b) for r in records]
    annotations = load_annotations(root / "entities.tsv")
    kg = build_graph(parse_ntriples(root / "kg.nt"),
                     PruneConfig(english_only=True, min_out_degree=0))
    print(f"graph: {len(kg)} nodes, {kg.num_edges} edges")

    tables = sed_tables()
    # configs that differ only in variant, penalty or direction share a pass
    # one; each is dropped after the last config that uses it
    uses = Counter(pass_one_key(cfg) for _, rows in tables for _, cfg in rows)
    passes: dict[tuple, PassOne] = {}
    # every row's recorded decisions and z-scores, by row name
    decisions: dict[str, dict[str, bool]] = {}
    zs: dict[str, dict[str, float]] = {}

    def record(name: str, col) -> None:
        decisions[name] = {p: s.decision for p, s in col.items()}
        zs[name] = {p: s.z_score for p, s in col.items()}

    for title, rows in tables:
        for name, cfg in rows:
            key = pass_one_key(cfg)
            if key not in passes:
                passes[key] = pass_one(kg, articles, pairs, annotations, cfg)
            record(name, score_from(passes[key], cfg, method=name).column(name))
            uses[key] -= 1
            if not uses[key]:
                del passes[key]

    record("tfidf", score_tfidf(articles, pairs).column("tfidf"))
    emb_table = import_embedding_scores(root / "embeddings.csv", [p[0] for p in pairs])
    record("embedding", emb_table.column("embedding"))
    extra = ["tfidf", "embedding"]
    for members in (("sed", "tfidf"), ("sed", "embedding"),
                    ("sed", "tfidf", "embedding")):
        name = "+".join(members)
        # an ensemble decides at combined z < 0, as `sedrec evaluate --ensemble` does
        zs[name] = ensemble({m: zs["sed-sym" if m == "sed" else m] for m in members})
        decisions[name] = {p: z < 0 for p, z in zs[name].items()}
        extra.append(name)
    report = evaluate_scores(records, decisions, zs)
    for title, rows in tables:
        names = [name for name, _ in rows]
        print(f"\n== {title} (F1 %) ==")
        print(report.format_table(names + extra if title == VARIANTS_TABLE else names))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", help="benchmark root (generated when omitted)")
    args = parser.parse_args()

    if args.root:
        run(Path(args.root))
        return
    with tempfile.TemporaryDirectory(prefix="sedrec-bench-") as tmp:
        generate_benchmark(Path(tmp))
        print(f"generated synthetic benchmark at {tmp} (removed on exit)")
        run(Path(tmp))


if __name__ == "__main__":
    main()
