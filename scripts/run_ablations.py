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
from pathlib import Path

from sedrec.articles import ContextWordConfig, ScreeningConfig, load_annotations
from sedrec.evaluation import (
    STANDARD_CONDITIONS,
    confusion_and_f1,
    label_pairs,
    load_cnrec,
)
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


def f1_row(records, decisions) -> list[str]:
    cells = []
    for cond in STANDARD_CONDITIONS:
        labels = label_pairs(records, cond)
        cells.append(f"{confusion_and_f1(labels, decisions).f1 * 100:6.2f}")
    return cells


def print_table(title: str, rows: dict[str, list[str]]) -> None:
    header = "  ".join(f"{c.label:>6}" for c in STANDARD_CONDITIONS)
    width = max(len(name) for name in rows)
    print(f"\n== {title} (F1 %) ==")
    print(f"{'':<{width}}  {header}")
    for name, cells in rows.items():
        print(f"{name:<{width}}  " + "  ".join(cells))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", help="benchmark root (generated when omitted)")
    args = parser.parse_args()

    if args.root:
        root = Path(args.root)
    else:
        root = Path(tempfile.mkdtemp(prefix="sedrec-bench-"))
        generate_benchmark(root)
        print(f"generated synthetic benchmark at {root}")

    articles, records = load_cnrec(root)
    pairs = [(r.pair_id, r.article_a, r.article_b) for r in records]
    annotations = load_annotations(root / "entities.tsv")
    kg = build_graph(parse_ntriples(root / "kg.nt"),
                     PruneConfig(english_only=True, min_out_degree=0))
    print(f"graph: {len(kg)} nodes, {kg.num_edges} edges")

    # configs that differ only in variant, penalty or direction share a pass one
    passes: dict[tuple, PassOne] = {}

    def sed_decisions(cfg: ScoringConfig, label="sed"):
        key = pass_one_key(cfg)
        if key not in passes:
            passes[key] = pass_one(kg, articles, pairs, annotations, cfg)
        col = score_from(passes[key], cfg, method=label).column(label)
        return ({p: s.decision for p, s in col.items()},
                {p: s.z_score for p, s in col.items()})

    base = dict(variant=SedVariant.SYM, weighting=WeightingScheme.RWS,
                expansion=ExpansionConfig(1))

    rows = {}
    for hops in (1, 2):
        for scheme in (WeightingScheme.UNWEIGHTED, WeightingScheme.RWS):
            cfg = ScoringConfig(variant=SedVariant.SYM, weighting=scheme,
                                expansion=ExpansionConfig(hops))
            dec, _ = sed_decisions(cfg)
            tag = "W" if scheme is WeightingScheme.RWS else "UnW"
            rows[f"{tag}/{hops}hop"] = f1_row(records, dec)
    print_table("expansion radius and weighting", rows)

    rows = {}
    screens = [("all", ScreeningConfig(drop_types=frozenset(), top_k=None), 0),
               ("nlg8", ScreeningConfig(top_k=8), 0),
               ("nlg5", ScreeningConfig(top_k=5), 0),
               ("nlg5+c2", ScreeningConfig(top_k=5), 2),
               ("nlg5+c4", ScreeningConfig(top_k=5), 4)]
    for name, screening, n_ctx in screens:
        cfg = ScoringConfig(**base, screening=screening,
                            context_words=ContextWordConfig(n_ctx))
        dec, _ = sed_decisions(cfg)
        rows[name] = f1_row(records, dec)
    print_table("entity screening and context words", rows)

    rows = {}
    for scheme in (WeightingScheme.RWS, WeightingScheme.AF, WeightingScheme.IAF,
                   WeightingScheme.AF_IAF, WeightingScheme.JOINT_IC):
        cfg = ScoringConfig(variant=SedVariant.SYM, weighting=scheme,
                            expansion=ExpansionConfig(1))
        dec, _ = sed_decisions(cfg)
        rows[scheme.value] = f1_row(records, dec)
    print_table("edge weighting schemes", rows)

    rows = {}
    for penalty in (1.0, 0.98, 0.95, 0.90):
        cfg = ScoringConfig(**base, penalty=penalty)
        dec, _ = sed_decisions(cfg)
        rows[f"P{penalty:.2f}"] = f1_row(records, dec)
    print_table("disconnection penalty", rows)

    rows = {}
    zs = {}
    for variant in (SedVariant.AVG, SedVariant.ROW, SedVariant.SYM):
        cfg = ScoringConfig(variant=variant, weighting=WeightingScheme.RWS,
                            expansion=ExpansionConfig(1))
        dec, z = sed_decisions(cfg, label=f"sed-{variant.value}")
        rows[f"sed-{variant.value}"] = f1_row(records, dec)
        if variant is SedVariant.SYM:
            zs["sed"] = z
    tfidf_table = score_tfidf(articles, pairs)
    tf_col = tfidf_table.column("tfidf")
    rows["tfidf"] = f1_row(records, {p: s.decision for p, s in tf_col.items()})
    zs["tfidf"] = {p: s.z_score for p, s in tf_col.items()}
    emb_table = import_embedding_scores(root / "embeddings.csv", [p[0] for p in pairs])
    emb_col = emb_table.column("embedding")
    rows["embedding"] = f1_row(records, {p: s.decision for p, s in emb_col.items()})
    zs["embedding"] = {p: s.z_score for p, s in emb_col.items()}
    for members in (("sed", "tfidf"), ("sed", "embedding"),
                    ("sed", "tfidf", "embedding")):
        combined = ensemble({m: zs[m] for m in members})
        decisions = {p: z < 0 for p, z in combined.items()}
        rows["+".join(members)] = f1_row(records, decisions)
    print_table("variants, baselines, ensembles", rows)


if __name__ == "__main__":
    main()
