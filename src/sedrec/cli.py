"""Command line pipeline: ingest, convert, score, evaluate.

Every output file is written with a ``.manifest.json`` sidecar recording the
exact configuration, input digests, and output digest; repeated runs with the
same inputs produce byte-identical output bodies (manifests differ only in
their timestamp).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .articles import load_annotations
from .delimited import Number, read_table
from .errors import InputDataError
from .evaluation import (
    ANNOTATORS,
    AnnotationRecord,
    EvalCondition,
    check_pair_sets,
    evaluate_scores,
    load_cnrec,
    read_ratings_csv,
    write_ratings_csv,
)
from .kg import (
    ParseTally,
    PruneConfig,
    build_graph,
    load_snapshot,
    parse_ntriples,
    read_stoplist,
    save_snapshot,
)
from .scoring import (
    ScoreTable,
    ScoringConfig,
    SedVariant,
    ensemble,
    import_embedding_scores,
    score_sed,
    score_tfidf,
)
from .subgraph import ExpansionConfig
from .articles import ContextWordConfig, ScreeningConfig
from .weighting import WeightingScheme

KG_ENV_VAR = "SEDREC_KG"
UNHASHED = "unhashed: not a regular file"


# ------------------------------------------------------------- manifests

def _digest_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _digest_path(path) -> str:
    path = Path(path)
    if path.is_file():
        return _digest_file(path)
    if not path.is_dir():
        # a pipe or device such as /dev/stdin: the run already read its bytes,
        # and opening it again would hash nothing or block
        return UNHASHED
    h = hashlib.sha256()
    for sub in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(sub.relative_to(path)).encode())
        h.update(_digest_file(sub).encode())
    return "sha256:" + h.hexdigest()


def write_manifest(output: Path, command: str, config: dict, inputs: list) -> None:
    manifest = {
        "tool": "sedrec",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): _digest_path(p) for p in inputs},
        "outputs": {str(output): _digest_path(output)},
        "created": datetime.now(timezone.utc).isoformat(),
    }
    sidecar = Path(str(output) + ".manifest.json")
    sidecar.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")


def _items(*values: str) -> list[str]:
    """The stripped, non-empty entries of comma-separated option values."""
    return [s.strip() for v in values for s in v.split(",") if s.strip()]


def _once_each(option: str, entries: list) -> None:
    """Refuse an option that names an entry more than once."""
    repeated = sorted({str(e) for e in entries if entries.count(e) > 1})
    if repeated:
        raise InputDataError(f"{option} names an entry more than once: {repeated}")


def _require_file(path, what: str) -> Path:
    if path is None:
        raise InputDataError(f"missing required {what}")
    p = Path(path)
    if not p.exists():
        raise InputDataError(f"{what} not found: {p}")
    return p


def _require_writable_dirs(*outputs) -> None:
    """Check, before any work, that each output path's directory can take it."""
    for out in outputs:
        if out is None:
            continue
        parent = Path(out).parent
        if not parent.is_dir():
            raise InputDataError(f"output directory not found: {parent}")
        if not os.access(parent, os.W_OK):
            raise InputDataError(f"output directory is not writable: {parent}")


# ---------------------------------------------------------------- ingest

def cmd_ingest(args) -> int:
    _require_writable_dirs(args.out)
    triples_path = _require_file(args.triples, "triples file")
    stoplist = frozenset()
    if args.stoplist:
        stoplist = read_stoplist(_require_file(args.stoplist, "stoplist file"))
    try:
        cfg = PruneConfig(
            english_only=args.english_only,
            min_out_degree=args.min_out_degree,
            stoplist=stoplist,
            drop_leaves=args.drop_leaves,
        )
    except ValueError as exc:
        raise InputDataError(f"bad option value: {exc}") from None
    tally = ParseTally()
    graph = build_graph(parse_ntriples(triples_path, tally), cfg)
    save_snapshot(graph, args.out)
    print(graph.prune_stats.format_report())
    print(f"parsed {tally.records} triples from {tally.lines} lines, "
          f"{tally.error_count} malformed lines skipped")
    print(f"snapshot: {args.out} ({len(graph)} nodes, {graph.num_edges} edges)")
    write_manifest(Path(args.out), "ingest", {
        "english_only": args.english_only,
        "min_out_degree": args.min_out_degree,
        "stoplist": args.stoplist,
        "drop_leaves": args.drop_leaves,
    }, [triples_path] + ([args.stoplist] if args.stoplist else []))
    return 0


# --------------------------------------------------------------- convert

_LONG_HEADER = ["pair_id", "article_a", "article_b", "annotator", "q1", "q2"]


def _convert_long_ratings(path: Path) -> list[AnnotationRecord]:
    """Pivot one-row-per-annotator ratings into the canonical wide records."""
    # the key is checked on the parsed annotator, so "1" and "01" collide
    table = read_table(path, _LONG_HEADER, ["pair_id", "annotator"], {
        "annotator": Number(int, 1, ANNOTATORS), "q1": Number(int, 0, 2), "q2": Number(int, 0, 1)})
    pairs: dict[str, tuple[str, str, dict[int, tuple[int, int]]]] = {}
    for i, (pid, a, b, annotator, q1, q2) in enumerate(zip(*table.columns)):
        if pairs.setdefault(pid, (a, b, {}))[:2] != (a, b):
            raise table.fault(i, f"inconsistent articles for {pid}")
        pairs[pid][2][annotator] = (q1, q2)
    annotators = list(range(1, ANNOTATORS + 1))
    records = []
    for pid, (a, b, votes) in sorted(pairs.items()):
        if sorted(votes) != annotators:
            raise InputDataError(f"pair {pid}: expected ratings from {ANNOTATORS} annotators")
        records.append(AnnotationRecord(pid, a, b, *zip(*map(votes.get, annotators))))
    return records


def cmd_convert(args) -> int:
    articles_dir = _require_file(args.articles, "articles directory")
    ratings_path = _require_file(args.ratings, "ratings file")
    out = Path(args.out)
    # a stale article left in an earlier conversion would be loaded with the new ones
    for old in (out / "annotations.csv", out / "articles"):
        if old.exists():
            raise InputDataError(f"output already exists: {old}; convert into a new --out")
    # read every input before creating anything, so bad input leaves no output
    with open(ratings_path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header == _LONG_HEADER:
        records = _convert_long_ratings(ratings_path)
    else:
        records = read_ratings_csv(ratings_path)  # already wide: validate
    sources = sorted(Path(articles_dir).glob("*.txt"))
    if not sources:
        raise InputDataError(f"no .txt articles under {articles_dir}")

    (out / "articles").mkdir(parents=True)
    write_ratings_csv(records, out / "annotations.csv")
    for src in sources:
        (out / "articles" / src.name).write_bytes(src.read_bytes())
    print(f"converted {len(records)} pairs and {len(sources)} articles into {out}")
    write_manifest(out / "annotations.csv", "convert",
                   {"articles": str(articles_dir), "ratings": str(ratings_path)},
                   [articles_dir, ratings_path])
    return 0


# ----------------------------------------------------------------- score

def _parse_drop_types(text: str) -> frozenset[str]:
    if text.lower() == "none":
        return frozenset()
    return frozenset(t.upper() for t in _items(text))


def cmd_score(args) -> int:
    _require_writable_dirs(args.out)
    corpus_root = _require_file(args.corpus, "corpus root")
    articles, records = load_cnrec(corpus_root, expect_articles=None,
                                   expect_pairs=None)
    pairs = [(r.pair_id, r.article_a, r.article_b) for r in records]

    if args.method == "tfidf":
        table = score_tfidf(articles, pairs, method=args.label or "tfidf")
        config = {"method": "tfidf"}
        inputs = [corpus_root]
    elif args.method == "embedding":
        emb = _require_file(args.embedding_file, "embedding file (--embedding-file)")
        table = import_embedding_scores(emb, [p[0] for p in pairs],
                                        method=args.label or "embedding")
        config = {"method": "embedding", "embedding_file": str(emb)}
        inputs = [corpus_root, emb]
    else:
        kg_path = args.kg or os.environ.get(KG_ENV_VAR)
        kg = load_snapshot(_require_file(kg_path, "graph snapshot (--kg)"))
        annotations = load_annotations(
            _require_file(args.annotations, "entity annotations (--annotations)"))
        try:
            cfg = ScoringConfig(
                variant=SedVariant(args.variant),
                penalty=args.penalty,
                weighting=WeightingScheme(args.weighting),
                expansion=ExpansionConfig(args.hops),
                screening=ScreeningConfig(
                    drop_types=_parse_drop_types(args.drop_types),
                    top_k=(None if args.top_entities.lower() == "all"
                           else int(args.top_entities)),
                ),
                context_words=ContextWordConfig(args.context_words),
                reverse_direction=args.reverse_direction,
            )
        except ValueError as exc:
            raise InputDataError(f"bad option value: {exc}") from None
        table = score_sed(kg, articles, pairs, annotations, cfg,
                          method=args.label or "sed")
        config = {
            "method": "sed", "variant": args.variant, "penalty": args.penalty,
            "weighting": args.weighting, "hops": args.hops,
            "top_entities": args.top_entities, "drop_types": args.drop_types,
            "context_words": args.context_words,
            "reverse_direction": args.reverse_direction,
            "normalization": {
                m: {"mean": s.mean, "std": s.std, "max_finite": s.max_finite}
                for m, s in table.stats.items()
            },
        }
        inputs = [corpus_root, Path(kg_path), Path(args.annotations)]
    config["label"] = args.label

    table.write_csv(args.out)
    print(f"wrote {len(table.rows)} scores for method "
          f"{table.methods()[0]!r} to {args.out}")
    write_manifest(Path(args.out), "score", config, inputs)
    return 0


# -------------------------------------------------------------- evaluate

def _add_ensemble(decisions: dict, zs: dict, spec: str) -> None:
    """Add the ensemble of the methods ``spec`` names as one more decision
    and z-score column: the combined z-score, deciding at z < 0."""
    members = _items(spec)
    if len(members) < 2:
        raise InputDataError("--ensemble needs at least two method names")
    _once_each("--ensemble", members)
    missing = [m for m in members if m not in zs]
    if missing:
        raise InputDataError(f"--ensemble names methods no score file holds: {missing}")
    label = "+".join(members)
    if label in zs:
        raise InputDataError(f"--ensemble {label!r} is already a method of the score files")
    zs[label] = ensemble({m: zs[m] for m in members})
    decisions[label] = {pid: z < 0.0 for pid, z in zs[label].items()}


def cmd_evaluate(args) -> int:
    _require_writable_dirs(args.out_metrics, args.out_correlations)
    score_paths = _items(*args.scores)
    if not score_paths:
        raise InputDataError("at least one --scores file is required")
    # GR@.5 and GR@0.5 are the same condition
    conditions = [EvalCondition.parse(c) for c in _items(args.conditions)]
    if not conditions:
        raise InputDataError("--conditions names no evaluation condition")
    _once_each("--conditions", conditions)
    table = ScoreTable()
    for path in score_paths:
        table.merge(ScoreTable.read_csv(_require_file(path, "score file")))
    root = _require_file(args.cnrec, "benchmark root (--cnrec)")
    _, records = load_cnrec(root, expect_articles=args.expect_articles or None,
                            expect_pairs=args.expect_pairs or None)
    columns = {m: table.column(m) for m in table.methods()}
    # an ensemble z-normalizes its members, so check their pairs first
    check_pair_sets(records, columns)
    decisions = {m: {pid: ps.decision for pid, ps in col.items()} for m, col in columns.items()}
    zs = {m: {pid: ps.z_score for pid, ps in col.items()} for m, col in columns.items()}
    if args.ensemble:
        _add_ensemble(decisions, zs, args.ensemble)
    report = evaluate_scores(records, decisions, zs, conditions)
    print(report.format_table())
    report.write_metrics_csv(args.out_metrics)
    report.write_correlations_csv(args.out_correlations)
    config = {"scores": score_paths, "conditions": [c.label for c in conditions],
              "ensemble": args.ensemble}
    for out in (args.out_metrics, args.out_correlations):
        write_manifest(Path(out), "evaluate", config, score_paths + [args.cnrec])
    return 0


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedrec",
        description="Entity-graph shortest-distance scoring pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and prune a triple dump into a snapshot")
    p.add_argument("--triples", required=True, help="N-Triples file, optionally .gz")
    p.add_argument("--out", required=True, help="snapshot output path")
    p.add_argument("--english-only", action="store_true")
    p.add_argument("--min-out-degree", type=int, default=20)
    p.add_argument("--stoplist", help="file with one node identifier per line")
    p.add_argument("--drop-leaves", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("convert", help="adapt a raw benchmark layout to the canonical root")
    p.add_argument("--articles", required=True, help="directory of <id>.txt files")
    p.add_argument("--ratings", required=True,
                   help="ratings CSV, wide canonical or long per-annotator form")
    p.add_argument("--out", required=True,
                   help="canonical root to create; it must not hold annotations.csv or articles/")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("score", help="score all annotated article pairs")
    p.add_argument("--corpus", required=True, help="canonical benchmark root")
    p.add_argument("--out", required=True, help="score CSV output path")
    p.add_argument("--method", choices=["sed", "tfidf", "embedding"], default="sed")
    p.add_argument("--kg", help=f"graph snapshot (default ${KG_ENV_VAR})")
    p.add_argument("--annotations", help="entity annotation TSV")
    p.add_argument("--embedding-file", help="CSV of pair_id,distance")
    p.add_argument("--variant", choices=[v.value for v in SedVariant], default="sym")
    p.add_argument("--reverse-direction", action="store_true")
    p.add_argument("--hops", type=int, choices=[1, 2], default=1)
    p.add_argument("--weighting", choices=[w.value for w in WeightingScheme],
                   default="rws")
    p.add_argument("--penalty", type=float, default=0.98)
    p.add_argument("--top-entities", default="5", help="positive integer or 'all'")
    p.add_argument("--drop-types", default="LOC,GPE",
                   help="entity types to screen out, or 'none'")
    p.add_argument("--context-words", type=int, default=2)
    p.add_argument("--label", help="method label override for the output column")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="metrics against the benchmark labels")
    p.add_argument("--scores", action="append", required=True,
                   help="score CSV (repeat or comma-separate for several)")
    p.add_argument("--cnrec", required=True, help="canonical benchmark root")
    p.add_argument("--conditions", default="GR@.75,GR@.5,DR@.75,DR@.5")
    p.add_argument("--expect-articles", type=int, default=300,
                   help="expected article count; 0 disables the check")
    p.add_argument("--expect-pairs", type=int, default=2700,
                   help="expected pair count; 0 disables the check")
    p.add_argument("--ensemble", help="comma-separated methods to blend")
    p.add_argument("--out-metrics", default="metrics.csv")
    p.add_argument("--out-correlations", default="correlations.csv")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: an input file is not valid UTF-8: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: its traceback is what a report needs
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
