"""The three workloads: set-up, one timed operation sequence, and traced extras.

Each workload's ``op`` runs the sequence a user runs after set-up and
returns its wall time, the wall time of each step (a sedrec call or a short
run of them), the items it processed and the steps that processed them;
output checks run after the timed calls, so they never count in ``run_s``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from sedrec.articles import (
    ContextWordConfig, ScreeningConfig, augment_context_words, load_annotations,
    screen_entities, seed_ids, tfidf_vectors,
)
from sedrec.evaluation import STANDARD_CONDITIONS, evaluate_scores, load_cnrec
from sedrec.kg import (
    ParseTally, PruneConfig, build_graph, load_snapshot, parse_ntriples,
    read_stoplist, save_snapshot,
)
from sedrec.scoring import (
    ScoringConfig, SedVariant, compute_seed_sets, distance_matrix, ensemble,
    import_embedding_scores, score_sed, score_tfidf, table_from_raw,
    table_from_zscores,
)
from sedrec.subgraph import ExpansionConfig, expand, union
from sedrec.synthetic import generate_benchmark
from sedrec.weighting import EdgeCosts, WeightingScheme

from checks import ReferenceCosts, check_sed_sample, check_table, csv_digest, file_digest
from inputs import GRID_GROUPS, ROOT
from tracing import CountingCosts

TMP = ROOT / ".perfbench" / "tmp"
W = WeightingScheme


class Outcome:
    """Attempted and failed operations; a raise or a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # every operation error is a counted failure
            self.fail(label, [traceback.format_exc(limit=-3)])
            return None

    def fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def pass_one_key(cfg: ScoringConfig) -> tuple:
    """Inputs of the pair pass: everything but variant, penalty and direction."""
    return (cfg.expansion.radius, cfg.weighting, cfg.screening, cfg.context_words)


class Scorer:
    """Shared by ``grid`` and ``hub``: score_sed calls with their checks."""

    rate_name = "pairs_per_s"
    sample_per_call = 4

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.ref_costs: dict[WeightingScheme, ReferenceCosts] = {}
        self.ref_seeds: dict[tuple, dict] = {}
        self.digests: dict[str, str] = {}

    def setup(self, tracer) -> None:
        # drop the previous set-up's inputs first, so repeated set-ups do not
        # hold two graphs at once and inflate the peak RSS
        self.kg = self.articles = self.records = self.annotations = None
        with tracer.span("kg.load"):
            self.kg = load_snapshot(self.root / "kg.snap")
        with tracer.span("evaluation.load"):
            self.articles, self.records = load_cnrec(
                self.root, expect_articles=None, expect_pairs=None)
        with tracer.span("articles.load_annotations"):
            self.annotations = load_annotations(self.root / "entities.tsv")
        self.pairs = [(r.pair_id, r.article_a, r.article_b) for r in self.records]
        self.pair_ids = [p[0] for p in self.pairs]

    def score(self, out: Outcome, tracer, label: str, cfg: ScoringConfig,
              jobs: int = 1):
        with tracer.span("scoring.score_sed"):
            t = time.perf_counter()
            table = out.call(label, score_sed, self.kg, self.articles, self.pairs,
                             self.annotations, cfg, jobs=jobs, method=label)
            return table, time.perf_counter() - t

    def check_sed(self, out: Outcome, label: str, cfg: ScoringConfig, table,
                  op_index: int) -> None:
        if table is None:
            return
        problems = check_table(table, label, self.pair_ids)
        key = (cfg.screening, cfg.context_words)
        if key not in self.ref_seeds:
            self.ref_seeds[key] = compute_seed_sets(
                self.articles, self.annotations, self.kg, cfg)
        if cfg.weighting not in self.ref_costs:
            self.ref_costs[cfg.weighting] = ReferenceCosts(self.kg, cfg.weighting.value)
        rng = random.Random(f"{self.seed}/{op_index}/{label}")
        sample = rng.sample(self.pairs, min(self.sample_per_call, len(self.pairs)))
        problems += check_sed_sample(self.kg, table, label, self.ref_seeds[key], cfg,
                                     self.ref_costs[cfg.weighting], sample)
        out.fail(label, problems)
        if label not in self.digests:
            self.digests[label] = csv_digest(table, TMP / f"{label}.csv")

    def rebuilt_pass(self, out: Outcome, tracer, label: str, cfg: ScoringConfig,
                     table, layer: dict) -> None:
        """The pair pass of ``score_sed`` rebuilt from public functions, traced."""
        kg, pairs = self.kg, self.pairs
        aids = sorted({a for _, a, _ in pairs} | {b for _, _, b in pairs})
        with tracer.span("scoring.seed_sets"):
            seeds = out.call(label + "/seeds", compute_seed_sets, self.articles,
                             self.annotations, kg, cfg, aids)
        if seeds is None:
            return
        with tracer.span("articles.tfidf"):
            tfidf = tfidf_vectors(self.articles)
        with tracer.span("articles.context_words"):
            context = {a: augment_context_words(self.articles[a], kg, tfidf,
                                                cfg.context_words) for a in aids}
        parts = {a: seed_ids(screen_entities(self.annotations.get(a, []), cfg.screening),
                             context[a]) for a in aids}
        out.fail(label + "/seeds", [] if parts == seeds else
                 ["seed sets rebuilt from articles functions differ"])
        layer["articles.unresolved_seeds"] += sum(
            1 for a in aids if any(not kg.has_node(s) for s in seeds[a]))
        with tracer.span("subgraph.expand"):
            subgraphs = {a: expand(kg, seeds[a], cfg.expansion) for a in aids}
        with tracer.span("subgraph.union"):
            unions = [union(subgraphs[a], subgraphs[b]) for _, a, b in pairs]
        with tracer.span("subgraph.adjacency"):
            for u in unions:
                u.adjacency()
        with tracer.span("weighting.init"):
            costs = EdgeCosts(kg, cfg.weighting)
        pair_times = layer["pair_times"]
        with tracer.span("scoring.pair_pass"):
            for (_, a, b), u in zip(pairs, unions):
                s1, s2 = sorted(seeds[a]), sorted(seeds[b])
                t = time.perf_counter()
                distance_matrix(u, costs, s1, s2)
                distance_matrix(u, costs, s2, s1)
                pair_times.append(time.perf_counter() - t)
        # counted on a second, untimed pass: the wrapper's own cost would
        # otherwise inflate the pair-pass timings by about a third
        counted = CountingCosts(EdgeCosts(kg, cfg.weighting))
        with tracer.span("weighting.counted_pass"):
            for (_, a, b), u in zip(pairs, unions):
                s1, s2 = sorted(seeds[a]), sorted(seeds[b])
                distance_matrix(u, counted, s1, s2)
                distance_matrix(u, counted, s2, s1)
        for (_, a, b), u in zip(pairs, unions):
            layer["members"].append(u.num_members)
            layer["subgraph.union_edges_sum"] += len(u.edges)
            # distance_matrix runs one Dijkstra per source seed inside the union
            layer["scoring.dijkstra_runs"] += sum(
                1 for s in [*seeds[a], *seeds[b]]
                if kg.has_node(s) and kg.node_index(s) in u.members)
        layer["weighting.cost_calls"] += counted.calls
        layer["weighting.cost_distinct"] += len(counted.seen)
        if table is not None:
            raw = {r.pair_id: r.raw_distance for r in table.rows}
            with tracer.span("scoring.znorm"):
                again = out.call(label + "/znorm", table_from_raw, label, raw,
                                 table.stats[label].max_finite)
            if again is not None and again.rows != table.rows:
                out.fail(label + "/znorm",
                         ["table_from_raw does not reproduce the score table"])


# ----------------------------------------------------------------- grid

def grid_configs() -> list[tuple[str, ScoringConfig]]:
    """The 21 score_sed configurations of scripts/run_ablations.py, in order."""
    out = []
    for hops in (1, 2):
        for scheme in (W.UNWEIGHTED, W.RWS):
            tag = "W" if scheme is W.RWS else "UnW"
            out.append((f"{tag}-{hops}hop", ScoringConfig(
                weighting=scheme, expansion=ExpansionConfig(hops))))
    screens = [("all", ScreeningConfig(drop_types=frozenset(), top_k=None), 0),
               ("nlg8", ScreeningConfig(top_k=8), 0),
               ("nlg5", ScreeningConfig(top_k=5), 0),
               ("nlg5+c2", ScreeningConfig(top_k=5), 2),
               ("nlg5+c4", ScreeningConfig(top_k=5), 4)]
    for name, screening, n_ctx in screens:
        out.append((name, ScoringConfig(screening=screening,
                                        context_words=ContextWordConfig(n_ctx))))
    for scheme in (W.RWS, W.AF, W.IAF, W.AF_IAF, W.JOINT_IC):
        out.append((scheme.value, ScoringConfig(weighting=scheme)))
    for penalty in (1.0, 0.98, 0.95, 0.90):
        out.append((f"P{penalty:.2f}", ScoringConfig(penalty=penalty)))
    for variant in (SedVariant.AVG, SedVariant.ROW, SedVariant.SYM):
        out.append((f"sed-{variant.value}", ScoringConfig(variant=variant)))
    return out


ENSEMBLES = (("sed-sym", "tfidf"), ("sed-sym", "embedding"),
             ("sed-sym", "tfidf", "embedding"))


class Grid(Scorer):
    """The paper's ablation grid on the synthetic benchmark."""

    configs = grid_configs()

    def op(self, out: Outcome, tracer, op_index: int) -> dict:
        t0 = time.perf_counter()
        tables, steps = {}, {}
        for label, cfg in self.configs:
            tables[label], steps[label] = self.score(out, tracer, label, cfg)

        def step(name: str, span: str, fn):
            t = time.perf_counter()
            with tracer.span(span):
                result = fn()
            steps[name] = time.perf_counter() - t
            return result

        tables["tfidf"] = step("tfidf", "scoring.tfidf_score", lambda: out.call(
            "tfidf", score_tfidf, self.articles, self.pairs))
        tables["embedding"] = step("embedding", "evaluation.import_embedding",
                                   lambda: out.call("embedding", import_embedding_scores,
                                                    self.root / "embeddings.csv",
                                                    self.pair_ids))
        step("ensembles", "evaluation.ensemble", lambda: tables.update(
            {"+".join(m): out.call("+".join(m), self._ensemble, tables, m)
             for m in ENSEMBLES}))
        report = step("evaluate", "evaluation.evaluate",
                      lambda: out.call("evaluate", self._evaluate, tables))
        return {"run_s": time.perf_counter() - t0, "steps": steps,
                "items": len(self.pairs) * len(self.configs),
                "item_steps": [label for label, _ in self.configs],
                "tables": tables, "report": report}

    def check(self, out: Outcome, op: dict, op_index: int) -> None:
        tables, report = op["tables"], op["report"]
        for label, cfg in self.configs:
            self.check_sed(out, label, cfg, tables[label], op_index)
        for name in ["tfidf", "embedding"] + ["+".join(m) for m in ENSEMBLES]:
            if tables[name] is not None:
                out.fail(name, check_table(tables[name], name, self.pair_ids))
        if report is not None:
            entries = report.entries
            problems = [] if len(entries) == len(tables) * len(STANDARD_CONDITIONS) \
                else [f"{len(entries)} report entries"]
            problems += [f"{k}: counts {m.total}" for k, m in entries.items()
                         if m.total != len(self.pairs) or not 0.0 <= m.f1 <= 1.0]
            out.fail("evaluate", problems)
            op["f1_gr50"] = entries[("sed-sym", "GR@.5")].f1

    @staticmethod
    def _ensemble(tables, members):
        z_cols = {m: {p: s.z_score for p, s in tables[m].column(m).items()}
                  for m in members}
        combined = ensemble(z_cols)
        raw = {p: sum(z_cols[m][p] for m in members) / len(members) for p in combined}
        return table_from_zscores("+".join(members), raw, combined)

    def _evaluate(self, tables):
        cols = {m: t.column(m) for m, t in tables.items()}
        decisions = {m: {p: s.decision for p, s in c.items()} for m, c in cols.items()}
        zs = {m: {p: s.z_score for p, s in c.items()} for m, c in cols.items()}
        return evaluate_scores(self.records, decisions, zs, STANDARD_CONDITIONS)

    def traced_extras(self, out: Outcome, tracer, op: dict, layer: dict) -> None:
        layer["scoring.pass_one_calls"] = len(self.configs)
        layer["scoring.pass_one_distinct"] = len({pass_one_key(c) for _, c in self.configs})
        for label, cfg in self.configs:
            tracer.run_id = f"rebuilt/{label}"
            self.rebuilt_pass(out, tracer, label, cfg, op["tables"][label], layer)
        tracer.run_id = "kg"
        snap = TMP / "grid.snap"
        res = parse_build_save(out, tracer, self.root / "kg.nt",
                               PruneConfig(english_only=True, min_out_degree=0), snap)
        out.fail("ingest", [] if res["graph"] == self.kg and
                 snap.read_bytes() == (self.root / "kg.snap").read_bytes()
                 else ["re-ingested kg.nt differs from the loaded snapshot"])
        kg_layer(out, tracer, layer, res, self.root / "kg.nt", snap)
        tracer.run_id = "synthetic"
        fresh = TMP / "grid-fresh"
        shutil.rmtree(fresh, ignore_errors=True)
        with tracer.span("synthetic.generate"):
            out.call("generate", generate_benchmark, fresh, self.seed,
                     groups=GRID_GROUPS)
        same = all((fresh / n).read_bytes() == (self.root / n).read_bytes()
                   for n in ("annotations.csv", "entities.tsv", "kg.nt", "embeddings.csv"))
        out.fail("generate", [] if same else ["generate_benchmark is not deterministic"])
        shutil.rmtree(fresh, ignore_errors=True)


# ------------------------------------------------------------------ hub

HUB_CONFIGS = [
    (f"sed-{s.value}", ScoringConfig(weighting=s, expansion=ExpansionConfig(2)))
    for s in (W.RWS, W.JOINT_IC)
]


class Hub(Scorer):
    """Two-hop scoring under RWS and JointIC over a heavy-tailed graph."""

    sample_per_call = 2
    configs = HUB_CONFIGS

    def op(self, out: Outcome, tracer, op_index: int) -> dict:
        t0 = time.perf_counter()
        tables, times = {}, {}
        for label, cfg in self.configs:
            tables[label], times[label] = self.score(out, tracer, label, cfg)
        return {"run_s": time.perf_counter() - t0, "steps": times,
                "items": len(self.pairs) * len(self.configs),
                "item_steps": list(times), "tables": tables, "times": times}

    def check(self, out: Outcome, op: dict, op_index: int) -> None:
        for label, cfg in self.configs:
            self.check_sed(out, label, cfg, op["tables"][label], op_index)

    def traced_extras(self, out: Outcome, tracer, op: dict, layer: dict) -> None:
        layer["scoring.pass_one_calls"] = len(self.configs)
        layer["scoring.pass_one_distinct"] = len({pass_one_key(c) for _, c in self.configs})
        for label, cfg in self.configs:
            tracer.run_id = f"rebuilt/{label}"
            self.rebuilt_pass(out, tracer, label, cfg, op["tables"][label], layer)

        label, cfg = self.configs[0]
        tracer.run_id = "jobs2"
        table, jobs2_s = self.score(out, tracer, label, cfg, jobs=2)
        layer["scoring.jobs2_speedup"] = op["times"][label] / jobs2_s
        layer["start_method"] = multiprocessing.get_start_method()
        if table is not None:
            digest = csv_digest(table, TMP / "jobs2.csv")
            out.fail("jobs2", [] if digest == self.digests.get(label) else
                     ["score CSV with jobs=2 differs from jobs=1"])

        tracer.run_id = "kg"
        snap = TMP / "hub-resave.snap"
        with tracer.span("kg.save"):
            out.call("save", save_snapshot, self.kg, snap)
        out.fail("save", [] if snap.read_bytes() == (self.root / "kg.snap").read_bytes()
                 else ["re-saved snapshot differs from its source"])
        layer["kg.nodes"], layer["kg.edges"] = len(self.kg), self.kg.num_edges
        layer["kg.snapshot_bytes"] = snap.stat().st_size

        tracer.run_id = "cli"
        cli_out = TMP / "cli.csv"
        cmd = [sys.executable, "-m", "sedrec.cli", "score", "--corpus", str(self.root),
               "--kg", str(self.root / "kg.snap"),
               "--annotations", str(self.root / "entities.tsv"),
               "--hops", "2", "--weighting", cfg.weighting.value,
               "--label", label, "--out", str(cli_out)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with tracer.span("cli.score"):
            t = time.perf_counter()
            proc = out.call("cli", subprocess.run, cmd, cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=170)
            layer["cli.score_s"] = time.perf_counter() - t
        ok = proc is not None and proc.returncode == 0
        same = ok and file_digest(cli_out) == self.digests.get(label)
        out.fail("cli", [] if same else
                 [f"sedrec score exit {proc and proc.returncode}, or its CSV differs"])
        layer["cli.overhead_s"] = (layer["cli.score_s"] - layer["setup_s"]
                                   - op["times"][label])


# --------------------------------------------------------------- ingest

def parse_build_save(out: Outcome, tracer, dump: Path, cfg: PruneConfig,
                     snap: Path) -> dict:
    """Stream one dump through build_graph, then save the graph."""
    tally = ParseTally()
    t0 = time.perf_counter()
    with tracer.span("kg.parse_build"):
        g = out.call("build", build_graph, parse_ntriples(dump, tally), cfg)
    t1 = time.perf_counter()
    rss = _rss_mb()
    t2 = time.perf_counter()
    with tracer.span("kg.save"):
        if g is not None:
            out.call("save", save_snapshot, g, snap)
    return {"graph": g, "tally": tally, "parse_build_s": t1 - t0, "rss_mb": rss,
            "save_s": time.perf_counter() - t2,
            "nodes": len(g) if g is not None else 0,
            "edges": g.num_edges if g is not None else 0}


def kg_layer(out: Outcome, tracer, layer: dict, res: dict, dump: Path, snap: Path) -> None:
    """kg metrics of one traced parse-build-save; the parse share is timed
    by draining the parser once more on its own, since build_graph streams."""
    with tracer.span("kg.parse"):
        out.call("parse", lambda: sum(1 for _ in parse_ntriples(dump, ParseTally())))
    tally = res["tally"]
    layer.update({
        "kg.build_s": res["parse_build_s"] - tracer.total("kg.parse"),
        "kg.rss_after_build_mb": res["rss_mb"], "kg.triples": tally.records,
        "kg.parse_errors": tally.error_count,
        "kg.nodes": res["nodes"], "kg.edges": res["edges"],
        "kg.snapshot_bytes": snap.stat().st_size if snap.exists() else 0})


class Ingest:
    """Parse, prune with all four passes, save and reload one N-Triples dump."""

    rate_name = "triples_per_s"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.dump = root / "dump.nt"
        self.meta = json.loads((root / "meta.json").read_text())
        self.digests: dict[str, str] = {}

    def setup(self, tracer) -> None:
        with tracer.span("kg.read_inputs"):
            stoplist = read_stoplist(self.root / "stoplist.txt")
            with open(self.dump, "rb") as fh:
                while fh.read(1 << 20):
                    pass
        self.cfg = PruneConfig(english_only=True, min_out_degree=3,
                               stoplist=stoplist, drop_leaves=True)

    def op(self, out: Outcome, tracer, op_index: int) -> dict:
        snap = TMP / "ingest.snap"
        t0 = time.perf_counter()
        res = parse_build_save(out, tracer, self.dump, self.cfg, snap)
        t1 = time.perf_counter()
        with tracer.span("kg.load"):
            g2 = out.call("load", load_snapshot, snap) if res["graph"] is not None else None
        t2 = time.perf_counter()
        run_s = t2 - t0
        # checked here, not in check(): keeping every op's graphs alive until
        # the end would multiply the memory the workload measures
        problems = ([] if g2 is None else
                    self._check(res["graph"], g2, res["tally"], snap))
        res["graph"] = None
        steps = {"parse_build": res["parse_build_s"], "save": res["save_s"],
                 "load": t2 - t1}
        return {"run_s": run_s, "steps": steps, "items": res["tally"].records,
                "item_steps": ["parse_build"], "kg": res, "problems": problems}

    def check(self, out: Outcome, op: dict, op_index: int) -> None:
        out.fail("ingest", op["problems"])

    def _check(self, g, g2, tally, snap: Path) -> list[str]:
        problems = []
        if tally.records != self.meta["valid_triples"]:
            problems.append(f"{tally.records} triples parsed, {self.meta['valid_triples']} written")
        if tally.error_count != self.meta["malformed"]:
            problems.append(f"{tally.error_count} parse errors, {self.meta['malformed']} written")
        if [p.name for p in g.prune_stats.passes] != [
                "input", "english", "stoplist", "out-degree", "leaves"]:
            problems.append("unexpected pruning passes")
        if any(g.has_node(s) for s in self.meta["stoplist"]):
            problems.append("stoplisted node survived")
        if min(g.degrees, default=2) < 2:
            problems.append("node of degree < 2 after leaf removal")
        if any(t[:1].islower() and not t.startswith("http") for t in g.titles):
            problems.append("a non-English title survived")
        if g2 != g:
            problems.append("loaded graph differs from the built graph")
        again = snap.with_suffix(".again")
        save_snapshot(g2, again)
        if again.read_bytes() != snap.read_bytes():
            problems.append("save(load(x)) is not byte-identical")
        try:
            g.validate()
        except ValueError as exc:
            problems.append(f"invalid graph: {exc}")
        return problems

    def traced_extras(self, out: Outcome, tracer, op: dict, layer: dict) -> None:
        kg_layer(out, tracer, layer, op["kg"], self.dump, TMP / "ingest.snap")


WORKLOADS = {"grid": Grid, "hub": Hub, "ingest": Ingest}
