"""Seeded benchmark inputs, generated once per (workload, seed, size) and cached.

``prepare(workload, seed)`` returns the input directory under
``.perfbench/inputs``, generating it first in a child process when it is
missing, so generation memory never shows in the measuring process's peak
RSS. Run directly (``python3 perfbench/inputs.py WORKLOAD SEED OUT``) to
generate one input directory.

* ``grid``: ``sedrec.synthetic.generate_benchmark(root, seed, groups=10)``
  (100 articles, 900 pairs) plus the ingested ``kg.snap``, pruned as
  ``scripts/run_ablations.py`` does.
* ``hub``: a heavy-tailed graph (50k nodes, 200k edges, max degree about
  10^3) written straight to a snapshot, with 16 articles whose seed entities
  sit at fixed reach ranks, scored as 8 pairs.
* ``ingest``: a heavy-tailed N-Triples dump of about 200k triples with
  English and foreign names, other literals, stoplisted class nodes, leaf
  chains, low out-degree nodes and a few malformed lines.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench" / "inputs"

# Generator sizes; part of the cache key.
SIZES = {
    "grid": "g10",
    "hub": "n50000-e200000-p8-r80",
    "ingest": "n24000-e120000",
}

# A third of the default synthetic benchmark, so one run repeats the grid
# several times and its figures are not a single sample.
GRID_GROUPS = 10
HUB_NODES, HUB_EDGES, HUB_PAIRS = 50_000, 200_000, 8
INGEST_NODES, INGEST_EDGES = 24_000, 120_000

_PREDICATES = [
    "base.topic.core_member", "people.person.affiliation",
    "organization.organization.member", "location.location.contains",
    "base.event.participant", "influence.influence_node.peer",
    "film.film.starring", "sports.team.roster", "music.artist.label",
    "book.author.works", "business.company.owner", "education.school.alumni",
]
_NS = "http://rdf.freebase.com/ns/"
_XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"


def cache_dir(workload: str, seed: int) -> Path:
    return CACHE / f"{workload}-s{seed}-{SIZES[workload]}"


def prepare(workload: str, seed: int) -> Path:
    """Input directory for ``workload`` at ``seed``, generated when missing."""
    out = cache_dir(workload, seed)
    if (out / "done").exists():
        return out
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        workload, str(seed), str(tmp)], check=True, cwd=ROOT)
        (tmp / "done").write_text("ok\n")
        shutil.rmtree(out, ignore_errors=True)
        tmp.rename(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice("bcdfglmnprstvz") + rng.choice("aeiou")
                   for _ in range(syllables))


def _chung_lu(rng: random.Random, n: int, m: int, alpha: float = 0.65,
              offset: float = 5.0) -> list[tuple[int, int]]:
    """m distinct edges drawn with endpoint odds proportional to (i + offset)^-alpha.

    The static counterpart of preferential attachment: a power-law degree
    tail whose hubs keep nearly the same degree from seed to seed. Node 0 is
    the heaviest.
    """
    cum = list(itertools.accumulate((i + offset) ** -alpha for i in range(n)))
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        k = m - len(edges)
        for u, v in zip(rng.choices(range(n), cum_weights=cum, k=k),
                        rng.choices(range(n), cum_weights=cum, k=k)):
            if u != v:
                edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


# ----------------------------------------------------------------- grid

def gen_grid(seed: int, out: Path) -> dict:
    from sedrec.kg import PruneConfig, build_graph, parse_ntriples, save_snapshot
    from sedrec.synthetic import generate_benchmark

    summary = generate_benchmark(out, seed, groups=GRID_GROUPS)
    kg = build_graph(parse_ntriples(out / "kg.nt"),
                     PruneConfig(english_only=True, min_out_degree=0))
    save_snapshot(kg, out / "kg.snap")
    return summary


# ------------------------------------------------------------------ hub

def gen_hub(seed: int, out: Path) -> dict:
    from sedrec.articles import EntityAnnotation, write_annotations
    from sedrec.evaluation import AnnotationRecord, write_ratings_csv
    from sedrec.kg import KnowledgeGraph, save_snapshot

    rng = random.Random(seed)
    n = HUB_NODES
    edges: dict[tuple[int, int], set[str]] = {}
    weights = [1.0 / (k + 1) for k in range(len(_PREDICATES))]
    for e in _chung_lu(rng, n, HUB_EDGES):
        preds = {rng.choices(_PREDICATES, weights)[0]}
        if rng.random() < 0.15:
            preds.add(rng.choice(_PREDICATES))
        edges[e] = preds
    ids = [f"m.h{i:05d}" for i in range(n)]
    titles = [f"v{i}" for i in range(n)]
    endpoints = sorted(edges)
    kg = KnowledgeGraph(ids, titles, endpoints,
                        [tuple(sorted(edges[e])) for e in endpoints])
    save_snapshot(kg, out / "kg.snap")

    # Nodes ranked by reach (summed neighbour degrees, about the 2-hop ball
    # size). Every seed slot of every article takes the node at a fixed reach
    # rank, so each seed gives the same profile of ball sizes and the scoring
    # work varies little between seeds; what varies is the graph around them.
    # Slot 0 takes every 80th rank from the top, skipping the very top
    # (which gives 20k-node unions); the other slots spread over the ranks
    # below.
    reach = [sum(kg.degrees[v] for v, _ in kg.neighbors(i)) for i in range(n)]
    by_reach = sorted((i for i in range(n) if reach[i]), key=lambda i: (-reach[i], i))
    articles = 2 * HUB_PAIRS
    step = 80
    low = step * (articles + 1)
    spread = (len(by_reach) - low) // articles

    def low_rank(k: int) -> int:
        return by_reach[low + (k % articles) * spread]

    fillers = sorted({_word(rng, rng.choice((2, 3))) for _ in range(1500)})
    (out / "articles").mkdir()
    records, annots = [], []
    for j in range(articles):
        aid = f"h{j:03d}"
        # slot types and counts are fixed: LOC is screened out, and the
        # context node (5 mentions) ranks second by TF-IDF behind slot 0
        slots = [(by_reach[step * (j + 1)], "ORG", 6),
                 (low_rank(2 * j + 1), "PER", 4), (low_rank(2 * j + 2), "LOC", 3)]
        context = low_rank(7 * j + 5)
        words = rng.choices(fillers, k=160) + [titles[context]] * 5
        rows = [(ids[node], titles[node], etype, count) for node, etype, count in slots]
        for node, _, count in slots:
            words += [titles[node]] * count
        if j % 10 == 3:
            rows.append((f"m.missing{j}", f"ghost{j}", "PER", 1))
        rng.shuffle(words)
        body = " ".join(words)
        (out / "articles" / f"{aid}.txt").write_text(f"Story {aid}\n{body}\n",
                                                     encoding="utf-8")
        for ent, mention, etype, count in rows:
            annots.append(EntityAnnotation(aid, mention, ent, etype, count,
                                           rng.randrange(len(body))))
    write_annotations(annots, out / "entities.tsv")
    for i in range(HUB_PAIRS):
        a, b = f"h{i:03d}", f"h{articles - 1 - i:03d}"
        records.append(AnnotationRecord(
            f"p{i:03d}", a, b,
            tuple(rng.randint(0, 2) for _ in range(6)),
            tuple(rng.randint(0, 1) for _ in range(6))))
    write_ratings_csv(records, out / "annotations.csv")
    return {"nodes": n, "edges": kg.num_edges, "max_degree": max(kg.degrees),
            "articles": articles, "pairs": HUB_PAIRS}


# --------------------------------------------------------------- ingest

def gen_ingest(seed: int, out: Path) -> dict:
    rng = random.Random(seed)
    n = INGEST_NODES
    lines: list[str] = []
    valid = 0

    def node(i) -> str:
        return f"<{_NS}m.i{i}>"

    def add(line: str) -> None:
        nonlocal valid
        lines.append(line)
        valid += 1

    name = f"<{_NS}type.object.name>"
    classes = [f"<{_NS}m.class{k}>" for k in range(8)]
    weights = [1.0 / (k + 1) for k in range(len(_PREDICATES))]
    for hub, leaf in _chung_lu(rng, n, INGEST_EDGES):
        pred = rng.choices(_PREDICATES, weights)[0]
        add(f"{node(leaf)} <{_NS}{pred}> {node(hub)} .")
    for i in range(n):
        add(f"{node(i)} <{_NS}type.object.type> {rng.choice(classes)} .")
        # English names are capitalised and foreign ones are not, so a
        # foreign-only node must end up titled by its identifier
        word = _word(rng, 3)
        r = rng.random()
        if r >= 0.1:
            add(f'{node(i)} {name} "{word.capitalize()} {i}"@en .')
        if r < 0.35:
            add(f'{node(i)} {name} "{word} {i}"@{rng.choice(("fr", "de", "es"))} .')
        elif r < 0.45:
            add(f'{node(i)} {name} "Caf\\u00e9 {i}" .')
        if rng.random() < 0.4:
            add(f'{node(i)} <{_NS}common.topic.alias> "{word} \\"{i}\\""@en-GB .')
        if rng.random() < 0.5:
            add(f'{node(i)} <{_NS}measurement.value> "{rng.randrange(10**6)}"^^<{_XSD_INT}> .')
    # leaf chains: three distinct out-neighbours each, so they pass the
    # out-degree filter and only the 2-core pass removes them
    for c in range(1000):
        host = node(rng.randrange(n))
        for k in range(rng.randint(1, 3)):
            link = f"<{_NS}m.chain{c}_{k}>"
            add(f"{link} <{_NS}base.topic.core_member> {host} .")
            add(f'{link} {name} "Chain {c} {k}"@en .')
            add(f'{link} <{_NS}common.topic.alias> "chain {c}.{k}" .')
            host = link
    # sparse nodes fall to the out-degree filter
    for s in range(700):
        add(f"<{_NS}m.sparse{s}> <{_NS}base.topic.core_member> {node(rng.randrange(n))} .")
        add(f'<{_NS}m.sparse{s}> {name} "Sparse {s}"@en .')
    malformed = [
        f"{node(1)} {name} {node(2)}",
        f"<{_NS}m bad> {name} {node(2)} .",
        f'{node(3)} {name} "tag"@1-x .',
        f'{node(4)} {name} "unterminated .',
        f"{node(5)} {name} <{_NS}m.i6> <extra> .",
    ]
    rng.shuffle(lines)
    for bad in malformed:
        lines.insert(rng.randrange(len(lines)), bad)
    lines.insert(0, "# seeded heavy-tailed dump")
    body = ("\n".join(lines) + "\n").encode("utf-8")
    cut = body.index(b"\n", len(body) // 2) + 1
    body = body[:cut] + b"<\xff\xfe> <p> <o> .\n" + body[cut:]
    (out / "dump.nt").write_bytes(body)
    (out / "stoplist.txt").write_text(
        "# ubiquitous class nodes\n"
        + "".join(f"{c[1:-1]}\n" for c in classes), encoding="utf-8")
    return {"valid_triples": valid, "malformed": len(malformed) + 1,
            "stoplist": [c[1:-1] for c in classes]}


GENERATORS = {"grid": gen_grid, "hub": gen_hub, "ingest": gen_ingest}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    summary = GENERATORS[workload](seed, out)
    (out / "meta.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
