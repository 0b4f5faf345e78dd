"""Deterministic synthetic benchmark with the published corpus statistics.

Builds a full evaluation root: 300 articles in 30 topical groups of 10, the
2700-pair rating file (45 within-group plus 45 cross-group pairs per group),
entity annotations produced by the exact-match linker, a small knowledge
graph in N-Triples form, a stoplist, and an embedding-distance baseline file.

The rating assignment is calibrated so the positive rates of the four
standard evaluation conditions land exactly on 25/40/8/21 percent and the
Pearson correlation between mean similarity and mean recommendation ratings
matches 0.7371, while group-structured vocabulary gives a TF-IDF baseline
F1 in the mid 80s under GR@.5. Everything is a pure function of the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .articles import Article, link_entities_exact, write_annotations
from .delimited import write_table
from .evaluation import AnnotationRecord, write_ratings_csv
from .stopwords import STOP_WORDS

DEFAULT_SEED = 20140825

_CONSONANTS = "bcdfglmnprstvz"
_VOWELS = "aeiou"

_PREDICATES = [
    "base.topic.core_member", "people.person.affiliation",
    "organization.organization.connected", "location.location.nearby",
    "base.event.participant", "influence.influence_node.peer",
]


@dataclass(frozen=True)
class GroupWorld:
    """One topical group: its vocabulary and knowledge-graph entities."""

    index: int
    topic_words: tuple[str, ...]
    entities: tuple[tuple[str, str, str], ...]  # (node id, surface name, type)
    keywords: tuple[tuple[str, str], ...]       # (node id, topic word it titles)

    @property
    def hub(self) -> str:
        return f"m.g{self.index:02d}h"


def _pseudo_word(rng: random.Random, used: set[str], syllables: int) -> str:
    while True:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
            for _ in range(syllables)
        )
        if word not in used and word not in STOP_WORDS:
            used.add(word)
            return word


def _build_worlds(rng: random.Random, groups: int) -> tuple[list[GroupWorld], list[str], list[tuple[str, str, str]]]:
    used: set[str] = set()
    fillers = [_pseudo_word(rng, used, rng.choice((2, 3))) for _ in range(220)]
    globals_ = [
        (f"m.glob{i}", _pseudo_word(rng, used, 3).capitalize(),
         "GPE" if i % 2 == 0 else "LOC")
        for i in range(4)
    ]
    worlds = []
    for g in range(groups):
        topic = tuple(_pseudo_word(rng, used, rng.choice((2, 3))) for _ in range(14))
        entity_types = ("PER", "ORG", "FAC", "PER", "ORG", "FAC")
        entities = tuple(
            (f"m.g{g:02d}e{k}", _pseudo_word(rng, used, 3).capitalize(), entity_types[k])
            for k in range(6)
        )
        keywords = tuple((f"m.g{g:02d}k{j}", topic[j]) for j in range(2))
        worlds.append(GroupWorld(g, topic, entities, keywords))
    return worlds, fillers, globals_


_COMMON_STOPS = ["the", "a", "of", "and", "to", "in", "was", "for", "on", "with"]


def _article_text(rng: random.Random, world: GroupWorld, fillers: list[str],
                  globals_: list[tuple[str, str, str]], serial: int) -> tuple[str, str]:
    """Title and body for one article of a group."""
    mentioned = rng.sample(world.entities, rng.randint(3, 5))
    title = f"{world.topic_words[0].capitalize()} report on {mentioned[0][1]}"
    sentences = []
    unique = [f"{world.topic_words[1]}{serial}x{j}" for j in range(4)]
    mention_pool = []
    for ent in mentioned:
        mention_pool.extend([ent[1]] * rng.randint(1, 4))
    glob = rng.choice(globals_)
    mention_pool.extend([glob[1]] * rng.randint(1, 2))
    rng.shuffle(mention_pool)
    for s in range(12):
        words = [rng.choice(_COMMON_STOPS)]
        words += rng.sample(world.topic_words, rng.randint(3, 5))
        words += [rng.choice(fillers) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.5:
            words.append(rng.choice(unique))
        if mention_pool:
            words.insert(rng.randrange(len(words)), mention_pool.pop())
        words.append(rng.choice(_COMMON_STOPS))
        sentences.append(" ".join(words).capitalize() + ".")
    while mention_pool:
        sentences.append(f"More about {mention_pool.pop()} here.")
    return title, "\n".join(sentences)


def _make_pairs(rng: random.Random, groups: int, per_group: int):
    """45 within-group pairs per group plus 45 deduplicated cross-group pairs."""
    def aid(g, i):
        return f"a{g * per_group + i:03d}"

    within = []
    for g in range(groups):
        members = [aid(g, i) for i in range(per_group)]
        for i in range(per_group):
            for j in range(i + 1, per_group):
                within.append((members[i], members[j]))
    cross = set()
    for g in range(groups):
        added = 0
        while added < per_group * (per_group - 1) // 2:
            a = aid(g, rng.randrange(per_group))
            og = rng.randrange(groups)
            if og == g:
                continue
            b = aid(og, rng.randrange(per_group))
            key = (a, b) if a < b else (b, a)
            if key in cross:
                continue
            cross.add(key)
            added += 1
    return within, sorted(cross)


@dataclass
class _PairRatings:
    article_a: str
    article_b: str
    yes_count: int
    low_positions: list[int]   # annotator slots with similarity rating <= 1
    low_values: list[int]      # their 0/1 values, tunable
    yes_positions: list[int]

    def q1(self) -> tuple[int, ...]:
        out = [2] * 6
        for pos, val in zip(self.low_positions, self.low_values):
            out[pos] = val
        return tuple(out)

    def q2(self) -> tuple[int, ...]:
        out = [0] * 6
        for pos in self.yes_positions:
            out[pos] = 1
        return tuple(out)


def _assign_ratings(rng: random.Random, within, cross, pearson_target=0.7371):
    """Fix per-pair vote patterns hitting the published positive rates exactly.

    Strong positives (five or six yes votes) number 675 = 25% of 2700;
    moderate positives (three or four) add 405 more for 40% under GR@.5.
    216 strong and 351 moderate pairs get the diverse clause (at least three
    raters with similarity <= 1), yielding 8% and 21% under DR. Mean-q1 values
    are then tuned to the Pearson target by flipping 0/1 similarity votes,
    which never touches the clause or vote counts.
    """
    w = list(within)
    c = list(cross)
    rng.shuffle(w)
    rng.shuffle(c)
    strong = w[:650] + c[:25]
    moderate = w[650:1025] + c[25:55]
    negative = w[1025:] + c[55:]
    rng.shuffle(strong)
    rng.shuffle(moderate)

    plan: dict[tuple[str, str], _PairRatings] = {}

    def build(pair, yes_count, diverse, negative_pair=False):
        if diverse:
            k = rng.choice((3, 4, 5))
        elif not negative_pair:
            k = rng.choice((0, 1, 2))
        else:
            k = rng.choice((3, 4, 5, 6))
        low_positions = sorted(rng.sample(range(6), k))
        p_one = min(0.15 * yes_count + 0.1, 0.95)
        low_values = [1 if rng.random() < p_one else 0 for _ in range(k)]
        yes_positions = sorted(rng.sample(range(6), yes_count))
        plan[pair] = _PairRatings(pair[0], pair[1], yes_count,
                                  low_positions, low_values, yes_positions)

    for i, pair in enumerate(strong):
        build(pair, rng.choice((5, 6)), diverse=i < 216)
    for i, pair in enumerate(moderate):
        build(pair, rng.choice((3, 4)), diverse=i < 351)
    for pair in negative:
        build(pair, rng.choice((0, 0, 1, 1, 2)), diverse=False, negative_pair=True)

    _tune_pearson(rng, plan, pearson_target)

    ordered = sorted(plan)
    records = []
    for i, pair in enumerate(ordered):
        pr = plan[pair]
        records.append(AnnotationRecord(
            f"p{i:04d}", pr.article_a, pr.article_b, pr.q1(), pr.q2()))
    return records


def _tune_pearson(rng: random.Random, plan, target, tolerance=3e-4):
    """Greedy 0/1 similarity-vote flips until Pearson(mean q1, mean q2) fits."""
    pairs = sorted(plan)
    n = len(pairs)
    xs = [sum(plan[p].q1()) / 6.0 for p in pairs]
    ys = [sum(plan[p].q2()) / 6.0 for p in pairs]
    sy = sum(ys)
    syy = sum(v * v for v in ys)
    sx = sum(xs)
    sxx = sum(v * v for v in xs)
    sxy = sum(a * b for a, b in zip(xs, ys))
    dy = n * syy - sy * sy

    def r(sx_, sxx_, sxy_):
        dx = n * sxx_ - sx_ * sx_
        if dx <= 0 or dy <= 0:
            return 0.0
        return (n * sxy_ - sx_ * sy) / math.sqrt(dx * dy)

    current = r(sx, sxx, sxy)
    order = list(range(n))
    for _ in range(400):
        if abs(current - target) <= tolerance:
            break
        rng.shuffle(order)
        improved = False
        for idx in order:
            if abs(current - target) <= tolerance:
                break
            pr = plan[pairs[idx]]
            best = (abs(current - target), None, None)
            for vi, value in enumerate(pr.low_values):
                delta = (1.0 if value == 0 else -1.0) / 6.0
                nsx = sx + delta
                nsxx = sxx + 2 * xs[idx] * delta + delta * delta
                nsxy = sxy + delta * ys[idx]
                cand = r(nsx, nsxx, nsxy)
                if abs(cand - target) < best[0]:
                    best = (abs(cand - target), vi, delta)
            if best[1] is not None:
                vi, delta = best[1], best[2]
                pr.low_values[vi] ^= 1
                sx += delta
                sxx += 2 * xs[idx] * delta + delta * delta
                sxy += delta * ys[idx]
                xs[idx] += delta
                current = r(sx, sxx, sxy)
                improved = True
        if not improved:
            break


def _write_kg(path: Path, rng: random.Random, worlds, globals_) -> None:
    lines = []

    def edge(u, v):
        lines.append(f"<{u}> <{rng.choice(_PREDICATES)}> <{v}> .")

    def name(node, title, lang="en"):
        lines.append(f'<{node}> <type.object.name> "{title}"@{lang} .')

    for w in worlds:
        name(w.hub, f"Hub {w.index:02d}")
        for node, surface, _ in w.entities:
            edge(node, w.hub)
            name(node, surface)
        edge(w.entities[0][0], w.entities[1][0])
        edge(w.entities[2][0], w.entities[3][0])
        for node, word in w.keywords:
            edge(node, w.hub)
            name(node, word.capitalize())
        edge(w.keywords[0][0], w.entities[0][0])
    # a partial ring of hub bridges: the last six groups stay unbridged so
    # some cross-group pairs are genuinely disconnected
    for g in range(len(worlds) - 7):
        edge(worlds[g].hub, worlds[g + 1].hub)
    for node, surface, _ in globals_:
        name(node, surface)
        for w in worlds:
            edge(node, w.hub)
    # non-English flavor lines exercise ingest-side filtering
    name(worlds[0].entities[0][0], "Nom Alternatif", lang="fr")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_embeddings(path: Path, rng: random.Random, records) -> None:
    rows = []
    for r in records:
        same_group = int(r.article_a[1:]) // 10 == int(r.article_b[1:]) // 10
        base = 0.35 if same_group else 0.85
        d = min(max(rng.gauss(base, 0.08), 0.0), 1.0)
        rows.append([r.pair_id, f"{d:.6f}"])
    write_table(path, ["pair_id", "distance"], rows)


def generate_benchmark(root, seed: int = DEFAULT_SEED, groups: int = 30,
                       per_group: int = 10) -> dict:
    """Write the full synthetic benchmark under ``root``; returns a summary."""
    root = Path(root)
    (root / "articles").mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    worlds, fillers, globals_ = _build_worlds(rng, groups)

    articles: dict[str, Article] = {}
    gazetteer = {surface: (node, etype)
                 for w in worlds for node, surface, etype in w.entities}
    gazetteer.update({surface: (node, etype) for node, surface, etype in globals_})
    for w in worlds:
        for i in range(per_group):
            aid = f"a{w.index * per_group + i:03d}"
            title, body = _article_text(rng, w, fillers, globals_, serial=i)
            articles[aid] = Article(aid, title, body)
            (root / "articles" / f"{aid}.txt").write_text(
                f"{title}\n{body}\n", encoding="utf-8")

    annotations = []
    for aid in sorted(articles):
        annotations.extend(link_entities_exact(articles[aid], gazetteer))
    write_annotations(annotations, root / "entities.tsv")

    within, cross = _make_pairs(rng, groups, per_group)
    records = _assign_ratings(rng, within, cross)
    write_ratings_csv(records, root / "annotations.csv")

    _write_kg(root / "kg.nt", rng, worlds, globals_)
    (root / "stoplist.txt").write_text(
        "# ubiquitous location nodes\n"
        + "".join(f"{node}\n" for node, _, _ in globals_),
        encoding="utf-8",
    )
    _write_embeddings(root / "embeddings.csv", rng, records)

    return {
        "articles": len(articles),
        "pairs": len(records),
        "annotation_rows": len(annotations),
        "within_pairs": len(within),
        "cross_pairs": len(cross),
    }
