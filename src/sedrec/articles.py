"""Articles, entity annotations, screening, and TF-IDF context words."""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .delimited import Number, read_table, write_table
from .errors import InputDataError
from .kg import KnowledgeGraph
from .stopwords import STOP_WORDS

ENTITY_TYPES = ("PER", "LOC", "ORG", "GPE", "FAC")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Article:
    id: str
    title: str
    body: str

    @property
    def text(self) -> str:
        return f"{self.title}\n{self.body}"


@dataclass(frozen=True)
class EntityAnnotation:
    """One linked entity of one article, with mention statistics."""

    article_id: str
    mention: str
    entity_id: str
    entity_type: str
    count: int
    first_offset: int


@dataclass(frozen=True)
class ScreeningConfig:
    """Which entity types to drop and how many top entities to keep."""

    drop_types: frozenset[str] = frozenset({"LOC", "GPE"})
    top_k: int | None = 5

    def __post_init__(self):
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1 or None for unlimited, got {self.top_k}")


@dataclass(frozen=True)
class ContextWordConfig:
    """How many high TF-IDF title-matching words to add to the seed set."""

    n_words: int = 2

    def __post_init__(self):
        if not 0 <= self.n_words <= 4:
            raise ValueError(f"n_words must be between 0 and 4, got {self.n_words}")


def load_corpus(directory) -> dict[str, Article]:
    """Read a directory of ``<article_id>.txt`` files; first line is the title."""
    directory = Path(directory)
    if not directory.is_dir():
        raise InputDataError(f"corpus directory not found: {directory}")
    articles = {}
    for path in sorted(directory.glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        title, _, body = text.partition("\n")
        articles[path.stem] = Article(path.stem, title.strip(), body)
    if not articles:
        raise InputDataError(f"no .txt articles under {directory}")
    return articles


_ANNOTATION_HEADER = [
    "article_id", "mention", "entity_id", "entity_type", "count", "first_offset",
]


def load_annotations(path) -> dict[str, list[EntityAnnotation]]:
    """Read the entity annotation TSV, grouped by article id.

    Enforces one record per (article, entity) pair, positive counts, and
    known entity types.
    """
    path = Path(path)
    if not path.is_file():
        raise InputDataError(f"annotation file not found: {path}")
    table = read_table(path, _ANNOTATION_HEADER, ["article_id", "entity_id"],
                       {"count": Number(int, 1), "first_offset": Number(int, 0)}, "\t")
    table.only("entity_type", set(ENTITY_TYPES), "unknown entity type")
    out: dict[str, list[EntityAnnotation]] = {}
    for art, ann in zip(table.columns[0], map(EntityAnnotation, *table.columns)):
        out.setdefault(art, []).append(ann)
    return out


def screen_entities(annotations: Iterable[EntityAnnotation],
                    cfg: ScreeningConfig = ScreeningConfig()) -> list[EntityAnnotation]:
    """Drop screened types, rank by (count desc, first offset asc), truncate.

    The sort is stable, so equal (count, offset) records keep input order.
    """
    kept = [a for a in annotations if a.entity_type not in cfg.drop_types]
    kept.sort(key=lambda a: (-a.count, a.first_offset))
    if cfg.top_k is not None:
        kept = kept[:cfg.top_k]
    return kept


def tokenize(text: str) -> list[str]:
    """Lowercased maximal alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


class TermWeights(dict):
    """One article's TF-IDF weights, term -> weight, in the order the terms
    first occur in its text, and ``ranked``: the same terms by weight
    (descending, ties broken lexicographically).

    The dict keeps its insertion order because ``scoring.baseline_distance``
    sums over it, and a sum in another order can move the last ulp.
    """

    __slots__ = ("ranked",)


def tfidf_vectors(corpus: Mapping[str, Article]) -> dict[str, TermWeights]:
    """Raw-count TF-IDF term weights per article.

    Stop words are removed, as are terms present in over 80% of the corpus.
    Weight is tf * ln(N / df).

    The last result is kept and returned again for a corpus of equal content
    in the same order, so every scoring run over one corpus shares one build,
    and ranks each article's terms once. The returned mapping and its inner
    mappings are therefore shared: read them, never change them.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    return _tfidf(tuple(corpus.items()))


# keyed by content, not identity: Article is frozen and hashes its fields
@functools.lru_cache(maxsize=1)
def _tfidf(corpus: tuple[tuple[str, Article], ...]) -> dict[str, TermWeights]:
    counts = {aid: Counter(t for t in tokenize(a.text) if t not in STOP_WORDS)
              for aid, a in corpus}
    df: Counter = Counter()
    for c in counts.values():
        df.update(c.keys())
    n = len(corpus)
    cutoff = 0.8 * n
    idf = {t: math.log(n / d) for t, d in df.items() if d <= cutoff}
    out = {}
    for aid, c in counts.items():
        weights = out[aid] = TermWeights((t, tf * idf[t]) for t, tf in c.items() if t in idf)
        weights.ranked = tuple(sorted(weights, key=lambda t: (-weights[t], t)))
    return out


def augment_context_words(article: Article, kg: KnowledgeGraph,
                          tfidf: Mapping[str, TermWeights],
                          cfg: ContextWordConfig = ContextWordConfig()) -> set[str]:
    """Graph nodes whose titles exactly match the article's top TF-IDF words.

    ``tfidf`` is ``tfidf_vectors``' result. Terms are scanned in its ranked
    order, by weight (descending, ties broken lexicographically); a term
    qualifies when it case-insensitively equals some node title, and the
    first ``n_words`` qualifying terms are returned as node identifiers.
    """
    if cfg.n_words == 0:
        return set()
    weights = tfidf.get(article.id)
    found: set[str] = set()
    for term in weights.ranked if weights is not None else ():
        node = kg.title_to_node(term)
        if node is not None:
            found.add(kg.ids[node])
            if len(found) >= cfg.n_words:
                break
    return found


def seed_ids(screened: Iterable[EntityAnnotation], context_nodes: Iterable[str]) -> frozenset[str]:
    """An article's seed set: screened entity ids unioned with context nodes."""
    return frozenset(a.entity_id for a in screened) | frozenset(context_nodes)


def link_entities_exact(article: Article,
                        gazetteer: Mapping[str, tuple[str, str]]) -> list[EntityAnnotation]:
    """Toy exact-match linker used to build test fixtures.

    ``gazetteer`` maps a surface form to (entity id, entity type). Occurrences
    are counted case-insensitively on word boundaries over the article text.
    """
    text = article.text
    lowered = text.lower()
    merged: dict[str, EntityAnnotation] = {}
    for surface in sorted(gazetteer):
        pattern = re.compile(r"(?<![^\W_])" + re.escape(surface.lower()) + r"(?![^\W_])")
        matches = list(pattern.finditer(lowered))
        if not matches:
            continue
        ent, etype = gazetteer[surface]
        rec = EntityAnnotation(
            article_id=article.id,
            mention=text[matches[0].start():matches[0].end()],
            entity_id=ent,
            entity_type=etype,
            count=len(matches),
            first_offset=matches[0].start(),
        )
        prev = merged.get(ent)
        if prev is not None:
            # same entity under two surface forms: fold into one record
            first = prev if prev.first_offset <= rec.first_offset else rec
            rec = EntityAnnotation(
                article.id, first.mention, ent, etype,
                prev.count + rec.count, first.first_offset,
            )
        merged[ent] = rec
    return sorted(merged.values(), key=lambda r: (r.first_offset, r.entity_id))


def write_annotations(records: Iterable[EntityAnnotation], path) -> None:
    """Write entity annotations in the canonical TSV layout."""
    write_table(path, _ANNOTATION_HEADER, (
        [r.article_id, r.mention, r.entity_id, r.entity_type, r.count, r.first_offset]
        for r in records), "\t")
