import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedrec.articles import (
    Article,
    ContextWordConfig,
    EntityAnnotation,
    ScreeningConfig,
    augment_context_words,
    link_entities_exact,
    load_annotations,
    load_corpus,
    screen_entities,
    seed_ids,
    tfidf_vectors,
    tokenize,
    write_annotations,
)
from sedrec import articles
from sedrec.errors import InputDataError

from helpers import graph_from_edges
from oracles import context_words_scan


def ann(entity, etype="PER", count=1, offset=0, article="a1"):
    return EntityAnnotation(article, entity, entity, etype, count, offset)


# ------------------------------------------------------------- screening

def test_screen_orders_by_count_then_offset():
    records = [ann("A", count=3, offset=100), ann("B", count=3, offset=50),
               ann("C", count=5, offset=200)]
    assert [a.entity_id for a in screen_entities(records)] == ["C", "B", "A"]


def test_screen_drops_configured_types():
    records = [ann("X", etype="LOC"), ann("Y", etype="PER")]
    out = screen_entities(records, ScreeningConfig())
    assert [a.entity_id for a in out] == ["Y"]


def test_screen_truncates_to_top_k():
    records = [ann(f"e{i}", count=10 - i, offset=i) for i in range(7)]
    out = screen_entities(records, ScreeningConfig(top_k=5))
    assert [a.entity_id for a in out] == ["e0", "e1", "e2", "e3", "e4"]


def test_screen_unlimited():
    records = [ann(f"e{i}") for i in range(8)]
    assert len(screen_entities(records, ScreeningConfig(top_k=None))) == 8


def test_screen_stable_on_ties():
    records = [ann("first", count=2, offset=5), ann("second", count=2, offset=5)]
    out = screen_entities(records, ScreeningConfig(top_k=None))
    assert [a.entity_id for a in out] == ["first", "second"]


def test_screening_config_validation():
    with pytest.raises(ValueError):
        ScreeningConfig(top_k=0)


# ---------------------------------------------------------------- TF-IDF

def corpus_of(texts):
    return {f"d{i}": Article(f"d{i}", "", t) for i, t in enumerate(texts)}


def test_tfidf_single_document_all_zero():
    vecs = tfidf_vectors(corpus_of(["apple banana apple"]))
    assert all(w == 0.0 for w in vecs["d0"].values())


def test_tfidf_80_percent_filter():
    texts = ["ubiquitous filler%d" % i for i in range(10)]
    vecs = tfidf_vectors(corpus_of(texts))
    assert all("ubiquitous" not in v for v in vecs.values())
    assert "filler0" in vecs["d0"]


def test_tfidf_direct_formula():
    vecs = tfidf_vectors(corpus_of(["zebra zebra zebra yak", "emu"]))
    assert vecs["d0"]["zebra"] == pytest.approx(3 * math.log(2))


def test_tfidf_term_in_all_of_two_docs_hits_df_filter():
    vecs = tfidf_vectors(corpus_of(["zebra yak", "yak"]))
    assert "yak" not in vecs["d0"] and "yak" not in vecs["d1"]


def test_tfidf_removes_stop_words():
    vecs = tfidf_vectors(corpus_of(["the cat and the hat", "a cat"]))
    assert "the" not in vecs["d0"] and "and" not in vecs["d0"]


def test_tfidf_single_occurrence_survives_df_filter():
    texts = ["shared lonely", "shared", "shared word", "shared"]
    vecs = tfidf_vectors(corpus_of(texts))
    assert "lonely" in vecs["d0"]


def fresh_tfidf(corpus):
    """A TF-IDF build that bypasses the memo."""
    return articles._tfidf.__wrapped__(tuple(corpus.items()))


def test_tfidf_memo_is_keyed_by_content():
    texts = ["zebra yak emu", "yak owl", "emu emu owl", "lynx owl"]
    first = tfidf_vectors(corpus_of(texts))
    again = tfidf_vectors(corpus_of(list(texts)))  # fresh objects, equal content
    assert again is first and again == fresh_tfidf(corpus_of(texts))
    base = corpus_of(texts)
    edited = {**base, "d2": Article("d2", "", "emu owl owl")}
    grown = corpus_of(texts + ["zebra lynx"])
    reordered = dict(reversed(base.items()))
    assert fresh_tfidf(edited) != fresh_tfidf(base)
    for corpus in (edited, grown, reordered, base):
        tfidf_vectors(corpus_of(texts))  # the memo holds the base corpus
        got, want = tfidf_vectors(corpus), fresh_tfidf(corpus)
        assert got == want
        assert list(got) == list(want) == list(corpus)
        assert all(list(got[a]) == list(want[a]) for a in want)


def test_tokenize_alphanumeric_runs():
    assert tokenize("Able-bodied, 42nd st.") == ["able", "bodied", "42nd", "st"]


@given(st.lists(st.text(alphabet="abc xyz", min_size=1), min_size=1, max_size=6))
@settings(max_examples=40)
def test_tfidf_weights_non_negative(texts):
    vecs = tfidf_vectors(corpus_of(texts))
    for v in vecs.values():
        assert all(w >= 0.0 for w in v.values())


# --------------------------------------------------------- context words

@pytest.fixture
def titled_graph():
    return graph_from_edges(
        [("m.eb", "m.x"), ("m.vi", "m.x"), ("m.zz", "m.x")],
        titles={"m.eb": "Ebola", "m.vi": "Virus", "m.zz": "Zebra"},
    )


def test_context_words_disabled(titled_graph):
    art = Article("a1", "t", "ebola ebola virus")
    tfidf = tfidf_vectors({"a1": art, "a2": Article("a2", "t", "other words")})
    assert augment_context_words(art, titled_graph, tfidf, ContextWordConfig(0)) == set()


def test_context_words_matches_title_case_insensitively(titled_graph):
    art = Article("a1", "outbreak", "ebola ebola ebola spreading fast")
    other = Article("a2", "sports", "match results today")
    tfidf = tfidf_vectors({"a1": art, "a2": other})
    got = augment_context_words(art, titled_graph, tfidf, ContextWordConfig(2))
    assert "m.eb" in got


def test_context_words_tie_breaks_lexicographically(titled_graph):
    # zebra and virus appear once each: equal weight, 'virus' < 'zebra'
    art = Article("a1", "t", "zebra virus")
    other = Article("a2", "t", "unrelated text")
    tfidf = tfidf_vectors({"a1": art, "a2": other})
    got = augment_context_words(art, titled_graph, tfidf, ContextWordConfig(1))
    assert got == {"m.vi"}


def test_context_words_limit(titled_graph):
    art = Article("a1", "t", "ebola ebola virus virus zebra")
    other = Article("a2", "t", "unrelated text")
    tfidf = tfidf_vectors({"a1": art, "a2": other})
    got = augment_context_words(art, titled_graph, tfidf, ContextWordConfig(2))
    assert len(got) == 2


@st.composite
def titled_corpora(draw):
    """2-6 articles over a six-word vocabulary, so many terms tie on weight,
    and a graph whose nodes carry some of the words as titles, in any case."""
    vocab = ["ant", "bee", "cat", "dog", "eel", "fox"]
    texts = draw(st.lists(st.lists(st.sampled_from(vocab), min_size=1, max_size=8),
                          min_size=2, max_size=6))
    corpus = {f"a{i}": Article(f"a{i}", "", " ".join(words)) for i, words in enumerate(texts)}
    titled = draw(st.lists(st.sampled_from(vocab), unique=True))
    titles = {f"m.{w}": draw(st.sampled_from([w, w.upper(), w.title()])) for w in titled}
    g = graph_from_edges([(node, "m.hub") for node in titles] or [("m.x", "m.hub")], titles)
    return corpus, g


@given(titled_corpora(), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_context_words_equal_the_sorted_scan(case, n_words):
    corpus, g = case
    tfidf = tfidf_vectors(corpus)
    for art in corpus.values():
        weights = tfidf[art.id]
        # the weights keep their first-occurrence order; only the scan is ranked
        assert list(weights) == list(dict.fromkeys(t for t in tokenize(art.text) if t in weights))
        got = augment_context_words(art, g, tfidf, ContextWordConfig(n_words))
        assert got == context_words_scan(weights, g, n_words)


def test_context_word_config_bounds():
    with pytest.raises(ValueError):
        ContextWordConfig(5)
    with pytest.raises(ValueError):
        ContextWordConfig(-1)


def test_seed_ids_union(titled_graph):
    screened = [ann("m.aa"), ann("m.eb")]
    seeds = seed_ids(screened, {"m.eb", "m.vi"})
    assert seeds == {"m.aa", "m.eb", "m.vi"}


# ------------------------------------------------------------ corpus I/O

def test_load_corpus_first_line_is_title(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "a1.txt").write_text("The Title\nBody text here.\nMore body.")
    arts = load_corpus(d)
    assert arts["a1"].title == "The Title"
    assert "Body text" in arts["a1"].body


def test_load_corpus_missing_dir(tmp_path):
    with pytest.raises(InputDataError):
        load_corpus(tmp_path / "nope")


def test_annotations_round_trip(tmp_path):
    records = [
        EntityAnnotation("a1", "Apple", "m.apple", "ORG", 3, 17),
        EntityAnnotation("a2", "Paris", "m.paris", "GPE", 1, 0),
    ]
    path = tmp_path / "ann.tsv"
    write_annotations(records, path)
    loaded = load_annotations(path)
    assert loaded["a1"] == [records[0]]
    assert loaded["a2"] == [records[1]]


def test_annotations_reject_bad_header(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text("wrong\theader\n")
    with pytest.raises(InputDataError):
        load_annotations(path)


def test_annotations_reject_duplicates(tmp_path):
    path = tmp_path / "ann.tsv"
    write_annotations(
        [EntityAnnotation("a1", "x", "m.x", "PER", 1, 0),
         EntityAnnotation("a1", "x2", "m.x", "PER", 2, 5)],
        path,
    )
    with pytest.raises(InputDataError, match="duplicate"):
        load_annotations(path)


def test_annotations_reject_bad_type_and_count(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text(
        "article_id\tmention\tentity_id\tentity_type\tcount\tfirst_offset\n"
        "a1\tx\tm.x\tZZZ\t1\t0\n"
    )
    with pytest.raises(InputDataError, match="entity type"):
        load_annotations(path)
    path.write_text(
        "article_id\tmention\tentity_id\tentity_type\tcount\tfirst_offset\n"
        "a1\tx\tm.x\tPER\t0\t0\n"
    )
    with pytest.raises(InputDataError, match="count"):
        load_annotations(path)


# ---------------------------------------------------------- toy gazetteer

def test_gazetteer_linker_counts_and_offsets():
    art = Article("a1", "Apple event", "Apple unveiled. Analysts liked Apple.")
    gaz = {"Apple": ("m.apple", "ORG"), "Analysts": ("m.an", "PER")}
    recs = link_entities_exact(art, gaz)
    by_id = {r.entity_id: r for r in recs}
    assert by_id["m.apple"].count == 3
    assert by_id["m.apple"].first_offset == 0
    assert by_id["m.an"].count == 1


def test_gazetteer_linker_word_boundaries():
    art = Article("a1", "t", "pineapple is not apple")
    recs = link_entities_exact(art, {"apple": ("m.apple", "ORG")})
    assert recs[0].count == 1


def test_gazetteer_merges_surface_forms():
    art = Article("a1", "t", "Obama met. Barack smiled.")
    gaz = {"Obama": ("m.ob", "PER"), "Barack": ("m.ob", "PER")}
    recs = link_entities_exact(art, gaz)
    assert len(recs) == 1
    assert recs[0].count == 2


# ------------------------------------------------------------ properties

entity_lists = st.lists(
    st.builds(
        ann,
        entity=st.text(alphabet="abcdef", min_size=1, max_size=4),
        etype=st.sampled_from(["PER", "LOC", "ORG", "GPE", "FAC"]),
        count=st.integers(1, 9),
        offset=st.integers(0, 500),
    ),
    max_size=12,
)


@given(entity_lists, st.integers(1, 6))
@settings(max_examples=60)
def test_screen_output_is_prefix_of_stable_sort(records, k):
    cfg = ScreeningConfig(top_k=k)
    out = screen_entities(records, cfg)
    assert len(out) <= k
    full = screen_entities(records, ScreeningConfig(top_k=None))
    assert out == full[:k]
    keys = [(-a.count, a.first_offset) for a in full]
    assert keys == sorted(keys)
    assert all(a.entity_type not in cfg.drop_types for a in out)
