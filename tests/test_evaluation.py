import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedrec.errors import InputDataError
from sedrec.evaluation import (
    STANDARD_CONDITIONS,
    AnnotationRecord,
    ConfusionMetrics,
    EvalCondition,
    confusion_and_f1,
    correlations,
    evaluate_scores,
    f1_from_precision_recall,
    label_pairs,
    load_cnrec,
    positive_rate,
    read_ratings_csv,
    write_ratings_csv,
)
from sedrec.evaluation import _average_ranks

from oracles import average_ranks, evaluate_loop
from oracles import pearson as pearson_oracle


def rec(pid, q1, q2, a="artA", b="artB"):
    return AnnotationRecord(pid, a, b, tuple(q1), tuple(q2))


# ------------------------------------------------------------- conditions

def test_condition_parse_and_label():
    c = EvalCondition.parse("gr@.75")
    assert c == EvalCondition("GR", 0.75)
    assert c.label == "GR@.75"
    assert EvalCondition.parse("DR@0.5").label == "DR@.5"


def test_condition_rejects_garbage():
    with pytest.raises(InputDataError):
        EvalCondition.parse("nope")
    with pytest.raises(ValueError):
        EvalCondition("XX", 0.5)


def test_gr_threshold_is_inclusive():
    r = rec("p", [0] * 6, [1, 1, 1, 0, 0, 0])
    assert label_pairs([r], EvalCondition("GR", 0.5))["p"] is True
    assert label_pairs([r], EvalCondition("GR", 0.75))["p"] is False


def test_dr_requires_both_clauses():
    r = rec("p", [1, 1, 0, 2, 2, 2], [1, 1, 1, 1, 1, 0])
    labels = label_pairs([r], EvalCondition("DR", 0.75))
    assert labels["p"] is True  # mean q2 = 5/6, three raters with q1 <= 1


def test_dr_similarity_clause_fails():
    r = rec("p", [2] * 6, [1] * 6)
    assert label_pairs([r], EvalCondition("DR", 0.5))["p"] is False


def test_dr_positives_subset_of_gr():
    rng = np.random.default_rng(5)
    records = [
        rec(f"p{i}", rng.integers(0, 3, 6).tolist(), rng.integers(0, 2, 6).tolist())
        for i in range(200)
    ]
    for thr in (0.5, 0.75):
        gr = label_pairs(records, EvalCondition("GR", thr))
        dr = label_pairs(records, EvalCondition("DR", thr))
        assert all(gr[p] for p in dr if dr[p])
    gr50 = label_pairs(records, EvalCondition("GR", 0.5))
    gr75 = label_pairs(records, EvalCondition("GR", 0.75))
    assert all(gr50[p] for p in gr75 if gr75[p])


def test_positive_rate():
    labels = {"a": True, "b": False, "c": True, "d": False}
    assert positive_rate(labels) == 0.5
    assert positive_rate({"a": True}) == 1.0


# ----------------------------------------------------------- confusion/F1

def test_f1_symmetric_point():
    assert f1_from_precision_recall(0.5, 0.5) == 0.5


def test_f1_published_row_arithmetic():
    assert f1_from_precision_recall(0.6731, 0.3947) == pytest.approx(0.4976, abs=5e-4)


def test_confusion_counts_and_metrics():
    labels = {"a": True, "b": True, "c": False, "d": False}
    decisions = {"a": True, "b": False, "c": True, "d": False}
    m = confusion_and_f1(labels, decisions)
    assert (m.tp, m.fp, m.tn, m.fn) == (1, 1, 1, 1)
    assert m.precision == 0.5 and m.recall == 0.5 and m.f1 == 0.5
    assert m.total == 4


def test_confusion_zero_predictions_flagged():
    labels = {"a": True, "b": False}
    decisions = {"a": False, "b": False}
    m = confusion_and_f1(labels, decisions)
    assert not m.precision_defined
    assert m.precision == 0.0 and m.f1 == 0.0


def test_confusion_rejects_pair_mismatch():
    with pytest.raises(InputDataError):
        confusion_and_f1({"a": True}, {"b": True})


def test_f1_invariant_under_pair_relabeling():
    labels = {f"p{i}": i % 3 == 0 for i in range(30)}
    decisions = {f"p{i}": i % 2 == 0 for i in range(30)}
    renamed_l = {f"x{i}": labels[f"p{i}"] for i in range(30)}
    renamed_d = {f"x{i}": decisions[f"p{i}"] for i in range(30)}
    assert confusion_and_f1(labels, decisions) == confusion_and_f1(renamed_l, renamed_d)


# ------------------------------------------------------------ correlations

def test_correlation_identical_scores():
    scores = {f"p{i}": float(i) for i in range(10)}
    p, s = correlations(scores, dict(scores))
    assert p == pytest.approx(1.0)
    assert s == pytest.approx(1.0)


def test_correlation_negated_scores():
    scores = {f"p{i}": float(i) for i in range(10)}
    targets = {k: -v for k, v in scores.items()}
    p, s = correlations(scores, targets)
    assert p == pytest.approx(-1.0)
    assert s == pytest.approx(-1.0)


def test_correlation_constant_is_undefined():
    scores = {f"p{i}": 1.0 for i in range(5)}
    targets = {f"p{i}": float(i) for i in range(5)}
    assert correlations(scores, targets) == (None, None)


def test_correlation_matches_independent_pearson():
    rng = np.random.default_rng(11)
    scores = {f"p{i}": float(v) for i, v in enumerate(rng.normal(size=40))}
    targets = {f"p{i}": float(v) for i, v in enumerate(rng.normal(size=40))}
    p, _ = correlations(scores, targets)
    pids = sorted(scores)
    want = pearson_oracle([scores[i] for i in pids], [targets[i] for i in pids])
    assert p == pytest.approx(want, abs=1e-12)


def test_spearman_handles_ties_with_mean_ranks():
    scores = {"a": 1.0, "b": 1.0, "c": 2.0}
    targets = {"a": 1.0, "b": 2.0, "c": 3.0}
    _, s = correlations(scores, targets)
    # ranks x: 1.5, 1.5, 3; ranks y: 1, 2, 3
    xs, ys = [1.5, 1.5, 3.0], [1.0, 2.0, 3.0]
    assert s == pytest.approx(pearson_oracle(xs, ys))


# few distinct values, so most draws hold ties; -0.0 ties with 0.0, NaN with nothing
rank_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf]),
                        st.floats(allow_nan=True, allow_infinity=True))


@given(st.lists(rank_values, max_size=60))
@settings(max_examples=300)
def test_average_ranks_equal_loop_oracle_bytes(values):
    values = np.array(values, dtype=np.float64)
    assert _average_ranks(values).tobytes() == average_ranks(values).tobytes()


@given(st.lists(st.integers(-1250, 1250).map(float), min_size=4, max_size=30,
                unique=True))
@settings(max_examples=50)
def test_spearman_invariant_under_monotone_transform(values):
    scores = {f"p{i}": v / 25.0 for i, v in enumerate(values)}
    targets = {f"p{i}": float(i % 5) for i in range(len(values))}
    transformed = {k: math.exp(v / 25.0) for k, v in scores.items()}
    _, s1 = correlations(scores, targets)
    _, s2 = correlations(transformed, targets)
    if s1 is None:
        assert s2 is None
    else:
        assert s1 == pytest.approx(s2, abs=1e-12)


# -------------------------------------------------------------- loading

def make_benchmark(tmp_path, n_articles=4, n_pairs=4):
    root = tmp_path / "bench"
    (root / "articles").mkdir(parents=True)
    for i in range(n_articles):
        (root / "articles" / f"a{i}.txt").write_text(f"Title {i}\nBody text {i}.")
    records = [
        rec(f"p{i}", [1, 1, 0, 2, 2, 0], [1, 0, 1, 0, 1, 0],
            a=f"a{i % n_articles}", b=f"a{(i + 1) % n_articles}")
        for i in range(n_pairs)
    ]
    write_ratings_csv(records, root / "annotations.csv")
    return root, records


def test_load_benchmark_round_trip(tmp_path):
    root, records = make_benchmark(tmp_path)
    articles, loaded = load_cnrec(root, expect_articles=4, expect_pairs=4)
    assert len(articles) == 4
    assert loaded == records


def test_load_rejects_wrong_counts(tmp_path):
    root, _ = make_benchmark(tmp_path)
    with pytest.raises(InputDataError, match="expected 300 articles"):
        load_cnrec(root)
    with pytest.raises(InputDataError, match="expected 9 annotated"):
        load_cnrec(root, expect_articles=4, expect_pairs=9)


def test_load_rejects_dangling_article(tmp_path):
    root, records = make_benchmark(tmp_path)
    bad = records + [rec("px", [0] * 6, [0] * 6, a="a0", b="missing")]
    write_ratings_csv(bad, root / "annotations.csv")
    with pytest.raises(InputDataError, match="px"):
        load_cnrec(root, expect_articles=4, expect_pairs=5)


def test_load_rejects_out_of_range_rating(tmp_path):
    root, records = make_benchmark(tmp_path)
    path = root / "annotations.csv"
    text = path.read_text().replace("p0,a0,a1,1,1,0", "p0,a0,a1,3,1,0")
    path.write_text(text)
    with pytest.raises(InputDataError, match="q1_1"):
        read_ratings_csv(path)


def test_load_rejects_duplicate_pair(tmp_path):
    root, records = make_benchmark(tmp_path)
    write_ratings_csv(records + [records[0]], root / "annotations.csv")
    with pytest.raises(InputDataError, match="duplicate"):
        read_ratings_csv(root / "annotations.csv")


# ------------------------------------------------------------ full report

def test_evaluate_scores_report(tmp_path):
    records = [
        rec("p1", [2] * 6, [1] * 6),
        rec("p2", [0] * 6, [0] * 6),
        rec("p3", [1] * 6, [1, 1, 1, 0, 0, 0]),
        rec("p4", [0, 0, 1, 1, 2, 2], [1, 1, 1, 1, 0, 0]),
    ]
    decisions = {"m": {"p1": True, "p2": False, "p3": True, "p4": False}}
    zs = {"m": {"p1": -1.2, "p2": 1.5, "p3": -0.3, "p4": 0.0}}
    report = evaluate_scores(records, decisions, zs)
    gr50 = report.entries[("m", "GR@.5")]
    assert gr50.total == 4
    assert gr50.tp == 2 and gr50.fn == 1  # p4 positive but not recommended
    assert ("m", "DR@.5") in report.entries
    p, s = report.correlations["m"]
    assert p is not None and p > 0  # low distance aligned with high votes
    report.write_metrics_csv(tmp_path / "metrics.csv")
    report.write_correlations_csv(tmp_path / "corr.csv")
    assert (tmp_path / "metrics.csv").read_text().startswith("method,condition")
    table = report.format_table()
    assert "GR@.5" in table and "m" in table


def test_format_table_rows_follow_the_given_order():
    """One row per method, in the given order, else sorted; one column per
    condition, wide enough for "100.00" or for a longer label."""
    records = [rec("p1", [2] * 6, [1] * 6), rec("p2", [0] * 6, [0] * 6),
               rec("p3", [1] * 6, [1, 1, 1, 0, 0, 0])]
    decisions = {"zz": {"p1": True, "p2": False, "p3": True},
                 "a": {"p1": True, "p2": True, "p3": False}}
    zs = {m: {p: -1.0 if d else 1.0 for p, d in col.items()} for m, col in decisions.items()}
    report = evaluate_scores(records, decisions, zs,
                             [EvalCondition("GR", 0.5), EvalCondition("DR", 0.625)])
    assert report.format_table(["zz", "a"]).splitlines() == [
        "     GR@.5  DR@.625",
        "zz  100.00     0.00",
        "a    50.00     0.00",
    ]
    assert report.format_table().splitlines()[1:] == ["a    50.00     0.00",
                                                      "zz  100.00     0.00"]


def test_evaluate_scores_rejects_missing_pairs():
    records = [rec("p1", [0] * 6, [0] * 6), rec("p2", [0] * 6, [0] * 6)]
    with pytest.raises(InputDataError, match="missing"):
        evaluate_scores(records, {"m": {"p1": True}}, {"m": {"p1": 0.0}})


# ------------------------------------------------------------ properties

rating_lists = st.lists(
    st.tuples(
        st.lists(st.integers(0, 2), min_size=6, max_size=6),
        st.lists(st.integers(0, 1), min_size=6, max_size=6),
    ),
    min_size=1, max_size=40,
)


@given(rating_lists, st.sampled_from([0.5, 0.75]))
@settings(max_examples=50)
def test_condition_nesting_properties(ratings, thr):
    records = [rec(f"p{i}", q1, q2) for i, (q1, q2) in enumerate(ratings)]
    gr = label_pairs(records, EvalCondition("GR", thr))
    dr = label_pairs(records, EvalCondition("DR", thr))
    for pid in gr:
        if dr[pid]:
            assert gr[pid]
    decisions = {pid: (i % 2 == 0) for i, pid in enumerate(sorted(gr))}
    m = confusion_and_f1(gr, decisions)
    assert m.total == len(records)


@st.composite
def evaluation_inputs(draw):
    """Ratings for 3-14 pairs, a pair id sometimes rated twice (the later
    record counts), and 1-4 methods whose decisions and z-scores come from
    few values, so ties and constant columns are common."""
    n = draw(st.integers(3, 14))
    pids = [f"p{i:02d}" for i in draw(st.permutations(range(n)))]
    repeats = draw(st.lists(st.sampled_from(pids), max_size=2))
    ratings = st.tuples(st.lists(st.integers(0, 2), min_size=6, max_size=6),
                        st.lists(st.integers(0, 1), min_size=6, max_size=6))
    records = [rec(pid, *draw(ratings)) for pid in pids + repeats]
    methods = [f"m{i}" for i in range(draw(st.integers(1, 4)))]
    decisions, zs = {}, {}
    for m in methods:
        constant = draw(st.booleans())
        value = st.just(0.5) if constant else st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
        zs[m] = {p: draw(value) for p in pids}
        decisions[m] = {p: draw(st.booleans()) for p in pids}
    return records, decisions, zs


@given(evaluation_inputs())
@settings(max_examples=200, deadline=None)
def test_evaluate_scores_equals_per_pair_loop(case):
    records, decisions, zs = case
    report = evaluate_scores(records, decisions, zs, STANDARD_CONDITIONS)
    counts, corr = evaluate_loop(records, decisions, zs, STANDARD_CONDITIONS)
    assert list(report.entries) == list(counts)
    for key, (tp, fp, tn, fn) in counts.items():
        assert report.entries[key] == ConfusionMetrics.from_counts(tp, fp, tn, fn), key
    assert report.correlations == corr
    assert list(report.correlations) == list(corr)


@given(evaluation_inputs(), st.sampled_from(["decisions", "z"]), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_evaluate_scores_rejects_mismatched_pair_sets(case, column, extra, data):
    """A method that lacks a rated pair, or scores an unrated one, in its
    decisions or its z-scores, raises ``InputDataError``."""
    records, decisions, zs = case
    target = decisions if column == "decisions" else zs
    method = data.draw(st.sampled_from(sorted(target)))
    if extra:
        target[method]["unrated"] = True if column == "decisions" else 0.0
    else:
        del target[method][data.draw(st.sampled_from(sorted(target[method])))]
    with pytest.raises(InputDataError):
        evaluate_scores(records, decisions, zs, STANDARD_CONDITIONS)
