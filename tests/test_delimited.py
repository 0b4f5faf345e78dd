"""The shared rules of every delimited-file reader, and the writers' round trips.

Each reader is driven through the same cases: a short row, a repeated key, a
blank line (skipped) and a bad number (named by column and ``path:line``).
"""

import csv
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedrec.articles import EntityAnnotation, load_annotations, write_annotations
from sedrec.cli import _convert_long_ratings
from sedrec.errors import InputDataError
from sedrec.evaluation import AnnotationRecord, read_ratings_csv, write_ratings_csv
from sedrec.scoring import PairScore, ScoreTable, import_embedding_scores

RATINGS_HEADER = ("pair_id,article_a,article_b,q1_1,q1_2,q1_3,q1_4,q1_5,q1_6,"
                  "q2_1,q2_2,q2_3,q2_4,q2_5,q2_6")

# name -> (file name, header, rows, reader); every row is one line
READERS = {
    "score": ("s.csv", "pair_id,method,raw_distance,z_score,decision",
              ["p1,m,0.25,-1.0,1", "p2,m,0.75,1.0,0"], ScoreTable.read_csv),
    "embedding": ("e.csv", "pair_id,distance", ["p1,0.25", "p2,1.0"],
                  lambda p: import_embedding_scores(p, ["p1", "p2"])),
    "ratings": ("r.csv", RATINGS_HEADER,
                ["p1,a1,a2,0,1,2,0,1,2,0,1,0,1,0,1", "p2,a1,a3,2,2,2,2,2,2,1,1,1,1,1,1"],
                read_ratings_csv),
    "long-ratings": ("l.csv", "pair_id,article_a,article_b,annotator,q1,q2",
                     [f"p1,a1,a2,{i},{i % 3},{i % 2}" for i in range(1, 7)],
                     _convert_long_ratings),
    "annotations": ("a.tsv", "article_id\tmention\tentity_id\tentity_type\tcount\tfirst_offset",
                    ['a1\t"Big" Apple\tm.x\tORG\t2\t0', "a1\tBob\tm.y\tPER\t1\t9"],
                    load_annotations),
}

# (reader, row index, column, bad text, what the message says about it)
BAD_NUMBERS = [
    ("score", 1, "raw_distance", "x", "'x' is not a number"),
    ("score", 0, "raw_distance", "inf", "inf is not finite"),
    ("score", 1, "z_score", "nan", "nan is not finite"),
    ("score", 0, "z_score", "-inf", "-inf is not finite"),
    ("embedding", 1, "distance", "1.5", "1.5 is outside [0.0, 1.0]"),
    ("embedding", 0, "distance", "nan", "nan is not finite"),
    ("ratings", 1, "q2_3", "2", "2 is outside [0, 1]"),
    ("ratings", 0, "q1_1", "1.0", "'1.0' is not an integer"),
    ("long-ratings", 2, "annotator", "7", "7 is outside [1, 6]"),
    ("long-ratings", 4, "q1", "x", "'x' is not an integer"),
    ("annotations", 1, "count", "0", "0 is outside [1, "),
    ("annotations", 0, "first_offset", "-1", "-1 is outside [0, "),
]


def write(tmp_path, name, rows, blank_after=None):
    """Write a reader's file; ``blank_after`` puts a blank line after that row."""
    file, header, _, _ = READERS[name]
    lines = [header]
    for i, row in enumerate(rows):
        lines.append(row)
        if i == blank_after:
            lines.append("")
    path = tmp_path / file
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def fault(name, tmp_path, rows, blank_after=None):
    with pytest.raises(InputDataError) as exc:
        READERS[name][3](write(tmp_path, name, rows, blank_after))
    return str(exc.value)


@pytest.mark.parametrize("name", READERS)
def test_blank_lines_are_skipped(name, tmp_path):
    _, _, rows, read = READERS[name]
    plain = read(write(tmp_path, name, rows))
    path = write(tmp_path, name, rows, blank_after=0)
    path.write_text(path.read_text() + "\n\n")
    assert read(path) == plain


@pytest.mark.parametrize("name", READERS)
def test_short_row_names_its_line(name, tmp_path):
    rows = list(READERS[name][2])
    sep = "\t" if name == "annotations" else ","
    width = len(rows[1].split(sep))
    rows[1] = sep.join(rows[1].split(sep)[:-1])
    path = tmp_path / READERS[name][0]
    # the blank line after row 0 counts: row 1 is on line 4
    assert fault(name, tmp_path, rows, blank_after=0) == \
        f"{path}:4: expected {width} fields, got {width - 1}"


@pytest.mark.parametrize("name", READERS)
def test_repeated_key_names_its_line(name, tmp_path):
    rows = list(READERS[name][2])
    message = fault(name, tmp_path, rows + [rows[0]])
    assert message.startswith(f"{tmp_path / READERS[name][0]}:{len(rows) + 2}: duplicate ")


@pytest.mark.parametrize("name, row, column, text, why", BAD_NUMBERS,
                         ids=[f"{n}-{c}-{t}" for n, _, c, t, _ in BAD_NUMBERS])
def test_bad_number_names_column_and_line(name, row, column, text, why, tmp_path):
    file, header, rows, _ = READERS[name]
    sep = "\t" if name == "annotations" else ","
    rows = list(rows)
    fields = rows[row].split(sep)
    fields[header.split(sep).index(column)] = text
    rows[row] = sep.join(fields)
    message = fault(name, tmp_path, rows, blank_after=0)
    line = row + 2 + (row > 0)
    assert message.startswith(f"{tmp_path / file}:{line}: column {column}: {why}")


def test_long_ratings_annotator_1_and_01_are_one_annotator(tmp_path):
    rows = list(READERS["long-ratings"][2]) + ["p1,a1,a2,01,0,0"]
    assert re.search(r":8: duplicate pair_id, annotator \('p1', 1\)",
                     fault("long-ratings", tmp_path, rows))


def test_annotation_quotes_are_literal(tmp_path):
    path = write(tmp_path, "annotations", READERS["annotations"][2])
    assert load_annotations(path)["a1"][0].mention == '"Big" Apple'


def test_bad_header_is_line_one(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("pair,distance\np1,0.5\n")
    with pytest.raises(InputDataError, match=r"e\.csv:1: expected the header"):
        import_embedding_scores(path, ["p1"])


def test_unparsable_line_names_its_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("pair_id,distance\np1,0.5\n" + "p" * (csv.field_size_limit() + 1) + ",0.5\n")
    with pytest.raises(InputDataError, match=r"e\.csv:3: field larger than field limit"):
        import_embedding_scores(path, ["p1"])


# ------------------------------------------------------------ round trips

field_text = st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=8)


@given(st.dictionaries(field_text, st.tuples(
    field_text, field_text,
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
    st.lists(st.integers(0, 1), min_size=6, max_size=6)), max_size=20))
@settings(max_examples=60)
def test_ratings_csv_round_trip(tmp_path_factory, pairs):
    records = [AnnotationRecord(pid, a, b, tuple(q1), tuple(q2))
               for pid, (a, b, q1, q2) in pairs.items()]
    path = tmp_path_factory.mktemp("ratings") / "r.csv"
    write_ratings_csv(records, path)
    assert read_ratings_csv(path) == records


@given(st.dictionaries(st.tuples(field_text, field_text), st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False), st.booleans()), max_size=20))
@settings(max_examples=60)
def test_score_csv_round_trip(tmp_path_factory, scores):
    table = ScoreTable(rows=[PairScore(pid, method, *values)
                             for (pid, method), values in sorted(scores.items(),
                                                                  key=lambda kv: kv[0][::-1])])
    path = tmp_path_factory.mktemp("scores") / "s.csv"
    table.write_csv(path)
    assert ScoreTable.read_csv(path) == table


@given(st.dictionaries(st.tuples(field_text, field_text), st.tuples(
    field_text, st.sampled_from(["PER", "LOC", "ORG", "GPE", "FAC"]),
    st.integers(1, 10**6), st.integers(0, 10**6)), max_size=20))
@settings(max_examples=60)
def test_annotation_tsv_round_trip(tmp_path_factory, entities):
    records = [EntityAnnotation(art, mention, ent, etype, count, offset)
               for (art, ent), (mention, etype, count, offset) in entities.items()]
    path = tmp_path_factory.mktemp("annotations") / "a.tsv"
    write_annotations(records, path)
    by_article = {}
    for r in records:
        by_article.setdefault(r.article_id, []).append(r)
    assert load_annotations(path) == by_article
