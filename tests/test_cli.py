import gzip
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from sedrec import cli
from sedrec.cli import UNHASHED, main
from sedrec.evaluation import load_cnrec
from sedrec.kg import load_snapshot
from sedrec.scoring import ScoreTable


@pytest.fixture(scope="module")
def snapshot(synthetic_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("snap") / "kg.snap"
    rc = main([
        "ingest", "--triples", str(synthetic_root / "kg.nt"),
        "--english-only", "--min-out-degree", "0", "--out", str(out),
    ])
    assert rc == 0
    return out


def read_scores(path):
    return ScoreTable.read_csv(path)


def small_root(synthetic_root, root, pairs):
    """A benchmark root with the whole corpus and its first ``pairs`` rated pairs."""
    shutil.copytree(synthetic_root / "articles", root / "articles")
    head(synthetic_root / "annotations.csv", root / "annotations.csv", pairs)
    return root


def head(path, out, rows):
    """Copy the header and the first ``rows`` rows of a CSV file."""
    out.write_text("\n".join(path.read_text().splitlines()[:rows + 1]) + "\n")
    return out


# ----------------------------------------------------------------- ingest

def test_ingest_writes_snapshot_stats_and_manifest(snapshot, capsys):
    graph = load_snapshot(snapshot)
    assert len(graph) > 200
    manifest = json.loads((snapshot.parent / "kg.snap.manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["config"]["min_out_degree"] == 0
    assert any("kg.nt" in k for k in manifest["inputs"])


def test_ingest_missing_input_is_usage_error(tmp_path, capsys):
    rc = main(["ingest", "--triples", str(tmp_path / "nope.nt"),
               "--out", str(tmp_path / "x.snap")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_ingest_stoplist_flag(synthetic_root, tmp_path, capsys):
    out = tmp_path / "pruned.snap"
    rc = main([
        "ingest", "--triples", str(synthetic_root / "kg.nt"),
        "--min-out-degree", "0",
        "--stoplist", str(synthetic_root / "stoplist.txt"),
        "--out", str(out),
    ])
    assert rc == 0
    graph = load_snapshot(out)
    assert not graph.has_node("m.glob0")


def test_ingest_min_out_degree_zero_keeps_counts(synthetic_root, tmp_path, capsys):
    out = tmp_path / "all.snap"
    main(["ingest", "--triples", str(synthetic_root / "kg.nt"),
          "--min-out-degree", "0", "--out", str(out)])
    report = capsys.readouterr().out
    lines = [l for l in report.splitlines() if l.startswith(("input", "out-degree"))]
    assert len(lines) == 2
    assert lines[0].split()[1:] == lines[1].split()[1:]


@pytest.mark.parametrize("command, flag, value", [
    ("ingest", "--min-out-degree", "-1"),
    ("score", "--penalty", "1.5"),
    ("score", "--context-words", "9"),
    ("score", "--top-entities", "abc"),
    ("score", "--top-entities", "0"),
])
def test_out_of_range_flag_is_input_error(synthetic_root, snapshot, tmp_path, capsys,
                                          command, flag, value):
    if command == "ingest":
        args = ["ingest", "--triples", str(synthetic_root / "kg.nt")]
    else:
        args = ["score", "--corpus", str(synthetic_root), "--kg", str(snapshot),
                "--annotations", str(synthetic_root / "entities.tsv")]
    rc = main(args + [flag, value, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and value in err


@pytest.mark.parametrize("command", ["ingest-stoplist", "score-annotations", "score-kg"])
def test_non_utf8_input_is_input_error(synthetic_root, snapshot, tmp_path, capsys, command):
    bad = tmp_path / "bad"
    if command == "score-kg":
        data = bytearray(snapshot.read_bytes())
        # first byte of the first node identifier
        data[data.index(load_snapshot(snapshot).ids[0].encode())] = 0xFF
        bad.write_bytes(bytes(data))
    else:
        bad.write_bytes(b"m.x\xff\xfe\n")
    if command == "ingest-stoplist":
        args = ["ingest", "--triples", str(synthetic_root / "kg.nt"), "--stoplist", str(bad)]
    else:
        args = ["score", "--corpus", str(synthetic_root),
                "--kg", str(bad if command == "score-kg" else snapshot),
                "--annotations", str(bad if command == "score-annotations"
                                     else synthetic_root / "entities.tsv")]
    rc = main(args + ["--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid UTF-8" in err


def test_version_1_snapshot_is_input_error(synthetic_root, tmp_path, capsys):
    old = tmp_path / "v1.snap"
    # the version 1 file of an empty graph: magic, version, three counts
    old.write_bytes(struct.pack("<8sIIII", b"SEDKGRPH", 1, 0, 0, 0))
    out = tmp_path / "sed.csv"
    rc = main(["score", "--corpus", str(synthetic_root), "--kg", str(old),
               "--annotations", str(synthetic_root / "entities.tsv"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported snapshot version 1")
    assert "sedrec ingest" in err and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["score-out-in-missing-dir", "ingest-out-in-missing-dir",
                                  "sed-score-out-in-missing-dir",
                                  "evaluate-correlations-in-missing-dir",
                                  "score-kg-is-a-directory"])
def test_unusable_path_is_input_error(synthetic_root, snapshot, tfidf_scores, tmp_path,
                                      capsys, monkeypatch, case):
    out = tmp_path / "nodir" / "out"
    metrics = tmp_path / "metrics.csv"
    if case == "ingest-out-in-missing-dir":
        args = ["ingest", "--triples", str(synthetic_root / "kg.nt"),
                "--min-out-degree", "0", "--out", str(out)]
    elif case == "score-out-in-missing-dir":
        args = ["score", "--corpus", str(synthetic_root), "--method", "tfidf",
                "--out", str(out)]
    elif case == "sed-score-out-in-missing-dir":
        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before checking the output directory")

        monkeypatch.setattr("sedrec.cli.score_sed", no_scoring)
        args = ["score", "--corpus", str(synthetic_root), "--kg", str(snapshot),
                "--annotations", str(synthetic_root / "entities.tsv"),
                "--out", str(out)]
    elif case == "evaluate-correlations-in-missing-dir":
        args = ["evaluate", "--scores", str(tfidf_scores), "--cnrec", str(synthetic_root),
                "--out-metrics", str(metrics), "--out-correlations", str(out)]
    else:
        args = ["score", "--corpus", str(synthetic_root), "--kg", str(tmp_path),
                "--annotations", str(synthetic_root / "entities.tsv"),
                "--out", str(tmp_path / "x.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal error" not in err
    assert not metrics.exists()


# ------------------------------------------------------------------ score

@pytest.fixture(scope="module")
def sed_scores(synthetic_root, snapshot, tmp_path_factory):
    out = tmp_path_factory.mktemp("scores") / "sed.csv"
    rc = main([
        "score", "--corpus", str(synthetic_root), "--kg", str(snapshot),
        "--annotations", str(synthetic_root / "entities.tsv"),
        "--variant", "sym", "--hops", "1", "--weighting", "rws",
        "--penalty", "0.98", "--top-entities", "5",
        "--drop-types", "LOC,GPE", "--context-words", "2",
        "--out", str(out),
    ])
    assert rc == 0
    return out


def test_score_sed_produces_full_csv(sed_scores):
    table = read_scores(sed_scores)
    col = table.column("sed")
    assert len(col) == 2700
    assert all(0.0 <= r.raw_distance <= 1.0 for r in col.values())


def test_score_writes_manifest_with_normalization(sed_scores):
    manifest = json.loads((sed_scores.parent / "sed.csv.manifest.json").read_text())
    assert manifest["command"] == "score"
    assert manifest["config"]["normalization"]["sed"]["std"] > 0
    assert manifest["outputs"]


def test_score_is_deterministic(synthetic_root, snapshot, tmp_path):
    args = [
        "score", "--corpus", str(synthetic_root), "--kg", str(snapshot),
        "--annotations", str(synthetic_root / "entities.tsv"),
    ]
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "one.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "two.csv.manifest.json").read_text())
    m1["outputs"] = m2["outputs"] = None  # paths differ; digests compared below
    m1.pop("created"), m2.pop("created")
    assert m1 == m2
    d1 = json.loads((tmp_path / "one.csv.manifest.json").read_text())["outputs"]
    d2 = json.loads((tmp_path / "two.csv.manifest.json").read_text())["outputs"]
    assert list(d1.values()) == list(d2.values())


def test_score_env_var_supplies_kg(synthetic_root, snapshot, tmp_path, monkeypatch):
    monkeypatch.setenv("SEDREC_KG", str(snapshot))
    out = tmp_path / "env.csv"
    rc = main([
        "score", "--corpus", str(synthetic_root),
        "--annotations", str(synthetic_root / "entities.tsv"),
        "--out", str(out),
    ])
    assert rc == 0 and out.exists()


def test_score_row_directions_average_to_sym(synthetic_root, snapshot, tmp_path):
    base = [
        "score", "--corpus", str(synthetic_root), "--kg", str(snapshot),
        "--annotations", str(synthetic_root / "entities.tsv"),
    ]
    fwd, rev, sym = (tmp_path / n for n in ("f.csv", "r.csv", "s.csv"))
    assert main(base + ["--variant", "row", "--out", str(fwd)]) == 0
    assert main(base + ["--variant", "row", "--reverse-direction",
                        "--out", str(rev)]) == 0
    assert main(base + ["--variant", "sym", "--out", str(sym)]) == 0
    f = {r.pair_id: r.raw_distance for r in read_scores(fwd).rows}
    b = {r.pair_id: r.raw_distance for r in read_scores(rev).rows}
    s = {r.pair_id: r.raw_distance for r in read_scores(sym).rows}
    assert all(s[p] == (f[p] + b[p]) / 2.0 for p in s)


@pytest.fixture(scope="module")
def tfidf_scores(synthetic_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("scores") / "tfidf.csv"
    rc = main(["score", "--corpus", str(synthetic_root), "--method", "tfidf",
               "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def embedding_scores(synthetic_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("scores") / "embedding.csv"
    rc = main(["score", "--corpus", str(synthetic_root), "--method", "embedding",
               "--embedding-file", str(synthetic_root / "embeddings.csv"),
               "--out", str(out)])
    assert rc == 0
    return out


def test_score_tfidf_needs_no_kg(tfidf_scores):
    assert len(read_scores(tfidf_scores).column("tfidf")) == 2700


def test_score_embedding_import(embedding_scores):
    col = read_scores(embedding_scores).column("embedding")
    assert len(col) == 2700


@pytest.mark.parametrize("method", ["tfidf", "embedding"])
def test_score_rejects_a_single_pair(synthetic_root, tmp_path, capsys, method):
    root = small_root(synthetic_root, tmp_path / "root", 1)
    embeddings = head(synthetic_root / "embeddings.csv", tmp_path / "embeddings.csv", 1)
    rc = main(["score", "--corpus", str(root), "--method", method,
               "--embedding-file", str(embeddings), "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least two article pairs" in err


# --------------------------------------------------------------- evaluate

def test_evaluate_emits_metrics_and_correlations(
        synthetic_root, sed_scores, tfidf_scores, embedding_scores, tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    corr = tmp_path / "corr.csv"
    rc = main([
        "evaluate",
        "--scores", f"{sed_scores},{tfidf_scores}",
        "--scores", str(embedding_scores),
        "--cnrec", str(synthetic_root),
        "--ensemble", "sed,tfidf,embedding",
        "--out-metrics", str(metrics),
        "--out-correlations", str(corr),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "GR@.75" in out and "sed+tfidf+embedding" in out
    lines = metrics.read_text().splitlines()
    assert len(lines) == 1 + 4 * 4  # header + 4 methods x 4 conditions
    corr_lines = corr.read_text().splitlines()
    assert len(corr_lines) == 1 + 4
    assert (tmp_path / "metrics.csv.manifest.json").exists()


def test_evaluate_csv_digests_are_pinned(synthetic_root, snapshot, tfidf_scores, tmp_path):
    """``evaluate --scores sed,tfidf --ensemble sed,tfidf`` on the default
    synthetic root, with default SED scores, writes these bytes."""
    sed = tmp_path / "sed.csv"
    assert main(["score", "--corpus", str(synthetic_root), "--kg", str(snapshot),
                 "--annotations", str(synthetic_root / "entities.tsv"),
                 "--out", str(sed)]) == 0
    metrics, corr = tmp_path / "metrics.csv", tmp_path / "correlations.csv"
    assert main(["evaluate", "--scores", f"{sed},{tfidf_scores}",
                 "--cnrec", str(synthetic_root), "--ensemble", "sed,tfidf",
                 "--out-metrics", str(metrics), "--out-correlations", str(corr)]) == 0
    assert hashlib.sha256(metrics.read_bytes()).hexdigest() == (
        "2dc1e55b7630e7c3d35e5b3a4ca839af3d3e8846fe7d5eb4749ab7780c2ae554")
    assert hashlib.sha256(corr.read_bytes()).hexdigest() == (
        "7ad2b18e186e45fc00727500fba1e5d5201d7f32aadd629e5c21dfeb7f5e66c7")


@pytest.mark.parametrize("spec, named", [("tfidf,nosuch", "nosuch"),
                                         ("tfidf,tfidf", "tfidf")],
                         ids=["unknown", "repeated"])
def test_evaluate_rejects_unknown_ensemble_member(synthetic_root, tfidf_scores, capsys,
                                                  spec, named):
    rc = main(["evaluate", "--scores", str(tfidf_scores),
               "--cnrec", str(synthetic_root), "--ensemble", spec])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_evaluate_rejects_missing_pair(synthetic_root, sed_scores, tmp_path, capsys):
    crippled = tmp_path / "short.csv"
    lines = sed_scores.read_text().splitlines()
    crippled.write_text("\n".join(lines[:-1]) + "\n")
    rc = main(["evaluate", "--scores", str(crippled),
               "--cnrec", str(synthetic_root)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing" in err and "p" in err


@pytest.mark.parametrize("pairs, rows, ensemble, message", [
    (3, 1, ["--ensemble", "sed,tfidf"], "pair set mismatch"),
    (2, 2, [], "at least three pairs"),
    (1, 1, ["--ensemble", "sed,tfidf"], "at least three pairs"),
], ids=["ensemble-mismatch", "two-pairs", "one-pair-ensemble"])
def test_evaluate_rejects_too_few_or_mismatched_pairs(synthetic_root, sed_scores, tfidf_scores,
                                                      tmp_path, capsys, pairs, rows, ensemble,
                                                      message):
    """Pairs are checked before an ensemble z-normalizes its members."""
    root = small_root(synthetic_root, tmp_path / "root", pairs)
    sed, tfidf = (head(f, tmp_path / f.name, rows) for f in (sed_scores, tfidf_scores))
    rc = main(["evaluate", "--scores", f"{sed},{tfidf}", "--cnrec", str(root),
               "--expect-pairs", "0", *ensemble])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("fault, column, value", [
    ("repeated-row", None, None),
    ("nan-raw", 2, "nan"),
    ("inf-raw", 2, "inf"),
    ("nan-z", 3, "nan"),
    ("inf-z", 3, "-inf"),
], ids=["repeated-row", "nan-raw", "inf-raw", "nan-z", "inf-z"])
def test_evaluate_rejects_bad_score_csv(synthetic_root, tfidf_scores, tmp_path, capsys,
                                        fault, column, value):
    lines = tfidf_scores.read_text().splitlines()
    if column is None:
        lines.append(lines[1])
    else:
        fields = lines[5].split(",")
        fields[column] = value
        lines[5] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["evaluate", "--scores", str(bad), "--cnrec", str(synthetic_root),
               "--out-metrics", str(tmp_path / "m.csv"),
               "--out-correlations", str(tmp_path / "c.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{len(lines) if column is None else 6}: ")
    assert not (tmp_path / "c.csv").exists()


def test_evaluate_rejects_unknown_condition(synthetic_root, sed_scores, capsys):
    rc = main(["evaluate", "--scores", str(sed_scores),
               "--cnrec", str(synthetic_root), "--conditions", "bogus"])
    assert rc == 2


def test_evaluate_prints_table(synthetic_root, sed_scores, tfidf_scores, tmp_path, capsys):
    rc = main(["evaluate", "--scores", f"{sed_scores},{tfidf_scores}",
               "--cnrec", str(synthetic_root),
               "--out-metrics", str(tmp_path / "metrics.csv"),
               "--out-correlations", str(tmp_path / "correlations.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sed" in out and "tfidf" in out and "DR@.5" in out
    # evaluate is the one evaluation command
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scores", str(tfidf_scores), "--cnrec", str(synthetic_root)])
    assert exc.value.code == 2
    assert "invalid choice: 'compare'" in capsys.readouterr().err


def test_evaluate_strips_comma_separated_entries(synthetic_root, tfidf_scores, tmp_path):
    metrics = []
    for scores, conditions in ((str(tfidf_scores), "GR@.5,DR@.5"),
                               (f" {tfidf_scores}", "GR@.5, DR@.5")):
        metrics.append(tmp_path / f"metrics{len(metrics)}.csv")
        assert main(["evaluate", "--scores", scores, "--cnrec", str(synthetic_root),
                     "--conditions", conditions, "--out-metrics", str(metrics[-1]),
                     "--out-correlations", str(tmp_path / "correlations.csv")]) == 0
    assert metrics[0].read_bytes() == metrics[1].read_bytes()


# ---------------------------------------------------------------- convert

def test_convert_long_format(tmp_path):
    raw = tmp_path / "raw"
    (raw / "docs").mkdir(parents=True)
    (raw / "docs" / "a1.txt").write_text("Title A\nBody.")
    (raw / "docs" / "a2.txt").write_text("Title B\nBody.")
    rows = ["pair_id,article_a,article_b,annotator,q1,q2"]
    for ann in range(1, 7):
        rows.append(f"px,a1,a2,{ann},{ann % 3},{ann % 2}")
    (raw / "ratings.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "canonical"
    rc = main(["convert", "--articles", str(raw / "docs"),
               "--ratings", str(raw / "ratings.csv"), "--out", str(out)])
    assert rc == 0
    articles, records = load_cnrec(out, expect_articles=2, expect_pairs=1)
    assert records[0].q1 == (1, 2, 0, 1, 2, 0)
    assert records[0].q2 == (1, 0, 1, 0, 1, 0)


def test_convert_rejects_incomplete_annotators(tmp_path, capsys):
    raw = tmp_path / "raw"
    (raw / "docs").mkdir(parents=True)
    (raw / "docs" / "a1.txt").write_text("T\nB")
    rows = ["pair_id,article_a,article_b,annotator,q1,q2", "px,a1,a1,1,0,0"]
    (raw / "ratings.csv").write_text("\n".join(rows) + "\n")
    rc = main(["convert", "--articles", str(raw / "docs"),
               "--ratings", str(raw / "ratings.csv"),
               "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "6 annotators" in capsys.readouterr().err


@pytest.mark.parametrize("fault, message", [
    ("no-articles", "no .txt articles"),
    ("bad-ratings-header", "expected the header"),
], ids=["no-articles", "bad-ratings-header"])
def test_convert_bad_input_leaves_no_output(tmp_path, capsys, fault, message):
    raw = tmp_path / "raw"
    (raw / "docs").mkdir(parents=True)
    if fault != "no-articles":
        (raw / "docs" / "a1.txt").write_text("T\nB")
    rows = ["pair_id,article_a,article_b,annotator,q1,q2"]
    if fault == "bad-ratings-header":
        rows[0] = "pair,a,b,rater,q1,q2"
    rows += [f"px,a1,a1,{ann},0,0" for ann in range(1, 7)]
    (raw / "ratings.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "canonical"
    rc = main(["convert", "--articles", str(raw / "docs"),
               "--ratings", str(raw / "ratings.csv"), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("earlier", ["annotations.csv", "articles"])
def test_convert_refuses_an_earlier_output(tmp_path, capsys, earlier):
    """A second conversion into the same root exits 2 naming what is there,
    and writes nothing: a stale article there would be loaded as a new one."""
    raw = tmp_path / "raw"
    (raw / "docs").mkdir(parents=True)
    for aid in ("a1", "a2"):
        (raw / "docs" / f"{aid}.txt").write_text(f"Title {aid}\nBody.")
    rows = ["pair_id,article_a,article_b,annotator,q1,q2"]
    rows += [f"px,a1,a2,{ann},0,1" for ann in range(1, 7)]
    (raw / "ratings.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "canonical"
    argv = ["convert", "--articles", str(raw / "docs"),
            "--ratings", str(raw / "ratings.csv"), "--out", str(out)]
    assert main(argv) == 0
    if earlier == "articles":
        (out / "annotations.csv").unlink()
    (out / "articles" / "zzz.txt").write_text("Stale\nBody.")
    before = sorted((p.relative_to(out), p.read_bytes()) for p in out.rglob("*") if p.is_file())
    capsys.readouterr()
    assert main(argv) == 2
    assert f"output already exists: {out / earlier}" in capsys.readouterr().err
    assert sorted((p.relative_to(out), p.read_bytes())
                  for p in out.rglob("*") if p.is_file()) == before


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_internal_error_prints_traceback(synthetic_root, tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_graph", boom)
    rc = main(["ingest", "--triples", str(synthetic_root / "kg.nt"),
               "--out", str(tmp_path / "x.snap")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last)")
    assert err.endswith("internal error: RuntimeError: boom\n")
    assert not (tmp_path / "x.snap").exists()


def test_ingest_accepts_gzip_triples(synthetic_root, tmp_path):
    import gzip as gz

    packed = tmp_path / "kg.nt.gz"
    packed.write_bytes(gz.compress((synthetic_root / "kg.nt").read_bytes()))
    out = tmp_path / "gz.snap"
    rc = main(["ingest", "--triples", str(packed), "--min-out-degree", "0",
               "--out", str(out)])
    assert rc == 0
    plain = tmp_path / "plain.snap"
    main(["ingest", "--triples", str(synthetic_root / "kg.nt"),
          "--min-out-degree", "0", "--out", str(plain)])
    assert out.read_bytes() == plain.read_bytes()


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
def test_ingest_reads_gzip_through_a_pipe(synthetic_root, tmp_path, capsys):
    """A gzip dump piped to ``--triples /dev/stdin`` is unwrapped, though a pipe cannot seek."""
    plain, piped = tmp_path / "plain.snap", tmp_path / "piped.snap"
    assert main(["ingest", "--triples", str(synthetic_root / "kg.nt"), "--min-out-degree", "0",
                 "--out", str(plain)]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sedrec.cli", "ingest", "--triples", "/dev/stdin",
         "--min-out-degree", "0", "--out", str(piped)],
        input=gzip.compress((synthetic_root / "kg.nt").read_bytes()), capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b" 0 malformed lines skipped" in proc.stdout
    assert piped.read_bytes() == plain.read_bytes()
    # a pipe is recorded by name, never as the digest of no bytes
    inputs = json.loads(Path(str(piped) + ".manifest.json").read_text())["inputs"]
    assert inputs["/dev/stdin"] == UNHASHED
    assert inputs["/dev/stdin"] != "sha256:" + hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("damage", ["truncated", "flipped-byte"])
def test_corrupt_gzip_triples_is_input_error(synthetic_root, tmp_path, capsys, damage):
    import gzip as gz

    data = bytearray(gz.compress((synthetic_root / "kg.nt").read_bytes()))
    if damage == "truncated":
        del data[len(data) // 2:]
    else:
        data[100] ^= 0xFF  # inside the deflate stream: zlib cannot decode it
    packed = tmp_path / "kg.nt.gz"
    packed.write_bytes(bytes(data))
    rc = main(["ingest", "--triples", str(packed), "--min-out-degree", "0",
               "--out", str(tmp_path / "gz.snap")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {packed}: corrupt gzip stream after line ")
    assert not (tmp_path / "gz.snap").exists()
