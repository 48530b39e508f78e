"""Random corpora through every stage: the end-to-end gate.

Each example is a tree of 4-24 tips, with polytomies, unary nodes, and zero
and absent branch lengths, and a cognate table of 3-8 concepts with
synonyms, loans, languages off the tree and missing data, written with
``csv.writer``; some concept and class labels hold a comma, a quote, a line
break or a U+2028 line separator. The examples are derandomized and their
number is fixed, so the gate is deterministic.
"""

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import jsonschema
import numpy as np
from hypothesis import given, settings, strategies as st

from lexiphylo.cli import main
from lexiphylo.report import report_schema
from lexiphylo.tree import Tree, parse_newick, write_newick

SEED, REPS, K = "1", "5", "3"
ARTIFACTS = ("pca.json", "clusters.json", "report.json", "ranking.csv", "scatter.svg")
GATE = settings(derandomize=True, deadline=None, database=None)


@st.composite
def corpora(draw):
    """A Newick text, its tips, and the rows of a cognate table over the tips and two
    off-tree languages."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Labels draw from their own stream, so the corpus is the same with plain
    # labels; each corpus marks its labels with two of the four characters.
    label_rng = np.random.default_rng([seed, 1])
    alphabet = ["", *label_rng.choice([",", '"', "\n", "\u2028"], size=2, replace=False)]
    marks = label_rng.choice(alphabet, size=(8, 6))
    tips = [f"T{i}" for i in range(int(rng.integers(4, 25)))]

    def length() -> str:
        return str(rng.choice(["", ":0", ":0.5", ":1", ":2.25"]))

    def build(group: list[str]) -> str:
        if len(group) == 1:
            node = group[0] + length()
        else:
            n_parts = int(rng.integers(2, min(4, len(group)) + 1))  # up to 4 children
            cuts = [0, *sorted(rng.choice(range(1, len(group)), n_parts - 1, replace=False)),
                    len(group)]
            inner = ",".join(build(group[a:b]) for a, b in zip(cuts, cuts[1:]))
            node = f"({inner}){length()}"
        return f"({node}){length()}" if rng.random() < 0.1 else node  # a unary node

    rows = []
    for c in range(int(rng.integers(3, 9))):
        missing, n_classes = rng.random() * 0.6, int(rng.integers(1, 5))
        # One concept in ten is attested only off the tree.
        for lang in [*tips, "X1", "X2"] if rng.random() < 0.9 else ["X1", "X2"]:
            if rng.random() < missing:
                continue
            classes = {int(rng.integers(n_classes))}
            if rng.random() < 0.15:  # a synonym
                classes.add(int(rng.integers(n_classes + 1)))
            rows += [(lang, f"c{marks[c, 0]}{c}", f"k{c}{marks[c, k + 1]}-{k}",
                      int(rng.random() < 0.1)) for k in sorted(classes)]
    return build(tips) + ";", set(tips), rows or [("X1", "c0", "k0-0", 0)]


def _run(argv: list[str]) -> tuple[int, str, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_error_line(code: int, err: str) -> None:
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _inputs(tmp_path_factory, newick: str, rows: list[tuple]) -> tuple[Path, list[str]]:
    """A directory holding the corpus, and the flags that name it with the gate's seed and reps."""
    work = tmp_path_factory.mktemp("corpus")
    (work / "tree.nwk").write_text(newick + "\n", "utf-8")
    with open(work / "cognates.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([("language", "concept", "cognate_id", "loan"), *rows])
    return work, ["--tree", str(work / "tree.nwk"), "--cognates", str(work / "cognates.csv"),
                  "--seed", SEED, "--reps", REPS]


@settings(GATE, max_examples=30)
@given(corpus=corpora())
def test_random_corpus_through_every_stage(tmp_path_factory, corpus):
    newick, tips, rows = corpus
    work, inputs = _inputs(tmp_path_factory, newick, rows)
    out, restage = work / "out", work / "restage"
    code, _, err = _run(["rank", *inputs, "--k", K, "--out", str(out)])
    report = None
    if code:
        _assert_error_line(code, err)
    else:
        report = json.loads((out / "report.json").read_text("utf-8"))
        jsonschema.validate(report, report_schema())
        # The report has every concept attested on the tree, by its label in the table.
        on_tree = {row[1] for row in rows if row[0] in tips}
        assert sorted(c["concept"] for c in report["concepts"]) == sorted(on_tree)
        shutil.copytree(out, restage, ignore=shutil.ignore_patterns(*ARTIFACTS))
        for argv in (["pca"], ["cluster", "--seed", SEED], ["report", "--k", K]):
            assert _run([*argv, "--out", str(restage)])[0] == 0
        for name in ARTIFACTS:
            assert (restage / name).read_bytes() == (out / name).read_bytes(), name

    # dstat on every class prints its report entry, or exits 1 with its skip reason.
    for concept, cls in sorted({row[1:3] for row in rows}):
        code, stdout, err = _run(["dstat", *inputs, "--concept", concept, "--cognate-class", cls])
        if report is None:
            if code:
                _assert_error_line(code, err)
            continue
        entry = next((c for c in report["concepts"] if c["concept"] == concept), None)
        result = [e for e in entry["classes"] if e["cognate_class"] == cls] if entry else []
        if result:
            assert code == 0, err
            header, *lines = stdout.splitlines()
            assert header == f"concept={concept!r} cognate_class={cls!r}"
            printed = dict(line.split("=", 1) for line in lines)
            assert printed == {k: repr(v) for k, v in result[0].items() if k != "cognate_class"}
            continue
        _assert_error_line(code, err)
        skips = [e["reason"] for e in entry["skipped_classes"] if e["cognate_class"] == cls] \
            if entry else []
        if skips:
            assert err == f"error: {skips[0]}\n"
        elif entry is None:
            warning = f"concept {concept!r} skipped: no attestations among tree languages"
            assert warning in report["run"]["warnings"]
            assert err == f"error: {warning}\n"
        else:
            # The report leaves out a class attested only off the tree, like its languages.
            assert not {row[0] for row in rows if row[1:3] == (concept, cls)} & tips
            assert err == "error: attested only by languages off the tree\n"


@settings(GATE, max_examples=3)
@given(corpus=corpora())
def test_two_workers_write_the_bytes_of_one(tmp_path_factory, corpus):
    newick, _, rows = corpus
    work, inputs = _inputs(tmp_path_factory, newick, rows)
    codes = [_run(["rank", *inputs, "--k", K, "--workers", w, "--out", str(work / w)])[::2]
             for w in ("1", "2")]
    assert codes[0] == codes[1]
    if codes[0][0] == 0:
        for name in ARTIFACTS:
            assert (work / "2" / name).read_bytes() == (work / "1" / name).read_bytes(), name


def _rank_outputs(work: Path, newick: str, header: tuple, rows: list[tuple]) -> dict | None:
    """rank's artifacts on one corpus, as {name: bytes}, with ``report.json``
    parsed and its input digests dropped; None when rank refuses the corpus."""
    work.mkdir()
    (work / "tree.nwk").write_text(newick + "\n", "utf-8")
    with open(work / "cognates.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    code, _, err = _run(["rank", "--tree", str(work / "tree.nwk"), "--cognates",
                         str(work / "cognates.csv"), "--seed", SEED, "--reps", REPS,
                         "--k", K, "--out", str(work / "out")])
    if code:
        _assert_error_line(code, err)
        return None
    outputs = {name: (work / "out" / name).read_bytes()
               for name in ("ranking.csv", "scatter.svg", "features.csv")}
    outputs["report.json"] = json.loads((work / "out" / "report.json").read_text("utf-8"))
    del outputs["report.json"]["run"]["inputs"]
    return outputs


@settings(GATE, max_examples=8)
@given(corpus=corpora())
def test_rewrites_that_keep_the_analysis_keep_its_bytes(tmp_path_factory, corpus):
    """Exact length scalings (every inverse weight, square root and epsilon
    scales by a power of two), languages renamed in reverse sort order, and
    the table's columns reordered write the bytes of the corpus itself."""
    newick, _, rows = corpus
    tree = parse_newick(newick)
    work = tmp_path_factory.mktemp("rewrites")
    header = ("language", "concept", "cognate_id", "loan")
    base = _rank_outputs(work / "base", write_newick(tree), header, rows)

    languages = sorted({row[0] for row in rows} | set(tree.tip_labels))
    rename = {lang: f"L{len(languages) - i:03d}" for i, lang in enumerate(languages)}
    renamed = Tree(tree.parents, tree.lengths, tuple(rename.get(lab, lab) for lab in tree.labels))
    order = (2, 3, 1, 0)
    rewrites = {
        **{f"lengths x {factor!r}": (
            write_newick(Tree(tree.parents, tree.lengths * factor, tree.labels)), header, rows)
           for factor in (4.0, 0.25, 4.0**-200, 4.0**100)},
        "languages renamed": (write_newick(renamed), header,
                              [(rename[row[0]], *row[1:]) for row in rows]),
        "columns reordered": (write_newick(tree), tuple(header[i] for i in order),
                              [tuple(row[i] for i in order) for row in rows]),
    }
    for n, (name, rewrite) in enumerate(rewrites.items()):
        assert _rank_outputs(work / str(n), *rewrite) == base, name

    # Negative control: a concept's name derives its classes' seeds, so
    # renaming one that has a D statistic moves its class results.
    analysed = [c for c in base["report.json"]["concepts"] if c["classes"]] if base else []
    if analysed:
        concept = analysed[0]["concept"]
        moved = [(row[0], f"{concept}!", *row[2:]) if row[1] == concept else row for row in rows]
        other = _rank_outputs(work / "control", write_newick(tree), header, moved)
        results = {c["concept"]: c["classes"] for c in other["report.json"]["concepts"]}
        assert results[f"{concept}!"] != analysed[0]["classes"]
