"""Random corpora through every stage: the end-to-end gate.

Each example is a tree of 4-24 tips, with polytomies, unary nodes, and zero
and absent branch lengths, and a cognate table of 3-8 concepts with
synonyms, loans, languages off the tree and missing data. The examples are
derandomized and their number is fixed, so the gate is deterministic.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import jsonschema
import numpy as np
from hypothesis import given, settings, strategies as st

from lexiphylo.cli import main
from lexiphylo.report import report_schema

SEED, REPS, K = "1", "5", "3"
ARTIFACTS = ("pca.json", "clusters.json", "report.json", "ranking.csv", "scatter.svg")
GATE = settings(derandomize=True, deadline=None, database=None)


@st.composite
def corpora(draw):
    """A Newick text, its tips, and the rows of a cognate table over the tips and two
    off-tree languages."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
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
            rows += [(lang, f"c{c}", f"k{c}-{k}", int(rng.random() < 0.1)) for k in sorted(classes)]
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
    lines = ["language,concept,cognate_id,loan", *(",".join(map(str, row)) for row in rows)]
    (work / "cognates.csv").write_text("\n".join(lines) + "\n", "utf-8")
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
            printed = dict(line.split("=", 1) for line in stdout.splitlines()[1:])
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
