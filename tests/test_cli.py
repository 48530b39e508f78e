import argparse
import collections
import contextlib
import csv
import functools
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexiphylo import cli, comparative
from lexiphylo.cli import main
from lexiphylo.report import to_json
from lexiphylo.tree import parse_newick
from util import balanced_newick, caterpillar_newick

TREE = balanced_newick(4, prefix="L")  # 16 tips: L000..L015
BUNDLED = Path(__file__).resolve().parents[1] / "data" / "synthetic"


def write_inputs(tmp_path, tree_text=TREE, rows=None):
    if rows is None:
        rows = ["language,concept,cognate_id,loan"]
        import numpy as np

        rng = np.random.default_rng(1)
        for ci, concept in enumerate(("eye", "hand", "water", "dog")):
            for i in range(16):
                lang = f"L{i:03d}"
                if rng.random() < 0.1:
                    continue
                rows.append(f"{lang},{concept},K{(i // 4 + ci) % 3},{int(rng.random() < 0.04)}")
    tree_path = tmp_path / "tree.nwk"
    cognates_path = tmp_path / "cognates.csv"
    tree_path.write_text(tree_text + "\n", "utf-8")
    cognates_path.write_text("\n".join(rows) + "\n", "utf-8")
    return tree_path, cognates_path


class TestValidate:
    def test_clean_inputs_exit_zero(self, tmp_path, capsys):
        tree_path, cognates_path = write_inputs(tmp_path)
        code = main(["validate", "--tree", str(tree_path), "--cognates", str(cognates_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 errors" in out

    def test_language_missing_from_tree_warns(self, tmp_path, capsys):
        rows = [
            "language,concept,cognate_id,loan",
            "L000,eye,K1,0",
            "L001,eye,K1,0",
            "Martian,eye,K2,0",
        ]
        tree_path, cognates_path = write_inputs(tmp_path, rows=rows)
        code = main(["validate", "--tree", str(tree_path), "--cognates", str(cognates_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "'Martian' in cognates but not in tree" in out

    def test_tree_tip_without_rows_warns(self, tmp_path, capsys):
        rows = [
            "language,concept,cognate_id,loan",
            "L000,eye,K1,0",
            "L001,eye,K1,0",
        ]
        tree_path, cognates_path = write_inputs(tmp_path, rows=rows)
        code = main(["validate", "--tree", str(tree_path), "--cognates", str(cognates_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tree tip 'L002' has no cognate rows" in out

    def test_malformed_newick_exit_one_with_offset(self, tmp_path, capsys):
        tree_path, cognates_path = write_inputs(tmp_path, tree_text="(A:1,B:2")
        code = main(["validate", "--tree", str(tree_path), "--cognates", str(cognates_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "unbalanced parentheses at offset" in err

    def test_deep_caterpillar_tree(self, tmp_path, capsys):
        n_tips = 10_000
        tree_text = caterpillar_newick(n_tips)
        assert parse_newick(tree_text).n_tips == n_tips
        rows = ["language,concept,cognate_id,loan"]
        rows += [f"T{i:03d},eye,K{i % 2},0" for i in range(n_tips)]
        tree_path, cognates_path = write_inputs(tmp_path, tree_text=tree_text, rows=rows)
        code = main(["validate", "--tree", str(tree_path), "--cognates", str(cognates_path)])
        assert code == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().out

    def test_unreadable_file_exit_two(self, tmp_path, capsys):
        code = main(
            ["validate", "--tree", str(tmp_path / "missing.nwk"), "--cognates", "x"]
        )
        assert code == 2


class TestDstat:
    def test_prints_result_fields(self, tmp_path, capsys):
        tree_path, cognates_path = write_inputs(tmp_path)
        code = main(
            [
                "dstat",
                "--tree", str(tree_path),
                "--cognates", str(cognates_path),
                "--concept", "eye",
                "--cognate-class", "K1",
                "--reps", "100",
                "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for field in ("d_obs=", "mean_d_random=", "mean_d_bm=", "D=", "p_random=", "p_bm="):
            assert field in out

    def test_unknown_concept(self, tmp_path, capsys):
        tree_path, cognates_path = write_inputs(tmp_path)
        code = main(
            ["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--concept", "nope", "--cognate-class", "K1", "--seed", "5"]
        )
        assert code == 1
        assert "unknown concept" in capsys.readouterr().err

    def test_singleton_class_too_few_tips(self, tmp_path, capsys):
        rows = [
            "language,concept,cognate_id,loan",
            "L000,eye,K1,0",
            "L001,eye,K1,0",
            "L002,eye,KSolo,0",
        ]
        tree_path, cognates_path = write_inputs(tmp_path, rows=rows)
        code = main(
            ["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--concept", "eye", "--cognate-class", "KSolo", "--seed", "5"]
        )
        assert code == 1
        assert "fewer than 4 usable tips" in capsys.readouterr().err

    def test_seed_required(self, tmp_path, capsys):
        tree_path, cognates_path = write_inputs(tmp_path)
        code = main(
            ["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--concept", "eye", "--cognate-class", "K1"]
        )
        assert code == 1
        assert "--seed is required" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_file_output(self, tmp_path):
        tree_path, _ = write_inputs(tmp_path)
        out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (out_a, out_b):
            assert main(
                ["simulate", "--tree", str(tree_path), "--sigma2", "1.5",
                 "--seed", "3", "--out", str(out)]
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().splitlines()
        assert lines[0] == "tip\tvalue"
        assert len(lines) == 17

    def test_zero_height_tree_constant(self, tmp_path, capsys):
        tree_path = tmp_path / "flat.nwk"
        tree_path.write_text("(A:0,B:0,C:0):0;\n", "utf-8")
        code = main(["simulate", "--tree", str(tree_path), "--sigma2", "2.0",
                     "--root", "7.5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        values = {line.split("\t")[1] for line in out.strip().splitlines()[1:]}
        assert values == {"7.5"}

    def test_nonpositive_sigma2_exit_one(self, tmp_path, capsys):
        tree_path, _ = write_inputs(tmp_path)
        code = main(["simulate", "--tree", str(tree_path), "--sigma2", "0",
                     "--seed", "1"])
        assert code == 1
        assert "sigma2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ranked(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("rank")
    tree_path, cognates_path = write_inputs(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
         "--seed", "7", "--reps", "100", "--k", "3", "--out", str(out)]
    )
    assert code == 0
    return tmp_path, tree_path, cognates_path, out


class TestRankPipeline:
    def test_writes_all_artifacts(self, ranked):
        _, _, _, out = ranked
        for name in (
            "features.csv", "metrics.json", "pca.json", "clusters.json",
            "report.json", "ranking.csv", "scatter.svg",
        ):
            assert (out / name).exists(), name

    def test_report_is_schema_valid(self, ranked):
        import jsonschema
        from lexiphylo.report import report_schema

        _, _, _, out = ranked
        jsonschema.validate(json.loads((out / "report.json").read_text()), report_schema())

    def test_rerun_is_byte_identical(self, ranked, tmp_path):
        base, tree_path, cognates_path, out = ranked
        out2 = tmp_path / "out2"
        code = main(
            ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--seed", "7", "--reps", "100", "--k", "3", "--out", str(out2)]
        )
        assert code == 0
        for name in ("report.json", "ranking.csv", "scatter.svg"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seed_same_d_obs(self, ranked, tmp_path):
        _, tree_path, cognates_path, out = ranked
        out2 = tmp_path / "seed8"
        code = main(
            ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--seed", "8", "--reps", "100", "--k", "3", "--out", str(out2)]
        )
        assert code == 0
        first = json.loads((out / "metrics.json").read_text())
        second = json.loads((out2 / "metrics.json").read_text())
        for c1, c2 in zip(first["concepts"], second["concepts"]):
            for cls, res in c1["class_results"].items():
                assert res["d_obs"] == c2["class_results"][cls]["d_obs"]

    def test_stage_subcommands_reuse_cache(self, ranked, capsys):
        _, _, _, out = ranked
        names = ("pca.json", "clusters.json", "report.json", "ranking.csv", "scatter.svg")
        before = {name: (out / name).read_bytes() for name in names}
        for name in names:
            (out / name).unlink()
        assert main(["pca", "--out", str(out)]) == 0
        assert main(["cluster", "--out", str(out), "--seed", "7"]) == 0
        assert main(["report", "--out", str(out), "--k", "3"]) == 0
        for name in names:
            assert (out / name).read_bytes() == before[name], name

    def test_stale_clusters_cache_is_a_located_error(self, ranked, tmp_path, capsys):
        _, tree_path, cognates_path, out = ranked
        stale = tmp_path / "stale"
        shutil.copytree(out, stale)
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(cognates_path.read_text().replace(",water,", ",fire,"), "utf-8")
        assert main(
            ["metrics", "--tree", str(tree_path), "--cognates", str(renamed),
             "--seed", "7", "--reps", "30", "--out", str(stale)]
        ) == 0
        assert main(["pca", "--out", str(stale)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(stale), "--k", "3"]) == 1
        err = capsys.readouterr().err
        assert "clusters.json" in err
        assert "re-run the cluster stage" in err

    def test_stale_pca_cache_is_a_located_error(self, ranked, tmp_path, capsys):
        _, tree_path, cognates_path, out = ranked
        stale = tmp_path / "stale"
        shutil.copytree(out, stale)
        assert main(
            ["metrics", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--seed", "8", "--reps", "30", "--out", str(stale)]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(stale), "--k", "3"]) == 1
        err = capsys.readouterr().err
        assert str(stale / "pca.json") in err
        assert "re-run the pca stage" in err
        assert main(["pca", "--out", str(stale)]) == 0
        assert main(["cluster", "--out", str(stale), "--seed", "8"]) == 0
        assert main(["report", "--out", str(stale), "--k", "3"]) == 0
        assert json.loads((stale / "report.json").read_text())["run"]["seed"] == 8

    @pytest.mark.parametrize(
        "name, exc, stage",
        [
            ("kmeans", AssertionError(), "cluster"),
            ("choose_k", AssertionError(), "cluster"),
            ("run_pca", RuntimeError("Jacobi iteration failed to converge"), "pca"),
        ],
    )
    def test_invariant_failure_is_an_error_line(
        self, ranked, tmp_path, monkeypatch, capsys, name, exc, stage
    ):
        _, _, _, out = ranked
        work = tmp_path / "work"
        shutil.copytree(out, work)

        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, name, broken)
        capsys.readouterr()
        argv = {"pca": ["pca"], "cluster": ["cluster", "--seed", "7"]}[stage]
        assert main([*argv, "--out", str(work)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stage} stage failed an internal check: ")
        assert type(exc).__name__ in err
        assert "Traceback" not in err

    def test_dstat_reproduces_report_class_entry(self, ranked, capsys):
        _, tree_path, cognates_path, out = ranked
        report = json.loads((out / "report.json").read_text())
        concept = next(c for c in report["concepts"] if c["classes"])
        entry = concept["classes"][0]
        capsys.readouterr()
        assert main(
            ["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--concept", concept["concept"], "--cognate-class", entry["cognate_class"],
             "--seed", "7", "--reps", "100"]
        ) == 0
        _, *lines = capsys.readouterr().out.splitlines()
        printed = dict(line.split("=", 1) for line in lines)
        assert printed == {k: str(v) for k, v in entry.items() if k != "cognate_class"}

    def test_cache_with_provenance_key_restages(self, ranked, tmp_path):
        # metrics.json from an older version carries a provenance key nothing reads.
        _, _, _, out = ranked
        old = tmp_path / "old"
        shutil.copytree(out, old)
        doc = json.loads((old / "metrics.json").read_text())
        doc["provenance"] = {
            m["concept"]: {
                "mean_D": "imputed" if m["mean_d"] is None else "computed",
                "n_classes_analyzed": len(m["class_results"]),
                "skipped_classes": m["class_skips"],
            }
            for m in doc["concepts"]
        }
        (old / "metrics.json").write_text(to_json(doc), "utf-8")
        artifacts = ("report.json", "ranking.csv", "scatter.svg")
        for name in ("pca.json", "clusters.json", *artifacts):
            (old / name).unlink()
        assert main(["pca", "--out", str(old)]) == 0
        assert main(["cluster", "--out", str(old), "--seed", "7"]) == 0
        assert main(["report", "--out", str(old), "--k", "3"]) == 0
        for name in artifacts:
            assert (old / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_writes_no_artifact(self, ranked, tmp_path, capsys, theta):
        _, tree_path, cognates_path, _ = ranked
        out = tmp_path / "x"
        code = main(
            ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--seed", "7", "--reps", "10", "--k", "3", "--theta", theta, "--out", str(out)]
        )
        assert code == 1
        assert "threshold must be finite" in capsys.readouterr().err
        for name in ("report.json", "ranking.csv", "scatter.svg"):
            assert not (out / name).exists(), name

    def test_k_out_of_range(self, ranked, tmp_path, capsys):
        _, tree_path, cognates_path, _ = ranked
        code = main(
            ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--seed", "7", "--reps", "100", "--k", "99", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "k out of range" in capsys.readouterr().err


class TestFailFast:
    """A bad flag is refused before any D statistic is computed."""

    @pytest.mark.parametrize(
        "flags, message",
        [(["--theta", "1e400"], "threshold must be finite"), (["--k", "80"], "k out of range")],
    )
    def test_rank_refuses_before_metrics(self, tmp_path, capsys, monkeypatch, flags, message):
        def no_metrics(*args):
            raise AssertionError("a D statistic was computed")

        monkeypatch.setattr(cli, "compute_metrics", no_metrics)
        out = tmp_path / "out"
        code = main(
            ["rank", "--tree", str(BUNDLED / "tree.nwk"), "--cognates",
             str(BUNDLED / "cognates.csv"), "--seed", "1", "--reps", "5", *flags,
             "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert message in err
        assert not (out / "metrics.json").exists()

    def test_report_refuses_non_finite_theta(self, ranked, capsys):
        _, _, _, out = ranked
        before = (out / "report.json").read_bytes()
        code = main(["report", "--out", str(out), "--k", "3", "--theta", "1e400"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "threshold must be finite" in err
        assert (out / "report.json").read_bytes() == before

    def test_bad_flag_value_is_an_error_line(self, tmp_path, capsys):
        tree_path, cognates_path = write_inputs(tmp_path)
        code = main(
            ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--seed", "7", "--reps", "0", "--out", str(tmp_path / "out")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "--reps" in err


def test_comma_in_tab_delimited_concept(tmp_path):
    tree_path, cognates_path = write_inputs(tmp_path)
    text = cognates_path.read_text().replace(",", "\t").replace("\thand\t", "\thand, left\t")
    cognates_path.write_text(text, "utf-8")
    out = tmp_path / "out"
    assert main(
        ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
         "--seed", "7", "--reps", "30", "--k", "3", "--out", str(out)]
    ) == 0
    ranked_report = (out / "report.json").read_bytes()
    assert main(["pca", "--out", str(out)]) == 0
    assert main(["cluster", "--out", str(out), "--seed", "7"]) == 0
    assert main(["report", "--out", str(out), "--k", "3"]) == 0
    assert (out / "report.json").read_bytes() == ranked_report
    for name in ("ranking.csv", "features.csv"):
        with open(out / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 7 for row in rows), name
        assert "hand, left" in [row[0] for row in rows], name


@pytest.fixture(scope="module")
def row_order_base(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("row_order")
    tree_path, cognates_path = write_inputs(tmp_path)
    header, *rows = cognates_path.read_text("utf-8").splitlines()
    return tree_path, cognates_path, header, rows, _rank_artifacts(tree_path, cognates_path)


def _rank_artifacts(tree_path, cognates_path):
    """rank's artifacts with the cognate table's digest, which run.inputs records."""
    out = cognates_path.parent / "out"
    assert main(
        ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
         "--seed", "7", "--reps", "30", "--k", "3", "--out", str(out)]
    ) == 0
    digest = hashlib.sha256(cognates_path.read_bytes()).hexdigest()
    return digest, {
        name: (out / name).read_bytes()
        for name in ("report.json", "ranking.csv", "scatter.svg")
    }


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_cognate_row_order_does_not_change_artifacts(row_order_base, data):
    tree_path, cognates_path, header, rows, (base_digest, base) = row_order_base
    permuted = data.draw(st.permutations(rows))
    cognates_path.write_text("\n".join([header, *permuted]) + "\n", "utf-8")
    digest, artifacts = _rank_artifacts(tree_path, cognates_path)
    # Only run.inputs may differ: it records the permuted file's digest.
    artifacts["report.json"] = artifacts["report.json"].replace(
        digest.encode(), base_digest.encode()
    )
    assert artifacts == base


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        tree_path, cognates_path = write_inputs(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"seed": 5, "reps": 100, "concept": "eye"}), "utf-8"
        )
        code = main(
            ["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--cognate-class", "K1", "--concept", "eye", "--config", str(config)]
        )
        assert code == 0
        assert "n_reps=100" in capsys.readouterr().out


    def test_config_strings_parse_like_flags(self, tmp_path):
        tree_path, cognates_path = write_inputs(tmp_path)
        inputs = ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path)]
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"seed": 7, "reps": "10", "k": "3", "workers": "2", "kmeans_k": "3", "theta": None}
        ), "utf-8")
        assert main([*inputs, "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main(
            [*inputs, "--seed", "7", "--reps", "10", "--k", "3", "--workers", "2",
             "--kmeans-k", "3", "--out", str(tmp_path / "b")]
        ) == 0
        for name in ("report.json", "ranking.csv", "scatter.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("reps", 2.5), ("reps", True), ("reps", 0), ("seed", 7.5), ("k", "five"),
            ("theta", "x"), ("workers", 0), ("kmeans_k", "x"), ("restarts", [3]),
            ("theta", "1e400"),
        ],
    )
    def test_bad_config_value_is_an_error_line(self, tmp_path, capsys, key, value):
        tree_path, cognates_path = write_inputs(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 7, "reps": 10, key: value}), "utf-8")
        out = tmp_path / "out"
        code = main(
            ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
             "--config", str(config), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert repr(key) in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "data, code, prefix",
    [
        (b"{bad", 1, "error: --config "),
        (b'\xef\xbb\xbf{"seed": 7}', 1, "error: --config "),
        ('{"concept": "caf\u00e9"}'.encode("latin-1"), 1, "error: --config "),
        (None, 2, "io error: "),
    ],
)
def test_unreadable_config_names_the_file(tmp_path, capsys, data, code, prefix):
    """A config that is not UTF-8 JSON is a domain error naming it; a missing one an I/O error."""
    tree_path, cognates_path = write_inputs(tmp_path)
    config = tmp_path / "run.json"
    if data is not None:
        config.write_bytes(data)
    assert main(
        ["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path), "--seed", "7",
         "--concept", "eye", "--cognate-class", "K1", "--config", str(config)]
    ) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert str(config) in err
    assert "Traceback" not in err


def test_module_entrypoint_smoke(tmp_path):
    tree_path, cognates_path = write_inputs(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "lexiphylo", "validate",
         "--tree", str(tree_path), "--cognates", str(cognates_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0 errors" in proc.stdout


def _drop_first_n_loans(text):
    doc = json.loads(text)
    del doc["concepts"][0]["n_loans"]
    return to_json(doc)


def _non_numeric_mean_d(text):
    doc = json.loads(text)
    doc["concepts"][0]["mean_d"] = "abc"
    return to_json(doc)


def _drop_first_label(text):
    doc = json.loads(text)
    del doc["labels"][sorted(doc["labels"])[0]]
    return to_json(doc)


def _non_numeric_score(text):
    doc = json.loads(text)
    doc["scores"][0][0] = {"x": 1}
    return to_json(doc)


@pytest.mark.parametrize(
    "name, edit, stage, argv",
    [
        ("metrics.json", _drop_first_n_loans, "metrics", ["pca"]),
        ("metrics.json", _drop_first_n_loans, "metrics", ["report", "--k", "3"]),
        ("metrics.json", lambda text: "[1, 2]\n", "metrics", ["pca"]),
        ("clusters.json", _drop_first_label, "cluster", ["report", "--k", "3"]),
        ("pca.json", lambda text: text[: len(text) // 2], "pca", ["cluster", "--seed", "7"]),
        ("pca.json", lambda text: text[: len(text) // 2], "pca", ["report", "--k", "3"]),
        ("pca.json", _non_numeric_score, "pca", ["cluster", "--seed", "7"]),
        ("metrics.json", _non_numeric_mean_d, "metrics", ["pca"]),
    ],
)
def test_malformed_cache_is_a_located_error(ranked, tmp_path, capsys, name, edit, stage, argv):
    _, _, _, out = ranked
    work = tmp_path / "work"
    shutil.copytree(out, work)
    path = work / name
    path.write_text(edit(path.read_text("utf-8")), "utf-8")
    capsys.readouterr()
    assert main([*argv, "--out", str(work)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} ")
    assert f"re-run the {stage} stage" in err


def test_config_defaults_do_not_outlive_the_call(tmp_path):
    """An in-process --config run leaves the next run its built-in defaults."""
    tree_path, cognates_path = write_inputs(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"reps": 7}), "utf-8")
    metrics = ["metrics", "--tree", str(tree_path), "--cognates", str(cognates_path),
               "--seed", "7"]
    runs = {"config": [*metrics, "--config", str(config)], "default": metrics}
    for label, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / "in" / label)]) == 0
    for label, argv in runs.items():
        subprocess.run(
            [sys.executable, "-m", "lexiphylo", *argv, "--out", str(tmp_path / "sub" / label)],
            check=True, capture_output=True,
        )
        for name in ("metrics.json", "features.csv"):
            in_process = (tmp_path / "in" / label / name).read_bytes()
            assert in_process == (tmp_path / "sub" / label / name).read_bytes(), (label, name)
    n_reps = {
        label: json.loads((tmp_path / "in" / label / "metrics.json").read_text())["config"]["n_reps"]
        for label in runs
    }
    assert n_reps == {"config": 7, "default": cli.DEFAULT_N_REPS}


def test_parser_is_built_on_first_call_not_at_import(tmp_path):
    probe = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import lexiphylo.cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    lexiphylo.cli.main(['pca', '--out', sys.argv[1]])\n"
        "    counts.append(len(built))\n"
        "print(counts)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "missing")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    at_import, first_call, second_call = json.loads(proc.stdout)
    assert at_import == 0
    assert first_call > 0
    assert second_call == first_call


class TestClusterDistinctRows:
    """k-means cannot fill more clusters than there are distinct PC1/PC2 rows."""

    @pytest.fixture()
    def out(self, tmp_path):
        # 4 distinct points, each 3 times: k 6-9 used to trip the WCSS check.
        points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
        scores = [[x, y, 0.0] for x, y in points for _ in range(3)]
        # A -0.0 coordinate is the same point as 0.0.
        scores[1][0] = -0.0
        doc = {"scores": scores, "row_labels": [f"c{i:02d}" for i in range(len(scores))]}
        (tmp_path / "pca.json").write_text(json.dumps(doc), "utf-8")
        return tmp_path

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
    def test_k_above_distinct_rows_is_an_error_line(self, out, k, capsys):
        code = main(["cluster", "--out", str(out), "--seed", "1", "--kmeans-k", str(k)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            f"error: --kmeans-k {k} exceeds the 4 distinct PC1/PC2 rows in {out / 'pca.json'}\n"
        )
        assert not (out / "clusters.json").exists()

    @pytest.mark.parametrize("k", ["2", "3", "4"])
    def test_k_up_to_distinct_rows_clusters(self, out, k):
        assert main(["cluster", "--out", str(out), "--seed", "1", "--kmeans-k", k]) == 0
        assert json.loads((out / "clusters.json").read_text())["k"] == int(k)

    def test_auto_range_stops_at_distinct_rows(self, out):
        assert main(["cluster", "--out", str(out), "--seed", "1"]) == 0
        assert json.loads((out / "clusters.json").read_text())["selection"]["range"] == [2, 4]

    def test_auto_needs_two_distinct_rows(self, out, capsys):
        doc = json.loads((out / "pca.json").read_text())
        doc["scores"] = [[1.0, 2.0, float(i)] for i in range(len(doc["scores"]))]
        (out / "pca.json").write_text(json.dumps(doc), "utf-8")
        assert main(["cluster", "--out", str(out), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --kmeans-k auto needs at least 2 distinct PC1/PC2 rows")
        assert "found 1" in err


def test_import_loads_no_network_or_pool_modules():
    # The SVG escape is local and the process pool is imported only for
    # --workers > 1, so a fresh import stays off urllib's HTTP stack.
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, lexiphylo.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    for name in ("urllib.request", "http.client", "ssl", "email", "concurrent.futures.process"):
        assert name not in loaded, name


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in this process."""

    def __init__(self, seen, max_workers, initializer, initargs):
        seen.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    """The max_workers of every process pool ``cli`` builds; none is started."""
    import concurrent.futures

    seen = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", functools.partial(_RecordingPool, seen)
    )
    monkeypatch.setattr(cli, "_POOL_STATE", {})
    return seen


@pytest.mark.parametrize("workers, pools", [("500", [4]), ("3", [3])])
def test_workers_are_capped_at_usable_concepts(tmp_path, recording_pool, workers, pools):
    # A pool starts every worker up front, so it gets no more workers than
    # concepts; the bytes do not depend on the worker count.
    tree_path, cognates_path = write_inputs(tmp_path)
    outputs = {}
    for n in ("1", workers):
        out = tmp_path / f"out{n}"
        argv = ["metrics", "--tree", str(tree_path), "--cognates", str(cognates_path),
                "--seed", "3", "--reps", "10", "--workers", n, "--out", str(out)]
        assert main(argv) == 0
        outputs[n] = [(out / name).read_bytes() for name in ("metrics.json", "features.csv")]
    assert recording_pool == pools
    assert outputs[workers] == outputs["1"]


def test_one_usable_concept_runs_without_a_pool(tmp_path, recording_pool):
    from lexiphylo.cognates import load_cognates
    from lexiphylo.metrics import DStatConfig
    from lexiphylo.tree import read_newick_file

    tree_path, cognates_path = write_inputs(tmp_path)
    tree = read_newick_file(tree_path)
    matrix, _ = load_cognates(cognates_path)
    config = DStatConfig(seed=3, n_reps=10)
    serial = cli._compute_all_metrics(matrix, tree, ["eye"], config, 1)
    assert cli._compute_all_metrics(matrix, tree, ["eye"], config, 8) == serial
    assert recording_pool == []
    # The in-process metrics stage frees its D buffers for the later stages.
    assert comparative._WORKSPACE.buffers == {}


@pytest.mark.parametrize("argv", [
    ["dstat", "--concept", "eye", "--cognate-class", "K1"],
    ["rank", "--k", "3", "--workers", "1", "--out", "OUT"],
    ["rank", "--k", "3", "--workers", "2", "--out", "OUT"],
])
def test_impossible_reps_is_a_memory_error_line(tmp_path, capsys, argv):
    # 10**12 reps asks for about 1.2 PiB, which is refused at once.
    tree_path, cognates_path = write_inputs(tmp_path)
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    code = main([*argv, "--tree", str(tree_path), "--cognates", str(cognates_path),
                 "--seed", "1", "--reps", str(10**12)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: not enough memory: ") and err.endswith("(lower --reps)\n")
    assert "Traceback" not in err


def test_fork_pool_after_an_in_process_d_call_matches_serial():
    # Pool workers forked after a D call in this process inherit its
    # workspace at full size and reuse it without growing it; each must
    # write its own copy. Bundled at 20 reps gives 50 concepts, so both
    # workers get tasks at chunksize 4.
    import numpy as np

    from lexiphylo.cognates import load_cognates
    from lexiphylo.metrics import DStatConfig
    from lexiphylo.tree import read_newick_file

    tree = read_newick_file(BUNDLED / "tree.nwk")
    matrix, _ = load_cognates(BUNDLED / "cognates.csv")
    usable, _ = cli._usable_concepts(matrix, tree)
    config = DStatConfig(seed=4, n_reps=20)
    serial = cli._compute_all_metrics(matrix, tree, usable, config, 1)
    presence = (np.random.default_rng(0).random(tree.n_tips) < 0.5).astype(int)
    comparative.d_statistic(tree, presence, np.ones(tree.n_tips, dtype=int), 200, seed=0)
    assert cli._compute_all_metrics(matrix, tree, usable, config, 2) == serial


def test_other_memory_errors_get_no_reps_hint(tmp_path, capsys, monkeypatch):
    # Only the D statistic's replicate arrays grow with --reps.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(cli, "load_cognates", no_memory)
    tree_path, cognates_path = write_inputs(tmp_path)
    code = main(["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
                 "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: not enough memory: Unable to allocate 8.00 GiB\n"


CACHES = ("metrics.json", "pca.json", "clusters.json")


@pytest.fixture()
def cache_reads(monkeypatch):
    """Counts of Path.read_bytes and Path.read_text calls on the stage caches, by file name."""
    reads = collections.Counter()
    for method in ("read_bytes", "read_text"):
        original = getattr(Path, method)

        def counting(self, *args, _original=original, **kwargs):
            if self.name in CACHES:
                reads[self.name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, method, counting)
    return reads


def test_each_stage_cache_is_read_once(ranked, tmp_path, cache_reads):
    """rank hands its caches on in memory; a restage cycle reads each upstream cache once per stage."""
    _, tree_path, cognates_path, out = ranked
    assert main(
        ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
         "--seed", "7", "--reps", "10", "--k", "3", "--out", str(tmp_path / "rank")]
    ) == 0
    assert cache_reads == {}
    work = tmp_path / "work"
    shutil.copytree(out, work)
    assert main(["pca", "--out", str(work)]) == 0
    assert main(["cluster", "--out", str(work), "--seed", "7"]) == 0
    assert main(["report", "--out", str(work), "--k", "3"]) == 0
    assert cache_reads == {"metrics.json": 2, "pca.json": 2, "clusters.json": 1}


def test_each_flag_means_the_same_in_every_subcommand():
    """Every --help formats, and a flag several subcommands take is the same flag in each.

    simulate's optional --out FILE is the one flag that shares its option
    string with another (rank's and the stages' required --out DIR).
    """
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    first_seen = {}
    for command, sub in commands.choices.items():
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        for action in sub._actions:
            if (command, action.dest) == ("simulate", "out"):
                continue
            spec = (action.option_strings, action.type, action.default, action.required,
                    action.metavar, action.help)
            other, other_spec = first_seen.setdefault(action.dest, (command, spec))
            assert spec == other_spec, (action.dest, command, other)


def test_rank_opens_each_input_once(tmp_path, monkeypatch):
    """rank parses and hashes the same bytes of each input, read once."""
    opens = collections.Counter()
    original = Path.open

    def counting(self, *args, **kwargs):
        opens[self.name] += 1
        return original(self, *args, **kwargs)

    tree_path, cognates_path = write_inputs(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setattr(Path, "open", counting)
    assert main(["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
                 "--seed", "2", "--reps", "5", "--k", "3", "--out", str(out)]) == 0
    assert (opens["tree.nwk"], opens["cognates.csv"]) == (1, 1)
    inputs = json.loads((out / "report.json").read_text("utf-8"))["run"]["inputs"]
    for name, path in (("tree", tree_path), ("cognates", cognates_path)):
        assert inputs[name]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def bundled_ranked(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundled") / "out"
    assert main(["rank", "--tree", str(BUNDLED / "tree.nwk"),
                 "--cognates", str(BUNDLED / "cognates.csv"),
                 "--seed", "3", "--reps", "30", "--out", str(out)]) == 0
    return out


def _json_paths(value, path=()):
    """The path of every value inside a JSON document, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield (*path, key)
        if isinstance(item, (dict, list)):
            yield from _json_paths(item, (*path, key))


def _json_kind(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


# A value of every JSON type; an integer and a non-integer number count as
# two types, since the schema tells them apart.
_JSON_VALUES = {
    "NoneType": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 3),
    "float": st.floats(-2, 2, allow_nan=False),
    "str": st.text(max_size=3),
    "list": st.lists(st.integers(0, 2), max_size=2),
    "dict": st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_retyped_metrics_field_is_an_error_or_a_valid_report(
    bundled_ranked, tmp_path_factory, data
):
    """Any one field of metrics.json set to a value of another JSON type: the
    restage cycle stops with an error line and exit 1, or every stage exits 0
    and the report validates against the shipped schema."""
    import jsonschema

    from lexiphylo.report import report_schema

    doc = json.loads((bundled_ranked / "metrics.json").read_text("utf-8"))
    path = data.draw(st.sampled_from(sorted(_json_paths(doc), key=repr)), label="path")
    *parents, key = path
    target = functools.reduce(lambda node, part: node[part], parents, doc)
    kind = _json_kind(target[key])
    # A number field given an integer keeps its JSON type.
    others = [k for k in _JSON_VALUES if k != kind and not (kind == "float" and k == "int")]
    target[key] = data.draw(st.one_of([_JSON_VALUES[k] for k in others]), label="value")
    work = tmp_path_factory.mktemp("retyped")
    shutil.copytree(bundled_ranked, work, dirs_exist_ok=True)
    (work / "metrics.json").write_text(to_json(doc), "utf-8")
    for argv in (["pca"], ["cluster", "--seed", "3"], ["report"]):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--out", str(work)])
        if code:
            assert code == 1 and err.getvalue().startswith("error: "), err.getvalue()
            return
    jsonschema.validate(json.loads((work / "report.json").read_text("utf-8")), report_schema())
