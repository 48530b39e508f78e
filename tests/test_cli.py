import argparse
import collections
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexiphylo import cli, comparative, metrics
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

    def test_absent_branch_lengths_warn(self, tmp_path, capsys):
        rows = ["language,concept,cognate_id,loan"] + [f"{t},eye,K1,0" for t in "ABCD"]
        tree_path, cognates_path = write_inputs(
            tmp_path, tree_text="((A,B):1,(C:1,D:1):1);", rows=rows
        )
        code = main(["validate", "--tree", str(tree_path), "--cognates", str(cognates_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "warning -: tree has 2 absent branch length(s), set to 1.0\n" in out
        assert out.endswith("0 errors, 1 warnings\n")

    def test_unreadable_file_exit_two(self, tmp_path, capsys):
        code = main(
            ["validate", "--tree", str(tmp_path / "missing.nwk"), "--cognates", "x"]
        )
        assert code == 2


class TestDstat:
    def test_prints_result_fields(self, tmp_path, capsys):
        # A concept label with a line break is printed escaped, so the header
        # stays one line.
        tree_path, cognates_path = write_inputs(tmp_path)
        rows = cognates_path.read_text("utf-8").splitlines()
        rows += [row.replace(",eye,", ',"c\n0",') for row in rows if ",eye," in row]
        write_inputs(tmp_path, rows=rows)
        for concept in ("eye", "c\n0"):
            code = main(
                [
                    "dstat",
                    "--tree", str(tree_path),
                    "--cognates", str(cognates_path),
                    "--concept", concept,
                    "--cognate-class", "K1",
                    "--reps", "100",
                    "--seed", "5",
                ]
            )
            header, *lines = capsys.readouterr().out.splitlines()
            assert code == 0
            assert header == f"concept={concept!r} cognate_class='K1'"
            assert [line.split("=")[0] for line in lines] == [
                "d_obs", "mean_d_random", "mean_d_bm", "D", "p_random", "p_bm", "n_reps",
                "n_tips_used",
            ]

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

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "18446744073709551617"])
    def test_seed_outside_64_bits_is_an_error_line(self, tmp_path, capsys, seed):
        # The draws mask a seed to 64 bits, so 2**64 + 1 would draw as seed 1.
        tree_path, cognates_path = write_inputs(tmp_path)
        code = main(["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
                     "--seed", seed, "--reps", "3", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: lexiphylo rank: argument --seed: must be in 0..{2**64 - 1}, got {seed}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_config_seed_outside_64_bits_is_an_error_line(self, tmp_path, capsys):
        tree_path, cognates_path = write_inputs(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": -1}), "utf-8")
        code = main(["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path),
                     "--concept", "eye", "--cognate-class", "K1", "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --config key 'seed': bad value -1: must be in 0..{2**64 - 1}, got -1\n"
        )

    def test_largest_64_bit_seed_is_accepted(self, tmp_path, capsys):
        tree_path, cognates_path = write_inputs(tmp_path)
        code = main(["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path),
                     "--concept", "eye", "--cognate-class", "K1", "--seed", str(2**64 - 1),
                     "--reps", "5"])
        assert code == 0
        assert capsys.readouterr().err == ""

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

    def test_overflowing_sigma2_is_one_error_line_under_warnings_as_errors(self, tmp_path):
        tree_path = tmp_path / "two.nwk"
        tree_path.write_text("(A:2,B:1):0;\n", "utf-8")
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "lexiphylo", "simulate",
             "--tree", str(tree_path), "--seed", "1", "--sigma2", "1e308"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "inf" not in proc.stdout
        assert proc.stderr.splitlines() == [
            "error: sigma2 1e+308 times a branch length overflows a double"
        ]


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


def test_report_with_an_imputed_concept_is_schema_valid(tmp_path):
    """A concept whose every class is skipped reports a null mean_D, which the schema allows."""
    import jsonschema
    from lexiphylo.report import report_schema

    tree_path, cognates_path = write_inputs(tmp_path)
    with cognates_path.open("a", encoding="utf-8") as f:
        f.writelines(f"L{i:03d},sun,S0,0\n" for i in range(16))
    out = tmp_path / "out"
    assert main(["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
                 "--seed", "3", "--reps", "10", "--k", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text("utf-8"))
    sun = next(c for c in report["concepts"] if c["concept"] == "sun")
    assert (sun["mean_D"], sun["mean_D_status"]) == (None, "imputed")
    jsonschema.validate(report, report_schema())


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
        # A byte-order mark is dropped, as in tree and cognates files. The row
        # keeps the id it had while such a config was refused.
        pytest.param(
            b'\xef\xbb\xbf{"seed": 7}', 0, "", id='\xef\xbb\xbf{"seed": 7}-1-error: --config '
        ),
        ('{"concept": "caf\u00e9"}'.encode("latin-1"), 1, "error: --config "),
        (None, 2, "io error: "),
    ],
)
def test_unreadable_config_names_the_file(tmp_path, capsys, data, code, prefix):
    """A config that is not UTF-8 JSON is a domain error naming it; a missing one an I/O error.

    A config that starts with a byte-order mark prints what the same config
    without it prints.
    """
    tree_path, cognates_path = write_inputs(tmp_path)
    config = tmp_path / "run.json"
    argv = ["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path), "--seed", "7",
            "--concept", "eye", "--cognate-class", "K1", "--config", str(config)]
    if data is not None:
        config.write_bytes(data)
    assert main(argv) == code
    if code == 0:
        printed = capsys.readouterr()
        assert printed.out.startswith("concept='eye'") and printed.err == ""
        config.write_bytes(data.removeprefix(b"\xef\xbb\xbf"))
        assert main(argv) == 0
        assert capsys.readouterr() == printed
        return
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert str(config) in err
    assert "Traceback" not in err


_INPUT_FLAGS = {
    "validate": [],
    "metrics": ["--seed", "3", "--reps", "5", "--out", "OUT"],
    "rank": ["--seed", "3", "--reps", "5", "--k", "3", "--out", "OUT"],
    "dstat": ["--seed", "3", "--reps", "5", "--concept", "eye", "--cognate-class", "K1"],
    "simulate": ["--seed", "3", "--sigma2", "1"],
}
_BAD_INPUTS = [
    ("tree.nwk", "(L000:1,caf\u00e9:1);".encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
    ("tree.nwk", b"(L000:1,L001:2", "unbalanced parentheses at offset 14"),
    ("cognates.csv", "language,concept,cognate_id\nL000,caf\u00e9,K1\n".encode("latin-1"),
     "'utf-8' codec can't decode byte 0xe9"),
    ("cognates.csv", b"lang,concept,cognate_id\n", "missing required column 'language' at line 1"),
    ("cognates.csv", b"language,concept,cognate_id,concept\nL000,eye,K1,hand\n",
     "duplicate column 'concept' in header at line 1"),
    ("tree.nwk", b"((L000:1e308,L001:1):1e308,L002:1);",
     "a root-to-tip path length overflows a double"),
    ("cognates.csv", b"language,concept,cognate_id\nL000,eye,K1\nL001,wa\x01ter,K1\n",
     "concept 'wa\\x01ter' holds U+0001, which XML cannot hold at line 3"),
]


@pytest.mark.parametrize("command, name, data, problem", [
    (command, *bad) for command in _INPUT_FLAGS for bad in _BAD_INPUTS
    if command != "simulate" or bad[0] == "tree.nwk"
])
def test_input_errors_name_the_file(tmp_path, capsys, command, name, data, problem):
    """Every subcommand reads its inputs one way: an input that does not
    decode or parse is one error line that names it, and exit 1."""
    tree_path, cognates_path = write_inputs(tmp_path)
    (tmp_path / name).write_bytes(data)
    inputs = ["--tree", str(tree_path)]
    if command != "simulate":
        inputs += ["--cognates", str(cognates_path)]
    flags = [str(tmp_path / "out") if flag == "OUT" else flag for flag in _INPUT_FLAGS[command]]
    assert main([command, *inputs, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: {problem}") and err.count("\n") == 1, err


def test_bom_and_crlf_inputs_write_the_artifacts_of_plain_ones(tmp_path):
    # An Excel "CSV UTF-8" file starts with a BOM and ends its lines with CRLF;
    # the digests in report.json stay those of the bytes as they are.
    plain, excel = tmp_path / "plain", tmp_path / "excel"
    plain.mkdir()
    excel.mkdir()
    for path in write_inputs(plain):
        (excel / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
    for work in (plain, excel):
        assert main(["rank", "--tree", str(work / "tree.nwk"),
                     "--cognates", str(work / "cognates.csv"), "--seed", "3", "--reps", "5",
                     "--k", "3", "--out", str(work / "out")]) == 0
    for name in ("features.csv", "ranking.csv", "scatter.svg"):
        assert (excel / "out" / name).read_bytes() == (plain / "out" / name).read_bytes(), name
    inputs = json.loads((excel / "out" / "report.json").read_text("utf-8"))["run"]["inputs"]
    for name, digest in inputs.items():
        assert digest["sha256"] == hashlib.sha256(Path(digest["path"]).read_bytes()).hexdigest()


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


def _drop_first_label(text):
    doc = json.loads(text)
    del doc["labels"][sorted(doc["labels"])[0]]
    return to_json(doc)


def _set(*path_and_value):
    """An edit that sets the field at ``path`` of a cache document to ``value``."""
    *parents, key, value = path_and_value

    def edit(text):
        doc = json.loads(text)
        functools.reduce(lambda node, part: node[part], parents, doc)[key] = value
        return to_json(doc)

    return edit


def _set_text(*path_and_text):
    """An edit that sets the field at ``path`` of a cache document to the JSON ``text``."""
    *path, text = path_and_text
    return lambda doc: _set(*path, "@@")(doc).replace('"@@"', text)


def _chain(*edits):
    """The edits, one after another."""
    return lambda text: functools.reduce(lambda doc, edit: edit(doc), edits, text)


def _map_scores(transform):
    """An edit that replaces the scores of a pca.json document by ``transform`` of them."""

    def edit(text):
        doc = json.loads(text)
        doc["scores"] = transform(np.array(doc["scores"])).tolist()
        return to_json(doc)

    return edit


# Re-running cluster on an edited pca.json links clusters.json to it again.
RECLUSTER = ["cluster", "--seed", "7"]


@pytest.mark.parametrize(
    "name, edit, stage, argv, problem",
    [
        ("metrics.json", _drop_first_n_loans, "metrics", ["pca"],
         "concepts[0].n_loans: expected an integer, got nothing"),
        ("metrics.json", _drop_first_n_loans, "metrics", ["report", "--k", "3"],
         "concepts[0].n_loans: expected an integer, got nothing"),
        ("metrics.json", lambda text: "[1, 2]\n", "metrics", ["pca"],
         "expected an object, got [1, 2]"),
        # A cache of another schema version, or of none, is refused before its fields.
        ("metrics.json", _chain(_set("schema_version", 99), _drop_first_n_loans), "metrics",
         ["pca"], "schema_version: expected 1, got 99"),
        ("metrics.json", _set("schema_version", "1"), "metrics", ["report", "--k", "3"],
         "schema_version: expected 1, got '1'"),
        ("pca.json", _set("schema_version", True), "pca", ["cluster", "--seed", "7"],
         "schema_version: expected 1, got True"),
        ("clusters.json", _set("schema_version", 1.0), "cluster", ["report", "--k", "3"],
         "schema_version: expected 1, got 1.0"),
        ("clusters.json", lambda text: text.replace('  "schema_version": 1,\n', ""), "cluster",
         ["report", "--k", "3"], "schema_version: expected 1, got nothing"),
        ("clusters.json", _drop_first_label, "cluster", ["report", "--k", "3"],
         "labels['dog']: expected an integer, got nothing"),
        ("pca.json", lambda text: text[: len(text) // 2], "pca", ["cluster", "--seed", "7"],
         "not JSON: "),
        ("pca.json", lambda text: text[: len(text) // 2], "pca", ["report", "--k", "3"],
         "not JSON: "),
        ("pca.json", _set("scores", 0, 0, {"x": 1}), "pca", ["cluster", "--seed", "7"],
         "scores[0][0]: expected a number, got {'x': 1}"),
        ("metrics.json", _set("concepts", 0, "mean_d", "abc"), "metrics", ["pca"],
         "concepts[0].mean_d: expected a number or null, got 'abc'"),
        ("metrics.json", _set("config", "seed", "7"), "metrics", ["report", "--k", "3"],
         "config.seed: expected an integer, got '7'"),
        ("clusters.json", _set("labels", "dog", "x"), "cluster", ["report", "--k", "3"],
         "labels['dog']: expected an integer, got 'x'"),
        ("pca.json", _set("warnings", "oops"), "pca", ["report", "--k", "3"],
         "warnings: expected an array, got 'oops'"),
        ("pca.json", _set("eigenvalues", 1, True), "pca", ["report", "--k", "3"],
         "eigenvalues[1]: expected a number, got True"),
        ("clusters.json", _set("wcss", True), "cluster", ["report", "--k", "3"],
         "wcss: expected a number, got True"),
        ("clusters.json", _set("k", "3"), "cluster", ["report", "--k", "3"],
         "k: expected an integer, got '3'"),
        ("pca.json", _set("explained_variance", [0.5]), "pca", ["report", "--k", "3"],
         "explained_variance: expected an array of shape (6,), got (1,)"),
        ("pca.json", _set("scores", [[0.0]] * 4), "pca", ["cluster", "--seed", "7"],
         "scores: expected 4 rows of at least 2 numbers, got (4, 1)"),
        ("pca.json", _set("loadings", "oops"), "pca", ["cluster", "--seed", "7"],
         "loadings: expected an array, got 'oops'"),
        ("pca.json", _set("scores", [[1.0, 2.0], [3.0]]), "pca", ["cluster", "--seed", "7"],
         "scores: expected a rectangular array of numbers, got [[1.0, 2.0], [3.0]]"),
        ("metrics.json", _set("concepts", slice(2, None), []), "metrics", ["pca"],
         "need >= 3 concepts for a feature table, got 2"),
        ("pca.json", _set("variables", 3, "missing"), "pca", [RECLUSTER, ["report", "--k", "3"]],
         "variables: expected the variables of the metrics.json feature table, got ("),
        ("pca.json", _set("row_labels", 0, "I"), "pca", [RECLUSTER, ["report", "--k", "3"]],
         "row_labels: expected the row_labels of the metrics.json feature table, got ('I', "),
        ("clusters.json", _set("labels", "zzz-extra", 0), "cluster", ["report", "--k", "3"],
         "labels['zzz-extra']: expected no label for a concept outside pca.json, got 0"),
        # Python's json reads NaN and +-Infinity, which JSON does not have.
        ("pca.json", _set("scores", 0, 0, float("nan")), "pca", ["cluster", "--seed", "7"],
         "not JSON: NaN is not a JSON value"),
        ("metrics.json", _set("concepts", 0, "missing_fraction", float("inf")), "metrics", ["pca"],
         "not JSON: Infinity is not a JSON value"),
        ("metrics.json", _set("concepts", 0, "mean_d", float("-inf")), "metrics",
         ["report", "--k", "3"], "not JSON: -Infinity is not a JSON value"),
        ("clusters.json", _set("wcss", float("nan")), "cluster", ["report", "--k", "3"],
         "not JSON: NaN is not a JSON value"),
        # ... and reads a number beyond a double without a complaint.
        ("metrics.json", _set_text("concepts", 0, "missing_fraction", "1e400"), "metrics",
         ["pca"], "concepts[0].missing_fraction: expected a number within a double's range, "
         "got inf"),
        ("metrics.json", _set("concepts", 0, "n_loans", 10**400), "metrics", ["pca"],
         "concepts[0].n_loans: expected an integer within a double's range, got 1000"),
        ("pca.json", _set_text("scores", 0, 1, "-1e400"), "pca", ["cluster", "--seed", "7"],
         "scores[0][1]: expected a number within a double's range, got -inf"),
        # Finite values whose arithmetic overflows.
        ("metrics.json", _chain(*(_set("concepts", i, "n_loans", int(1e308)) for i in (0, 1))),
         "metrics", ["pca"], "column 'n_loans' overflows a double when standardized"),
        ("metrics.json", _chain(*(_set("concepts", i, "mean_d", 1e308) for i in (0, 1))),
         "metrics", ["pca"], "column 'mean_D' overflows a double when standardized"),
        # Finite PC scores beyond any standardized table's, whose squared
        # distances would overflow.
        ("pca.json", _chain(_set("scores", 0, 0, 1e200), _set("scores", 1, 0, -1e200)), "pca",
         ["cluster", "--seed", "7"],
         "scores[0][0]: expected a PC score of magnitude at most 4.24264 (a standardized "
         "4 x 6 table), got 1e+200"),
        ("pca.json", _chain(_set("scores", 0, 1, 1e200), _set("scores", 1, 1, -1e200)), "pca",
         ["cluster", "--seed", "7", "--kmeans-k", "2"],
         "scores[0][1]: expected a PC score of magnitude at most 4.24264 (a standardized "
         "4 x 6 table), got 1e+200"),
        ("metrics.json", _set("config", "n_reps", -3), "metrics", ["report", "--k", "3"],
         "config.n_reps: expected an integer >= 1, got -3"),
        # ... and the same at 1e100, where the squared distances stay finite but
        # k-means' centroid sums lose the rows' spread.
        ("pca.json", _map_scores(lambda s: s + [[1e100] + [0.0] * (s.shape[1] - 1)]), "pca",
         ["cluster", "--seed", "3"], "scores[0][0]: expected a PC score of magnitude at most "),
        # Distinct rows 1e-170 apart, whose squared distances underflow to 0.
        ("pca.json", _map_scores(lambda s: np.column_stack(
            [np.arange(len(s)) * 1e-170, np.zeros(len(s)), s[:, 2:]])), "pca",
         ["cluster", "--seed", "3", "--kmeans-k", "2"],
         "scores[0] and scores[1]: distinct PC1/PC2 rows whose squared distance underflows "
         "to 0"),
        # Each record's own checks, past the types.
        ("metrics.json", _chain(_set("concepts", 0, "mean_d", 0.5),
                                _set("concepts", 0, "class_results", {})), "metrics", ["pca"],
         "concepts[0].mean_d: expected null exactly when there are no class results, got 0.5"),
        ("clusters.json", _set("centroids", [[0.0, 0.0]]), "cluster", ["report", "--k", "3"],
         "centroids: expected an array of shape (2, 2), got (1, 2)"),
        ("clusters.json", _set("labels", "dog", 2), "cluster", ["report", "--k", "3"],
         "labels['dog']: expected a cluster in 0..1, got 2"),
    ],
)
def test_malformed_cache_is_a_located_error(
    ranked, tmp_path, capsys, name, edit, stage, argv, problem
):
    """The error names the file, the field and what it holds, and the stage to re-run,
    and no warning comes before it.

    ``argv`` is one command, or a list of commands of which all but the last succeed.
    """
    _, _, _, out = ranked
    work = tmp_path / "work"
    shutil.copytree(out, work)
    path = work / name
    path.write_text(edit(path.read_text("utf-8")), "utf-8")
    *earlier, argv = argv if isinstance(argv[0], list) else [argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in earlier:
            assert main([*command, "--out", str(work)]) == 0
        capsys.readouterr()
        assert main([*argv, "--out", str(work)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is malformed ({problem}"), err
    assert err.endswith(f"); re-run the {stage} stage\n"), err


def test_report_refuses_a_concept_that_scatter_svg_cannot_hold(ranked, tmp_path, capsys):
    # A metrics.json edited by hand passes the loader's check on concept names,
    # so decoding it refuses the concept, before pca writes a cache.
    _, _, _, out = ranked
    work = tmp_path / "work"
    shutil.copytree(out, work)
    written = [work / name for name in ("pca.json", "clusters.json", "report.json",
                                        "ranking.csv", "scatter.svg")]
    for path in written:
        path.unlink()
    doc = json.loads((work / "metrics.json").read_text("utf-8"))
    concept = doc["concepts"][0]["concept"] = doc["concepts"][0]["concept"] + "\x01"
    (work / "metrics.json").write_text(to_json(doc), "utf-8")
    for argv in (["pca"], ["report", "--k", "3"]):
        assert main([*argv, "--out", str(work)]) == 1
        assert capsys.readouterr().err == (
            f"error: {work / 'metrics.json'} is malformed (concepts[0].concept: expected a "
            f"concept that XML can hold, got {concept!r}); re-run the metrics stage\n"
        )
    assert not any(path.exists() for path in written)


@pytest.mark.parametrize("argv, name, stage", [
    (["pca"], "metrics.json", "metrics"),
    (["cluster", "--seed", "7"], "pca.json", "pca"),
    (["report", "--k", "3"], "clusters.json", "cluster"),
])
def test_missing_cache_names_the_stage_to_run(ranked, tmp_path, capsys, argv, name, stage):
    _, _, _, out = ranked
    work = tmp_path / "work"
    shutil.copytree(out, work)
    (work / name).unlink()
    assert main([*argv, "--out", str(work)]) == 1
    assert capsys.readouterr().err == f"error: {work / name} not found; run the {stage} stage first\n"


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


@pytest.mark.parametrize("newick, code", [
    ("(((A:1e-320,B:1):1,C:1):1,(D:1,E:1):1):0;", 0),
    ("(((A:1e308,B:0):1e308,C:1e308):1e308,(D:0,E:0):1e308):0;", 1),
    ("(((A:1e308,B:1):1e308,C:1):1,(D:1,E:1):1):0;", 1),
])
def test_extreme_branch_lengths_under_warnings_as_errors(tmp_path, newick, code):
    """A length whose inverse overflows gives a finite D; a root-to-tip path
    beyond a double is one error line naming the tree, not D=nan or a
    traceback from an overflow warning."""
    tree_path = tmp_path / "tree.nwk"
    tree_path.write_text(newick + "\n", "utf-8")
    cognates_path = tmp_path / "cognates.csv"
    cognates_path.write_text("language,concept,cognate_id\nA,c,k1\nB,c,k2\nC,c,k1\n"
                             "D,c,k2\nE,c,k1\n", "utf-8")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "lexiphylo", "dstat",
         "--tree", str(tree_path), "--cognates", str(cognates_path), "--concept", "c",
         "--cognate-class", "k1", "--seed", "1", "--reps", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.splitlines() == [
            f"error: {tree_path}: a root-to-tip path length overflows a double"
        ]
        return
    assert proc.stderr == ""
    printed = dict(line.split("=", 1) for line in proc.stdout.splitlines()[1:])
    assert all(math.isfinite(float(printed[name])) for name in ("d_obs", "D"))


@pytest.mark.parametrize("newick", [
    "(((A:1e-308,B:1e-308):1,C:1):1,(D:1,E:1):1):0;",
    "(((A:1e-310,B:1e-310):1e-310,C:1e-310):1e-310,(D:1e-310,E:1e-310):1e-310):0;",
])
@pytest.mark.parametrize("command", [
    ["dstat", "--concept", "c", "--cognate-class", "c1"],
    ["metrics", "--out", "OUT"],
    ["rank", "--k", "3", "--workers", "2", "--out", "OUT"],
])
def test_overflowing_inverse_weights_are_one_error_line(tmp_path, newick, command):
    """Inverse-length weight totals beyond a double refuse the D statistic:
    one error line naming the tree (and, in the metrics stage, the concept),
    not a wrong or NaN D after an overflow warning, and no --out."""
    rows = ["language,concept,cognate_id"] + [
        f"{lang},{concept},{concept}{cls}"
        for concept, classes in (("c", "12121"), ("d", "11222"), ("e", "12211"))
        for lang, cls in zip("ABCDE", classes)
    ]
    tree_path, cognates_path = write_inputs(tmp_path, newick, rows)
    out = tmp_path / "out"
    command = [str(out) if flag == "OUT" else flag for flag in command]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "lexiphylo", *command,
         "--tree", str(tree_path), "--cognates", str(cognates_path), "--seed", "1",
         "--reps", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    where = "" if command[0] == "dstat" else "concept 'c': "
    assert proc.stderr.splitlines() == [
        f"error: {tree_path}: {where}inverse branch-length weight totals overflow a double"
    ]
    assert not out.exists()


def test_a_config_call_builds_no_parser(tmp_path, monkeypatch, capsys):
    """Every main call in a process parses with one parser, --config or not:
    a config fills the flags argv leaves out, with no second parse."""
    tree_path, cognates_path = write_inputs(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 5, "reps": "7"}), "utf-8")
    argv = ["dstat", "--tree", str(tree_path), "--cognates", str(cognates_path),
            "--concept", "eye", "--cognate-class", "K1", "--config", str(config)]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(argv) == 0
    assert built == []
    assert capsys.readouterr().out.count("n_reps=7\n") == 2


def test_a_flag_left_out_takes_its_default_in_every_subcommand():
    """The parser suppresses every default, so ``_FLAGS`` is their one source:
    given only its required flags, each subcommand gets exactly its flags,
    those left out at their ``_FLAGS`` defaults, and a flag that several
    subcommands take has the same value in each."""
    given = {"tree": "T.nwk", "cognates": "C.csv", "out": "OUT", "concept": "eye",
             "cognate_class": "K1", "sigma2": "2", "seed": "9"}
    first_seen = {}
    for command, (func, _, names) in cli._COMMANDS.items():
        argv = [command]
        for name in names:
            option, spec = cli._FLAGS[name]
            if spec.get("required") or name == "seed":
                argv += [option, given[name]]
        args = cli._parse_args(argv)
        dests = {name: cli._FLAGS[name][0][2:].replace("-", "_") for name in names}
        assert sorted(vars(args)) == sorted(["command", "func", *dests.values()])
        assert args.func is func
        for name, dest in dests.items():
            value = getattr(args, dest)
            if name not in given:
                assert value == cli._FLAGS[name][1].get("default"), (command, name)
            other, other_value = first_seen.setdefault(name, (command, value))
            assert value == other_value, (name, command, other)


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
        unit = [[float(i == j) for j in range(3)] for i in range(3)]
        doc = {"scores": scores, "row_labels": [f"c{i:02d}" for i in range(len(scores))],
               "variables": ["a", "b", "c"], "eigenvalues": [1.0] * 3,
               "explained_variance": [1 / 3] * 3, "loadings": unit, "contributions": unit,
               "upstream_sha256": "", "warnings": [], "schema_version": 1}
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
        # Distinct rows that share PC1/PC2, each score within the bound of a
        # standardized 12 x 3 table (sqrt(3 * 11)).
        doc["scores"] = [[1.0, 2.0, i / 10] for i in range(len(doc["scores"]))]
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

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

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
    eye = [p for p in metrics.plan(matrix, tree, DStatConfig(seed=3))[0] if p.concept == "eye"]
    serial = cli._compute_all_metrics(tree, eye, 10, 1)
    assert cli._compute_all_metrics(tree, eye, 10, 8) == serial
    assert recording_pool == []


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
    # Pool workers forked after a D call in this process, each task carrying
    # the tree and reps with it, write the bytes of one worker. Bundled at
    # 20 reps gives 50 concepts, so both workers get tasks at chunksize 4.
    import numpy as np

    from lexiphylo.cognates import load_cognates
    from lexiphylo.metrics import DStatConfig
    from lexiphylo.tree import read_newick_file

    tree = read_newick_file(BUNDLED / "tree.nwk")
    matrix, _ = load_cognates(BUNDLED / "cognates.csv")
    plans, _ = metrics.plan(matrix, tree, DStatConfig(seed=4))
    serial = cli._compute_all_metrics(tree, plans, 20, 1)
    presence = (np.random.default_rng(0).random(tree.n_tips) < 0.5).astype(int)
    comparative.d_statistic(tree, presence, np.ones(tree.n_tips, dtype=int), 200, seed=0)
    assert cli._compute_all_metrics(tree, plans, 20, 2) == serial


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


def test_rank_builds_the_feature_table_once(tmp_path, monkeypatch):
    """features.csv and the PCA share the metrics record's one feature table."""
    tree_path, cognates_path = write_inputs(tmp_path)
    calls = []
    build = cli.build_feature_table
    monkeypatch.setattr(cli, "build_feature_table", lambda metrics: calls.append(1) or build(metrics))
    assert main(
        ["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
         "--seed", "7", "--reps", "10", "--k", "3", "--out", str(tmp_path / "rank")]
    ) == 0
    assert len(calls) == 1


def test_too_few_concepts_to_write_is_a_plain_error(tmp_path, capsys):
    """Only a cache that was read is named as malformed; a corpus that can make
    no feature table is refused, naming the cognate table, before any draw."""
    rows = ["language,concept,cognate_id,loan"] + [
        f"L{i:03d},{concept},K{i % 2},0" for concept in ("eye", "hand") for i in range(16)
    ]
    tree_path, cognates_path = write_inputs(tmp_path, rows=rows)
    assert main(
        ["metrics", "--tree", str(tree_path), "--cognates", str(cognates_path),
         "--seed", "7", "--reps", "10", "--out", str(tmp_path / "out")]
    ) == 1
    assert capsys.readouterr().err == (
        f"error: {cognates_path}: need >= 3 concepts attested among the tree languages "
        "for a feature table, got 2\n"
    )


def _water_and_dog(tmp_path):
    """The bundled tree with only the water and dog rows of the bundled cognates."""
    header, *rows = (BUNDLED / "cognates.csv").read_text("utf-8").splitlines()
    kept = [row for row in rows if row.split(",")[1] in ("water", "dog")]
    tree_text = (BUNDLED / "tree.nwk").read_text("utf-8").strip()
    return write_inputs(tmp_path, tree_text, [header, *kept])


def _nothing_analysable(tmp_path):
    """Three concepts: one on 3 tips, two attested alike by every tip."""
    rows = ["language,concept,cognate_id,loan"] + [f"L{i:03d},eye,K{i % 2},0" for i in range(3)]
    rows += [f"L{i:03d},{concept},{concept}-1,0" for concept in ("hand", "sun") for i in range(16)]
    return write_inputs(tmp_path, rows=rows)


@pytest.mark.parametrize("corpus, problem", [
    (_water_and_dog,
     "need >= 3 concepts attested among the tree languages for a feature table, got 2"),
    (_nothing_analysable, "no cognate class has a D statistic to compute"),
])
def test_corpus_without_a_feature_table_is_refused_before_any_draw(
    tmp_path, capsys, monkeypatch, corpus, problem
):
    calls = []
    d_statistic = metrics.d_statistic
    monkeypatch.setattr(metrics, "d_statistic",
                        lambda *a, **kw: calls.append(a) or d_statistic(*a, **kw))
    tree_path, cognates_path = corpus(tmp_path)
    out = tmp_path / "out"
    assert main(["rank", "--tree", str(tree_path), "--cognates", str(cognates_path),
                 "--seed", "7", "--k", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cognates_path}: {problem}\n"
    assert calls == []
    assert not out.exists()


def test_corpus_whose_every_analysed_class_has_coinciding_nulls_names_the_cognates(
    tmp_path, capsys
):
    """c0 is the one analysed concept, and on this tree, with its zero-length
    branches, both of its classes have coinciding nulls; c1 and c2 are
    attested by only 2 tips each."""
    rows = ["language,concept,cognate_id,loan"] + [
        f"{lang},{concept},{cls},0" for lang, concept, cls in (
            ("T0", "c0", "k0-0"), ("T1", "c0", "k0-0"), ("T3", "c0", "k0-1"),
            ("T4", "c0", "k0-1"), ("T0", "c1", "k1-0"), ("T1", "c1", "k1-0"),
            ("T2", "c2", "k2-0"), ("T3", "c2", "k2-0"),
        )
    ]
    tree_text = "(T0:0.5,T1:0.5,(T2:0,T3:0):0,T4):0;"
    tree_path, cognates_path = write_inputs(tmp_path, tree_text, rows)
    inputs = ["--tree", str(tree_path), "--cognates", str(cognates_path), "--seed", "1",
              "--reps", "5"]
    out = tmp_path / "out"
    assert main(["rank", *inputs, "--k", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cognates_path}: no cognate class has a D statistic: "
        "the nulls of every analysed class coincide\n"
    )
    assert not out.exists()
    assert main(["dstat", *inputs, "--concept", "c0", "--cognate-class", "k0-0"]) == 1
    assert capsys.readouterr().err == (
        "error: nulls indistinguishable: mean random and BM scores coincide\n"
    )


def test_dstat_prints_the_report_skip_reason(tmp_path, capsys):
    """A constant class, a class attested only off the tree and a concept
    attested only off it: dstat exits 1 with what report.json says of each."""
    tips = [f"L{i:03d}" for i in range(8)]
    rows = ["language,concept,cognate_id,loan", "X,eye,Z,0", "X,sun,S,0", "L000,eye,B,0",
            "L001,eye,B,0"]
    rows += [f"{lang},eye,A,0" for lang in tips]
    rows += [f"{lang},{c},{c}-{i % k},0" for i, lang in enumerate(tips) for c, k in
             (("hand", 2), ("water", 3))]
    tree_path, cognates_path = write_inputs(tmp_path, balanced_newick(3, prefix="L"), rows)
    inputs = ["--tree", str(tree_path), "--cognates", str(cognates_path), "--seed", "3",
              "--reps", "10"]
    out = tmp_path / "out"
    assert main(["rank", *inputs, "--k", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text("utf-8"))
    eye = next(c for c in report["concepts"] if c["concept"] == "eye")
    assert [e["cognate_class"] for e in eye["classes"]] == ["B"]
    warning = "concept 'sun' skipped: no attestations among tree languages"
    assert warning in report["run"]["warnings"]
    expected = {
        "A": eye["skipped_classes"][0]["reason"],
        "Z": "attested only by languages off the tree",
        "S": warning,
    }
    assert expected["A"] == "constant trait (attested by every usable language)"
    for cls, reason in expected.items():
        capsys.readouterr()
        concept = "sun" if cls == "S" else "eye"
        assert main(["dstat", *inputs, "--concept", concept, "--cognate-class", cls]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"


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


@pytest.mark.parametrize("cache", CACHES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_retyped_cache_field_is_an_error_or_a_valid_report(
    bundled_ranked, tmp_path_factory, cache, data
):
    """Any one field of a stage cache set to a value of another JSON type: the
    stages downstream of the cache stop with an error line and exit 1, or each
    exits 0 and the report validates against the shipped schema."""
    import jsonschema

    from lexiphylo.report import report_schema

    doc = json.loads((bundled_ranked / cache).read_text("utf-8"))
    path = data.draw(st.sampled_from(sorted(_json_paths(doc), key=repr)), label="path")
    *parents, key = path
    target = functools.reduce(lambda node, part: node[part], parents, doc)
    kind = _json_kind(target[key])
    # A number field given an integer keeps its JSON type.
    others = [k for k in _JSON_VALUES if k != kind and not (kind == "float" and k == "int")]
    target[key] = data.draw(st.one_of([_JSON_VALUES[k] for k in others]), label="value")
    work = tmp_path_factory.mktemp("retyped")
    shutil.copytree(bundled_ranked, work, dirs_exist_ok=True)
    (work / cache).write_text(to_json(doc), "utf-8")
    stages = (["pca"], ["cluster", "--seed", "3"], ["report"])
    for argv in stages[CACHES.index(cache):]:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--out", str(work)])
        if code:
            assert code == 1 and err.getvalue().startswith("error: "), err.getvalue()
            return
    jsonschema.validate(json.loads((work / "report.json").read_text("utf-8")), report_schema())
