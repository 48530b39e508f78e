import json
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest
from hypothesis import given, strategies as st

from lexiphylo.cognates import load_cognates
from lexiphylo.metrics import DStatConfig, build_feature_table, compute_metrics
from lexiphylo.multivariate import kmeans, pca, standardize
from lexiphylo.ranking import orient_axes, select_wordlist, suitability_rank
from lexiphylo.report import emit_report, emit_scatter, escape, report_schema
from lexiphylo.tree import parse_newick
from util import balanced_newick


@pytest.fixture(scope="module")
def pipeline():
    """A small but complete pipeline state shared by the report tests."""
    tree = parse_newick(balanced_newick(4, prefix="L"))
    rng = np.random.default_rng(0)
    rows = ["language,concept,cognate_id,loan"]
    for ci, concept in enumerate(("eye", "hand", "water", "stone", "fish", "dog")):
        for i, lang in enumerate(tree.tip_labels):
            if rng.random() < 0.12:
                continue
            if rng.random() < 0.04 * ci:  # occasional singleton class
                rows.append(f"{lang},{concept},S{i},0")
                continue
            rows.append(f"{lang},{concept},K{(i // 4 + ci) % 3},{int(rng.random() < 0.05)}")
    matrix, _ = load_cognates("\n".join(rows) + "\n")
    config = DStatConfig(seed=21, n_reps=150)
    metrics = [
        compute_metrics(matrix, tree, c, config) for c in sorted(matrix.concepts)
    ]
    table = build_feature_table(metrics)
    oriented = orient_axes(pca(standardize(table)))
    clusters = kmeans(oriented.scores[:, :2], 2, seed=21)
    ranking = suitability_rank(oriented, clusters)
    selection = select_wordlist(ranking, k=4)
    metadata = {
        "seed": 21,
        "n_reps": 150,
        "inputs": {
            "tree": {"path": "tree.nwk", "sha256": "0" * 64},
            "cognates": {"path": "cognates.csv", "sha256": "1" * 64},
        },
    }
    return metrics, oriented, clusters, ranking, selection, metadata


class TestEmitReport:
    def test_byte_deterministic(self, pipeline):
        metrics, oriented, clusters, ranking, selection, meta = pipeline
        first = emit_report(metrics, oriented, clusters, ranking, selection, meta)
        second = emit_report(metrics, oriented, clusters, ranking, selection, meta)
        assert first == second

    def test_validates_against_published_schema(self, pipeline):
        metrics, oriented, clusters, ranking, selection, meta = pipeline
        text = emit_report(metrics, oriented, clusters, ranking, selection, meta)
        jsonschema.validate(json.loads(text), report_schema())

    def test_contains_class_detail_and_run_metadata(self, pipeline):
        metrics, oriented, clusters, ranking, selection, meta = pipeline
        doc = json.loads(
            emit_report(metrics, oriented, clusters, ranking, selection, meta)
        )
        assert doc["run"]["seed"] == 21
        assert doc["run"]["n_reps"] == 150
        concept = doc["concepts"][0]
        assert {"n_loans", "mean_D", "missing_fraction", "classes"} <= set(concept)
        if concept["classes"]:
            assert {"d_obs", "D", "p_random", "p_bm"} <= set(concept["classes"][0])
        assert len(doc["ranking"]) == len(doc["concepts"])

    def test_mean_d_status_read_from_record(self, pipeline):
        from dataclasses import replace

        metrics, oriented, clusters, ranking, selection, meta = pipeline
        # A record whose every class was skipped has no mean D: its cell is imputed.
        skipped = replace(metrics[1], mean_d=None, class_results={})
        records = [metrics[0], skipped, *metrics[2:]]
        assert all(m.mean_d is not None for m in records if m is not skipped)
        doc = json.loads(
            emit_report(records, oriented, clusters, ranking, selection, meta)
        )
        status = {c["concept"]: c["mean_D_status"] for c in doc["concepts"]}
        assert status.pop(skipped.concept) == "imputed"
        assert set(status.values()) == {"computed"}

    def test_row_set_mismatch_names_concept(self, pipeline):
        metrics, oriented, clusters, ranking, selection, meta = pipeline
        with pytest.raises(ValueError, match="'dog'"):
            emit_report(
                [m for m in metrics if m.concept != "dog"],
                oriented,
                clusters,
                ranking,
                selection,
                meta,
            )


class TestEmitScatter:
    def test_well_formed_svg(self, pipeline):
        _, oriented, clusters, ranking, _, _ = pipeline
        svg = emit_scatter(oriented, clusters, ranking)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_element_counts(self, pipeline):
        _, oriented, clusters, ranking, _, _ = pipeline
        svg = emit_scatter(oriented, clusters, ranking)
        n_points = svg.count('class="concept-point"')
        assert n_points == len(oriented.row_labels)
        assert svg.count('class="loading-arrow"') == len(oriented.variables)
        # One hull polygon per cluster with >= 3 members.
        sizeable = sum(
            1
            for c in set(clusters.labels.tolist())
            if (clusters.labels == c).sum() >= 3
        )
        assert svg.count("<polygon") == sizeable

    def test_axis_captions_report_explained_variance(self, pipeline):
        _, oriented, clusters, ranking, _, _ = pipeline
        svg = emit_scatter(oriented, clusters, ranking)
        pc1 = 100 * float(oriented.explained_variance[0])
        assert f"PC1 ({pc1:.1f}% explained)" in svg
        assert "PC2 (" in svg

    def test_byte_deterministic(self, pipeline):
        _, oriented, clusters, ranking, _, _ = pipeline
        assert emit_scatter(oriented, clusters, ranking) == emit_scatter(
            oriented, clusters, ranking
        )

    def test_too_few_points(self, pipeline):
        _, oriented, clusters, ranking, _, _ = pipeline
        from dataclasses import replace

        tiny = replace(
            oriented,
            scores=oriented.scores[:2],
            row_labels=oriented.row_labels[:2],
        )
        with pytest.raises(ValueError, match=">= 3 points"):
            emit_scatter(tiny, clusters, ranking)

    def test_concept_names_needing_xml_escapes(self, pipeline):
        from dataclasses import replace

        from lexiphylo.ranking import SuitabilityRanking

        _, oriented, clusters, ranking, _, _ = pipeline
        renamed = replace(
            oriented, row_labels=tuple(f"{c}&<x>" for c in oriented.row_labels)
        )
        rows = tuple(replace(r, concept=f"{r.concept}&<x>") for r in ranking.rows)
        svg = emit_scatter(renamed, clusters, SuitabilityRanking(rows))
        ET.fromstring(svg)  # still well-formed


@pytest.mark.parametrize("text", ["", "plain", "a&b", "<x>", "&amp;", "\"q\" 'a'", "&<>\"'", "><&&<<"])
def test_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape as sax_escape

    assert escape(text) == sax_escape(text)


@given(st.text(alphabet="&<>\"';ax\u00e9", max_size=30))
def test_escape_matches_saxutils_property(text):
    from xml.sax.saxutils import escape as sax_escape

    assert escape(text) == sax_escape(text)
