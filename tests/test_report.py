import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexiphylo.cognates import load_cognates
from lexiphylo.metrics import DStatConfig, build_feature_table, compute_metrics, plan
from lexiphylo.multivariate import ClusterAssignment, PcaResult, kmeans, pca, standardize
from lexiphylo.ranking import (
    RankedConcept, SuitabilityRanking, orient_axes, select_wordlist, suitability_rank,
)
from lexiphylo.report import _hull, emit_report, emit_scatter, escape, report_schema, to_json
from lexiphylo.tree import parse_newick
from util import balanced_newick, oracle_emit_scatter, oracle_to_json


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
    metrics = [compute_metrics(tree, p, config.n_reps) for p in plan(matrix, tree, config)[0]]
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


    def test_each_row_set_mismatch_names_its_first_concept_in_check_order(self, pipeline):
        metrics, oriented, clusters, ranking, selection, meta = pipeline
        extra = [replace(metrics[0], concept=name) for name in ("zzz", "yyy")]
        no_dog = [m for m in metrics if m.concept != "dog"]
        top = ranking.rows[0]
        short = SuitabilityRanking(ranking.rows[1:])
        swapped = SuitabilityRanking((*short.rows, replace(top, concept="aaa")))
        padded = SuitabilityRanking((*ranking.rows, replace(top, concept="aaa")))
        # Each case after the first also fails the check before the one it names.
        cases = [
            ([*metrics, *extra], ranking, "'yyy' missing from PCA scores"),
            ([*no_dog, *extra], ranking, "'yyy' missing from PCA scores"),
            (no_dog, short, "'dog' missing from metrics"),
            (metrics, swapped, f"{top.concept!r} missing from ranking"),
            (metrics, padded, "'aaa' missing from PCA scores"),
        ]
        for records, rows, message in cases:
            with pytest.raises(ValueError, match=f"^concept {message}"):
                emit_report(records, oriented, clusters, rows, selection, meta)


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
        tiny = replace(
            oriented,
            scores=oriented.scores[:2],
            row_labels=oriented.row_labels[:2],
        )
        with pytest.raises(ValueError, match=">= 3 points"):
            emit_scatter(tiny, clusters, ranking)

    def test_concept_names_needing_xml_escapes(self, pipeline):
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


def _oracle_hull(points):
    """The hull's corners counter-clockwise from the smallest point, found by
    trying every ordered pair of points as an edge: p -> q is one when no
    point lies right of it and every point on its line lies between them."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def edge(p, q):
        return all(
            cross(p, q, r) > 0 or cross(p, q, r) == 0 and min(p, q) <= r <= max(p, q)
            for r in pts
        )

    hull = [pts[0]]
    while True:
        corner = next(q for q in pts if q != hull[-1] and edge(hull[-1], q))
        if corner == hull[0]:
            return hull
        hull.append(corner)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=14))
def test_hull_matches_an_edge_by_edge_oracle(points):
    """Small integer points, so every cross product is exact; they hold
    duplicates and collinear runs, whose middle points are no corners."""
    points = [(float(x), float(y)) for x, y in points]
    assert _hull(points) == _oracle_hull(points)


def test_a_cluster_without_three_corners_gets_no_outline():
    assert _hull([(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]) == [(0.0, 0.0), (1.0, 1.0)]
    assert _hull([(2.0, 2.0), (0.0, 0.0), (1.0, 1.0)]) == [(0.0, 0.0), (2.0, 2.0)]


# Concept and variable names: XML's escapes, a line separator, a CR and non-ASCII text.
_NAME = st.text(alphabet="ab &<>\u2028\r\u00e9\u4e2d", min_size=1, max_size=6)
_COORD = st.one_of(st.integers(-3, 3).map(float), st.floats(-5, 5, allow_subnormal=False))


@st.composite
def _scatter_inputs(draw):
    """A PCA, clusters and ranking for emit_scatter: 3 to 40 points, now and
    then all on the zero line of an axis (its span is 0, so it is padded),
    clusters of one and two members (no hull) among bigger ones, and concepts
    that the ranking leaves out (their title is the bare concept)."""
    n = draw(st.integers(3, 40), label="n")
    concepts = draw(st.lists(_NAME, min_size=n, max_size=n, unique=True), label="concepts")
    scores = np.array(draw(st.lists(st.tuples(_COORD, _COORD), min_size=n, max_size=n)))
    flat = draw(st.sampled_from([None, 0, 1]), label="flat axis")
    if flat is not None:
        scores[:, flat] = 0.0
    k = draw(st.integers(1, 12), label="k")
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    p = draw(st.integers(2, 6), label="p")
    variables = tuple(draw(st.lists(_NAME, min_size=p, max_size=p, unique=True)))
    loadings = np.array(draw(st.lists(st.floats(-1, 1), min_size=p * p, max_size=p * p)))
    explained = np.array(draw(st.lists(st.floats(0, 1), min_size=p, max_size=p)))
    pca_result = PcaResult(
        eigenvalues=explained * p, loadings=loadings.reshape(p, p), scores=scores,
        contributions=np.zeros((p, p)), explained_variance=explained, variables=variables,
        row_labels=tuple(concepts),
    )
    clusters = ClusterAssignment(labels=labels, centroids=np.zeros((k, 2)), wcss=0.0, k=k,
                                 seed=0, n_restarts=1)
    ranked = draw(st.lists(st.booleans(), min_size=n, max_size=n), label="ranked")
    quadrants = st.sampled_from(["NE", "NW", "SE", "SW", "axis"])
    rows = tuple(
        RankedConcept(concept, float(x), float(y), float(x - y), rank, draw(quadrants), int(c))
        for rank, (concept, (x, y), c, keep) in enumerate(
            zip(concepts, scores, labels, ranked), start=1)
        if keep
    )
    return pca_result, clusters, SuitabilityRanking(rows)


@settings(max_examples=150, deadline=None)
@given(_scatter_inputs())
def test_scatter_matches_the_hand_written_elements(inputs):
    # Line lists, whose first difference pytest shows at once.
    assert emit_scatter(*inputs).split("\n") == oracle_emit_scatter(*inputs).split("\n")


@settings(max_examples=100, deadline=None)
@given(_scatter_inputs())
def test_scatter_parses_and_its_labels_read_back(inputs):
    pca_result, _, ranking = inputs
    root = ET.fromstring(emit_scatter(*inputs))
    svg = "{http://www.w3.org/2000/svg}"
    labels = [t.text for t in root.iter(f"{svg}text") if t.get("font-size") == "10"]
    titles = [t.text for t in root.iter(f"{svg}title")]
    ranked = {row.concept for row in ranking.rows}
    # An XML parser reads a CR, and a CR LF, as an LF.
    for concept, label, title in zip(pca_result.row_labels, labels, titles, strict=True):
        normalised = concept.replace("\r\n", "\n").replace("\r", "\n")
        assert label == normalised
        assert title == normalised or concept in ranked and title.startswith(normalised + ": ")


@pytest.mark.parametrize("char", ["\x01", "\x0c", "\x1f", "\ufffe", "\uffff"])
def test_scatter_refuses_a_concept_that_xml_cannot_hold(pipeline, char):
    _, oriented, clusters, ranking, _, _ = pipeline
    renamed = replace(oriented, row_labels=(f"a{char}b", *oriented.row_labels[1:]))
    message = f"concept {'a' + char + 'b'!r} holds U+{ord(char):04X}, which XML cannot hold"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        emit_scatter(renamed, clusters, ranking)


# Keys and strings holding the writer's separators, quotes, backslashes, line
# breaks and brackets, and non-ASCII text.
_JSON_TEXT = st.text(alphabet=', :"\\\n\u2028[]{}a\u00e9\u4e2d', max_size=6)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**63, 2**80), st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]), _JSON_TEXT,
)
_ARRAYS = st.one_of(
    st.lists(st.floats(), max_size=4).map(lambda row: np.array(row, dtype=float)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda shape: st.lists(st.floats(), min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda cells: np.array(cells, dtype=float).reshape(shape))),
)


def _json_documents(depth: int):
    """Scalars, arrays, and lists, tuples and objects of them nested up to ``depth`` deep."""
    if depth == 0:
        return _JSON_SCALARS | _ARRAYS
    inner = _json_documents(depth - 1)
    return _JSON_SCALARS | _ARRAYS | st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_JSON_TEXT, inner, max_size=4),
    )


@settings(max_examples=400, deadline=None)
@given(_json_documents(4))
@example({1.5: [0], 2: {"x": []}, True: (None, [{}])})
@example({"a": ", ", "b": {"c": ": "}, "d": np.zeros((2, 0)), "e": np.array(2.5)})
def test_to_json_matches_json_indent_encoder(document):
    # Line lists, whose first difference pytest shows at once.
    assert to_json(document).split("\n") == oracle_to_json(document).split("\n")
