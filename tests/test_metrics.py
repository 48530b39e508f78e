import csv
import io
from pathlib import Path

import numpy as np
import pytest

from lexiphylo import metrics as metrics_module
from lexiphylo.cognates import load_cognates
from lexiphylo.metrics import (
    FEATURE_COLUMNS,
    DStatConfig,
    build_feature_table,
    feature_table_to_csv,
    plan,
)
from lexiphylo.tree import parse_newick, read_newick_file
from util import concept_metrics

BUNDLED = Path(__file__).resolve().parents[1] / "data" / "synthetic"

# Six languages; L6 never attests 'eye'.
SIX_TREE = "(((L1:1,L2:1):1,(L3:1,L4:1):1):1,(L5:2,L6:2):1);"

EYE_ROWS = (
    "L1,eye,K1,0\nL2,eye,K1,0\nL3,eye,K1,0\n"  # class K1, size 3
    "L4,eye,K2,0\nL5,eye,K2,0\n"  # class K2, size 2
    "L1,eye,K3,0\n"  # class K3, singleton (synonym for L1)
)


def make_matrix(extra_rows: str = ""):
    text = "language,concept,cognate_id,loan\n" + EYE_ROWS + extra_rows
    matrix, _ = load_cognates(text)
    return matrix


@pytest.fixture(scope="module")
def tree():
    return parse_newick(SIX_TREE)


@pytest.fixture(scope="module")
def config():
    return DStatConfig(seed=13, n_reps=200)


class TestComputeMetrics:
    def test_hand_counts(self, tree, config):
        m = concept_metrics(make_matrix(), tree, "eye", config)
        assert m.n_classes == 3
        assert m.n_singletons == 1
        assert m.missing_fraction == pytest.approx(1 / 6)
        assert m.mean_class_size == pytest.approx(2.0)
        assert m.max_class_size == 3
        assert m.n_loans == 0
        assert set(m.class_results) | set(m.class_skips) == {"K1", "K2", "K3"}

    def test_loans_counted_as_triples(self, tree, config):
        matrix = make_matrix("L2,eye,K2,1\nL3,eye,K2,1\n")
        m = concept_metrics(matrix, tree, "eye", config)
        assert m.n_loans == 2

    def test_universal_class_skipped_and_counted(self, tree, config):
        rows = "".join(f"L{i},hand,H1,0\n" for i in range(1, 7))
        matrix = make_matrix(rows)
        m = concept_metrics(matrix, tree, "hand", config)
        assert m.mean_class_size == 6.0
        assert m.max_class_size == 6
        assert m.mean_d is None
        assert m.class_skips == {"H1": "constant trait (attested by every usable language)"}

    def test_all_singletons(self, tree, config):
        rows = "".join(f"L{i},word,W{i},0\n" for i in range(1, 7))
        matrix = make_matrix(rows)
        m = concept_metrics(matrix, tree, "word", config)
        assert m.n_singletons == m.n_classes == 6

    def test_concept_without_tree_attestation(self, config):
        # The plan leaves such a concept out with a warning, so no metrics record asks for it.
        matrix = make_matrix("X1,ear,E1,0\nX2,ear,E1,0\n")
        plans, skipped = plan(matrix, parse_newick(SIX_TREE), config)
        assert [p.concept for p in plans] == ["eye"]
        assert skipped == {"ear": "concept 'ear' skipped: no attestations among tree languages"}

    def test_non_tree_languages_do_not_count(self, tree, config):
        # Same concept data plus rows from a language outside the tree.
        base = concept_metrics(make_matrix(), tree, "eye", config)
        extended = concept_metrics(
            make_matrix("Zulu9,eye,K9,1\n"), tree, "eye", config
        )
        assert extended.n_classes == base.n_classes
        assert extended.n_loans == base.n_loans
        assert extended.missing_fraction == base.missing_fraction

    def test_missing_fraction_monotone_in_attestation(self, tree, config):
        before = concept_metrics(make_matrix(), tree, "eye", config)
        after = concept_metrics(make_matrix("L6,eye,K2,0\n"), tree, "eye", config)
        assert after.missing_fraction < before.missing_fraction

    def test_deterministic_per_class_seeds(self, tree, config):
        first = concept_metrics(make_matrix(), tree, "eye", config)
        second = concept_metrics(make_matrix(), tree, "eye", config)
        assert first.class_results == second.class_results

    def test_bad_reps_raise_rather_than_skip_every_class(self):
        # Every class would be refused alike: that is an error, not a skip reason.
        tree = read_newick_file(BUNDLED / "tree.nwk")
        matrix, _ = load_cognates(BUNDLED / "cognates.csv")
        with pytest.raises(ValueError, match="n_reps must be >= 1"):
            concept_metrics(matrix, tree, "water", DStatConfig(seed=1, n_reps=0))


class TestPlan:
    def test_each_class_gets_its_seed_or_reason_before_any_draw(self, tree, config, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("plan computed a D statistic")

        monkeypatch.setattr(metrics_module, "d_statistic", no_draws)
        rows = "".join(f"L{i},hand,H1,0\n" for i in range(1, 7)) + "Zulu9,eye,K9,1\nL1,ear,R1,0\n"
        plans, skipped = plan(make_matrix(rows), tree, config)
        assert skipped == {}
        ear, eye, hand = plans
        assert ear.classes == {"R1": "fewer than 4 usable tips"}
        assert eye.classes == {cls: config.class_seed("eye", cls) for cls in ("K1", "K2", "K3")}
        assert hand.classes == {"H1": "constant trait (attested by every usable language)"}
        assert eye.presence.tolist() == [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0],
                                         [1, 0, 0, 0, 0, 0]]
        assert eye.mask.tolist() == [1, 1, 1, 1, 1, 0]
        # K9 and its loan are attested only off the tree, and left out like its language.
        assert (eye.n_loans, eye.work("K9")) == (0, "attested only by languages off the tree")
        assert eye.work("K2") == eye.classes["K2"]


def _metrics_set(tree, config):
    rows = (
        "".join(f"L{i},hand,H1,0\n" for i in range(1, 7))  # constant: imputed
        + "L1,leaf,F1,0\nL2,leaf,F1,0\nL3,leaf,F2,0\nL4,leaf,F2,0\nL5,leaf,F2,0\n"
    )
    matrix = make_matrix(rows)
    return [
        concept_metrics(matrix, tree, concept, config)
        for concept in ("eye", "hand", "leaf")
    ]


class TestFeatureTable:
    def test_shape_order_and_columns(self, tree, config):
        table = build_feature_table(_metrics_set(tree, config))
        assert table.columns == FEATURE_COLUMNS
        assert table.values.shape == (3, 6)
        assert table.row_labels == ("eye", "hand", "leaf")

    def test_imputation_is_mean_of_defined(self, tree, config):
        metrics = _metrics_set(tree, config)
        table = build_feature_table(metrics)
        defined = [m.mean_d for m in metrics if m.mean_d is not None]
        hand_row = table.row_labels.index("hand")
        mean_col = table.columns.index("mean_D")
        assert table.values[hand_row, mean_col] == pytest.approx(np.mean(defined))

    def test_permutation_invariance(self, tree, config):
        metrics = _metrics_set(tree, config)
        table_a = build_feature_table(metrics)
        table_b = build_feature_table(list(reversed(metrics)))
        assert table_a.row_labels == table_b.row_labels
        assert np.array_equal(table_a.values, table_b.values)

    def test_all_cells_finite(self, tree, config):
        table = build_feature_table(_metrics_set(tree, config))
        assert np.all(np.isfinite(table.values))

    def test_too_few_concepts(self, tree, config):
        with pytest.raises(ValueError, match=">= 3 concepts"):
            build_feature_table(_metrics_set(tree, config)[:2])

    def test_csv_roundtrip(self, tree, config):
        table = build_feature_table(_metrics_set(tree, config))
        header, *rows = csv.reader(io.StringIO(feature_table_to_csv(table)))
        assert tuple(header) == ("concept", *table.columns)
        assert tuple(row[0] for row in rows) == table.row_labels
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.array_equal(values, table.values)
