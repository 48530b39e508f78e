import warnings

import numpy as np
import pytest

from lexiphylo import multivariate
from lexiphylo.metrics import FEATURE_COLUMNS, FeatureTable
from lexiphylo.multivariate import (
    LowStructureWarning,
    ZeroVarianceWarning,
    choose_k,
    kmeans,
    pca,
    silhouette_score,
    standardize,
)
from util import oracle_kmeans, oracle_kmeans_pp_seeds, oracle_silhouette


def table_from(values, columns=None, standardized=False):
    values = np.asarray(values, dtype=float)
    columns = tuple(columns) if columns else tuple(f"v{j}" for j in range(values.shape[1]))
    labels = tuple(f"c{i:03d}" for i in range(values.shape[0]))
    return FeatureTable(labels, columns, values, standardized)


class TestStandardize:
    def test_arithmetic_sequence(self):
        out = standardize(table_from([[1.0], [2.0], [3.0]]))
        assert out.values[:, 0].tolist() == [-1.0, 0.0, 1.0]
        assert out.standardized

    def test_constant_column_zeroed_with_warning(self):
        with pytest.warns(ZeroVarianceWarning):
            out = standardize(table_from([[5.0], [5.0], [5.0]]))
        assert out.values[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        table = table_from(rng.normal(size=(20, 4)))
        once = standardize(table)
        twice = standardize(once)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    def test_column_moments(self):
        rng = np.random.default_rng(3)
        out = standardize(table_from(rng.normal(2.0, 7.0, size=(50, 3))))
        assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.values.std(axis=0, ddof=1), 1.0, atol=1e-12)


class TestPca:
    def test_two_perfectly_correlated_columns(self):
        base = np.arange(1.0, 9.0)
        table = standardize(table_from(np.column_stack([base, 3.0 * base])))
        result = pca(table)
        assert np.allclose(result.eigenvalues, [2.0, 0.0], atol=1e-12)
        assert np.allclose(result.contributions[:, 0], [50.0, 50.0], atol=1e-9)

    def test_independent_columns_give_unit_eigenvalues(self):
        rng = np.random.default_rng(11)
        table = standardize(table_from(rng.standard_normal((5000, 6))))
        result = pca(table)
        assert np.all(result.eigenvalues >= 0.9)
        assert np.all(result.eigenvalues <= 1.1)

    def test_dominant_shared_variable_tops_dim1_contributions(self):
        rng = np.random.default_rng(7)
        n = 400
        factor = rng.standard_normal(n)
        columns = {
            "n_loans": 0.5 * factor + rng.standard_normal(n),
            "mean_D": 0.4 * factor + rng.standard_normal(n),
            "n_singletons": rng.standard_normal(n),
            "missing_fraction": 3.0 * factor + 0.3 * rng.standard_normal(n),
            "mean_class_size": 0.4 * factor + rng.standard_normal(n),
            "max_class_size": rng.standard_normal(n),
        }
        values = np.column_stack([columns[c] for c in FEATURE_COLUMNS])
        result = pca(standardize(table_from(values, FEATURE_COLUMNS)))
        dim1 = result.contributions[:, 0]
        assert FEATURE_COLUMNS[int(np.argmax(dim1))] == "missing_fraction"

    def test_structural_invariants(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 6))
        table = standardize(table_from(x))
        result = pca(table)
        assert abs(result.eigenvalues.sum() - 6.0) < 1e-9
        gram = result.loadings.T @ result.loadings
        assert np.abs(gram - np.eye(6)).max() < 1e-9
        corr = np.corrcoef(table.values, rowvar=False)
        recon = result.loadings @ np.diag(result.eigenvalues) @ result.loadings.T
        assert np.abs(recon - corr).max() < 1e-8
        assert np.abs(result.scores.mean(axis=0)).max() < 1e-9
        score_cov = result.scores.T @ result.scores / (len(x) - 1)
        assert np.abs(score_cov - np.diag(result.eigenvalues)).max() < 1e-8
        assert np.allclose(result.contributions.sum(axis=0), 100.0, atol=1e-9)
        assert np.all(np.diff(result.eigenvalues) <= 1e-15)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 6))
        table = standardize(table_from(x))
        result = pca(table)
        perm = rng.permutation(30)
        permuted = FeatureTable(
            tuple(table.row_labels[i] for i in perm),
            table.columns,
            table.values[perm],
            True,
        )
        result_p = pca(permuted)
        assert np.allclose(result_p.loadings, result.loadings, atol=1e-12)
        assert np.allclose(result_p.scores, result.scores[perm], atol=1e-12)

    def test_requires_standardized(self):
        with pytest.raises(ValueError, match="standardized"):
            pca(table_from([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]))

    def test_rejects_non_finite(self):
        bad = table_from([[1.0, np.nan], [2.0, 1.0], [3.0, 3.0]], standardized=True)
        with pytest.raises(ValueError, match="non-finite"):
            pca(bad)


def two_blobs(rng, spread=0.5, centers=((0.0, 0.0), (10.0, 10.0)), size=30):
    points = np.vstack(
        [rng.normal(c, spread, size=(size, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), size)
    return points, labels


class TestKmeans:
    def test_two_blob_recovery(self):
        rng = np.random.default_rng(10)
        points, truth = two_blobs(rng)
        result = kmeans(points, 2, seed=99)
        first, second = result.labels[truth == 0], result.labels[truth == 1]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]
        for cluster, center in enumerate(result.centroids):
            blob = points[result.labels == cluster]
            assert np.linalg.norm(blob.mean(axis=0) - center) < 0.5

    def test_k_equals_rows(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(8, 2))
        result = kmeans(points, 8, seed=0)
        assert result.wcss == 0.0
        assert sorted(result.labels.tolist()) == list(range(8))

    def test_k_one(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(12, 2))
        result = kmeans(points, 1, seed=0)
        assert np.allclose(result.centroids[0], points.mean(axis=0))
        assert result.wcss == pytest.approx(((points - points.mean(axis=0)) ** 2).sum())

    def test_wcss_consistent_with_labels(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(40, 2))
        result = kmeans(points, 4, seed=5)
        recomputed = sum(
            float(np.sum((points[result.labels == j] - result.centroids[j]) ** 2))
            for j in range(4)
        )
        assert abs(result.wcss - recomputed) < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(25, 2))
        a = kmeans(points, 3, seed=42)
        b = kmeans(points, 3, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert a.wcss == b.wcss

    def test_errors(self):
        points = np.zeros((4, 2))
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(points, 5, seed=0)
        with pytest.raises(ValueError, match=">= 1"):
            kmeans(points, 0, seed=0)


class TestChooseK:
    def test_two_blobs(self):
        rng = np.random.default_rng(20)
        points, _ = two_blobs(rng)
        assert choose_k(points, range(2, 7), seed=1) == 2

    def test_three_blobs(self):
        rng = np.random.default_rng(21)
        points, _ = two_blobs(
            rng, centers=((0.0, 0.0), (12.0, 0.0), (0.0, 12.0)), size=25
        )
        assert choose_k(points, range(2, 7), seed=1) == 3

    def test_uniform_noise_warns_low_structure(self):
        rng = np.random.default_rng(22)
        noise = rng.random((150, 2))
        with pytest.warns(LowStructureWarning, match="silhouette"):
            k = choose_k(noise, range(2, 7), seed=1)
        assert 2 <= k <= 6

    def test_empty_range(self):
        with pytest.raises(ValueError, match="empty"):
            choose_k(np.zeros((10, 2)), [], seed=0)

    def test_range_bounds(self):
        rng = np.random.default_rng(23)
        with pytest.raises(ValueError, match="within"):
            choose_k(rng.normal(size=(5, 2)), range(2, 9), seed=0)


class TestSilhouette:
    def test_well_separated_near_one(self):
        rng = np.random.default_rng(30)
        points, truth = two_blobs(rng, spread=0.1)
        assert silhouette_score(points, truth) > 0.95

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            silhouette_score(np.zeros((5, 2)), np.zeros(5, dtype=int))


def _with_warnings(func, *args, **kwargs):
    """``func``'s result and the sorted messages of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = func(*args, **kwargs)
    return result, sorted(str(w.message) for w in caught)


def _kmeans_point_sets():
    rng = np.random.default_rng(41)
    base = rng.normal(size=(4, 2))
    signed_zeros = np.round(rng.normal(size=(9, 2)))
    signed_zeros[signed_zeros == 0.0] = -0.0
    return {
        "gaussian": rng.normal(size=(11, 2)),
        "integer grid (ties)": np.round(rng.normal(size=(11, 2))),
        "duplicates": np.repeat(base, 3, axis=0),
        "signed zeros": signed_zeros,
        "one column": rng.normal(size=(24, 1)),
        "three columns": rng.normal(size=(9, 3)),
    }


@pytest.mark.parametrize("name", list(_kmeans_point_sets()))
def test_kmeans_matches_restart_oracle_bitwise(name):
    x = _kmeans_point_sets()[name]
    for k in range(1, len(x) + 1):
        for seed in (0, 3):
            for n_restarts in (1, 4):
                case = (name, k, seed, n_restarts)
                try:
                    expected, expected_warnings = _with_warnings(
                        oracle_kmeans, x, k, seed, n_restarts
                    )
                except AssertionError as exc:
                    # More clusters than distinct points can leave a centroid
                    # undefined; both versions then fail the WCSS invariant.
                    with pytest.raises(AssertionError, match=str(exc)):
                        _with_warnings(kmeans, x, k, seed, n_restarts)
                    continue
                got, got_warnings = _with_warnings(kmeans, x, k, seed, n_restarts)
                assert got.labels.tolist() == expected.labels.tolist(), case
                assert got.centroids.tobytes() == expected.centroids.tobytes(), case
                assert np.float64(got.wcss).tobytes() == np.float64(expected.wcss).tobytes(), case
                assert got_warnings == expected_warnings, case


def test_kmeans_rehoming_matches_oracle_bitwise():
    # Three distinct locations cannot fill four clusters: the first
    # assignment leaves one empty, so every restart re-homes.
    x = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]] * 3 + [[5.0, 0.0]] * 2)
    rehomes = []
    for seed in range(4):
        expected = oracle_kmeans(x, 4, seed, 3, on_rehome=lambda: rehomes.append(seed))
        got = kmeans(x, 4, seed, 3)
        assert got.labels.tolist() == expected.labels.tolist()
        assert got.centroids.tobytes() == expected.centroids.tobytes()
        assert got.wcss == expected.wcss
    assert sorted(set(rehomes)) == [0, 1, 2, 3]


def test_choose_k_matches_oracle_choose_k(monkeypatch):
    rng = np.random.default_rng(42)
    point_sets = [
        two_blobs(rng, size=8)[0],
        np.round(rng.normal(size=(14, 2)), 1),
        rng.random((16, 2)),
    ]
    for x in point_sets:
        for seed in (0, 5):
            got = _with_warnings(choose_k, x, range(2, 7), seed)
            with monkeypatch.context() as patch:
                patch.setattr(multivariate, "kmeans", oracle_kmeans)
                expected = _with_warnings(choose_k, x, range(2, 7), seed)
            assert got == expected


def _seeding_point_sets():
    rng = np.random.default_rng(43)
    return {
        **_kmeans_point_sets(),
        "all identical": np.full((6, 2), 1.5),
        "two distinct points": np.array([[0.0, 1.0]] * 4 + [[2.0, -1.0]] * 3),
        "one column, three distinct": np.repeat(rng.normal(size=(3, 1)), 3, axis=0),
    }


@pytest.mark.parametrize("name", list(_seeding_point_sets()))
def test_kmeans_pp_seeding_matches_restart_loop_bitwise(name, monkeypatch):
    x = _seeding_point_sets()[name]
    replays = []
    one_restart = multivariate._kmeans_pp_init

    def counted(*args):
        replays.append(args[1])
        return one_restart(*args)

    monkeypatch.setattr(multivariate, "_kmeans_pp_init", counted)
    for k in range(1, len(x) + 1):
        for seed in (0, 3, 2**64 - 1):
            for n_restarts in (1, 5):
                case = (name, k, seed, n_restarts)
                expected = oracle_kmeans_pp_seeds(x, k, seed, n_restarts)
                got, caught = _with_warnings(multivariate._kmeans_pp_seed, x, k, seed, n_restarts)
                assert got.tobytes() == expected.tobytes(), case
                assert caught == [], case
    # A running total reaches 0.0 exactly when k exceeds the number of
    # distinct points; those restarts, and only those, are replayed.
    n_distinct = len({tuple(row) for row in x.tolist()})
    assert bool(replays) == (n_distinct < len(x)), name
    assert all(k > n_distinct for k in replays), name


def test_silhouette_matches_point_by_point_oracle_bitwise():
    rng = np.random.default_rng(44)
    kinds = {"singleton": 0, "duplicates": 0}
    for case in range(300):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        if case % 3 == 1:
            x = x[rng.integers(0, max(1, n // 3), size=n)]
            kinds["duplicates"] += 1
        elif case % 3 == 2:
            x = np.round(x)
        labels = rng.integers(0, int(rng.integers(2, min(n, 8) + 1)), size=n)
        if case % 2:
            labels[rng.integers(n)] = labels.max() + 1
        if len(np.unique(labels)) < 2:
            continue
        sizes = np.unique(labels, return_counts=True)[1]
        kinds["singleton"] += bool(np.any(sizes == 1))
        got, caught = _with_warnings(silhouette_score, x, labels)
        expected = oracle_silhouette(x, labels)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), case
        assert caught == [], case
    assert min(kinds.values()) > 50
