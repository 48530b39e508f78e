"""Standardization, correlation-matrix PCA, and k-means over PC scores.

The PCA eigendecomposition uses cyclic Jacobi rotations on the 6x6 sample
correlation matrix rather than an iterative black-box solver: the problem
is tiny and the rotations give bitwise-reproducible eigenpairs. Variables
on incommensurate scales (counts, proportions, statistics) make
correlation PCA the right default; covariance PCA would let the largest
count dominate.

k-means uses k-means++ seeding with independent restarts: restart ``r``
draws from Philox stream ``(seed, r)``, through one generator re-keyed per
restart. k-means++ needs k distinct centers, so ``kmeans`` refuses k above
the number of distinct rows, and non-finite scores. The seeding of all
restarts runs as one batch that repeats the steps of ``Generator.choice``
without its validation. The Lloyd iterations of all restarts then run as
one batch, each restart stopping on its own rule. Both batches keep the
arithmetic of one restart at a time. The best (lowest-WCSS) restart wins,
ties going to the lowest restart index, so the result is independent of
execution order. The silhouette sums each point's distances to each
cluster in one pass, with the bits of a point-by-point loop.

Squared distances, in the seeding, the Lloyd iterations and the
silhouette alike, add whole coordinate slices in coordinate order: below
8 coordinates that is the order in which ``np.sum`` adds a row, so the
bits are ``np.sum``'s, without its reduction loop over each short row;
from 8 coordinates on they are ``np.sum``'s own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import rekey, stream
from .metrics import FeatureTable

DEFAULT_RESTARTS = 25
MAX_LLOYD_ITERATIONS = 100
JACOBI_TOL = 1e-12
LOW_STRUCTURE_SILHOUETTE = 0.5
# What numpy's column sums start from: +0.0 where a reduction begins at the
# identity (numpy 2), -0.0 (a no-op) where it begins at the first row.
_COLUMN_SUM_START = float(np.add.reduce(np.full((1, 2), -0.0), axis=0)[0])
# The most terms that numpy's row sums add one after another: 7 (from 8 on
# it sums pairwise), unless a row sum adds the sum of the other terms to the
# first, which (1 + 2**-53) + 2**-53 == 1 against 1 + 2**-52 tells apart.
_SEQUENTIAL_ROW_TERMS = 7 if np.sum(np.array([[1.0, 2.0**-53, 2.0**-53]]), axis=-1)[0] == 1.0 else 2


class ZeroVarianceWarning(UserWarning):
    """A feature column had no variance and was zeroed before PCA."""


class LowStructureWarning(UserWarning):
    """Best silhouette over the k range indicates weak cluster structure."""


@dataclass(frozen=True)
class PcaResult:
    """Eigenpairs of the correlation matrix plus scores and contributions.

    ``loadings`` holds orthonormal eigenvector columns; ``scores`` is the
    standardized data projected onto them; ``contributions[v, k]`` is the
    percentage of dimension k carried by variable v (squared loadings,
    columns summing to 100).
    """

    eigenvalues: np.ndarray
    loadings: np.ndarray
    scores: np.ndarray
    contributions: np.ndarray
    explained_variance: np.ndarray
    variables: tuple[str, ...]
    row_labels: tuple[str, ...]


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray
    centroids: np.ndarray
    wcss: float
    k: int
    seed: int
    n_restarts: int


def standardize(table: FeatureTable) -> FeatureTable:
    """Z-score every column (sample standard deviation, ddof=1).

    Zero-variance columns become all zeros with a ZeroVarianceWarning, and
    a column whose mean or variance overflows raises ValueError.
    Idempotent: standardizing a standardized table changes nothing.
    """
    if len(table.row_labels) < 3:
        raise ValueError("need >= 3 rows to standardize")
    x = np.asarray(table.values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("feature table contains non-finite cells")
    means = x.mean(axis=0)
    stds = x.std(axis=0, ddof=1)
    out = np.zeros_like(x)
    for j, sd in enumerate(stds):
        if not np.isfinite(sd):  # the column's mean or variance overflows
            raise ValueError(f"column {table.columns[j]!r} overflows a double when standardized")
        if sd == 0.0:
            warnings.warn(f"column {table.columns[j]!r} has zero variance; set to zeros",
                          ZeroVarianceWarning, stacklevel=2)
        else:
            out[:, j] = (x[:, j] - means[j]) / sd
    return FeatureTable(table.row_labels, table.columns, out, standardized=True)


def _jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Sweeps all (p, q) pairs, rotating away each off-diagonal element, until
    the largest off-diagonal magnitude drops below ``JACOBI_TOL``. Returns
    (eigenvalues, eigenvector columns), unsorted.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _sweep in range(100):
        off = np.max(np.abs(a - np.diag(np.diag(a))))
        if off <= JACOBI_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= JACOBI_TOL * 1e-3:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    else:
        raise RuntimeError("Jacobi iteration failed to converge")
    return np.diag(a).copy(), v


def pca(table: FeatureTable) -> PcaResult:
    """Correlation-matrix PCA of a standardized feature table.

    Eigenpairs are sorted by descending eigenvalue (stable on ties); tiny
    negative eigenvalues from roundoff are clamped to zero. Axis sign
    orientation is left to the ranking stage.
    """
    if not table.standardized:
        raise ValueError("pca requires a standardized table")
    x = np.asarray(table.values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("feature table contains non-finite cells")
    n_rows, n_cols = x.shape
    if n_rows < 3:
        raise ValueError("need >= 3 rows for PCA")

    corr = x.T @ x / (n_rows - 1)
    # Exact unit diagonal for non-degenerate columns keeps the trace at n_cols.
    for j in range(n_cols):
        if corr[j, j] != 0.0:
            corr[j, j] = 1.0
    corr = (corr + corr.T) / 2.0

    eigenvalues, vectors = _jacobi_eigh(corr)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    loadings = vectors[:, order]

    scores = x @ loadings
    col_norms = np.sum(loadings * loadings, axis=0)
    contributions = 100.0 * (loadings * loadings) / col_norms
    total = eigenvalues.sum()
    explained = eigenvalues / total if total > 0 else np.zeros_like(eigenvalues)
    return PcaResult(
        eigenvalues=eigenvalues,
        loadings=loadings,
        scores=scores,
        contributions=contributions,
        explained_variance=explained,
        variables=table.columns,
        row_labels=table.row_labels,
    )


def _kmeans_pp_seed(x: np.ndarray, k: int, seed: int, n_restarts: int) -> np.ndarray:
    """k-means++ centers of every restart at once: (restarts, k, d).

    Restart ``r`` re-keys the generator to stream ``(seed, r)`` and draws
    ``integers(n)`` for its first center and then ``random(k - 1)``. Each
    later center repeats the steps of ``Generator.choice(n, p=d2 / total)``
    without its validation: normalise, ``cumsum``, divide by the last
    entry, and count the entries <= the uniform draw, which is
    ``searchsorted(side="right")`` on the non-decreasing cdf. Row sums
    over C-contiguous rows have the bits of the one-restart 1-D sums.

    A running total of squared distances reaches zero when k exceeds the
    distinct rows (or their squared distances underflow); then, and when
    it overflows, this raises ValueError.
    """
    n = len(x)
    rng = stream(seed, 0)
    first = np.empty(n_restarts, dtype=np.intp)
    uniforms = np.empty((n_restarts, k - 1))
    for restart in range(n_restarts):
        rekey(rng, seed, restart)
        first[restart] = rng.integers(n)
        rng.random(out=uniforms[restart])
    centers = np.empty((n_restarts, k, x.shape[1]))
    centers[:, 0] = x[first]
    d2 = _sq_distances(x, centers[:, :1])
    for j in range(1, k):
        total = d2.sum(axis=1)
        if not np.all((0.0 < total) & (total < np.inf)):
            n_distinct = len(set(map(tuple, x.tolist())))
            if k > n_distinct:
                raise ValueError(f"k ({k}) exceeds the {n_distinct} distinct rows of the scores")
            over = "overflow a double" if np.any(total == np.inf) else "underflow to 0"
            raise ValueError(f"squared distances between the rows of the scores {over}")
        cdf = np.cumsum(d2 / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
        idx = np.count_nonzero(cdf <= uniforms[:, j - 1, None], axis=1)
        centers[:, j] = x[idx]
        d2 = np.minimum(d2, _sq_distances(x, centers[:, j, None]))
    return centers


def _update_one(x: np.ndarray, d2: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> None:
    """One restart's assignment fix-up and centroid update, in place.

    Each empty cluster, in index order, takes the point farthest from its
    centroid; then every centroid is its members' mean.
    """
    point_d2 = d2[np.arange(len(x)), labels]
    for j in range(len(centers)):
        if not np.any(labels == j):
            idx = int(np.argmax(point_d2))
            labels[idx] = j
            point_d2[idx] = 0.0
    for j in range(len(centers)):
        centers[j] = x[labels == j].mean(axis=0)


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the broadcast rows of ``a`` and ``b``, whose last
    axes hold the same coordinates, with the bits of ``np.sum((a - b) ** 2, axis=-1)``.

    numpy adds up to ``_SEQUENTIAL_ROW_TERMS`` terms one after another, so
    adding the squared differences of whole coordinate slices in order
    gives its bits; beyond that, and for no coordinates, this is ``np.sum``.
    """
    d = a.shape[-1]
    if not 0 < d <= _SEQUENTIAL_ROW_TERMS:
        return np.sum((a - b) ** 2, axis=-1)
    total = (a[..., 0] - b[..., 0]) ** 2
    for j in range(1, d):
        total = total + (a[..., j] - b[..., j]) ** 2
    return total


def _lloyd(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations of every restart at once; ``centers`` is (R, k, d).

    A restart stops when its assignments do not change or at the iteration
    cap. A centroid is its members' sum, accumulated in point order from
    where numpy's column sums start, divided by their count: the bits of
    ``members.mean(axis=0)``. numpy sums one-column members pairwise
    instead, so one-column data and restarts with an empty cluster take
    the per-restart update.

    Returns the final (R, n) assignments and (R, n) squared distances to
    the updated centroids.
    """
    n_restarts, k, _dim = centers.shape
    n = len(x)
    labels = np.full((n_restarts, n), -1)
    previous_wcss = np.full(n_restarts, np.inf)
    active = np.arange(n_restarts)
    for _ in range(MAX_LLOYD_ITERATIONS):
        rows = np.arange(len(active))[:, None]
        current = centers[active]
        d2 = _sq_distances(x[None, :, None], current[:, None])  # (R, n, k)
        new_labels = np.argmin(d2, axis=2)  # ties go to the lowest index
        counts = np.bincount((new_labels + k * rows).ravel(), minlength=len(active) * k)
        counts = counts.reshape(len(active), k)
        one_by_one = np.any(counts == 0, axis=1) | (x.shape[1] == 1)
        for i in np.flatnonzero(one_by_one):
            _update_one(x, d2[i], new_labels[i], current[i])
        regular = np.flatnonzero(~one_by_one)
        sums = np.full((len(regular), k, x.shape[1]), _COLUMN_SUM_START)
        np.add.at(sums, (rows[: len(regular)], new_labels[regular]), x)
        current[regular] = sums / counts[regular, :, None]
        centers[active] = current
        wcss = _sq_distances(x, current[rows, new_labels]).sum(axis=1)
        previous = previous_wcss[active]
        if np.any(wcss > previous + 1e-9 * np.maximum(1.0, previous)):
            raise AssertionError("k-means WCSS increased across an iteration")
        moved = np.any(new_labels != labels[active], axis=1)
        labels[active] = new_labels
        previous_wcss[active] = wcss
        active = active[moved]
        if not len(active):
            break
    # Final assignments against the updated centroids.
    d2 = _sq_distances(x[None, :, None], centers[:, None])
    labels = np.argmin(d2, axis=2)
    return labels, np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]


def kmeans(
    scores: np.ndarray,
    k: int,
    seed: int,
    n_restarts: int = DEFAULT_RESTARTS,
) -> ClusterAssignment:
    """Best-of-``n_restarts`` k-means on the given score matrix.

    Restart ``r`` is seeded by k-means++ from stream ``(seed, r)``, drawn
    through one generator re-keyed per restart; the seeding and then the
    Lloyd iterations run for all restarts as one batch. Raises ValueError
    for non-finite scores and for k above the distinct rows.
    """
    x = np.asarray(scores, dtype=float)
    if x.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("scores contain non-finite values")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(x):
        raise ValueError(f"k ({k}) exceeds the number of rows ({len(x)})")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")

    centers = _kmeans_pp_seed(x, k, seed, n_restarts)
    labels, point_d2 = _lloyd(x, centers)
    wcss = point_d2.sum(axis=1)  # one row per restart, in point order
    best = int(np.argmin(wcss))  # ties go to the lowest restart
    return ClusterAssignment(
        labels=labels[best],
        centroids=centers[best].copy(),
        wcss=float(wcss[best]),
        k=k,
        seed=seed,
        n_restarts=n_restarts,
    )


def silhouette_score(x: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient; points in singleton clusters score 0.

    One pass builds the (n, clusters) table of each point's summed distance
    to each cluster's members, from which a (own cluster, excluding the
    point) and b (nearest other cluster) follow. Each cluster's distance
    columns are gathered C-contiguous before the row sums: a row sum over
    a C-contiguous row has the bits of the 1-D sum of that row, while a
    gather left in another order reduces in another order.
    """
    x = np.asarray(x, dtype=float)
    clusters, member_of, sizes = np.unique(
        np.asarray(labels), return_inverse=True, return_counts=True
    )
    if len(clusters) < 2:
        raise ValueError("silhouette needs >= 2 clusters")
    dist = np.sqrt(_sq_distances(x[:, None], x[None]))
    sums = np.empty((len(x), len(clusters)))
    for c in range(len(clusters)):
        sums[:, c] = np.ascontiguousarray(dist[:, member_of == c]).sum(axis=1)
    values = np.zeros(len(x))
    rows = np.flatnonzero(sizes[member_of] > 1)
    own = member_of[rows]
    a = sums[rows, own] / (sizes[own] - 1)
    other_means = sums[rows] / sizes
    other_means[np.arange(len(rows)), own] = np.inf
    b = other_means.min(axis=1)
    denom = np.maximum(a, b)
    values[rows] = np.divide(b - a, denom, out=np.zeros(len(rows)), where=denom != 0.0)
    return float(values.mean())


def choose_k(
    scores: np.ndarray,
    k_range: range | list[int],
    seed: int,
    n_restarts: int = DEFAULT_RESTARTS,
) -> int:
    """Pick the k in ``k_range`` maximizing mean silhouette (ties -> smaller k).

    Emits LowStructureWarning when even the best k clusters weakly
    (mean silhouette below ``LOW_STRUCTURE_SILHOUETTE``).
    """
    x = np.asarray(scores, dtype=float)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("empty k range")
    if ks[0] < 2 or ks[-1] > len(x) - 1:
        raise ValueError(f"k range must lie within [2, {len(x) - 1}]")

    best_k = None
    best_sil = -np.inf
    for k in ks:
        assignment = kmeans(x, k, seed=seed, n_restarts=n_restarts)
        sil = silhouette_score(x, assignment.labels)
        if sil > best_sil:
            best_k, best_sil = k, sil
    assert best_k is not None
    if best_sil < LOW_STRUCTURE_SILHOUETTE:
        warnings.warn(
            f"low cluster structure: best mean silhouette {best_sil:.3f} "
            f"< {LOW_STRUCTURE_SILHOUETTE}",
            LowStructureWarning,
            stacklevel=2,
        )
    return best_k
