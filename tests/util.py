"""Shared fixtures-by-construction and independent oracle implementations.

The oracles here deliberately avoid the package's vectorized code paths:
they are dict-based recursions over the tree structure, kept in lockstep
with the documented arithmetic (same child order, same sequential
accumulation, same epsilon policy), pruning through a nested rebuild,
k-means one restart at a time, and the silhouette one point at a time, so
that equality can be asserted bitwise, not just within a tolerance.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from lexiphylo._rng import stream
from lexiphylo.cognates import binary_traits
from lexiphylo.comparative import DStatResult
from lexiphylo.metrics import compute_metrics, plan
from lexiphylo.multivariate import MAX_LLOYD_ITERATIONS, ClusterAssignment
from lexiphylo.tree import Tree, TreeError


def binary_trait(matrix, concept: str, cognate_class: str, taxa):
    """One class's row of ``binary_traits`` over ``taxa``, and the concept's mask."""
    presence, mask = binary_traits(matrix, concept, [cognate_class], taxa)
    return presence[0], mask


def concept_metrics(matrix, tree: Tree, concept: str, config):
    """``compute_metrics`` for ``concept``, from the metrics stage's plan."""
    planned = next(p for p in plan(matrix, tree, config)[0] if p.concept == concept)
    return compute_metrics(tree, planned, config.n_reps)


def balanced_newick(depth: int, branch: float = 1.0, prefix: str = "T") -> str:
    """A balanced binary tree with 2**depth tips and unit-ish branches."""
    counter = iter(range(2**depth))

    def rec(d: int) -> str:
        if d == 0:
            return f"{prefix}{next(counter):03d}:{branch}"
        return f"({rec(d - 1)},{rec(d - 1)}):{branch}"

    return rec(depth) + ";"


def caterpillar_newick(n_tips: int, branch: float = 1.0) -> str:
    inner = f"T{n_tips - 1:03d}:{branch}"
    for i in range(n_tips - 2, -1, -1):
        inner = f"(T{i:03d}:{branch},{inner}):{branch}"
    # The outermost parenthetical is the root; drop its trailing length.
    return inner.rsplit(":", 1)[0] + ";"


def benchmark_corpus_newick() -> str:
    """The 400-tip tree of the benchmark's generated corpus (perfbench/corpus.py, seed 0)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(0, 400, 24)[0]


# Small trees (<= 8 tips) for oracle-equivalence checks; one polytomy,
# one caterpillar, uneven branch lengths, and a zero-length branch.
SMALL_TREE_NEWICKS = [
    "(A:1,B:2);",
    "(A:1,(B:0.5,C:2.5):1);",
    "((A:1,B:1):1,(C:1,D:1):1);",
    "(A:1,B:1,C:1,D:1);",  # polytomy at the root
    "((A:0.1,B:0.2):0.5,(C:0.3,(D:0.2,E:0.9):0.4):0.6);",
    "(A:1,(B:1,(C:1,(D:1,E:1):1):1):1);",
    "((A:2,B:0):1,((C:1,D:1,E:1):0.5,F:3):1);",  # zero branch + polytomy
    "(((A:1,B:1):1,(C:1,D:1):1):1,((E:1,F:1):1,(G:1,H:1):1):1);",
]


# Zero-length sibling tips (A/B, C/D, E/F/G) get equal BM values, so the
# threshold often ties at the cut and needs its tie-break keys.
TIE_TREE = "(((A:0,B:0):1,(C:0,D:0):1):1,((E:0,F:0,G:0):1,(H:1,I:0.5):1):1,J:2);"


# -- naive oracles -----------------------------------------------------------


def oracle_prune_to_taxa(tree: Tree, keep: set[str] | frozenset[str]) -> Tree:
    """Induce the subtree on ``keep`` through nested nodes, as first implemented.

    Unary internal nodes created by the pruning are suppressed and their
    branch lengths summed. The root is never suppressed, even if it ends up
    with a single child: dropping it would shorten every root-to-tip path.
    """
    keep = set(keep)
    known = set(tree.tip_labels)
    unknown = keep - known
    if unknown:
        raise TreeError(f"unknown tip label: {sorted(unknown)[0]!r}")
    if len(keep) < 2:
        raise TreeError(f"need >= 2 taxa, got {len(keep)}")

    # A nested node is [label, length, children]; None is a pruned-away subtree.
    built: dict[int, list | None] = {}
    for i in tree.postorder():
        if tree.is_tip(i):
            if tree.labels[i] in keep:
                built[i] = [tree.labels[i], float(tree.lengths[i]), []]
            else:
                built[i] = None
            continue
        kids = [built[c] for c in tree.children[i] if built[c] is not None]
        if not kids:
            built[i] = None
        elif len(kids) == 1 and i != tree.root:
            # Splice out the unary node; child edge absorbs this edge.
            kids[0][1] += float(tree.lengths[i])
            built[i] = kids[0]
        else:
            built[i] = [tree.labels[i], float(tree.lengths[i]), kids]

    root = built[tree.root]
    assert root is not None
    return _number_in_postorder(root)


def _number_in_postorder(root: list) -> Tree:
    """Number nested ``[label, length, children]`` nodes children first, left
    to right, and build the Tree of that numbering."""
    parents: list[int] = []
    lengths: list[float] = []
    labels: list[str | None] = []

    def number(node: list) -> int:
        label, length, children = node
        kids = [number(child) for child in children]
        index = len(parents)
        parents.append(-1)
        lengths.append(length)
        labels.append(label)
        for kid in kids:
            parents[kid] = index
        return index

    number(root)
    return Tree(np.array(parents, dtype=np.intp), np.array(lengths), tuple(labels))


def oracle_root_distances(tree: Tree) -> dict[int, float]:
    dist: dict[int, float] = {}

    def walk(node: int, acc: float) -> None:
        dist[node] = acc
        for child in tree.children[node]:
            walk(child, acc + float(tree.lengths[child]))

    walk(tree.root, 0.0)
    return dist


def oracle_epsilon(tree: Tree) -> float:
    dist = oracle_root_distances(tree)
    height = max(dist[int(i)] for i in tree.tip_indices)
    return 1e-8 * height if height > 0 else 1e-8


def oracle_nodal_estimates(tree: Tree, tip_values) -> dict[int, float]:
    """Recursive weighted-mean estimates, children in stored order."""
    eps = oracle_epsilon(tree)
    values = {int(i): float(v) for i, v in zip(tree.tip_indices, tip_values)}
    est: dict[int, float] = {}

    def weight(node: int) -> float:
        length = float(tree.lengths[node])
        return 1.0 / (length if length != 0.0 else eps)

    def visit(node: int) -> float:
        if not tree.children[node]:
            est[node] = values[node]
            return est[node]
        kids = tree.children[node]
        acc = weight(kids[0]) * visit(kids[0])
        total = weight(kids[0])
        for child in kids[1:]:
            acc += weight(child) * visit(child)
            total += weight(child)
        est[node] = acc / total
        return est[node]

    visit(tree.root)
    return est


def oracle_d_sum(tree: Tree, tip_values) -> float:
    """Sum of |child - parent| estimates over tips centered to +-0.5,
    accumulated in postorder (mirrors the documented d_sum arithmetic)."""
    est = oracle_nodal_estimates(tree, np.asarray(tip_values, dtype=float) - 0.5)
    total = 0.0

    def visit(node: int) -> None:
        nonlocal total
        for child in tree.children[node]:
            visit(child)
        if node != tree.root:
            total += abs(est[node] - est[int(tree.parents[node])])

    visit(tree.root)
    return total


def oracle_d_scores(tree: Tree, presence, mask, n_reps: int, seed: int) -> np.ndarray:
    """Every change score of a D computation, one replicate at a time, as first implemented.

    Returns the observed score, then each shuffle-null replicate's, then
    each BM-null replicate's. Replicate r builds stream ``(seed, r)`` and
    draws the shuffle permutation, the BM innovations and the tie-break
    keys; BM runs node by node from the root; the threshold lexsorts each
    replicate on (value descending, tie key); every change score is the
    recursive ``oracle_d_sum``.
    """
    mask = np.asarray(mask).astype(bool)
    pruned = oracle_prune_to_taxa(
        tree, {lab for lab, keep in zip(tree.tip_labels, mask) if keep}
    )
    by_label = dict(zip(tree.tip_labels, np.asarray(presence, dtype=float)))
    trait = np.array([by_label[lab] for lab in pruned.tip_labels])
    n, m = len(trait), int(trait.sum())
    sd = np.sqrt(pruned.lengths)
    d_random, d_bm = np.empty(n_reps), np.empty(n_reps)
    for r in range(n_reps):
        g = stream(seed, r)
        shuffled = trait[g.permutation(n)]
        z = g.standard_normal(pruned.n_nodes)
        ties = g.random(n)
        values = np.empty(pruned.n_nodes)
        values[pruned.root] = 0.0
        for i in range(pruned.n_nodes - 2, -1, -1):
            values[i] = values[pruned.parents[i]] + sd[i] * z[i]
        bm = np.zeros(n)
        bm[np.lexsort((ties, -values[pruned.tip_indices]))[:m]] = 1.0
        d_random[r] = oracle_d_sum(pruned, shuffled)
        d_bm[r] = oracle_d_sum(pruned, bm)
    return np.concatenate([[oracle_d_sum(pruned, trait)], d_random, d_bm])


def oracle_d_from_scores(scores: np.ndarray, n_reps: int, n_tips_used: int) -> DStatResult:
    """The D statistic from ``oracle_d_scores``; raises ValueError where the nulls coincide."""
    d_obs, d_random, d_bm = float(scores[0]), scores[1 : n_reps + 1], scores[n_reps + 1 :]
    mean_random, mean_bm = float(d_random.mean()), float(d_bm.mean())
    if abs(mean_random - mean_bm) < 1e-12:
        raise ValueError("nulls indistinguishable: mean random and BM scores coincide")
    return DStatResult(
        d_obs=d_obs,
        mean_d_random=mean_random,
        mean_d_bm=mean_bm,
        D=(d_obs - mean_bm) / (mean_random - mean_bm),
        p_random=float(np.mean(d_random <= d_obs)),
        p_bm=float(np.mean(d_bm >= d_obs)),
        n_reps=n_reps,
        n_tips_used=n_tips_used,
    )


def _oracle_kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def oracle_kmeans_pp_seeds(x: np.ndarray, k: int, seed: int, n_restarts: int) -> np.ndarray:
    """Every restart's k-means++ centers, one restart at a time: (restarts, k, d)."""
    return np.stack(
        [_oracle_kmeans_pp_init(x, k, stream(seed, restart)) for restart in range(n_restarts)]
    )


def oracle_lloyd(
    x: np.ndarray, centers: np.ndarray, k: int, on_rehome=None
) -> tuple[np.ndarray, np.ndarray, float]:
    """One restart's Lloyd iterations, as first implemented.

    ``on_rehome`` (if given) is called each time an empty cluster is re-homed.
    """
    labels = np.full(len(x), -1)
    previous_wcss = np.inf
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)  # ties go to the lowest index
        # Re-home any empty cluster to the point farthest from its centroid.
        point_d2 = d2[np.arange(len(x)), new_labels]
        for j in range(k):
            if not np.any(new_labels == j):
                if on_rehome is not None:
                    on_rehome()
                idx = int(np.argmax(point_d2))
                new_labels[idx] = j
                point_d2[idx] = 0.0
        wcss = 0.0
        for j in range(k):
            members = x[new_labels == j]
            centers[j] = members.mean(axis=0)
            wcss += float(np.sum((members - centers[j]) ** 2))
        if wcss > previous_wcss + 1e-9 * max(1.0, previous_wcss):
            raise AssertionError("k-means WCSS increased across an iteration")
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        previous_wcss = wcss
    # Final WCSS against the updated centroids.
    d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    wcss = float(np.sum(d2[np.arange(len(x)), labels]))
    return labels, centers, wcss


def oracle_kmeans(
    scores, k: int, seed: int, n_restarts: int = 25, on_rehome=None
) -> ClusterAssignment:
    """Best-of-restarts k-means one restart at a time, as first implemented.

    Restart r builds stream ``(seed, r)``, seeds by k-means++ and runs its
    own Lloyd loop; the first restart with the lowest WCSS wins.
    """
    x = np.asarray(scores, dtype=float)
    best: tuple[float, int, np.ndarray, np.ndarray] | None = None
    for restart in range(n_restarts):
        rng = stream(seed, restart)
        centers = _oracle_kmeans_pp_init(x, k, rng)
        labels, centers, wcss = oracle_lloyd(x, centers.copy(), k, on_rehome)
        if best is None or wcss < best[0]:
            best = (wcss, restart, labels, centers)
    assert best is not None
    wcss, _restart, labels, centers = best
    return ClusterAssignment(
        labels=labels, centroids=centers, wcss=wcss, k=k, seed=seed, n_restarts=n_restarts
    )


def oracle_silhouette(x: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient; points in singleton clusters score 0."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    clusters = np.unique(labels)
    if len(clusters) < 2:
        raise ValueError("silhouette needs >= 2 clusters")
    dist = np.sqrt(np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2))
    values = np.zeros(len(x))
    for i in range(len(x)):
        own = labels == labels[i]
        n_own = int(own.sum())
        if n_own <= 1:
            continue
        a = dist[i, own].sum() / (n_own - 1)
        b = min(
            float(dist[i, labels == other].mean())
            for other in clusters
            if other != labels[i]
        )
        denom = max(a, b)
        values[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(values.mean())


def all_binary_traits(n: int):
    """Every non-constant 0/1 vector of length n."""
    for bits in range(1, 2**n - 1):
        yield np.array([(bits >> i) & 1 for i in range(n)], dtype=float)


def sample_binary_traits(n: int, count: int, seed: int):
    """Non-constant random 0/1 vectors."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        trait = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        if 0 < trait.sum() < n:
            produced += 1
            yield trait
