"""Brownian-motion trait machinery and the D statistic for binary traits.

The D statistic measures phylogenetic signal in a binary trait by placing
an observed change score between two Monte Carlo references:

* a *random* null - the tip values shuffled across tips (prevalence fixed),
  which defines D = 1, and
* a *Brownian-motion threshold* null - a continuous trait simulated under
  BM and thresholded to the observed prevalence, which defines D = 0.

The change score ``d`` is the sum of absolute differences of weighted-mean
nodal estimates along every edge. Any consistent clumping score works here
because the two nulls normalize its scale; calibration tests pin the
behavior (BM-threshold traits score near 0, shuffled traits near 1).

Determinism contract: all randomness comes from Philox streams. Replicate
``r`` of a D computation uses stream ``(seed, r)`` and draws, in order, the
shuffle permutation, the BM innovations (one per node, the root draw
unused), and the threshold tie-break keys. Results are therefore identical
across serial and parallel execution. One generator per D computation is
re-keyed from replicate to replicate (``_rng.rekey``), which draws the same
numbers as constructing stream ``(seed, r)`` afresh.

The kernel is batched over replicates and sweeps the tree level by level,
but every value sees the IEEE operations of the naive per-node recursion:
children are accumulated in stored order and the edge sum runs in node
order. One D computation scores its observed trait and both nulls as one
stack of 2 * n_reps + 1 rows, swept ``DEFAULT_N_REPS`` rows at a time;
rows never mix, so each score has the bits of a sweep of its row alone.
The pruned tree and its sweep schedules depend only on which tips are
attested, so every class of a concept shares them.

A D computation allocates no replicate-sized array of its own. Each thread
keeps one workspace of two flat float64 buffers that grow to the largest
call seen and never shrink: the stacked rows (``2 * n_reps + 1`` by used
tips), and the node-major BM values followed by a draw block of
``_DRAW_BLOCK`` replicates, which together are then the sweeps' work array
(nodes by the larger of ``n_reps`` plus the block and the sweep width). A
thread retains the two arrays of its largest call until it ends or calls
``release_workspace``. Each replicate's BM innovations are drawn, in
stream order, into a row of the block, and each full block is copied
node-major into the BM values, so the draws keep their order. The buffers
are ordinary numpy arrays, so a forked process writes its own copy.

Zero-length branches are kept as stored; wherever a branch length is used
as an inverse weight (nodal estimates, contrasts) a zero is substituted by
``epsilon = 1e-8 * tree height`` (1e-8 absolute on a zero-height tree, which
makes the weights uniform). BM simulation uses raw lengths: a zero branch
genuinely means zero variance.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._rng import rekey, stream
from .tree import Tree, prune_to_taxa

DEFAULT_N_REPS = 1000
MIN_TIPS_FOR_D = 4
_NULL_GAP_TOL = 1e-12
# Non-root nodes per block of the edge-difference pass; bounds its one
# temporary (the block's parent estimates) at _EDGE_BLOCK rows.
_EDGE_BLOCK = 64
# Replicates per block of BM innovation draws: each block is drawn
# replicate-major and copied node-major into the BM values.
_DRAW_BLOCK = 64


@dataclass(frozen=True)
class BmParams:
    """Brownian-motion parameters: rate (variance per unit length), root, seed."""

    sigma2: float
    root_value: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not np.isfinite(self.root_value):
            raise ValueError("root value must be finite")


@dataclass(frozen=True)
class DStatResult:
    d_obs: float
    mean_d_random: float
    mean_d_bm: float
    D: float
    p_random: float
    p_bm: float
    n_reps: int
    n_tips_used: int


class ReplicateMemoryError(MemoryError):
    """A D computation's replicate arrays do not fit in memory (too many reps)."""


class _Workspace(threading.local):
    """Named flat float64 buffers, one set per thread, reused by every D call.

    A buffer grows to the largest request seen and never shrinks. A grow
    drops the old buffer before it allocates, so the two never coexist and
    a failed grow leaves no buffer, which the next request allocates anew.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        """A C-contiguous ``shape`` view of the head of buffer ``name``."""
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            self.buffers.pop(name, None)
            try:
                buf = self.buffers[name] = np.empty(size)
            except (MemoryError, ValueError) as exc:  # ValueError: beyond the address space
                raise ReplicateMemoryError(f"replicate arrays: {exc}") from exc
        return buf[:size].reshape(shape)


_WORKSPACE = _Workspace()


def release_workspace() -> None:
    """Free this thread's D-call buffers; the next D call allocates them anew."""
    _WORKSPACE.buffers.clear()


def _sweep_width(n_rows: int) -> int:
    """Rows per chunk when ``_d_sum_rows`` sweeps ``n_rows`` rows."""
    return min(n_rows, DEFAULT_N_REPS)


def _epsilon(tree: Tree) -> float:
    return 1e-8 * tree.height if tree.height > 0 else 1e-8


class _Sweeps:
    """Inverse-length weights and the sweep schedules of one tree.

    ``up`` follows ``tree.height_levels``: per level, its nodes, their
    weight totals, and per child slot ``k`` the k-th children, their
    weights and the positions of the level's nodes that have a k-th child.
    Weight totals accumulate over children in stored order, so a naive
    recursion reproduces them bit for bit. ``edges`` splits the non-root
    nodes into runs of at most ``_EDGE_BLOCK`` consecutive indices, each
    with its nodes' parents.
    """

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        lengths = tree.lengths[:-1]
        w = np.zeros(tree.n_nodes)
        w[:-1] = 1.0 / np.where(lengths != 0.0, lengths, _epsilon(tree))
        weights = w.tolist()
        self.up = []
        for nodes in tree.height_levels:
            kid_lists = [tree.children[i] for i in nodes.tolist()]
            totals = []
            for kids in kid_lists:
                total = 0.0
                for c in kids:
                    total += weights[c]
                totals.append(total)
            slots = []
            for k in range(max(map(len, kid_lists))):
                has = [j for j, kids in enumerate(kid_lists) if len(kids) > k]
                kth = np.array([kid_lists[j][k] for j in has])
                where = slice(None) if len(has) == len(nodes) else np.array(has)
                slots.append((kth, w[kth, None], where))
            self.up.append((nodes, np.array(totals)[:, None], slots))
        self.edges = []
        for start in range(0, tree.n_nodes - 1, _EDGE_BLOCK):
            block = slice(start, min(start + _EDGE_BLOCK, tree.n_nodes - 1))
            self.edges.append((block, tree.parents[block]))


@lru_cache(maxsize=1)
def _pruned_sweeps(tree: Tree, mask: bytes) -> _Sweeps:
    """The tree pruned to the tips where ``mask`` (one byte per tip) is 1, with its sweeps.

    A concept's classes share the mask, so they share one pruning; the key
    is the mask's bytes, which hash and compare in C.
    """
    keep = {lab for lab, kept in zip(tree.tip_labels, mask) if kept}
    return _Sweeps(prune_to_taxa(tree, keep))


def _nodal_estimates_batch(
    sweeps: _Sweeps, tip_values: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Weighted-mean nodal estimates for a batch of tip-value vectors.

    ``tip_values`` has shape (batch, n_tips) in ``tree.tip_indices`` order;
    the result has shape (n_nodes, batch) with tips carrying their inputs,
    written to ``out`` if given. Each node accumulates
    ``w[child] * est[child]`` over its children in stored order,
    sequentially, as a naive recursion does.
    """
    tree = sweeps.tree
    est = np.empty((tree.n_nodes, tip_values.shape[0])) if out is None else out
    est[tree.tip_indices] = tip_values.T
    for nodes, totals, ((kids, w, _), *rest) in sweeps.up:
        acc = w * est[kids]
        for kids, w, where in rest:
            acc[where] += w * est[kids]
        acc /= totals
        est[nodes] = acc
    return est


def _d_sum_batch(
    sweeps: _Sweeps, centered: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Change score for each row of ``centered``: sum of |edge differences|.

    Each row is a 0/1 trait centered to +-0.5 (``trait - 0.5``, exact).
    That leaves every |child - parent| difference unchanged in exact
    arithmetic, and makes trait complementation a pure sign flip - exact in
    IEEE floating point - so d_sum(v) == d_sum(1 - v) holds bitwise, not
    just approximately.
    The edge differences replace the estimates in node order, one block of
    ``sweeps.edges`` at a time. Every parent has a larger index than its
    children, and a block gathers its parents' estimates before it writes,
    so each estimate is read before it is overwritten. ``out`` is an
    optional (n_nodes, batch) work array. Edges are summed sequentially in
    node order.
    """
    est = _nodal_estimates_batch(sweeps, centered, out)
    for block, parents in sweeps.edges:
        edges = est[block]
        np.subtract(edges, est[parents], out=edges)
        np.abs(edges, out=edges)
    return _sum_rows(est[:-1])


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Column sums of a C-contiguous 2-D array, adding the rows in order.

    Reducing over axis 0 adds whole rows one after another, but a single
    column is the fast axis, which numpy sums pairwise; an accumulate is
    sequential in every shape.
    """
    if x.shape[1] == 1:
        return np.add.accumulate(x, axis=0)[-1]
    return np.add.reduce(x, axis=0)


def _d_sum_rows(sweeps: _Sweeps, rows: np.ndarray) -> np.ndarray:
    """``_d_sum_batch`` of every row of ``rows``, swept ``DEFAULT_N_REPS`` rows at a time.

    Columns of a sweep never mix and ``_sum_rows`` adds each column's
    edges in node order whatever the chunk width, so every score has the
    same bits as a sweep of its row alone. Each chunk's (n_nodes, width)
    work array is the head of the thread's ``values`` buffer.
    """
    n_nodes = sweeps.tree.n_nodes
    width = _sweep_width(len(rows))
    scores = np.empty(len(rows))
    for start in range(0, len(rows), width):
        chunk = rows[start : start + width]
        out = _WORKSPACE.take("values", n_nodes, len(chunk))
        scores[start : start + len(chunk)] = _d_sum_batch(sweeps, chunk, out)
    return scores


def _bm_sweep(tree: Tree, values: np.ndarray, sd: np.ndarray, root_value: float) -> None:
    """Turn an (n_nodes, batch) array of innovations into BM node values, in place.

    Node ``i`` takes its parent's value plus ``sd[i]`` times innovation
    ``i``; the root takes ``root_value`` and its innovation is unused.
    """
    values[tree.root] = root_value
    for nodes, parents in tree.depth_levels:
        values[nodes] = values[parents] + sd[nodes, None] * values[nodes]


def simulate_bm(tree: Tree, params: BmParams) -> np.ndarray:
    """Simulate Brownian motion on the tree; one value per node.

    The root takes ``params.root_value``; every other node adds a Gaussian
    innovation with variance ``sigma2 * branch length`` to its parent's
    value. Node ``i`` consumes innovation ``i`` of a single vector drawn
    from stream ``(seed, 0)``, so output is a pure function of the seed and
    the node numbering.
    """
    values = stream(params.seed, 0).standard_normal((tree.n_nodes, 1))
    _bm_sweep(tree, values, np.sqrt(params.sigma2 * tree.lengths), params.root_value)
    return values[:, 0]


def nodal_estimates(tree: Tree, tip_values: np.ndarray) -> np.ndarray:
    """Ancestral state estimates: bottom-up weighted means of child values.

    ``tip_values`` aligns with ``tree.tip_indices`` (= left-to-right tip
    order of the source Newick). Returns one value per node; tips carry
    their inputs, each internal node the 1/branch-length-weighted mean of
    its children. Every estimate lies within [min(tips), max(tips)].
    """
    tip_values = np.asarray(tip_values, dtype=float)
    if tip_values.shape != (tree.n_tips,):
        raise ValueError(f"expected {tree.n_tips} tip values, got {tip_values.shape}")
    if not np.all(np.isfinite(tip_values)):
        raise ValueError("tip values must be finite")
    return _nodal_estimates_batch(_Sweeps(tree), tip_values[None, :])[:, 0]


def d_sum(tree: Tree, tip_values: np.ndarray) -> float:
    """Observed change score for a binary trait: sum of |child - parent| estimates."""
    tip_values = np.asarray(tip_values, dtype=float)
    if not np.all((tip_values == 0) | (tip_values == 1)):
        raise ValueError("tip values must be coded 0/1")
    if tip_values.min() == tip_values.max():
        raise ValueError("constant trait: d_sum undefined")
    return float(_d_sum_batch(_Sweeps(tree), tip_values[None, :] - 0.5)[0])


def _resolve_polytomies(tree: Tree, seed: int) -> Tree:
    """Randomly resolve multifurcations into binary nodes with 0-length branches."""
    from .tree import _flatten, _PNode  # deferred: shares the builder

    rng = stream(seed, 0)
    nodes: dict[int, _PNode] = {}
    for i in tree.postorder():
        kids = [nodes[c] for c in tree.children[i]]
        while len(kids) > 2:
            first, second = sorted(rng.choice(len(kids), size=2, replace=False))
            merged = _PNode(None, 0.0, [kids[first], kids[second]], False)
            kids = [k for j, k in enumerate(kids) if j not in (first, second)]
            kids.append(merged)
        nodes[i] = _PNode(tree.labels[i], float(tree.lengths[i]), kids, False)
    return _flatten(nodes[tree.root])


def estimate_sigma2(tree: Tree, tip_values: np.ndarray, seed: int = 0) -> float:
    """BM rate estimate: mean of squared standardized independent contrasts.

    Polytomies are first resolved at random (stream ``(seed, 0)``) with
    zero-length inserted branches, which the epsilon rule then handles.
    Raises on a constant trait ("zero variance").
    """
    tip_values = np.asarray(tip_values, dtype=float)
    if tip_values.shape != (tree.n_tips,):
        raise ValueError(f"expected {tree.n_tips} tip values, got {tip_values.shape}")
    if tree.n_tips < 2:
        raise ValueError("need >= 2 tips to estimate a rate")
    if np.ptp(tip_values) == 0:
        raise ValueError("zero variance: all tip values equal")

    if any(len(tree.children[i]) > 2 for i in tree.postorder()):
        tree = _resolve_polytomies(tree, seed)
    eps = _epsilon(tree)

    # Felsenstein contrasts: values and rate-scaled edge lengths percolate up.
    value = np.zeros(tree.n_nodes)
    value[tree.tip_indices] = tip_values
    adj_len = np.array(
        [length if length != 0.0 else eps for length in map(float, tree.lengths)]
    )
    contrasts: list[float] = []
    for i in tree.postorder():
        kids = tree.children[i]
        if not kids:
            continue
        if len(kids) == 1:  # unary chain (pruned root): pass through
            (c,) = kids
            value[i] = value[c]
            adj_len[i] += adj_len[c]
            continue
        a, b = kids
        va, vb = adj_len[a], adj_len[b]
        contrasts.append((value[a] - value[b]) / np.sqrt(va + vb))
        value[i] = (value[a] / va + value[b] / vb) / (1.0 / va + 1.0 / vb)
        adj_len[i] += va * vb / (va + vb)

    estimate = float(np.mean(np.square(contrasts)))
    if estimate == 0.0:
        raise ValueError("zero variance: all contrasts are zero")
    return estimate


def threshold_at_prevalence(values: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Binarize ``values``: the m largest become 1, ties at the cut broken at random."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if not 1 <= m < n:
        raise ValueError(f"m out of range: need 1 <= m < {n}, got {m}")
    tie_keys = stream(seed, 0).random(n)
    return _threshold_rows(values[None, :], m, lambda _: tie_keys)[0].astype(np.int8)


def _threshold_rows(
    values: np.ndarray, m: int, tie_keys: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Per row, True for the m largest values; ties at the cut go to the smaller key.

    The cut is the row's m-th largest value. A row with exactly m values at
    or above it needs no tie-break; any other row ``r`` is ordered by
    descending value, then by ``tie_keys(r)``, which is only called for
    such rows.
    """
    n = values.shape[1]
    out = values >= np.partition(values, n - m, axis=1)[:, n - m, None]
    for r in np.flatnonzero(np.count_nonzero(out, axis=1) != m).tolist():
        order = np.lexsort((tie_keys(r), -values[r]))
        out[r] = False
        out[r, order[:m]] = True
    return out


def d_statistic(
    tree: Tree,
    presence: np.ndarray,
    mask: np.ndarray,
    n_reps: int = DEFAULT_N_REPS,
    *,
    seed: int,
) -> DStatResult:
    """D statistic for one binary trait, with shuffle and BM-threshold nulls.

    ``presence`` and ``mask`` align with ``tree.tip_labels``. Tips with
    ``mask == 0`` are missing data and are pruned before anything else is
    computed. D = (d_obs - mean d_BM) / (mean d_random - mean d_BM), so a
    trait as clumped as Brownian motion scores ~0 and a phylogenetically
    random trait ~1. ``p_random`` is the fraction of shuffle-null scores
    <= d_obs, ``p_bm`` the fraction of BM-null scores >= d_obs.
    """
    presence = np.asarray(presence).astype(np.int8)
    mask = np.asarray(mask).astype(bool)
    if presence.shape != (tree.n_tips,) or mask.shape != (tree.n_tips,):
        raise ValueError("presence and mask must align with the tree tips")
    if np.any(presence[~mask] != 0):
        raise ValueError("presence must be 0 where the attested mask is 0")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")

    n_used = int(np.count_nonzero(mask))
    if n_used < MIN_TIPS_FOR_D:
        raise ValueError(f"fewer than {MIN_TIPS_FOR_D} usable tips (got {n_used})")
    sweeps = _pruned_sweeps(tree, mask.tobytes())
    pruned = sweeps.tree
    # The pruned tree keeps the used tips in their order in ``tree``.
    trait = presence[mask]
    m = int(trait.sum())
    if m == 0 or m == n_used:
        raise ValueError("no variation in trait")

    # One stacked row per score, centered as _d_sum_batch takes it: the
    # observed trait, then the shuffle null's replicates, then the BM null's.
    n_rows = 2 * n_reps + 1
    n_nodes = pruned.n_nodes
    rows = _WORKSPACE.take("rows", n_rows, n_used)
    rows[: n_reps + 1] = trait - 0.5
    # The BM values, node-major, then the draw block; once both are spent,
    # the buffer is the sweeps' work array, so it is sized for either use.
    n_block = min(_DRAW_BLOCK, n_reps)
    buf = _WORKSPACE.take("values", n_nodes * max(n_reps + n_block, _sweep_width(n_rows)))
    values = buf[: n_nodes * n_reps].reshape(n_nodes, n_reps)
    block = buf[n_nodes * n_reps : n_nodes * (n_reps + n_block)].reshape(n_block, n_nodes)
    g = stream(seed, 0)
    for start in range(0, n_reps, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, n_reps)
        for r in range(start, stop):
            if r:
                rekey(g, seed, r)
            g.shuffle(rows[1 + r])  # the same draws as trait[g.permutation(n_used)]
            g.standard_normal(out=block[r - start])
        values[:, start:stop] = block[: stop - start].T

    def tie_keys(r: int) -> np.ndarray:
        # The keys come last in replicate r's stream, so they are drawn only
        # for the rare rows that tie at the cut (zero-length branches).
        rekey(g, seed, r)
        g.permutation(n_used)
        g.standard_normal(n_nodes)
        return g.random(n_used)

    # BM null: sigma2 = 1, root 0 (scale-free), swept node-major. Its tip
    # values are gathered, tip-major, into the BM half of ``rows``, which is
    # overwritten by the thresholded traits only once all of them are known.
    # The indices are in range; mode="clip" makes np.take write to ``out``
    # directly, where the default mode gathers into a copy first.
    _bm_sweep(pruned, values, np.sqrt(pruned.lengths), 0.0)
    bm_rows = rows[n_reps + 1 :]
    tips = bm_rows.reshape(n_used, n_reps)
    np.take(values, pruned.tip_indices, axis=0, mode="clip", out=tips)
    np.subtract(_threshold_rows(tips.T, m, tie_keys), 0.5, out=bm_rows)
    scores = _d_sum_rows(sweeps, rows)
    d_obs = float(scores[0])
    d_random, d_bm = scores[1 : n_reps + 1], scores[n_reps + 1 :]
    mean_random = float(d_random.mean())
    mean_bm = float(d_bm.mean())
    if abs(mean_random - mean_bm) < _NULL_GAP_TOL:
        raise ValueError("nulls indistinguishable: mean random and BM scores coincide")

    return DStatResult(
        d_obs=d_obs,
        mean_d_random=mean_random,
        mean_d_bm=mean_bm,
        D=(d_obs - mean_bm) / (mean_random - mean_bm),
        p_random=float(np.mean(d_random <= d_obs)),
        p_bm=float(np.mean(d_bm >= d_obs)),
        n_reps=n_reps,
        n_tips_used=n_used,
    )
