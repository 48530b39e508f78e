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
``r`` of a trait's D computation uses stream ``(seed, r)``, with the
trait's own seed, and draws, in order, the shuffle permutation, the BM
innovations (one per node, the root draw unused), and the threshold
tie-break keys. Results are therefore identical across serial and parallel
execution, and across however traits are stacked. One generator per D call
is re-keyed from replicate to replicate and from trait to trait
(``_rng.rekey``), which draws the same numbers as constructing stream
``(seed, r)`` afresh.

A D call scores a stack of traits that share one attested mask (all the
classes of a concept), so the pruned tree, its sweep schedules and the
generator are built once per call. The kernel is batched over traits and
replicates and sweeps the tree level by level, but every value sees the
IEEE operations of the naive per-node recursion: children are accumulated
in stored order and the edge sum runs in node order. Each trait's observed
score and its two nulls are 2 * n_reps + 1 stacked rows, and the rows of
several traits share one BM sweep and one change-score sweep, each trait
thresholded at its own prevalence. Rows never mix, so each score has the
bits of a sweep of its row alone. Traits are stacked while their rows fit
in ``_STACK_ROWS``, which bounds the workspace: from 32 reps up a stack
holds one trait, so at the paper's 1000 reps each trait is swept alone,
``DEFAULT_N_REPS`` rows at a time.

A D call allocates no replicate-sized array of its own. Each thread keeps
one workspace of three flat float64 buffers that grow and never shrink:
the stacked rows (by used tips); the node-major BM values followed by a
draw block of ``_DRAW_BLOCK`` replicates, which once spent hold the
threshold and then are the sweeps' work array (nodes by stacked rows); and
two blocks of ``_NODE_BLOCK`` gathered rows for the level sweeps. A
stacked call grows them for a full stack on the unpruned tree, so a run
reaches its workspace at its first concept instead of in steps. A thread
retains its buffers until it ends or calls ``release_workspace``. Each
replicate's BM innovations are drawn, in stream order, into a row of the
block, and each full block is copied node-major into the BM values, so the
draws keep their order. The buffers are ordinary numpy arrays, so a
forked process writes its own copy.

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
from typing import Callable, Sequence

import numpy as np

from ._rng import rekey, stream
from .tree import Tree, prune_to_taxa

DEFAULT_N_REPS = 1000
MIN_TIPS_FOR_D = 4
_NULL_GAP_TOL = 1e-12
# Most nodes per block of a sweep: a level of the tree, or the non-root
# nodes of the edge-difference pass, is swept in blocks of at most this
# many nodes, which bounds each block's gathers at _NODE_BLOCK rows.
_NODE_BLOCK = 64
# Replicates per block of BM innovation draws: each block is drawn
# replicate-major and copied node-major into the BM values.
_DRAW_BLOCK = 64
# Most rows in one stack of a D call: its traits are swept together while
# their 2 * n_reps + 1 rows each fit (6 traits at 10 reps), and a trait with
# more rows is swept alone. Stacking more saves ever less sweep overhead,
# while the workspace grows by about (tips + nodes) floats per row.
_STACK_ROWS = 128


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

    def take(self, name: str, *shape: int, reserve: int = 0) -> np.ndarray:
        """A C-contiguous ``shape`` view of the head of buffer ``name``.

        A buffer that must grow grows to at least ``reserve`` elements.
        """
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            self.buffers.pop(name, None)
            try:
                buf = self.buffers[name] = np.empty(max(size, reserve))
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

    ``up`` follows ``tree.height_levels``, each level cut into blocks of at
    most ``_NODE_BLOCK`` nodes: per block, its nodes, their weight totals,
    and per child slot ``k`` the k-th children, their weights and the
    positions of the block's nodes that have a k-th child. Weight totals
    accumulate over children in stored order, so a naive recursion
    reproduces them bit for bit. ``down`` follows ``tree.depth_levels`` in
    blocks likewise: per block, its nodes and their parents. ``sd`` is each
    node's standard deviation (the square root of its length) for a BM
    sweep at rate 1, as an (n_nodes, 1) column. ``edges`` splits the
    non-root nodes into runs of at most ``_NODE_BLOCK`` consecutive
    indices, each with its nodes' parents.
    """

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        lengths = tree.lengths[:-1]
        w = np.zeros(tree.n_nodes)
        w[:-1] = 1.0 / np.where(lengths != 0.0, lengths, _epsilon(tree))
        flat, counts, starts = tree.child_table
        # The internal nodes block after block, so each slot is gathered for
        # all blocks at once and then split by block.
        blocks = _blocks(tree.height_levels)
        sizes = [len(nodes) for nodes in blocks]
        bounds = np.cumsum(sizes)
        internal = np.concatenate([np.empty(0, np.intp), *blocks])
        n_kids = counts[internal]
        slots: list[list] = [[] for _ in blocks]
        for k in range(int(n_kids.max(initial=0))):
            has = n_kids > k
            kth = flat[starts[internal[has]] + k]
            weights = w[kth, None]
            if k:
                totals[has] += weights
            else:
                totals = weights.copy()
            n_has = np.cumsum(has)[bounds - 1].tolist()
            for j, (lo, hi) in enumerate(zip([0, *n_has[:-1]], n_has)):
                if lo == hi:
                    continue
                where = (
                    slice(None) if hi - lo == sizes[j]
                    else np.flatnonzero(has[bounds[j] - sizes[j] : bounds[j]])
                )
                slots[j].append((kth[lo:hi], weights[lo:hi], where))
        lows = (bounds - sizes).tolist()
        self.up = [
            (nodes, totals[lo:hi], block_slots)
            for nodes, lo, hi, block_slots in zip(blocks, lows, bounds.tolist(), slots)
        ]
        self.down = [
            (nodes, tree.parents[nodes])
            for nodes in _blocks(nodes for nodes, _ in tree.depth_levels)
        ]
        self.sd = np.sqrt(tree.lengths)[:, None]
        self.edges = []
        for start in range(0, tree.n_nodes - 1, _NODE_BLOCK):
            block = slice(start, min(start + _NODE_BLOCK, tree.n_nodes - 1))
            self.edges.append((block, tree.parents[block]))


def _blocks(levels) -> list[np.ndarray]:
    """Each level's nodes cut into blocks of at most ``_NODE_BLOCK``, in order."""
    return [
        nodes[start : start + _NODE_BLOCK]
        for nodes in levels
        for start in range(0, len(nodes), _NODE_BLOCK)
    ]


def _scratch(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Two flat buffers of ``_NODE_BLOCK * width`` floats for one block's gathers.

    They are the thread's ``level`` buffer, so a sweep allocates no
    per-block array that grows with the number of nodes or rows.
    """
    size = _NODE_BLOCK * width
    buf = _WORKSPACE.take("level", 2 * size)
    return buf[:size], buf[size : 2 * size]


def _gather(est: np.ndarray, index: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``est[index]``, written into the head of flat ``buf``."""
    out = buf[: len(index) * est.shape[1]].reshape(len(index), est.shape[1])
    # The indices are in range; mode="clip" makes np.take write to ``out``
    # directly, where the default mode gathers into a copy first.
    return est.take(index, axis=0, out=out, mode="clip")


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
    acc_buf, term_buf = _scratch(est.shape[1])
    for nodes, totals, ((kids, w, _), *rest) in sweeps.up:
        acc = _gather(est, kids, acc_buf)
        np.multiply(acc, w, out=acc)
        for kids, w, where in rest:
            term = _gather(est, kids, term_buf)
            np.multiply(term, w, out=term)
            if isinstance(where, slice):
                np.add(acc, term, out=acc)
            else:
                acc[where] += term
        np.divide(acc, totals, out=acc)
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
    buf, _ = _scratch(est.shape[1])
    for block, parents in sweeps.edges:
        edges = est[block]
        np.subtract(edges, _gather(est, parents, buf), out=edges)
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


def _bm_sweep(
    down: Sequence[tuple[np.ndarray, np.ndarray]],
    sd: np.ndarray,
    values: np.ndarray,
    root_value: float,
    bufs: tuple[np.ndarray, np.ndarray],
) -> None:
    """Turn an (n_nodes, batch) array of innovations into BM node values, in place.

    Node ``i`` takes its parent's value plus ``sd[i]`` (an (n_nodes, 1)
    column) times innovation ``i``, all scaled at once before the top-down
    sweep over ``down`` (``tree.depth_levels``, or blocks of them); the root
    (the last node) takes ``root_value`` and its innovation is unused.
    ``bufs`` are two flat buffers that hold each block's gathers.
    """
    np.multiply(values, sd, out=values)
    values[-1] = root_value
    step_buf, base_buf = bufs
    for nodes, parents in down:
        base = _gather(values, parents, base_buf)
        values[nodes] = np.add(base, _gather(values, nodes, step_buf), out=base)


def simulate_bm(tree: Tree, params: BmParams) -> np.ndarray:
    """Simulate Brownian motion on the tree; one value per node.

    The root takes ``params.root_value``; every other node adds a Gaussian
    innovation with variance ``sigma2 * branch length`` to its parent's
    value. Node ``i`` consumes innovation ``i`` of a single vector drawn
    from stream ``(seed, 0)``, so output is a pure function of the seed and
    the node numbering.
    """
    values = stream(params.seed, 0).standard_normal((tree.n_nodes, 1))
    sd = np.sqrt(params.sigma2 * tree.lengths)[:, None]
    bufs = (np.empty(tree.n_nodes), np.empty(tree.n_nodes))
    _bm_sweep(tree.depth_levels, sd, values, params.root_value, bufs)
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
    out = np.empty((1, n))
    _threshold_rows(values[None, :], np.array([m]), lambda _: tie_keys, out)
    return out[0].astype(np.int8)


def _threshold_rows(
    values: np.ndarray,
    m: np.ndarray,
    tie_keys: Callable[[int], np.ndarray],
    out: np.ndarray,
) -> None:
    """Per row r, 1.0 in ``out`` for the m[r] largest values, else 0.0; ties at
    the cut go to the smaller key.

    The cut is the row's m-th largest value, found by partitioning a copy of
    the values in ``out`` itself, which must not overlap ``values``. A row
    with exactly m values at or above it needs no tie-break; any other row
    ``r`` is ordered by descending value, then by ``tie_keys(r)``, which is
    only called for such rows.
    """
    n = values.shape[1]
    kth = n - m
    np.copyto(out, values)
    out.partition(sorted(set(kth.tolist())), axis=1)
    cut = out[np.arange(len(out)), kth]
    np.greater_equal(values, cut[:, None], out=out)
    for r in np.flatnonzero(out.sum(axis=1) != m).tolist():
        order = np.lexsort((tie_keys(r), -values[r]))
        out[r] = 0.0
        out[r, order[: m[r]]] = 1.0


@dataclass(frozen=True)
class DStatBatch:
    """The D statistics of a stack of traits, in stack order: each trait's
    ``DStatResult``, or the reason it has none."""

    n_reps: int
    results: tuple[DStatResult | str, ...]


def d_statistic(
    tree: Tree,
    presence: np.ndarray,
    mask: np.ndarray,
    n_reps: int = DEFAULT_N_REPS,
    *,
    seed: int | Sequence[int],
) -> DStatResult | DStatBatch:
    """D statistic for a binary trait, or for a stack of traits on one mask,
    with shuffle and BM-threshold nulls.

    ``presence`` and ``mask`` align with ``tree.tip_labels``. Tips with
    ``mask == 0`` are missing data and are pruned before anything else is
    computed. D = (d_obs - mean d_BM) / (mean d_random - mean d_BM), so a
    trait as clumped as Brownian motion scores ~0 and a phylogenetically
    random trait ~1. ``p_random`` is the fraction of shuffle-null scores
    <= d_obs, ``p_bm`` the fraction of BM-null scores >= d_obs.

    A 1-D ``presence`` with one ``seed`` gives its ``DStatResult`` and
    raises ValueError where it has none. A 2-D ``presence`` (traits, tips)
    with one seed per trait gives a ``DStatBatch``, in which a trait
    without variation, or whose nulls coincide, has that reason in place of
    a result; each trait's draws and scores are those of its 1-D call.
    Errors of the shared inputs (shapes, mask, ``n_reps``) raise either way.
    """
    presence = np.asarray(presence)
    mask = np.asarray(mask).astype(bool)
    aligned = presence.ndim in (1, 2) and presence.shape[-1] == tree.n_tips
    if not aligned or mask.shape != (tree.n_tips,):
        raise ValueError("presence and mask must align with the tree tips")
    single = presence.ndim == 1
    seeds = [seed] if single else [int(s) for s in seed]
    presence = np.atleast_2d(presence).astype(np.int8)
    if len(seeds) != len(presence):
        raise ValueError(f"need one seed per trait: {len(presence)} traits, {len(seeds)} seeds")
    if np.any(presence[:, ~mask] != 0):
        raise ValueError("presence must be 0 where the attested mask is 0")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")

    n_used = int(np.count_nonzero(mask))
    if n_used < MIN_TIPS_FOR_D:
        raise ValueError(f"fewer than {MIN_TIPS_FOR_D} usable tips (got {n_used})")
    # Every trait of the call shares the mask, so it shares one pruning. The
    # pruned tree keeps the used tips in their order in ``tree``.
    sweeps = _Sweeps(prune_to_taxa(tree, {lab for lab, kept in zip(tree.tip_labels, mask) if kept}))
    traits = presence[:, mask]
    m = traits.sum(axis=1)
    results: list = ["no variation in trait" if k in (0, n_used) else None for k in m.tolist()]
    live = [i for i, result in enumerate(results) if result is None]
    per_stack = max(1, _STACK_ROWS // (2 * n_reps + 1))
    # A stacked call grows the workspace for a full stack on the unpruned
    # tree, so over a run it reaches its size at once instead of in steps.
    reserve = {} if single else _stack_sizes(per_stack, n_reps, tree.n_tips, tree.n_nodes)
    g = stream(seeds[live[0]], 0) if live else None
    for start in range(0, len(live), per_stack):
        stack = live[start : start + per_stack]
        stack_seeds = [seeds[i] for i in stack]
        scores = _stack_scores(sweeps, traits[stack], m[stack], n_reps, stack_seeds, g, reserve)
        for i, result in zip(stack, _d_results(scores, len(stack), n_reps, n_used)):
            results[i] = result
    if single:
        if isinstance(results[0], str):
            raise ValueError(results[0])
        return results[0]
    return DStatBatch(n_reps, tuple(results))


def _d_results(
    scores: np.ndarray, n_traits: int, n_reps: int, n_used: int
) -> list[DStatResult | str]:
    """Each trait's D from a stack's scores (as ``_stack_scores`` orders
    them), or why it has none.

    Every mean is over one trait's contiguous row of scores, which numpy
    sums as it sums that row alone.
    """
    d_obs = scores[:n_traits]
    d_random, d_bm = scores[n_traits:].reshape(2, n_traits, n_reps)
    mean_random = d_random.mean(axis=1)
    mean_bm = d_bm.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # where the nulls coincide
        d = (d_obs - mean_bm) / (mean_random - mean_bm)
    columns = zip(
        d_obs.tolist(),
        mean_random.tolist(),
        mean_bm.tolist(),
        d.tolist(),
        (d_random <= d_obs[:, None]).mean(axis=1).tolist(),
        (d_bm >= d_obs[:, None]).mean(axis=1).tolist(),
    )
    return [
        "nulls indistinguishable: mean random and BM scores coincide"
        if abs(mean_r - mean_b) < _NULL_GAP_TOL
        else DStatResult(obs, mean_r, mean_b, D, p_r, p_b, n_reps, n_used)
        for obs, mean_r, mean_b, D, p_r, p_b in columns
    ]


def _stack_sizes(n_traits: int, n_reps: int, n_tips: int, n_nodes: int) -> dict[str, int]:
    """The workspace buffers a stack of ``n_traits`` takes, in floats, on a
    tree of ``n_tips`` used tips and ``n_nodes`` nodes."""
    n_cols = n_traits * n_reps
    n_rows = n_traits + 2 * n_cols
    width = _sweep_width(n_rows)
    return {
        "rows": n_rows * n_tips,
        "values": n_nodes * max(n_cols + min(_DRAW_BLOCK, n_cols), width),
        "level": 2 * _NODE_BLOCK * max(n_cols, width),
    }


def _stack_scores(
    sweeps: _Sweeps,
    traits: np.ndarray,
    m: np.ndarray,
    n_reps: int,
    seeds: list[int],
    g: np.random.Generator,
    reserve: dict[str, int],
) -> np.ndarray:
    """Every change score of a stack of traits on ``sweeps.tree``.

    ``traits`` holds the stack's 0/1 traits over the used tips, ``m`` their
    prevalences and ``seeds`` their seeds; ``g`` is re-keyed for every
    replicate. A workspace buffer that must grow grows to at least its
    size in ``reserve``. The scores come in the order of the stacked rows:
    each trait's observed score, then each trait's ``n_reps`` shuffle-null
    scores, then each trait's ``n_reps`` BM-null scores.
    """
    n_traits, n_used = traits.shape
    n_cols = n_traits * n_reps  # one per (trait, replicate), trait-major
    n_rows = n_traits + 2 * n_cols
    pruned = sweeps.tree
    n_nodes = pruned.n_nodes
    sizes = _stack_sizes(n_traits, n_reps, n_used, n_nodes)
    for name, size in sizes.items():
        _WORKSPACE.take(name, size, reserve=reserve.get(name, 0))
    # One stacked row per score, centered as _d_sum_batch takes it.
    rows = _WORKSPACE.take("rows", n_rows, n_used)
    np.subtract(traits, 0.5, out=rows[:n_traits])
    shuffled = rows[n_traits : n_traits + n_cols]
    shuffled.reshape(n_traits, n_reps, n_used)[:] = rows[:n_traits, None]
    bm_rows = rows[n_traits + n_cols :]
    # The BM values, node-major, then the draw block; once both are spent,
    # the buffer holds the threshold and then is the sweeps' work array, so
    # it is sized for every use.
    n_block = min(_DRAW_BLOCK, n_cols)
    buf = _WORKSPACE.take("values", sizes["values"])
    values = buf[: n_nodes * n_cols].reshape(n_nodes, n_cols)
    block = buf[n_nodes * n_cols : n_nodes * (n_cols + n_block)].reshape(n_block, n_nodes)
    col = 0
    for seed in seeds:
        for r in range(n_reps):
            rekey(g, seed, r)
            g.shuffle(shuffled[col])  # the same draws as trait[g.permutation(n_used)]
            g.standard_normal(out=block[col % _DRAW_BLOCK])
            col += 1
            if col % _DRAW_BLOCK == 0 or col == n_cols:
                start = (col - 1) // _DRAW_BLOCK * _DRAW_BLOCK
                values[:, start:col] = block[: col - start].T

    def tie_keys(row: int) -> np.ndarray:
        # The keys come last in a replicate's stream, so they are drawn only
        # for the rare rows that tie at the cut (zero-length branches).
        trait, r = divmod(row, n_reps)
        rekey(g, seeds[trait], r)
        g.permutation(n_used)
        g.standard_normal(n_nodes)
        return g.random(n_used)

    # BM null: sigma2 = 1, root 0 (scale-free), swept node-major. Its tip
    # values are gathered, tip-major, into the BM half of ``rows``, which is
    # overwritten by the thresholded traits only once all of them are known.
    _bm_sweep(sweeps.down, sweeps.sd, values, 0.0, _scratch(n_cols))
    tips = bm_rows.reshape(n_used, n_cols)
    np.take(values, pruned.tip_indices, axis=0, mode="clip", out=tips)
    thresholded = buf[: n_cols * n_used].reshape(n_cols, n_used)
    _threshold_rows(tips.T, np.repeat(m, n_reps), tie_keys, thresholded)
    np.subtract(thresholded, 0.5, out=bm_rows)
    return _d_sum_rows(sweeps, rows)
