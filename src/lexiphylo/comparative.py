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
execution, and however a call's replicates are cut into blocks. One
generator per D call is re-keyed from replicate to replicate and from
trait to trait (``_rng.rekey``), which draws the same numbers as
constructing stream ``(seed, r)`` afresh.

A D call scores all the traits that share one attested mask (all the
classes of a concept), so the pruned tree, its sweep schedules and the
generator are built once per call. The kernel is batched over traits and
replicates and sweeps the tree level by level, but every value sees the
IEEE operations of the naive per-node recursion: children are accumulated
in index order and the edge sum runs in node order. The call sweeps its
observed traits once, then walks its (trait, replicate) columns,
trait-major, in blocks of at most ``_REP_BLOCK``: a block's shuffle-null
and BM-null rows share one BM sweep and one change-score sweep, each
column thresholded at its trait's prevalence. Rows never mix, so each
score has the bits of a sweep of its row alone, however the blocks cut.

A D call allocates its block arrays once, sized for its widest block on
the pruned tree, reuses them across its blocks and frees them when it
returns: a block's null rows (by used tips), and the arrays of the pruned
tree's sweep schedule (``_Sweeps``): its work array, which holds the
block's BM values, node-major, followed by its innovations,
replicate-major, then the threshold and then the change-score sweep's
estimates (nodes by rows), and two slabs for the level sweeps' gathers,
each as many rows as the pruned tree's widest depth level. No array
outlives its call, so D work keeps no module-level state and D memory does
not grow with ``n_reps``: the only replicate-sized array a call allocates
is its scores, three floats per column, before any draw.

Zero-length branches are kept as stored; wherever a branch length is used
as an inverse weight (nodal estimates, contrasts) a zero, or any length
whose inverse is not a finite double (such as 1e-320), is substituted by
``epsilon = 1e-8 * tree height`` (1e-8 absolute on a zero-height tree, which
makes the weights uniform); weights that still overflow a double, alone or
summed at a node, are a TreeError. BM simulation uses raw lengths: a zero
branch genuinely means zero variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._rng import rekey, stream
from .tree import Tree, TreeError, prune_to_taxa

DEFAULT_N_REPS = 1000
MIN_TIPS_FOR_D = 4
_NULL_GAP_TOL = 1e-12
# Most (trait, replicate) columns per block of a D call: a block's
# shuffle-null and BM-null rows make one sweep of at most 2 * _REP_BLOCK
# rows, which bounds a call's block arrays whatever n_reps is.
_REP_BLOCK = 500


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


def _replicate_array(size: int) -> np.ndarray:
    """An uninitialized float64 array of ``size``, or ReplicateMemoryError."""
    try:
        return np.empty(size)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the address space
        raise ReplicateMemoryError(f"replicate arrays: {exc}") from exc


def _epsilon(tree: Tree) -> float:
    return 1e-8 * tree.height if tree.height > 0 else 1e-8


def _weight_lengths(tree: Tree) -> np.ndarray:
    """Each node's branch length as an inverse weight reads it: a length whose
    inverse is not a finite double (a zero, or e.g. 1e-320) counts as epsilon."""
    with np.errstate(divide="ignore", over="ignore"):
        finite = np.isfinite(1.0 / tree.lengths)
    return np.where(finite, tree.lengths, _epsilon(tree))


class _Sweeps:
    """The sweep schedules of one tree, and the arrays its sweeps of at most
    ``n_rows`` rows work in: two flat ``gathers`` slabs of ``width * n_rows``
    floats for a step's gathers, and ``work``, ``n_rows * n_nodes`` floats
    for a sweep's node values. ``width`` is the most nodes of any depth
    level, the root's included, which bounds every gather of a sweep: a
    level, or a run of the edge pass.
    """

    def __init__(self, tree: Tree, n_rows: int = 1) -> None:
        self.tree = tree
        self.width = max((len(nodes) for nodes, _ in tree.depth_levels), default=1)
        self.gathers = _replicate_array(self.width * n_rows), _replicate_array(self.width * n_rows)
        self.work = _replicate_array(n_rows * tree.n_nodes)

    @cached_property
    @np.errstate(divide="ignore", over="ignore")  # a total that overflows is refused
    def up(self) -> list[tuple[np.ndarray, np.ndarray, list[tuple]]]:
        """The up-sweep schedule, built on first use, as a BM sweep inverts no
        length: a step per level of ``tree.depth_levels`` with an internal
        node, deepest first, then the root, so each child of a node is a tip
        or in an earlier step. A step holds the level's internal nodes, their
        inverse-length weight totals, and per child slot ``k`` the k-th
        children, their weights and the positions of the step's nodes that
        have one. Totals add children in index order, as a naive recursion does.
        Raises TreeError where a total is not a finite double; every weight enters one.
        """
        tree = self.tree
        w = np.zeros(tree.n_nodes)
        w[:-1] = 1.0 / _weight_lengths(tree)[:-1]
        flat, counts, starts = tree.child_table
        up = []
        for nodes in [*(nodes for nodes, _ in reversed(tree.depth_levels)), np.array([tree.root])]:
            nodes = nodes[counts[nodes] > 0]
            n_kids = counts[nodes]
            slots = []
            for k in range(int(n_kids.max(initial=0))):
                has = n_kids > k
                kth = flat[starts[nodes[has]] + k]
                weights = w[kth, None]
                if k:
                    totals[has] += weights
                else:
                    totals = weights.copy()
                slots.append((kth, weights, slice(None) if has.all() else np.flatnonzero(has)))
            if slots:
                if not np.isfinite(totals).all():
                    raise TreeError("inverse branch-length weight totals overflow a double")
                up.append((nodes, totals, slots))
        return up


def _gather(est: np.ndarray, index: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``est[index]``, written into the head of flat ``buf``."""
    out = buf[: len(index) * est.shape[1]].reshape(len(index), est.shape[1])
    # The indices are in range; mode="clip" makes np.take write to ``out``
    # directly, where the default mode gathers into a copy first.
    return est.take(index, axis=0, out=out, mode="clip")


def _nodal_estimates_batch(sweeps: _Sweeps, tip_values: np.ndarray) -> np.ndarray:
    """Weighted-mean nodal estimates for a batch of tip-value vectors.

    ``tip_values`` has shape (batch, n_tips) in ``tree.tip_indices`` order;
    the estimates are written to the head of ``sweeps.work``, as an
    (n_nodes, batch) array with tips carrying their inputs, and returned.
    Each node accumulates ``w[child] * est[child]`` over its children in
    index order, sequentially, as a naive recursion does.
    """
    shape = (sweeps.tree.n_nodes, len(tip_values))
    est = sweeps.work[: math.prod(shape)].reshape(shape)
    est[sweeps.tree.tip_indices] = tip_values.T
    acc_buf, term_buf = sweeps.gathers
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


def _d_sum_rows(sweeps: _Sweeps, rows: np.ndarray) -> np.ndarray:
    """Change score of each row of ``rows``: sum of |edge differences|.

    Each row is a 0/1 trait centered to +-0.5 (``trait - 0.5``, exact).
    That leaves every |child - parent| difference unchanged in exact
    arithmetic, and makes trait complementation a pure sign flip - exact in
    IEEE floating point - so d_sum(v) == d_sum(1 - v) holds bitwise, not
    just approximately.

    The rows are swept at once, in their (n_nodes, rows) nodal estimates.
    The edge differences replace the estimates in node order, one run of
    ``sweeps.width`` consecutive non-root nodes at a time: every parent has
    a larger index than its children, and a run gathers its parents'
    estimates before it writes, so each estimate is read before it is
    overwritten. Columns never mix and each column's edges are added in
    node order whatever the number of rows, so every score has the same
    bits as a sweep of its row alone.
    """
    est = _nodal_estimates_batch(sweeps, rows)
    buf, _ = sweeps.gathers
    for start in range(0, len(est) - 1, sweeps.width):
        run = slice(start, min(start + sweeps.width, len(est) - 1))
        edges = est[run]
        np.subtract(edges, _gather(est, sweeps.tree.parents[run], buf), out=edges)
        np.abs(edges, out=edges)
    # Reducing over axis 0 adds whole rows one after another, but a single
    # column is the fast axis, which numpy sums pairwise; an accumulate is
    # sequential in every shape.
    if len(rows) == 1:
        return np.add.accumulate(est[:-1, 0])[-1:]
    return np.add.reduce(est[:-1], axis=0)


def _bm_sweep(sweeps: _Sweeps, sd: np.ndarray, values: np.ndarray, root_value: float) -> None:
    """Turn an (n_nodes, batch) array of innovations into BM node values, in place.

    Node ``i`` takes its parent's value plus ``sd[i]`` (an (n_nodes, 1)
    column) times innovation ``i``, all scaled at once before the top-down
    sweep over ``sweeps.tree.depth_levels``; the root (the last node) takes
    ``root_value`` and its innovation is unused.
    """
    np.multiply(values, sd, out=values)
    values[-1] = root_value
    step_buf, base_buf = sweeps.gathers
    for nodes, parents in sweeps.tree.depth_levels:
        base = _gather(values, parents, base_buf)
        values[nodes] = np.add(base, _gather(values, nodes, step_buf), out=base)


def simulate_bm(tree: Tree, params: BmParams) -> np.ndarray:
    """Simulate Brownian motion on the tree; one value per node.

    The root takes ``params.root_value``; every other node adds a Gaussian
    innovation with variance ``sigma2 * branch length`` to its parent's
    value. Node ``i`` consumes innovation ``i`` of a single vector drawn
    from stream ``(seed, 0)``, so output is a pure function of the seed and
    the node numbering. Raises ValueError where ``sigma2`` times a branch
    length overflows a double.
    """
    with np.errstate(over="ignore"):
        sd = np.sqrt(params.sigma2 * tree.lengths)[:, None]
    # A finite sd is below 1.4e154, so no step of the sweep can overflow.
    if not np.all(np.isfinite(sd)):
        raise ValueError(f"sigma2 {params.sigma2:g} times a branch length overflows a double")
    sweeps = _Sweeps(tree)
    values = stream(params.seed, 0).standard_normal(out=sweeps.work.reshape(tree.n_nodes, 1))
    _bm_sweep(sweeps, sd, values, params.root_value)
    return values[:, 0]


def _tip_values(tree: Tree, tip_values: np.ndarray) -> np.ndarray:
    """``tip_values`` as floats, checked to be one finite value per tip."""
    tip_values = np.asarray(tip_values, dtype=float)
    if tip_values.shape != (tree.n_tips,):
        raise ValueError(f"expected {tree.n_tips} tip values, got {tip_values.shape}")
    if not np.all(np.isfinite(tip_values)):
        raise ValueError("tip values must be finite")
    return tip_values


def nodal_estimates(tree: Tree, tip_values: np.ndarray) -> np.ndarray:
    """Ancestral state estimates: bottom-up weighted means of child values.

    ``tip_values`` aligns with ``tree.tip_indices`` (= left-to-right tip
    order of the source Newick). Returns one value per node; tips carry
    their inputs, each internal node the 1/branch-length-weighted mean of
    its children. Every estimate lies within [min(tips), max(tips)]. Raises
    ValueError where a weight times a value overflows a double.
    """
    tip_values = _tip_values(tree, tip_values)
    with np.errstate(over="ignore", invalid="ignore"):
        est = _nodal_estimates_batch(_Sweeps(tree), tip_values[None, :])[:, 0]
    if not np.all(np.isfinite(est)):
        raise ValueError("nodal estimates overflow a double")
    return est


def d_sum(tree: Tree, tip_values: np.ndarray) -> float:
    """Observed change score for a binary trait: sum of |child - parent| estimates."""
    tip_values = _tip_values(tree, tip_values)
    if not np.all((tip_values == 0) | (tip_values == 1)):
        raise ValueError("tip values must be coded 0/1")
    if tip_values.min() == tip_values.max():
        raise ValueError("constant trait: d_sum undefined")
    return float(_d_sum_rows(_Sweeps(tree), tip_values[None, :] - 0.5)[0])


def estimate_sigma2(tree: Tree, tip_values: np.ndarray, seed: int = 0) -> float:
    """BM rate estimate: mean of squared standardized independent contrasts.

    Felsenstein (1985) contrasts in one postorder pass: each node passes up a
    value and a rate-scaled length, and a length whose inverse is not a
    finite double, such as a zero, counts as epsilon. A polytomy is
    resolved inline, as that pass reaches it: while it has more than two
    children, two drawn from stream ``(seed, 0)`` merge into one behind a
    zero-length branch. ``tip_values`` aligns with ``tree.tip_indices``.
    Raises on a constant trait ("zero variance"), TreeError where the
    inverse-length weight total of a join is not a finite double, and
    ValueError where the estimate is not.
    """
    tip_values = _tip_values(tree, tip_values)
    if tree.n_tips < 2:
        raise ValueError("need >= 2 tips to estimate a rate")
    if tip_values.min() == tip_values.max():
        raise ValueError("zero variance: all tip values equal")

    eps = _epsilon(tree)
    lengths = _weight_lengths(tree).tolist()
    tips = iter(tip_values.tolist())
    rng = stream(seed, 0)
    contrasts: list[float] = []

    def join(a: tuple[float, float], b: tuple[float, float], length: float) -> tuple[float, float]:
        (xa, va), (xb, vb) = a, b
        total = 1.0 / va + 1.0 / vb if va and vb else math.inf  # epsilon may underflow to 0
        if not math.isfinite(total):
            raise TreeError("inverse branch-length weight totals overflow a double")
        contrasts.append((xa - xb) / math.sqrt(va + vb))
        return (xa / va + xb / vb) / total, length + va * vb / (va + vb)

    # (value, rate-scaled length) of every node, in postorder.
    up: list[tuple[float, float]] = []
    for i, kids in enumerate(tree.children):
        pending = [up[c] for c in kids]
        while len(pending) > 2:
            first, second = sorted(rng.choice(len(pending), size=2, replace=False))
            pending.append(join(pending.pop(first), pending.pop(second - 1), eps))
        if not pending:
            up.append((next(tips), lengths[i]))
        elif len(pending) == 1:  # unary chain (pruned root): pass through
            ((value, length),) = pending
            up.append((value, lengths[i] + length))
        else:
            up.append(join(*pending, lengths[i]))

    with np.errstate(over="ignore", invalid="ignore"):
        estimate = float(np.mean(np.square(contrasts)))
    if not math.isfinite(estimate):
        raise ValueError("the rate estimate overflows a double")
    if estimate == 0.0:
        raise ValueError("zero variance: all contrasts are zero")
    return estimate


def threshold_at_prevalence(values: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Binarize ``values``: the m largest become 1, ties at the cut broken at random."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not np.all(np.isfinite(values)):
        raise ValueError(f"values must be a 1-D array of finite values, got shape {values.shape}")
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
    presence, mask = np.asarray(presence), np.asarray(mask)
    aligned = presence.ndim in (1, 2) and presence.shape[-1] == tree.n_tips
    if not aligned or mask.shape != (tree.n_tips,):
        raise ValueError("presence and mask must align with the tree tips")
    for name, codes in (("presence", presence), ("mask", mask)):
        if not np.all((codes == 0) | (codes == 1)):
            raise ValueError(f"{name} must be coded 0/1")
    mask = mask.astype(bool)
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
    pruned = prune_to_taxa(tree, {lab for lab, kept in zip(tree.tip_labels, mask) if kept})
    traits = presence[:, mask]
    m = traits.sum(axis=1)
    results: list = ["no variation in trait" if k in (0, n_used) else None for k in m.tolist()]
    live = [i for i, result in enumerate(results) if result is None]
    if live:
        scores = _d_scores(pruned, traits[live], m[live], n_reps, [seeds[i] for i in live])
        for i, result in zip(live, _d_results(scores, len(live), n_reps, n_used)):
            results[i] = result
    if single:
        if isinstance(results[0], str):
            raise ValueError(results[0])
        return results[0]
    return DStatBatch(n_reps, tuple(results))


def _d_results(
    scores: np.ndarray, n_traits: int, n_reps: int, n_used: int
) -> list[DStatResult | str]:
    """Each trait's D from a call's scores (as ``_d_scores`` orders them),
    or why it has none.

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


def _d_scores(
    pruned: Tree,
    traits: np.ndarray,
    m: np.ndarray,
    n_reps: int,
    seeds: list[int],
) -> np.ndarray:
    """Every change score of a D call's traits on the ``pruned`` tree.

    ``traits`` holds the call's 0/1 traits over the used tips, ``m`` their
    prevalences and ``seeds`` their seeds. The scores come in the order
    ``_d_results`` reads: each trait's observed score, then each trait's
    ``n_reps`` shuffle-null scores, then each trait's ``n_reps`` BM-null
    scores. Column ``c`` (trait-major) is replicate ``r`` of trait ``t``,
    ``(t, r) = divmod(c, n_reps)``, and draws from stream ``(seeds[t], r)``
    however the blocks cut the columns.
    """
    n_traits, n_used = traits.shape
    n_cols = n_traits * n_reps
    width = min(_REP_BLOCK, n_cols)
    n_nodes = pruned.n_nodes
    scores = _replicate_array(n_traits + 2 * n_cols)
    nulls = scores[n_traits:].reshape(2, n_cols)  # shuffle-null, then BM-null
    # The block arrays, for the call's widest sweep: its observed rows, or
    # a full block's null rows.
    sweeps = _Sweeps(pruned, max(n_traits, 2 * width))
    sd = np.sqrt(pruned.lengths)[:, None]  # BM at rate 1
    null_rows = _replicate_array(2 * width * n_used)
    centered = traits - 0.5  # as _d_sum_rows takes a row
    scores[:n_traits] = _d_sum_rows(sweeps, centered)
    g = stream(seeds[0], 0)

    def tie_keys(col: int) -> np.ndarray:
        # The keys come last in a replicate's stream, so they are drawn only
        # for the rare columns that tie at the cut (zero-length branches).
        trait, r = divmod(col, n_reps)
        rekey(g, seeds[trait], r)
        g.permutation(n_used)
        g.standard_normal(n_nodes)
        return g.random(n_used)

    for start in range(0, n_cols, width):
        stop = min(start + width, n_cols)
        w = stop - start
        col_traits = np.arange(start, stop) // n_reps
        rows = null_rows[: 2 * w * n_used].reshape(2 * w, n_used)
        shuffled, bm_rows = rows[:w], rows[w:]
        centered.take(col_traits, axis=0, out=shuffled, mode="clip")
        # The BM values, node-major, then the innovations, replicate-major;
        # once both are spent, ``sweeps.work`` holds the threshold and then
        # the change-score sweep's estimates.
        values = sweeps.work[: w * n_nodes].reshape(n_nodes, w)
        innovations = sweeps.work[w * n_nodes : 2 * w * n_nodes].reshape(w, n_nodes)
        for j, col in enumerate(range(start, stop)):
            trait, r = divmod(col, n_reps)
            rekey(g, seeds[trait], r)
            g.shuffle(shuffled[j])  # the same draws as trait[g.permutation(n_used)]
            g.standard_normal(out=innovations[j])
        values[:] = innovations.T
        # BM null: sigma2 = 1, root 0 (scale-free), swept node-major. Its tip
        # values are gathered, tip-major, into the BM half of ``rows``, which
        # is overwritten by the thresholded traits only once all are known.
        _bm_sweep(sweeps, sd, values, 0.0)
        tips = bm_rows.reshape(n_used, w)
        np.take(values, pruned.tip_indices, axis=0, mode="clip", out=tips)
        thresholded = sweeps.work[: w * n_used].reshape(w, n_used)
        _threshold_rows(tips.T, m[col_traits], lambda j: tie_keys(start + j), thresholded)
        np.subtract(thresholded, 0.5, out=bm_rows)
        nulls[:, start:stop] = _d_sum_rows(sweeps, rows).reshape(2, w)
    return scores
