import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexiphylo import comparative
from lexiphylo.comparative import (
    DEFAULT_N_REPS,
    MIN_TIPS_FOR_D,
    BmParams,
    d_statistic,
    d_sum,
    estimate_sigma2,
    nodal_estimates,
    simulate_bm,
    threshold_at_prevalence,
)
from lexiphylo.cognates import binary_trait, load_cognates
from lexiphylo.metrics import DStatConfig, compute_metrics
from lexiphylo.tree import parse_newick, prune_to_taxa, read_newick_file
from lexiphylo._rng import rekey, stream
from util import (
    SMALL_TREE_NEWICKS,
    TIE_TREE,
    balanced_newick,
    benchmark_corpus_newick,
    caterpillar_newick,
    oracle_d_from_scores,
    oracle_d_scores,
    oracle_d_sum,
    oracle_nodal_estimates,
    sample_binary_traits,
)

BUNDLED = Path(__file__).resolve().parents[1] / "data" / "synthetic"


@pytest.fixture(scope="module")
def balanced4():
    # Sister pairs (A,B) and (C,D), unit branches.
    return parse_newick("((A:1,B:1):1,(C:1,D:1):1);")


@pytest.fixture(scope="module")
def balanced64():
    return parse_newick(balanced_newick(6))


class TestSimulateBm:
    def test_zero_lengths_give_root_everywhere(self):
        tree = parse_newick("((A:0,B:0):0,C:0):0;")
        values = simulate_bm(tree, BmParams(sigma2=1.0, root_value=3.5, seed=1))
        assert np.all(values == 3.5)

    def test_deterministic_given_seed(self, balanced4):
        params = BmParams(sigma2=1.0, root_value=0.0, seed=42)
        first = simulate_bm(balanced4, params)
        second = simulate_bm(balanced4, params)
        assert first.tobytes() == second.tobytes()

    def test_tip_variance_matches_rate_times_depth(self):
        # Single tip at distance 4, sigma2=1: Var(tip) ~ 4 over many seeds.
        tree = parse_newick("(A:4);")
        tip_index = int(tree.tip_indices[0])
        tips = np.array(
            [
                simulate_bm(tree, BmParams(1.0, 0.0, seed))[tip_index]
                for seed in range(10_000)
            ]
        )
        assert 3.8 <= tips.var(ddof=1) <= 4.2

    def test_invalid_sigma2(self):
        with pytest.raises(ValueError, match="sigma2"):
            BmParams(sigma2=0.0)
        with pytest.raises(ValueError, match="sigma2"):
            BmParams(sigma2=-1.0)


class TestNodalEstimates:
    def test_balanced_hand_values(self, balanced4):
        est = nodal_estimates(balanced4, [1, 1, 0, 0])
        # postorder: A, B, AB, C, D, CD, root
        assert est.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.5]

    def test_one_node_and_unary_trees(self):
        # Trees without a branching node: nothing to sweep, or one level.
        assert nodal_estimates(parse_newick("A;"), [0.5]).tolist() == [0.5]
        assert nodal_estimates(parse_newick("(A:1);"), [0.5]).tolist() == [0.5, 0.5]

    def test_constant_tips(self, balanced4):
        est = nodal_estimates(balanced4, [2.5] * 4)
        assert np.all(est == 2.5)

    def test_two_tip_weighted_mean(self):
        tree = parse_newick("(A:1,B:3);")
        est = nodal_estimates(tree, [0.0, 4.0])
        assert est[tree.root] == pytest.approx(1.0)

    def test_estimates_are_convex_combinations(self):
        rng = np.random.default_rng(9)
        for newick in SMALL_TREE_NEWICKS:
            tree = parse_newick(newick)
            for _ in range(10):
                tips = rng.normal(size=tree.n_tips)
                est = nodal_estimates(tree, tips)
                assert np.all(est >= tips.min() - 1e-12)
                assert np.all(est <= tips.max() + 1e-12)


class TestEstimateSigma2:
    def test_two_tip_hand_value(self):
        tree = parse_newick("(A:1,B:1);")
        assert estimate_sigma2(tree, [3.0, 1.0]) == pytest.approx(2.0)

    def test_constant_tips_error(self):
        tree = parse_newick("(A:1,B:1);")
        with pytest.raises(ValueError, match="zero variance"):
            estimate_sigma2(tree, [1.0, 1.0])

    def test_polytomy_resolution_is_seeded(self):
        tree = parse_newick("(A:1,B:1,C:1,D:1);")
        tips = [0.0, 1.0, 3.0, 6.0]
        first = estimate_sigma2(tree, tips, seed=5)
        assert estimate_sigma2(tree, tips, seed=5) == first

    def test_monte_carlo_consistency_quick(self):
        # Smaller sibling of the acceptance check: 64 tips, 100 replicates.
        tree = parse_newick(balanced_newick(6))
        estimates = []
        for rep in range(100):
            values = simulate_bm(tree, BmParams(sigma2=2.0, seed=rep))
            estimates.append(estimate_sigma2(tree, values[tree.tip_indices]))
        assert 1.8 <= np.mean(estimates) <= 2.2

    def test_pruned_unary_root_supported(self):
        from lexiphylo.tree import prune_to_taxa

        tree = prune_to_taxa(parse_newick("((A:1,B:2):3,C:1);"), {"A", "B"})
        assert len(tree.children[tree.root]) == 1
        assert estimate_sigma2(tree, [0.0, 3.0]) > 0


class TestDSum:
    def test_sister_grouped(self, balanced4):
        assert d_sum(balanced4, [1, 1, 0, 0]) == 1.0

    def test_anti_grouped(self, balanced4):
        assert d_sum(balanced4, [1, 0, 1, 0]) == 2.0

    def test_complement_invariance_exact(self, balanced4):
        assert d_sum(balanced4, [0, 0, 1, 1]) == d_sum(balanced4, [1, 1, 0, 0])

    def test_constant_trait_rejected(self, balanced4):
        with pytest.raises(ValueError, match="constant trait"):
            d_sum(balanced4, [1, 1, 1, 1])

    def test_non_binary_rejected(self, balanced4):
        with pytest.raises(ValueError, match="0/1"):
            d_sum(balanced4, [0.5, 1, 0, 0])

    def test_matches_naive_oracle_bitwise(self):
        for newick in SMALL_TREE_NEWICKS:
            tree = parse_newick(newick)
            for trait in sample_binary_traits(tree.n_tips, 10, seed=17):
                assert d_sum(tree, trait) == oracle_d_sum(tree, trait)

    def test_matches_naive_oracle_across_edge_blocks(self):
        # Trees with more non-root nodes than one block of the edge pass.
        for newick in (
            balanced_newick(7, branch=0.7),
            caterpillar_newick(100, branch=0.3),
            benchmark_corpus_newick(),
        ):
            tree = parse_newick(newick)
            assert tree.n_nodes - 1 > 2 * comparative._NODE_BLOCK
            for trait in sample_binary_traits(tree.n_tips, 4, seed=tree.n_tips):
                assert d_sum(tree, trait) == oracle_d_sum(tree, trait)

    def test_nodal_estimates_match_oracle_bitwise(self):
        rng = np.random.default_rng(23)
        for newick in SMALL_TREE_NEWICKS:
            tree = parse_newick(newick)
            tips = rng.normal(size=tree.n_tips)
            est = nodal_estimates(tree, tips)
            oracle = oracle_nodal_estimates(tree, tips)
            for node, value in oracle.items():
                assert est[node] == value


class TestThreshold:
    def test_order_statistics(self):
        out = threshold_at_prevalence([0.1, 0.5, 0.3, 0.9], 2, seed=0)
        assert out.tolist() == [0, 1, 0, 1]

    def test_tie_break_seeded_and_uniformish(self):
        values = [0.5, 0.5, 0.1]
        first = threshold_at_prevalence(values, 1, seed=3)
        assert threshold_at_prevalence(values, 1, seed=3).tolist() == first.tolist()
        assert first[2] == 0 and first.sum() == 1
        picks = {
            int(np.argmax(threshold_at_prevalence(values, 1, seed=s)))
            for s in range(40)
        }
        assert picks == {0, 1}

    def test_m_nearly_all(self):
        out = threshold_at_prevalence([3.0, 1.0, 2.0, 4.0], 3, seed=0)
        assert out.tolist() == [1, 0, 1, 1]

    def test_m_out_of_range(self):
        with pytest.raises(ValueError, match="m out of range"):
            threshold_at_prevalence([1.0, 2.0], 2, seed=0)


class TestDStatistic:
    def test_clumped_clade_golden(self, balanced64):
        presence = np.array([1] * 32 + [0] * 32)
        mask = np.ones(64, dtype=int)
        res = d_statistic(balanced64, presence, mask, n_reps=1000, seed=7)
        assert res.D < 0.3
        # Frozen golden from the first validated run of this configuration.
        assert res.D == -1.4379295083781025
        assert res.d_obs == 1.0
        assert res.p_random == 0.0
        assert res.p_bm == 1.0
        assert res.n_tips_used == 64

    def test_shuffled_trait_near_one(self, balanced64):
        presence = np.array([1] * 32 + [0] * 32)
        shuffled = stream(11, 0).permutation(presence)
        res = d_statistic(balanced64, shuffled, np.ones(64, dtype=int), 1000, seed=7)
        assert 0.7 <= res.D <= 1.3

    def test_constant_trait_error(self, balanced64):
        with pytest.raises(ValueError, match="no variation"):
            d_statistic(balanced64, np.ones(64), np.ones(64), 100, seed=1)

    def test_too_few_tips(self):
        tree = parse_newick("((A:1,B:1):1,(C:1,D:1):1);")
        presence = np.array([1, 0, 0, 0])
        mask = np.array([1, 1, 1, 0])
        with pytest.raises(ValueError, match="fewer than 4 usable tips"):
            d_statistic(tree, presence, mask, 100, seed=1)

    def test_missing_tips_are_pruned(self, balanced64):
        presence = np.array([1] * 16 + [0] * 48)
        mask = np.ones(64, dtype=int)
        mask[-8:] = 0
        presence[-8:] = 0
        res = d_statistic(balanced64, presence, mask, n_reps=200, seed=3)
        assert res.n_tips_used == 56

    def test_byte_determinism(self, balanced64):
        presence = np.array([1] * 20 + [0] * 44)
        mask = np.ones(64, dtype=int)
        first = d_statistic(balanced64, presence, mask, n_reps=300, seed=5)
        second = d_statistic(balanced64, presence, mask, n_reps=300, seed=5)
        assert first == second

    def test_complement_same_d_obs(self, balanced64):
        presence = np.array([1] * 24 + [0] * 40)
        mask = np.ones(64, dtype=int)
        a = d_statistic(balanced64, presence, mask, n_reps=200, seed=9)
        b = d_statistic(balanced64, 1 - presence, mask, n_reps=200, seed=9)
        assert a.d_obs == b.d_obs

    def test_presence_must_be_zero_where_masked(self, balanced64):
        presence = np.zeros(64, dtype=int)
        presence[0] = 1
        mask = np.ones(64, dtype=int)
        mask[0] = 0
        with pytest.raises(ValueError, match="presence must be 0"):
            d_statistic(balanced64, presence, mask, 100, seed=1)


def _presence_mask_cases(tree):
    """Every prevalence m, over all tips and over two partial masks."""
    n = tree.n_tips
    rng = np.random.default_rng(n)
    masks = [np.ones(n, dtype=int)]
    for drop in (1, 2):
        if n - drop >= MIN_TIPS_FOR_D:
            mask = np.ones(n, dtype=int)
            mask[rng.choice(n, drop, replace=False)] = 0
            masks.append(mask)
    for mask in masks:
        used = np.flatnonzero(mask)
        for m in range(1, len(used)):
            presence = np.zeros(n, dtype=int)
            presence[rng.choice(used, m, replace=False)] = 1
            yield presence, mask


@pytest.mark.parametrize(
    "newick",
    [nwk for nwk in SMALL_TREE_NEWICKS if parse_newick(nwk).n_tips >= MIN_TIPS_FOR_D]
    + [TIE_TREE],
)
def test_d_statistic_matches_replicate_oracle_bitwise(newick, monkeypatch):
    # The observed trait and both nulls are 2 * n_reps + 1 stacked rows, swept
    # DEFAULT_N_REPS rows at a time: 499 reps fit one chunk, 500 leave a
    # 1-row chunk, whose edge sum must stay sequential. 63, 64 and 65 reps
    # end just short of, on and just past a block of _DRAW_BLOCK innovation
    # draws. Every chunk's scores are recorded and compared with the
    # oracle's, not only their means.
    chunks: list[np.ndarray] = []

    def recording_d_sum_batch(sweeps, centered, out=None):
        scores = d_sum_batch(sweeps, centered, out)
        chunks.append(scores.copy())
        return scores

    d_sum_batch = comparative._d_sum_batch
    monkeypatch.setattr(comparative, "_d_sum_batch", recording_d_sum_batch)
    tree = parse_newick(newick)
    for case, (presence, mask) in enumerate(_presence_mask_cases(tree)):
        for n_reps in (1, 2, 25, 63, 64, 65) + ((499, 500) if case % 6 == 0 else ()):
            seed = 1000 * case + n_reps
            chunks.clear()
            scores = oracle_d_scores(tree, presence, mask, n_reps, seed)
            try:
                expected = oracle_d_from_scores(scores, n_reps, int(np.sum(mask)))
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    d_statistic(tree, presence, mask, n_reps, seed=seed)
                continue
            assert d_statistic(tree, presence, mask, n_reps, seed=seed) == expected
            widths = [DEFAULT_N_REPS] * (len(scores) // DEFAULT_N_REPS)
            widths += [len(scores) % DEFAULT_N_REPS] if len(scores) % DEFAULT_N_REPS else []
            assert [len(chunk) for chunk in chunks] == widths
            assert np.concatenate(chunks).tobytes() == scores.tobytes()


def test_d_statistic_matches_replicate_oracle_on_the_benchmark_tree():
    tree = parse_newick(benchmark_corpus_newick())
    rng = np.random.default_rng(400)
    for case in range(3):
        mask = (rng.random(tree.n_tips) < 0.9).astype(int)
        presence = mask * (rng.random(tree.n_tips) < 0.3)
        scores = oracle_d_scores(tree, presence, mask, 5, case)
        expected = oracle_d_from_scores(scores, 5, int(mask.sum()))
        assert d_statistic(tree, presence, mask, 5, seed=case) == expected


@settings(max_examples=40, deadline=None)
@given(
    bits=st.lists(st.booleans(), min_size=8, max_size=8),
    tree_index=st.integers(min_value=0, max_value=len(SMALL_TREE_NEWICKS) - 1),
)
def test_d_sum_complement_invariance_property(bits, tree_index):
    tree = parse_newick(SMALL_TREE_NEWICKS[tree_index])
    trait = np.array(bits[: tree.n_tips], dtype=float)
    if trait.min() == trait.max():
        return
    forward = d_sum(tree, trait)
    assert forward >= 0.0
    assert d_sum(tree, 1.0 - trait) == forward


def _oracle_d(tree, presence, mask, n_reps, seed):
    scores = oracle_d_scores(tree, presence, mask, n_reps, seed)
    return oracle_d_from_scores(scores, n_reps, int(np.sum(mask)))


def _random_trait(tree, seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random(tree.n_tips) < 0.9).astype(int)
    return mask * (rng.random(tree.n_tips) < 0.3), mask


def _bundled_water():
    tree = read_newick_file(BUNDLED / "tree.nwk")
    matrix, _ = load_cognates(BUNDLED / "cognates.csv")
    presence, mask = binary_trait(matrix, "water", "water-01", tree.tip_labels)
    return tree, presence, mask


def test_workspace_grows_and_is_reused_across_shapes(monkeypatch):
    # A fresh workspace grows on a 400-tip call, is reused (not shrunk) by a
    # 5-tip one, then grows again. Every call must match the oracle, so a
    # row left over from an earlier call would show.
    monkeypatch.setattr(comparative, "_WORKSPACE", comparative._Workspace())
    wide = parse_newick(benchmark_corpus_newick())
    five = parse_newick("((A:1,B:2):1,(C:1,(D:1,E:0.5):2):1);")
    hundred = parse_newick(caterpillar_newick(100, branch=0.3))
    cases = [
        (wide, *_random_trait(wide, 1), 25),
        (five, np.array([1, 1, 0, 0, 0]), np.ones(5, dtype=int), 1),
        (hundred, *_random_trait(hundred, 2), 500),
    ]
    sizes = []
    for tree, presence, mask, n_reps in cases:
        assert d_statistic(tree, presence, mask, n_reps, seed=n_reps) == _oracle_d(
            tree, presence, mask, n_reps, n_reps
        )
        sizes.append({name: buf.size for name, buf in comparative._WORKSPACE.buffers.items()})
    assert sizes[1] == sizes[0]
    assert sizes[2]["rows"] > sizes[0]["rows"] and sizes[2]["values"] > sizes[0]["values"]


def test_threads_calling_d_statistic_at_once_match_serial():
    # Each thread has its own workspace; four threads on two cores, each
    # starting at a different case, with a short switch interval.
    hundred = parse_newick(caterpillar_newick(100, branch=0.3))
    wide = parse_newick(benchmark_corpus_newick())
    cases = [
        (hundred, *_random_trait(hundred, 3), 200),
        (wide, *_random_trait(wide, 4), 10),
        (hundred, *_random_trait(hundred, 5), 70),
        (wide, *_random_trait(wide, 6), 3),
    ]
    serial = [d_statistic(t, p, m, n, seed=i) for i, (t, p, m, n) in enumerate(cases)]
    results = [[None] * len(cases) for _ in range(4)]
    barrier = threading.Barrier(4)

    def work(k):
        barrier.wait(timeout=30)
        for step in range(2 * len(cases)):
            i = (k + step) % len(cases)
            t, p, m, n = cases[i]
            results[k][i] = d_statistic(t, p, m, n, seed=i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * 4


def test_warm_d_call_reuses_its_buffers_and_allocates_less_than_one_replicate_array():
    # A warm call of the same shape reuses the workspace: its three buffers
    # (the rows; the BM values and draw block; the sweeps' level gathers)
    # are the same objects afterwards, and what the call does allocate (its
    # temporaries, which tracemalloc sees through numpy) peaks below one
    # (n_nodes x n_reps) float64 array.
    tree, presence, mask = _bundled_water()
    d_statistic(tree, presence, mask, DEFAULT_N_REPS, seed=1)
    before = dict(comparative._WORKSPACE.buffers)
    n_nodes = prune_to_taxa(tree, {lab for lab, kept in zip(tree.tip_labels, mask) if kept}).n_nodes
    tracemalloc.start()
    try:
        d_statistic(tree, presence, mask, DEFAULT_N_REPS, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    after = comparative._WORKSPACE.buffers
    assert sorted(after) == sorted(before) == ["level", "rows", "values"]
    assert all(after[name] is before[name] for name in before)
    assert peak < n_nodes * DEFAULT_N_REPS * 8


def test_impossible_replicate_count_is_a_memory_error_and_workspace_survives():
    # 10**12 reps asks for about 1.2 PiB of rows, more than any machine
    # holds, so numpy refuses it at once and nothing is allocated; the
    # workspace stays usable.
    tree, presence, mask = _bundled_water()
    expected = d_statistic(tree, presence, mask, 30, seed=2)
    with pytest.raises(comparative.ReplicateMemoryError):
        d_statistic(tree, presence, mask, 10**12, seed=2)
    assert d_statistic(tree, presence, mask, 30, seed=2) == expected
    assert expected == _oracle_d(tree, presence, mask, 30, 2)


def _assert_stack_matches_oracle(tree, presences, mask, n_reps, seeds):
    """Each trait of a stacked call against the one-replicate-at-a-time oracle."""
    batch = d_statistic(tree, np.array(presences), mask, n_reps, seed=seeds)
    assert batch.n_reps == n_reps and len(batch.results) == len(presences)
    used = np.asarray(mask).astype(bool)
    for presence, seed, result in zip(presences, seeds, batch.results):
        if np.ptp(np.asarray(presence)[used]) == 0:
            assert result == "no variation in trait"
            continue
        try:
            expected = _oracle_d(tree, presence, mask, n_reps, seed)
        except ValueError as exc:
            expected = str(exc)
        assert result == expected


def _stack(tree, rng):
    """A mask and a stack of traits on it: each prevalence once, a constant
    trait among them, and a seed per trait."""
    n = tree.n_tips
    mask = np.ones(n, dtype=int)
    if n > MIN_TIPS_FOR_D:
        mask[rng.integers(n)] = 0
    used = np.flatnonzero(mask)
    presences = []
    for m in range(1, len(used)):
        presence = np.zeros(n, dtype=int)
        presence[rng.choice(used, m, replace=False)] = 1
        presences.append(presence)
    presences.insert(len(presences) // 2, mask.copy())
    seeds = rng.integers(0, 2**63, len(presences)).tolist()
    return presences, mask, seeds


@pytest.mark.parametrize("stack_rows", [comparative._STACK_ROWS, 50])
@pytest.mark.parametrize(
    "newick",
    [nwk for nwk in SMALL_TREE_NEWICKS if parse_newick(nwk).n_tips >= MIN_TIPS_FOR_D]
    + [TIE_TREE],
)
def test_stacked_d_statistic_matches_replicate_oracle_per_class(newick, stack_rows, monkeypatch):
    # Every trait of a stack, each with its own seed, has the bits of the
    # oracle. The row budget cuts the stacks: at 10 reps a stack holds 6
    # traits (2 at a budget of 50), and from 63 reps each trait is alone.
    # On TIE_TREE the BM values tie at the cut, so tie keys are replayed
    # for traits of different seeds within one stack.
    monkeypatch.setattr(comparative, "_STACK_ROWS", stack_rows)
    replays = []

    def counting_rekey(g, seed, r):
        replays.append(1)
        rekey(g, seed, r)

    monkeypatch.setattr(comparative, "rekey", counting_rekey)
    tree = parse_newick(newick)
    rng = np.random.default_rng(len(newick) + stack_rows)
    presences, mask, seeds = _stack(tree, rng)
    for n_reps in (1, 10, 63, 64, 65) + ((500,) if newick == TIE_TREE else ()):
        replays.clear()
        _assert_stack_matches_oracle(tree, presences, mask, n_reps, seeds)
        if newick == TIE_TREE and n_reps >= 10:
            assert len(replays) > (len(presences) - 1) * n_reps  # draws, then replays


def test_stacked_d_statistic_matches_replicate_oracle_on_the_benchmark_tree():
    tree = parse_newick(benchmark_corpus_newick())
    rng = np.random.default_rng(401)
    mask = (rng.random(tree.n_tips) < 0.9).astype(int)
    presences = [mask * (rng.random(tree.n_tips) < p) for p in (0.1, 0.4)]
    presences.insert(1, mask.copy())
    for n_reps in (1, 10, 63, 64, 65):
        _assert_stack_matches_oracle(tree, presences, mask, n_reps, [n_reps, 7, 2**40 + n_reps])


def test_stacked_call_raises_shared_input_errors_like_a_one_trait_call():
    tree = parse_newick("((A:1,B:1):1,(C:1,D:1):1);")
    ones = np.ones(4, dtype=int)
    presences = np.array([[1, 0, 0, 0], [1, 1, 0, 0]])
    cases = [
        (presences[:, :3], ones, 10, [1, 2], "align with the tree tips"),
        (presences, ones, 10, [1], "one seed per trait"),
        (presences, np.array([0, 1, 1, 1]), 10, [1, 2], "presence must be 0"),
        (presences, ones, 0, [1, 2], "n_reps must be >= 1"),
        (presences * [1, 0, 1, 0], np.array([1, 0, 1, 0]), 10, [1, 2], "fewer than 4 usable"),
    ]
    for presence, mask, n_reps, seeds, message in cases:
        with pytest.raises(ValueError, match=message):
            d_statistic(tree, presence, mask, n_reps, seed=seeds)
        if len(seeds) == len(presence):
            with pytest.raises(ValueError, match=message):
                d_statistic(tree, presence[0], mask, n_reps, seed=seeds[0])


def test_compute_metrics_equals_a_loop_of_one_trait_calls():
    # One stacked D call per concept gives, field for field and in the same
    # order, what one call per class gave: results, and skip texts.
    tree = read_newick_file(BUNDLED / "tree.nwk")
    matrix, _ = load_cognates(BUNDLED / "cognates.csv")
    config = DStatConfig(seed=5, n_reps=10)
    for concept in sorted(matrix.concepts):
        metrics = compute_metrics(matrix, tree, concept, config)
        attested = matrix.languages_for(concept) & set(tree.tip_labels)
        expected = []
        for cls, langs in sorted(matrix.classes_for(concept).items()):
            size = len(langs & set(tree.tip_labels))
            if not size:
                continue
            if len(attested) < MIN_TIPS_FOR_D:
                expected.append((cls, f"fewer than {MIN_TIPS_FOR_D} usable tips"))
                continue
            if size == len(attested):
                expected.append((cls, "constant trait (attested by every usable language)"))
                continue
            presence, mask = binary_trait(matrix, concept, cls, tree.tip_labels)
            try:
                seed = config.class_seed(concept, cls)
                expected.append((cls, d_statistic(tree, presence, mask, 10, seed=seed)))
            except ValueError as exc:
                expected.append((cls, str(exc)))
        assert list(metrics.class_results.items()) == [
            (cls, r) for cls, r in expected if not isinstance(r, str)
        ]
        assert list(metrics.class_skips.items()) == [
            (cls, r) for cls, r in expected if isinstance(r, str)
        ]


def test_warm_stacked_call_allocates_less_than_one_nodes_by_rows_array():
    # A warm stacked call on the 400-tip tree at 10 reps takes every array it
    # needs from the workspace: what it allocates on top peaks below one
    # (n_nodes x stacked rows) float64 array.
    tree = parse_newick(benchmark_corpus_newick())
    rng = np.random.default_rng(402)
    mask = (rng.random(tree.n_tips) < 0.9).astype(int)
    presences = np.array([mask * (rng.random(tree.n_tips) < p) for p in (0.1, 0.2, 0.3, 0.5, 0.7)])
    seeds = list(range(len(presences)))
    d_statistic(tree, presences, mask, 10, seed=seeds)
    n_nodes = prune_to_taxa(tree, {lab for lab, kept in zip(tree.tip_labels, mask) if kept}).n_nodes
    tracemalloc.start()
    try:
        d_statistic(tree, presences, mask, 10, seed=seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_nodes * len(presences) * (2 * 10 + 1) * 8
