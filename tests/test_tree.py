import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexiphylo.tree import (
    NewickError,
    Tree,
    TreeError,
    parse_newick,
    prune_to_taxa,
    tree_summary,
    write_newick,
)
from util import (
    SMALL_TREE_NEWICKS,
    TIE_TREE,
    balanced_newick,
    benchmark_corpus_newick,
    caterpillar_newick,
    oracle_prune_to_taxa,
)


class TestParse:
    def test_two_tip_fixture(self):
        tree = parse_newick("(A:1.0,B:2.0)R:0.0;")
        assert tree.tip_labels == ("A", "B")
        assert tree.labels[tree.root] == "R"
        assert tree.height == 2.0
        assert tree.n_nodes == 3

    def test_roundtrip_is_structurally_identical(self):
        text = "((A:0.25,B:1):0.5,(C:3,D:1.75)X:2)R:0;"
        tree = parse_newick(text)
        again = parse_newick(write_newick(tree))
        assert tree.structurally_equal(again)

    def test_unbalanced_parentheses_offset(self):
        with pytest.raises(NewickError) as err:
            parse_newick("(A:1.0")
        assert str(err.value) == "unbalanced parentheses at offset 6"
        assert err.value.offset == 6

    def test_stray_close_paren(self):
        with pytest.raises(NewickError, match="unbalanced parentheses"):
            parse_newick("(A:1,B:2));")

    def test_empty_input(self):
        with pytest.raises(NewickError, match="empty input"):
            parse_newick("   ")

    def test_duplicate_tip_label(self):
        with pytest.raises(NewickError, match="duplicate tip label 'A'"):
            parse_newick("(A:1,(B:1,A:2):1);")

    def test_negative_branch_length(self):
        with pytest.raises(NewickError, match="negative branch length"):
            parse_newick("(A:-1,B:1);")

    def test_non_numeric_branch_length(self):
        with pytest.raises(NewickError, match="non-numeric branch length"):
            parse_newick("(A:abc,B:1);")

    def test_missing_terminator(self):
        with pytest.raises(NewickError, match="missing ';'"):
            parse_newick("(A:1,B:2)")

    def test_trailing_content(self):
        with pytest.raises(NewickError, match="trailing content"):
            parse_newick("(A:1,B:2); junk")

    def test_missing_tip_label(self):
        with pytest.raises(NewickError, match="missing tip label"):
            parse_newick("(A:1,:2);")

    def test_absent_lengths_default_to_one_and_are_flagged(self):
        tree = parse_newick("(A,B:2);")
        a = tree.tip_indices[list(tree.tip_labels).index("A")]
        assert tree.lengths[a] == 1.0
        assert int(a) in tree.defaulted
        # The root has no parent edge: length 0, not flagged.
        assert tree.lengths[tree.root] == 0.0
        assert tree.root not in tree.defaulted

    def test_comments_stripped(self):
        tree = parse_newick("(A:1,[a comment, with comma]B:2);")
        assert tree.tip_labels == ("A", "B")

    def test_single_tip_tree(self):
        tree = parse_newick("A:0;")
        assert tree.n_nodes == 1
        assert tree.tip_labels == ("A",)


class TestWrite:
    def test_canonical_form(self):
        assert write_newick(parse_newick("(A:1.0,B:2.0)R:0.0;")) == "(A:1,B:2)R:0;"

    def test_single_tip(self):
        assert write_newick(parse_newick("A:0;")) == "A:0;"

    def test_write_parse_write_idempotent(self):
        text = "((A:0.1,B:0.2):0.5,(C:0.3,D:0.4):0.6);"
        first = write_newick(parse_newick(text))
        assert write_newick(parse_newick(first)) == first

    def test_shortest_roundtrip_lengths(self):
        tree = parse_newick("(A:0.1,B:12345.0);")
        assert write_newick(tree) == "(A:0.1,B:12345):0;"


class TestPrune:
    def test_hand_path_lengths(self):
        tree = parse_newick("((A:1,B:1):1,C:2);")
        pruned = prune_to_taxa(tree, {"A", "C"})
        assert pruned.structurally_equal(parse_newick("(A:2,C:2);"))

    def test_keep_all_is_identity(self):
        tree = parse_newick("((A:1,B:1):1,(C:2,D:1):1);")
        pruned = prune_to_taxa(tree, set(tree.tip_labels))
        assert pruned.structurally_equal(tree)

    def test_fewer_than_two_taxa(self):
        tree = parse_newick("((A:1,B:1):1,C:2);")
        with pytest.raises(TreeError, match="2 taxa"):
            prune_to_taxa(tree, {"A"})

    def test_unknown_label(self):
        tree = parse_newick("(A:1,B:1);")
        with pytest.raises(TreeError, match="unknown tip label"):
            prune_to_taxa(tree, {"A", "Z"})

    def test_unary_root_retained_to_preserve_distances(self):
        tree = parse_newick("((A:1,B:2):3,C:1);")
        pruned = prune_to_taxa(tree, {"A", "B"})
        by_label = dict(zip(pruned.tip_labels, (pruned.root_distances[i] for i in pruned.tip_indices)))
        assert by_label == {"A": 4.0, "B": 5.0}

    def test_distances_preserved_on_random_subsets(self):
        rng = np.random.default_rng(4)
        tree = parse_newick(balanced_newick(5))
        original = dict(zip(tree.tip_labels, (tree.root_distances[i] for i in tree.tip_indices)))
        for _ in range(20):
            size = int(rng.integers(2, tree.n_tips))
            keep = set(rng.choice(tree.tip_labels, size=size, replace=False).tolist())
            pruned = prune_to_taxa(tree, keep)
            for label, idx in zip(pruned.tip_labels, pruned.tip_indices):
                assert abs(pruned.root_distances[idx] - original[label]) < 1e-12


def _subtree_tips(tree: Tree, node: int) -> list[str]:
    stack, tips = [node], []
    while stack:
        i = stack.pop()
        if tree.is_tip(i):
            tips.append(tree.labels[i])
        stack.extend(tree.children[i])
    return sorted(tips)


def _keep_sets(tree: Tree, rng: np.random.Generator, count: int):
    """All tips, random subsets, and subsets inside one root child (a unary root)."""
    yield set(tree.tip_labels)
    for _ in range(count):
        size = int(rng.integers(2, tree.n_tips + 1))
        yield set(rng.choice(tree.tip_labels, size=size, replace=False).tolist())
    for child in tree.children[tree.root]:
        tips = _subtree_tips(tree, child)
        for _ in range(count // 4 if len(tips) >= 2 else 0):
            size = int(rng.integers(2, len(tips) + 1))
            yield set(rng.choice(tips, size=size, replace=False).tolist())


def _assert_same_tree(got: Tree, want: Tree) -> None:
    assert got.parents.dtype == want.parents.dtype
    assert got.parents.tolist() == want.parents.tolist()
    assert got.children == want.children
    assert got.labels == want.labels
    assert got.lengths.tobytes() == want.lengths.tobytes()
    assert got.defaulted == want.defaulted


class TestPruneMatchesNestedRebuild:
    """The survivor-order prune against the nested-node prune it replaced."""

    @pytest.mark.parametrize(
        "newick",
        SMALL_TREE_NEWICKS
        + [
            TIE_TREE,
            caterpillar_newick(12, branch=0.3),
            # Unary internal nodes in the input are spliced as well.
            "(((A:1):2,B:0.1):1,(C:1.5):0.5,((D:0.25):0.5):0.125);",
        ],
    )
    def test_small_trees(self, newick):
        tree = parse_newick(newick)
        rng = np.random.default_rng(len(newick))
        for keep in _keep_sets(tree, rng, 40):
            _assert_same_tree(prune_to_taxa(tree, keep), oracle_prune_to_taxa(tree, keep))

    def test_benchmark_corpus_tree(self):
        tree = parse_newick(benchmark_corpus_newick())
        assert tree.n_tips == 400
        rng = np.random.default_rng(8)
        for keep in _keep_sets(tree, rng, 24):
            pruned = prune_to_taxa(tree, keep)
            _assert_same_tree(pruned, oracle_prune_to_taxa(tree, keep))
            # The kept tips keep their order in the parent tree.
            assert pruned.tip_labels == tuple(lab for lab in tree.tip_labels if lab in keep)

    def test_repruning_a_unary_root(self):
        tree = parse_newick("((A:1,B:2):3,(C:1,D:1):1);")
        unary = prune_to_taxa(tree, {"A", "B"})
        assert len(unary.children[unary.root]) == 1
        for keep in ({"A", "B"}, {"A", "B", "C"} & set(unary.tip_labels)):
            _assert_same_tree(prune_to_taxa(unary, keep), oracle_prune_to_taxa(unary, keep))

    @pytest.mark.parametrize(
        "keep, message",
        [
            ({"A", "Z"}, "unknown tip label: 'Z'"),
            ({"Y", "Z", "A", "B"}, "unknown tip label: 'Y'"),
            ({"Z"}, "unknown tip label: 'Z'"),
            ({"A"}, "need >= 2 taxa, got 1"),
            (set(), "need >= 2 taxa, got 0"),
        ],
    )
    def test_errors(self, keep, message):
        tree = parse_newick("((A:1,B:1):1,C:2);")
        for prune in (prune_to_taxa, oracle_prune_to_taxa):
            with pytest.raises(TreeError) as caught:
                prune(tree, keep)
            assert str(caught.value) == message


class TestSummary:
    def test_two_tip(self):
        s = tree_summary(parse_newick("(A:1,B:2)R:0;"))
        assert (s.tip_count, s.node_count, s.height) == (2, 3, 2.0)
        assert s.is_binary and s.polytomy_count == 0

    def test_polytomy(self):
        s = tree_summary(parse_newick("(A:1,B:1,C:1);"))
        assert (s.tip_count, s.node_count, s.height) == (3, 4, 1.0)
        assert not s.is_binary and s.polytomy_count == 1

    def test_balanced_64_height(self):
        s = tree_summary(parse_newick(balanced_newick(6)))
        assert s.tip_count == 64
        assert s.height == 6.0


class TestInvariants:
    def test_postorder_child_precedes_parent(self):
        tree = parse_newick("((A:1,(B:1,C:1):1):1,(D:1,E:1):1);")
        for i in tree.postorder():
            for child in tree.children[i]:
                assert child < i
        assert tree.parents[tree.root] == -1

    def test_immutable_arrays_reject_mutation(self):
        tree = parse_newick("(A:1,B:2);")
        with pytest.raises(Exception):
            tree.lengths = np.zeros(3)


# Random tree strategy: nested tuples of labels, converted to Newick.
@st.composite
def newick_trees(draw):
    n_tips = draw(st.integers(min_value=2, max_value=12))
    labels = [f"t{i}" for i in range(n_tips)]
    rng_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(rng_seed)

    def build(group):
        if len(group) == 1:
            return f"{group[0]}:{rng.integers(0, 8) / 4}"
        n_parts = int(rng.integers(2, min(4, len(group)) + 1))
        cuts = sorted(rng.choice(range(1, len(group)), size=n_parts - 1, replace=False).tolist())
        parts = np.split(np.array(group, dtype=object), cuts)
        inner = ",".join(build(list(p)) for p in parts if len(p))
        return f"({inner}):{rng.integers(0, 8) / 4}"

    return build(labels).rsplit(":", 1)[0] + ";"


@settings(max_examples=60, deadline=None)
@given(newick_trees())
def test_parse_write_roundtrip_property(newick):
    tree = parse_newick(newick)
    assert parse_newick(write_newick(tree)).structurally_equal(tree)
    for i in tree.postorder():
        for child in tree.children[i]:
            assert child < i
