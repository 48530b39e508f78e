import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexiphylo.tree import (
    NewickError,
    Tree,
    TreeError,
    parse_newick,
    prune_to_taxa,
    read_newick_file,
    tree_summary,
    write_newick,
)
from util import (
    SMALL_TREE_NEWICKS,
    TIE_TREE,
    balanced_newick,
    benchmark_corpus_newick,
    caterpillar_newick,
    oracle_parse_newick,
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
        with pytest.raises(NewickError, match="duplicate tip label 'A'") as err:
            parse_newick("(A:1,(B:1,A:2):1);")
        assert err.value.offset == 10

    def test_duplicate_reported_at_later_occurrence_of_first_repeat(self):
        # A repeats before B does, so A is reported, at its second occurrence.
        text = "(B:1,(A:1,(C:1,(A:1,B:1):1):1):1);"
        with pytest.raises(NewickError) as err:
            parse_newick(text)
        assert str(err.value) == "duplicate tip label 'A' at offset 16"
        assert text[16] == "A" and text.index("A") < 16

    def test_duplicate_reported_after_syntax_errors(self):
        with pytest.raises(NewickError, match="missing ';' terminator"):
            parse_newick("(A:1,(B:1,A:2):1)")
        with pytest.raises(NewickError, match="trailing content"):
            parse_newick("(A:1,A:2); x")

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

    @pytest.mark.parametrize("zero", ["-0", "-0.0", "-0e3"])
    def test_negative_zero_length_is_stored_as_zero(self, zero):
        # write_newick writes either zero as "0", which parses as +0.0.
        tree = parse_newick(f"(A:{zero},B:1);")
        assert not np.signbit(tree.lengths).any()

    def test_comments_stripped(self):
        tree = parse_newick("(A:1,[a comment, with comma]B:2);")
        assert tree.tip_labels == ("A", "B")

    def test_single_tip_tree(self):
        tree = parse_newick("A:0;")
        assert tree.n_nodes == 1
        assert tree.tip_labels == ("A",)

    def test_file_with_a_utf8_bom_and_crlf(self, tmp_path):
        path = tmp_path / "tree.nwk"
        path.write_bytes(b"\xef\xbb\xbf((A:1,B:2):1,C:3);\r\n")
        assert read_newick_file(path).structurally_equal(parse_newick("((A:1,B:2):1,C:3);"))


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


def _ints(*values):
    return np.array(values, dtype=np.intp)


_NUMBERING = "every subtree must be the index range ending at its root (left-to-right postorder numbering)"
_LABELS = "labels must be non-empty and hold no whitespace or any of ( ) , : ; ["


class TestConstructor:
    """``Tree(parents, lengths, labels)`` checks the parents array it stores."""

    def test_children_derive_from_parents(self):
        tree = Tree(_ints(3, 2, 3, -1), np.array([1.0, 2.0, 0.5, 0.0]), ("A", "B", None, "R"))
        assert tree.children == ((), (), (1,), (0, 2))
        assert tree.tip_labels == ("A", "B")
        assert tree.is_tip(1) and not tree.is_tip(2)
        assert tree.defaulted == frozenset()
        assert write_newick(tree) == "(A:1,(B:2):0.5)R:0;"

    @pytest.mark.parametrize(
        "parents, lengths, labels, message",
        [
            (_ints(), np.zeros(0), (), "tree has no nodes"),
            (_ints(2, 2, -1), np.zeros(2), ("A", "B", None), "per-node arrays disagree in length"),
            (np.array([2.0, 2.0, -1.0]), np.zeros(3), ("A", "B", None),
             "parents must be an integer array"),
            (_ints(2, -1, 1), np.zeros(3), ("A", "B", None),
             "the last node must be the root, with parent -1"),
            # A second root, a parent before its child, a parent past the last node.
            (_ints(2, -1, -1), np.zeros(3), ("A", "B", None),
             "every other node's parent must be a later node (postorder numbering)"),
            (_ints(2, 0, 3, -1), np.zeros(4), ("A", "B", None, None),
             "every other node's parent must be a later node (postorder numbering)"),
            (_ints(2, 5, -1), np.zeros(3), ("A", "B", None),
             "every other node's parent must be a later node (postorder numbering)"),
            (_ints(2, 2, -1), np.array([1.0, -1.0, 0.0]), ("A", "B", None),
             "branch lengths must be finite and non-negative"),
            (_ints(2, 2, -1), np.array([np.nan, 1.0, 0.0]), ("A", "B", None),
             "branch lengths must be finite and non-negative"),
            (_ints(2, 2, -1), np.zeros(3), ("A", "", None), "every tip must be labeled"),
            (_ints(2, 2, -1), np.zeros(3), ("A", None, "R"), "every tip must be labeled"),
            (_ints(2, 2, -1), np.zeros(3), ("A", "A", None), "tip labels must be unique"),
            # B's subtree is not the range just below it: written back, B
            # would come first.
            (_ints(2, 3, 3, -1), np.ones(4), ("A", "B", None, "R"), _NUMBERING),
            (_ints(3, 4, 3, 4, -1), np.ones(5), ("A", "B", "C", None, None), _NUMBERING),
            (_ints(2, 2, -1), np.zeros(3), ("A", "B", ""), _LABELS),
            (_ints(2, 2, -1), np.zeros(3), ("A B", "B", None), _LABELS),
            (_ints(2, 2, -1), np.zeros(3), ("A", "B", "R\u2003"), _LABELS),
            *((_ints(2, 2, -1), np.zeros(3), ("A", f"B{ch}", None), _LABELS) for ch in "(),:;["),
        ],
    )
    def test_errors(self, parents, lengths, labels, message):
        with pytest.raises(TreeError) as caught:
            Tree(parents, lengths, labels)
        assert str(caught.value) == message

    @pytest.mark.parametrize("newick", [
        "(((A:1e308,B:0):1e308,C:1e308):1e308,(D:0,E:0):1e308):0;",
        "(((A:1e308,B:1):1e308,C:1):1,(D:1,E:1):1):0;",
    ])
    def test_a_root_to_tip_path_beyond_a_double_is_refused(self, newick):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(TreeError, match="^a root-to-tip path length overflows a double$"):
                parse_newick(newick)

    def test_root_to_tip_paths_up_to_the_largest_double_are_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The root's own length is on no root-to-tip path.
            tree = parse_newick("((A:8e307,B:1):9e307,C:1):1e308;")
            pruned = prune_to_taxa(tree, {"A", "C"})
        assert tree.height == pruned.height == 8e307 + 9e307

    def test_lone_bracket_and_quotes_are_writable(self):
        tree = parse_newick("(A],B)x'y;")
        assert tree.labels == ("A]", "B", "x'y")
        again = Tree(tree.parents, tree.lengths, tree.labels)
        assert parse_newick(write_newick(again)).structurally_equal(again)


def _newick_from_arrays(parents, lengths, labels) -> str:
    """Newick for raw per-node arrays, each node's children in ascending index
    order, written without building a Tree (so without its checks)."""
    children = [[] for _ in labels]
    for child, parent in enumerate(parents[:-1]):
        children[parent].append(child)

    def text(i):
        inner = f"({','.join(map(text, children[i]))})" if children[i] else ""
        return f"{inner}{labels[i] or ''}:{lengths[i]!r}"

    return text(len(labels) - 1) + ";"


def _random_arrays(rng: np.random.Generator):
    n = int(rng.integers(1, 9))
    parents = np.array([*(rng.integers(i + 1, n) for i in range(n - 1)), -1], dtype=np.intp)
    lengths = rng.integers(0, 8, size=n) / 4
    is_parent = np.zeros(n, dtype=bool)
    is_parent[parents[:-1]] = True
    labels = []
    for i in range(n):
        if is_parent[i] and rng.random() < 0.6:
            labels.append(None)
        elif rng.random() < 0.1:
            labels.append(str(rng.choice(["", "a b", "a(", "a)", "a,", "a:", "a;", "a[", "a]", "'a", "t0"])))
        else:
            labels.append(f"t{i}")
    return parents, lengths, tuple(labels)


def test_built_tree_accepted_iff_it_roundtrips():
    """Every Tree the constructor accepts round-trips through write_newick, and
    the arrays it refuses do not: written out as they stand, they parse into
    different arrays or not at all."""
    rng = np.random.default_rng(20)
    accepted = 0
    for _ in range(3000):
        parents, lengths, labels = _random_arrays(rng)
        text = _newick_from_arrays(parents.tolist(), lengths.tolist(), labels)
        try:
            again = parse_newick(text)
        except NewickError:
            roundtrips = False
        else:
            roundtrips = (
                again.parents.tolist() == parents.tolist()
                and again.labels == labels
                and again.lengths.tolist() == lengths.tolist()
            )
        try:
            tree = Tree(parents, lengths, labels)
        except TreeError:
            assert not roundtrips, text
            continue
        accepted += 1
        assert roundtrips, text
        assert write_newick(tree) == write_newick(again)
        assert parse_newick(write_newick(tree)).structurally_equal(tree)
    assert 300 < accepted < 2700


# Pieces of generated Newick statements: labels (empty, duplicated, holding a
# stray "]"), length tokens, whitespace (each one str.isspace() accepts),
# comments (nested, unclosed, annotations, a stray "]") and terminators.
_LABELS = ["A", "B", "C", "D", "x1", "tip_2", "é", "", "", "]", "A]", "1"]
_LENGTH_TOKENS = ["1", "0.5", "2e-3", "0", "", "abc", "-1", "-0", "+1", "1_0",
                  "nan", "inf", "-inf", "1e400", "1e-320", "1e308", ".5", "1.", "\u0661"]
_SPACES = ["", "", "", " ", "\t", "\n", "\r\n", "\xa0", "\x85", "\x1c", "\u3000", "  "]
_COMMENTS = ["[x]", "[&a=1,b={2,3}]", "[a[b]c]", "[[ ]]", "]", "[", "[&&NHX:S=x]", "[;()]"]
_ENDS = [";", ";", ";", ";", "", ";;", "; x", ";)", ");", " ;\n", ";[c]", "(;"]


def _random_statement(rng) -> str:
    """A Newick statement of nested groups, most of them well formed, some
    with a character dropped, doubled or inserted anywhere."""
    pick = rng.choice
    parts = []

    def space():
        parts.append(pick(_SPACES))
        if rng.random() < 0.06:
            parts.append(pick(_COMMENTS))

    def node(depth):
        space()
        if depth < 4 and rng.random() < 0.35:
            parts.append("(")
            for i in range(1 + int(rng.random() * 3)):
                if i:
                    space()
                    parts.append(",")
                node(depth + 1)
            space()
            parts.append(")")
            if rng.random() < 0.3:
                space()
                parts.append(pick(_LABELS))
        else:
            parts.append(pick(_LABELS))
        if rng.random() < 0.8:
            space()
            parts.append(":")
            space()
            parts.append(pick(_LENGTH_TOKENS))

    node(0)
    space()
    parts.append(pick(_ENDS))
    text = "".join(parts)
    if rng.random() < 0.25 and text:
        at = int(rng.random() * len(text))
        edit = rng.random()
        if edit < 0.4:
            text = text[:at] + text[at + 1:]
        elif edit < 0.6:
            text = text[:at] + text[at] + text[at:]
        else:
            text = text[:at] + pick("(),:;[] \tA") + text[at:]
    return text


def _outcome(parse, text):
    """The parsed arrays bit for bit, or the error's type, message and offset."""
    try:
        tree = parse(text)
    except (NewickError, TreeError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return tree.parents.tolist(), tree.lengths.tobytes(), tree.labels, tree.defaulted


@pytest.mark.parametrize("seed", range(20))
def test_parse_matches_the_character_scanner(seed):
    """parse_newick agrees with a scanner that reads one character at a time,
    on 5,000 generated statements per seed: the same tree, or the same error
    at the same offset."""
    rng = random.Random(seed)
    parsed = 0
    for _ in range(5000):
        text = _random_statement(rng)
        expected = _outcome(oracle_parse_newick, text)
        assert _outcome(parse_newick, text) == expected, repr(text)
        parsed += not isinstance(expected[0], type)
    assert parsed > 250


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

    def test_arrays_are_read_only_copies_also_after_pickling(self):
        """A write used to go through, and left ``height`` stale at 3.0."""
        source = parse_newick("(((A:1,B:1):1,C:1):1,(D:1,E:1):1):0;")
        parents, lengths = source.parents.copy(), source.lengths.copy()
        tree = Tree(parents, lengths, source.labels)
        for held in (tree, pickle.loads(pickle.dumps(tree))):
            assert held.structurally_equal(source) and held.height == 3.0
            for array, value in ((held.parents, 0), (held.lengths, 5.0)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = value
        parents[0], lengths[0] = 0, 5.0  # the caller's arrays stay the caller's
        assert tree.structurally_equal(source) and tree.height == 3.0


# Random tree strategy: nested tuples of labels, converted to Newick. Its
# lengths are quarters, and zeros written with a minus sign.
LENGTHS = [str(q / 4) for q in range(8)] + ["-0", "-0.0", "-0e3"]


@st.composite
def newick_trees(draw):
    n_tips = draw(st.integers(min_value=2, max_value=12))
    labels = [f"t{i}" for i in range(n_tips)]
    rng_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(rng_seed)

    def length() -> str:
        return LENGTHS[rng.integers(len(LENGTHS))]

    def build(group):
        if len(group) == 1:
            return f"{group[0]}:{length()}"
        n_parts = int(rng.integers(2, min(4, len(group)) + 1))
        cuts = sorted(rng.choice(range(1, len(group)), size=n_parts - 1, replace=False).tolist())
        parts = np.split(np.array(group, dtype=object), cuts)
        inner = ",".join(build(list(p)) for p in parts if len(p))
        return f"({inner}):{length()}"

    return build(labels).rsplit(":", 1)[0] + ";"


@settings(max_examples=60, deadline=None)
@given(newick_trees())
def test_parse_write_roundtrip_property(newick):
    tree = parse_newick(newick)
    again = parse_newick(write_newick(tree))
    assert again.structurally_equal(tree)
    assert np.array_equal(np.signbit(again.lengths), np.signbit(tree.lengths))
    for i in tree.postorder():
        for child in tree.children[i]:
            assert child < i
    # Each node's children, in Newick order, are in ascending index order.
    assert tree.child_table[0].tolist() == np.argsort(tree.parents[:-1], kind="stable").tolist()
