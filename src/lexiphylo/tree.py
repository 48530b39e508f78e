"""Rooted phylogenetic trees with branch lengths, Newick-backed.

Nodes are stored in postorder: every child index is smaller than its
parent's, and the root is always the last node, so index order is a
bottom-up and reversed index order a top-down traversal. ``depth_levels``
groups the nodes for sweeps that process a whole level at a time, top-down
shallowest level first and bottom-up deepest level first. A pruned tree
keeps its parent's postorder restricted to the surviving nodes, so the kept
tips keep their relative order.

Trees are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO

import numpy as np


class NewickError(ValueError):
    """Malformed Newick input; ``offset`` points at the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class TreeError(ValueError):
    """A structurally invalid tree or an invalid tree operation."""


# Characters that end a label or a branch-length token.
_TOKEN_END = set("(),:;")


@dataclass(frozen=True, eq=False)
class Tree:
    """A rooted tree over parallel per-node arrays, numbered in postorder.

    Attributes
    ----------
    parents : int ndarray, -1 for the root
    children : per-node tuple of child indices (empty for tips), in the
        left-to-right order of the source Newick
    lengths : float ndarray, branch length to the parent (0.0 at the root)
    labels : per-node label, ``None`` where absent; tips always carry one
    defaulted : node indices whose branch length was absent in the source
        and defaulted to 1.0
    """

    parents: np.ndarray
    children: tuple[tuple[int, ...], ...]
    lengths: np.ndarray
    labels: tuple[str | None, ...]
    defaulted: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise TreeError("tree has no nodes")
        if not (len(self.parents) == len(self.children) == len(self.lengths) == n):
            raise TreeError("per-node arrays disagree in length")
        roots = np.flatnonzero(self.parents < 0)
        if len(roots) != 1:
            raise TreeError(f"expected exactly one root, found {len(roots)}")
        if roots[0] != n - 1:
            raise TreeError("root must be the last node (postorder numbering)")
        parents = self.parents.tolist()
        seen = 0
        for i, kids in enumerate(self.children):
            for c in kids:
                if c >= i:
                    raise TreeError("child index must precede its parent")
                if parents[c] != i:
                    raise TreeError("children and parents arrays disagree")
            seen += len(kids)
        if seen != n - 1:
            raise TreeError("tree is not connected")
        if not np.all(np.isfinite(self.lengths)) or np.any(self.lengths < 0):
            raise TreeError("branch lengths must be finite and non-negative")
        tip_labels = [lab for lab, kids in zip(self.labels, self.children) if not kids]
        if any(lab is None or lab == "" for lab in tip_labels):
            raise TreeError("every tip must be labeled")
        if len(set(tip_labels)) != len(tip_labels):
            raise TreeError("tip labels must be unique")

    @classmethod
    def _unchecked(
        cls,
        parents: np.ndarray,
        children: tuple[tuple[int, ...], ...],
        lengths: np.ndarray,
        labels: tuple[str | None, ...],
    ) -> "Tree":
        """A tree from fields that pass ``__post_init__`` by construction
        (a pruning of a valid tree), without checking them again."""
        tree = object.__new__(cls)
        tree.__dict__.update(
            parents=parents, children=children, lengths=lengths, labels=labels,
            defaulted=frozenset(),
        )
        return tree

    # -- derived views ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def root(self) -> int:
        return self.n_nodes - 1

    @cached_property
    def tip_indices(self) -> np.ndarray:
        return np.flatnonzero(self.child_table[1] == 0)

    @cached_property
    def tip_labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, kids in zip(self.labels, self.children) if not kids)  # type: ignore[misc]

    @property
    def n_tips(self) -> int:
        return len(self.tip_indices)

    def is_tip(self, i: int) -> bool:
        return not self.children[i]

    def postorder(self) -> range:
        """Node indices in postorder (the storage order)."""
        return range(self.n_nodes)

    @cached_property
    def child_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's children as flat arrays: the children of node 0, then of
        node 1, ..., each in stored order; each node's child count; and the
        offset of each node's first child."""
        counts = np.fromiter(map(len, self.children), dtype=np.intp, count=self.n_nodes)
        flat = np.fromiter(chain.from_iterable(self.children), dtype=np.intp)
        return flat, counts, np.cumsum(counts) - counts

    @cached_property
    def _sibling_rank(self) -> np.ndarray:
        """Each node's position among its parent's children (0 at the root)."""
        flat, counts, starts = self.child_table
        rank = np.zeros(self.n_nodes, dtype=np.intp)
        rank[flat] = np.arange(len(flat)) - np.repeat(starts, counts)
        return rank

    @cached_property
    def root_distances(self) -> np.ndarray:
        """Path length from the root to every node."""
        dist = np.zeros(self.n_nodes)
        # Each node adds its own length to its parent's distance, as a
        # top-down walk does, one depth level at a time.
        for nodes, parents in self.depth_levels:
            dist[nodes] = dist[parents] + self.lengths[nodes]
        return dist

    @cached_property
    def depth_levels(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Non-root nodes grouped by depth (edges up to the root), shallowest first,
        each group paired with its nodes' parents.

        A top-down sweep can finish one group at a time: every parent lies in
        an earlier group or is the root.
        """
        # Pointer doubling: ``up`` jumps 1, 2, 4, ... edges towards the root
        # (stopping there) and ``depth`` counts the edges jumped.
        up = self.parents.copy()
        up[self.root] = self.root
        depth = np.ones(self.n_nodes, dtype=np.intp)
        depth[self.root] = 0
        while True:
            further = up[up]
            if np.array_equal(further, up):
                break
            depth += depth[up]
            up = further
        groups = _group_by(depth, np.arange(self.root))
        return tuple((nodes, self.parents[nodes]) for nodes in groups)

    @cached_property
    def height(self) -> float:
        """Maximum root-to-tip distance."""
        return float(self.root_distances[self.tip_indices].max())

    def structurally_equal(self, other: "Tree") -> bool:
        """Exact equality of topology, labels, and branch lengths."""
        return (
            self.n_nodes == other.n_nodes
            and self.children == other.children
            and self.labels == other.labels
            and np.array_equal(self.lengths, other.lengths)
        )


def _group_by(key: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, ...]:
    """``nodes`` grouped by ``key[nodes]`` (small positive ints without gaps), in
    ascending key order and ascending index order within a group."""
    if not len(nodes):
        return ()
    order = nodes[np.argsort(key[nodes], kind="stable")]
    ends = np.cumsum(np.bincount(key[nodes])[1:]).tolist()
    return tuple(map(order.__getitem__, map(slice, [0, *ends[:-1]], ends)))


@dataclass(frozen=True)
class TreeSummary:
    tip_count: int
    node_count: int
    height: float
    is_binary: bool
    polytomy_count: int


# -- construction ----------------------------------------------------------


class _PNode:
    """Mutable node used while parsing/pruning, before postorder flattening."""

    __slots__ = ("label", "length", "children", "defaulted", "offset")

    def __init__(self, label, length, children, defaulted, offset=0):
        self.label = label
        self.length = length
        self.children = children
        self.defaulted = defaulted
        self.offset = offset


def _flatten(root: _PNode) -> Tree:
    """Assign postorder indices to a nested node structure and build a Tree."""
    order: list[_PNode] = []
    stack: list[tuple[_PNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        else:
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))
    index = {id(node): i for i, node in enumerate(order)}
    n = len(order)
    parents = np.full(n, -1, dtype=np.intp)
    children: list[tuple[int, ...]] = []
    lengths = np.zeros(n)
    labels: list[str | None] = []
    defaulted = set()
    for i, node in enumerate(order):
        kids = tuple(index[id(c)] for c in node.children)
        children.append(kids)
        for c in kids:
            parents[c] = i
        lengths[i] = node.length
        labels.append(node.label)
        if node.defaulted:
            defaulted.add(i)
    return Tree(parents, tuple(children), lengths, tuple(labels), frozenset(defaulted))


def _strip_comments(text: str) -> str:
    """Remove square-bracket comments (nesting allowed)."""
    out = []
    depth = 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            if depth > 0:
                depth -= 1
            else:
                out.append(ch)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def parse_newick(text: str) -> Tree:
    """Parse a single ``;``-terminated Newick statement into a Tree.

    Square-bracket comments are stripped first; error offsets refer to the
    comment-stripped text. Branch lengths absent from the input default to
    1.0 and the affected nodes are recorded in ``Tree.defaulted``; an absent
    root length becomes 0.0 (the root has no parent edge) and is not
    flagged.

    Raises
    ------
    NewickError
        On empty input, unbalanced parentheses, missing or duplicate tip
        labels, negative or non-numeric branch lengths, a missing ``;``,
        or trailing content. Each error carries the character offset.
    """
    s = _strip_comments(text)
    pos = _skip_ws(s, 0)
    if pos >= len(s):
        raise NewickError("empty input", 0)

    node, pos = _parse_subtree(s, pos)
    pos = _skip_ws(s, pos)
    if pos >= len(s) or s[pos] != ";":
        if pos < len(s) and s[pos] == ")":
            raise NewickError("unbalanced parentheses", pos)
        raise NewickError("missing ';' terminator", pos)
    pos = _skip_ws(s, pos + 1)
    if pos < len(s):
        raise NewickError("trailing content after ';'", pos)

    # Root branch length: absent means "no parent edge", not a default.
    if node.defaulted:
        node.length = 0.0
        node.defaulted = False

    _check_duplicate_tips(node)
    return _flatten(node)


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos].isspace():
        pos += 1
    return pos


def _parse_subtree(s: str, pos: int) -> tuple[_PNode, int]:
    # Iterative, so nesting depth is bounded by memory rather than by the
    # interpreter's recursion limit: each open group is (offset, children).
    open_groups: list[tuple[int, list[_PNode]]] = []
    while True:
        pos = _skip_ws(s, pos)
        if pos < len(s) and s[pos] == "(":
            open_groups.append((pos, []))
            pos += 1
            continue
        if pos < len(s) and s[pos] == ")":
            raise NewickError("unbalanced parentheses", pos)
        label_offset = pos
        label, pos = _read_label(s, pos)
        if label is None:
            raise NewickError("missing tip label", label_offset)
        length, defaulted, pos = _read_length(s, pos)
        node = _PNode(label, length, [], defaulted, label_offset)
        # Attach the finished node to its group; a ")" finishes that group too.
        while open_groups:
            open_offset, children = open_groups[-1]
            children.append(node)
            pos = _skip_ws(s, pos)
            if pos >= len(s):
                raise NewickError("unbalanced parentheses", len(s))
            if s[pos] == ",":
                pos += 1
                break
            if s[pos] != ")":
                raise NewickError(f"unexpected character {s[pos]!r}", pos)
            open_groups.pop()
            label, pos = _read_label(s, pos + 1)
            length, defaulted, pos = _read_length(s, pos)
            node = _PNode(label, length, children, defaulted, open_offset)
        if not open_groups:
            return node, pos


def _read_label(s: str, pos: int) -> tuple[str | None, int]:
    pos = _skip_ws(s, pos)
    start = pos
    while pos < len(s) and s[pos] not in _TOKEN_END and not s[pos].isspace():
        pos += 1
    token = s[start:pos]
    return (token if token else None), pos


def _read_length(s: str, pos: int) -> tuple[float, bool, int]:
    pos = _skip_ws(s, pos)
    if pos >= len(s) or s[pos] != ":":
        return 1.0, True, pos
    pos = _skip_ws(s, pos + 1)
    start = pos
    while pos < len(s) and s[pos] not in _TOKEN_END and not s[pos].isspace():
        pos += 1
    raw = s[start:pos]
    try:
        value = float(raw)
    except ValueError:
        raise NewickError(f"non-numeric branch length {raw!r}", start) from None
    if not np.isfinite(value):
        raise NewickError(f"non-finite branch length {raw!r}", start)
    if value < 0:
        raise NewickError(f"negative branch length {raw!r}", start)
    return value, False, pos


def _check_duplicate_tips(root: _PNode) -> None:
    seen: dict[str, int] = {}
    stack = [root]
    order: list[_PNode] = []
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    # Report the *later* occurrence, scanning tips in input order.
    for node in sorted((n for n in order if not n.children), key=lambda n: n.offset):
        if node.label in seen:
            raise NewickError(f"duplicate tip label {node.label!r}", node.offset)
        seen[node.label] = node.offset


def read_newick_file(source: str | Path | IO[str]) -> Tree:
    """Read one UTF-8 Newick tree from a file path or an open text stream."""
    if isinstance(source, (str, Path)):
        return parse_newick(Path(source).read_text(encoding="utf-8"))
    return parse_newick(source.read())


# -- serialization ---------------------------------------------------------


def _format_length(x: float) -> str:
    # Shortest decimal that round-trips: integers lose the ".0", the rest
    # use repr (exact for float64).
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def write_newick(tree: Tree) -> str:
    """Serialize canonically: stored child order, shortest round-trip lengths."""
    parts: dict[int, str] = {}
    for i in tree.postorder():
        label = tree.labels[i] or ""
        suffix = f"{label}:{_format_length(float(tree.lengths[i]))}"
        if tree.children[i]:
            inner = ",".join(parts.pop(c) for c in tree.children[i])
            parts[i] = f"({inner}){suffix}"
        else:
            parts[i] = suffix
    return parts[tree.root] + ";"


def write_newick_file(tree: Tree, path: str | Path) -> None:
    Path(path).write_text(write_newick(tree) + "\n", encoding="utf-8")


# -- operations ------------------------------------------------------------


def prune_to_taxa(tree: Tree, keep: set[str] | frozenset[str]) -> Tree:
    """Induce the subtree on ``keep``, preserving root-to-tip path lengths.

    Unary internal nodes created by the pruning are suppressed and their
    branch lengths summed. The root is never suppressed, even if it ends up
    with a single child: dropping it would shorten every root-to-tip path.

    The pruned tree is built from the surviving nodes directly: its node
    order is ``tree``'s postorder restricted to the survivors, so the kept
    tips keep their relative order. A surviving node heading a spliced
    chain takes its own length plus each spliced ancestor's, added bottom-up.
    Every step is a numpy operation over all nodes, or over one depth level
    at a time, and the result is not validated again: a pruning of a valid
    tree is valid.
    """
    keep = set(keep)
    unknown = keep.difference(tree.tip_labels)
    if unknown:
        raise TreeError(f"unknown tip label: {sorted(unknown)[0]!r}")
    if len(keep) < 2:
        raise TreeError(f"need >= 2 taxa, got {len(keep)}")

    n, parents, levels = tree.n_nodes, tree.parents, tree.depth_levels
    # live: the node's subtree holds a kept tip; filled bottom-up.
    live = np.zeros(n, dtype=bool)
    live[tree.tip_indices] = np.fromiter(map(keep.__contains__, tree.tip_labels), bool)
    for nodes, ups in reversed(levels):
        live[ups[live[nodes]]] = True
    # A live node survives unless it is a non-root node with one live child.
    survives = live & (np.bincount(parents[:-1][live[:-1]], minlength=n) != 1)
    survives[-1] = True
    # anchor: the nearest surviving ancestor-or-self; top: the ancestor-or-self
    # just below the nearest surviving proper ancestor, so a spliced chain and
    # the survivor at its foot share a top. Both by pointer jumping.
    nodes = np.arange(n)
    anchor = np.where(survives, nodes, parents)
    top = np.where(survives[parents], nodes, parents)
    for pointer in (anchor, top):
        while True:
            further = pointer[pointer]
            if np.array_equal(further, pointer):
                break
            pointer[:] = further
    kept = np.flatnonzero(survives)
    new_index = np.empty(n, dtype=np.intp)
    new_index[kept] = np.arange(len(kept))
    kids = kept[:-1]
    new_parents = np.append(new_index[anchor[parents[kids]]], -1)
    # Each spliced node's length goes onto the survivor at the foot of its
    # chain; np.add.at adds in index order, which is bottom-up along a chain.
    foot = np.empty(n, dtype=np.intp)
    foot[top[kids]] = np.arange(len(kids))
    spliced = np.flatnonzero(live & ~survives)
    new_lengths = tree.lengths[kept]
    np.add.at(new_lengths, foot[top[spliced]], tree.lengths[spliced])
    # A node's children, in the stored order of the chains' tops.
    order = np.lexsort((tree._sibling_rank[top[kids]], new_parents[:-1])).tolist()
    ends = np.cumsum(np.bincount(new_parents[:-1], minlength=len(kept))).tolist()
    children = tuple(map(tuple, map(order.__getitem__, map(slice, [0, *ends[:-1]], ends))))
    return Tree._unchecked(
        new_parents, children, new_lengths, tuple(map(tree.labels.__getitem__, kept.tolist()))
    )


def tree_summary(tree: Tree) -> TreeSummary:
    """Tip/node counts, height, binarity, and polytomy count."""
    internal = [i for i in tree.postorder() if not tree.is_tip(i)]
    polytomies = sum(1 for i in internal if len(tree.children[i]) > 2)
    is_binary = bool(internal) and all(len(tree.children[i]) == 2 for i in internal)
    if tree.n_nodes == 1:
        is_binary = False
    return TreeSummary(
        tip_count=tree.n_tips,
        node_count=tree.n_nodes,
        height=tree.height,
        is_binary=is_binary,
        polytomy_count=polytomies,
    )
