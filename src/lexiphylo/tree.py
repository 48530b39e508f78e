"""Rooted phylogenetic trees with branch lengths, Newick-backed.

Nodes are stored in postorder: every child index is smaller than its
parent's, and the root is always the last node, so index order is a
bottom-up and reversed index order a top-down traversal. ``depth_levels``
groups the nodes for sweeps that process a whole level at a time, top-down
shallowest level first and bottom-up deepest level first.

The ``parents`` array is the one stored topology, and a node's children
are its children in ascending index order, which is their left-to-right
order: the constructor requires each node's subtree to be the index range
ending at that node, so the numbering is a left-to-right postorder, and it
requires every label to be one ``write_newick`` can write back. So every
valid ``Tree`` round-trips through ``write_newick`` and ``parse_newick``.
Parsing numbers a Newick statement in left-to-right postorder as it scans,
and a pruned tree keeps its parent's postorder restricted to the surviving
nodes, so the kept tips, and each node's surviving children, keep their
relative order.

Trees are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
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


# Whitespace: re's \s is str.isspace() on every code point.
_SPACE = re.compile(r"\s*")
# A node's tail: its label, then a ":" and its length token if a ":" follows,
# and the whitespace after them. A label or length token is a (possibly empty)
# run of characters other than whitespace and ( ) , : ; -- so a stray "]" is
# part of one.
_TAIL = re.compile(r"\s*([^\s(),:;]*)\s*(?::\s*([^\s(),:;]*)\s*)?")
# What a label cannot hold and still be written back as itself: a character
# that ends a token, whitespace, or "[", which opens a comment.
_UNWRITABLE = re.compile(r"[(),:;\s\[]")


@dataclass(frozen=True, eq=False)
class Tree:
    """A rooted tree over parallel per-node arrays, numbered in postorder.

    Attributes
    ----------
    parents : int ndarray, each node's parent, -1 for the root; the tree's
        one stored topology, from which ``child_table`` and ``children`` derive
    lengths : float ndarray, branch length to the parent (0.0 at the root)
    labels : per-node label, ``None`` where absent; tips always carry one
    defaulted : node indices whose branch length was absent in the source
        and defaulted to 1.0
    """

    parents: np.ndarray
    lengths: np.ndarray
    labels: tuple[str | None, ...]
    defaulted: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        # Its own read-only copies, so no caller can change the tree.
        self.__setstate__({"parents": np.array(self.parents), "lengths": np.array(self.lengths)})
        n = len(self.labels)
        if n == 0:
            raise TreeError("tree has no nodes")
        if not len(self.parents) == len(self.lengths) == n:
            raise TreeError("per-node arrays disagree in length")
        if self.parents.dtype.kind != "i":
            raise TreeError("parents must be an integer array")
        if self.parents[-1] != -1:
            raise TreeError("the last node must be the root, with parent -1")
        # A parent after its child, within the tree: every chain of parents
        # climbs to the last node, so the tree is connected with one root.
        ups = self.parents[:-1]
        if not np.all((np.arange(n - 1) < ups) & (ups < n)):
            raise TreeError("every other node's parent must be a later node (postorder numbering)")
        if not np.all(np.isfinite(self.lengths)) or np.any(self.lengths < 0):
            raise TreeError("branch lengths must be finite and non-negative")
        if any(lab is None or lab == "" for lab in self.tip_labels):
            raise TreeError("every tip must be labeled")
        if len(set(self.tip_labels)) != len(self.tip_labels):
            raise TreeError("tip labels must be unique")
        # Each node's subtree must be the index range ending at that node: the
        # sizes, summed bottom-up, give each range's start, and a child's range
        # must start inside its parent's. Then the numbering is the one
        # parse_newick gives the Newick that write_newick writes.
        size = np.ones(n, dtype=np.intp)
        for nodes, above in reversed(self.depth_levels):
            np.add.at(size, above, size[nodes])
        start = np.arange(n) - size + 1
        if not np.all(start[ups] <= start[:-1]):
            raise TreeError("every subtree must be the index range ending at its root "
                            "(left-to-right postorder numbering)")
        if "" in self.labels or _UNWRITABLE.search("\0".join(filter(None, self.labels))):
            raise TreeError("labels must be non-empty and hold no whitespace or any of ( ) , : ; [")
        with np.errstate(over="ignore"):  # caches the distances, so none warns later
            if not np.isfinite(self.height):
                raise TreeError("a root-to-tip path length overflows a double")

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
        return tuple(map(self.labels.__getitem__, self.tip_indices.tolist()))  # type: ignore[arg-type]

    @property
    def n_tips(self) -> int:
        return len(self.tip_indices)

    def is_tip(self, i: int) -> bool:
        return bool(self.child_table[1][i] == 0)

    def postorder(self) -> range:
        """Node indices in postorder (the storage order)."""
        return range(self.n_nodes)

    @cached_property
    def child_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's children as flat arrays: the children of node 0, then of
        node 1, ..., each in ascending index order; each node's child count; and
        the offset of each node's first child."""
        ups = self.parents[:-1]
        counts = np.bincount(ups, minlength=self.n_nodes)
        return np.argsort(ups, kind="stable"), counts, np.cumsum(counts) - counts

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Each node's children (empty for a tip), in ascending index order."""
        flat, counts, starts = self.child_table
        flat, ends = flat.tolist(), (starts + counts).tolist()
        return tuple(map(tuple, map(flat.__getitem__, map(slice, starts.tolist(), ends))))

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
            and np.array_equal(self.parents, other.parents)
            and self.labels == other.labels
            and np.array_equal(self.lengths, other.lengths)
        )

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)  # numpy unpickles an array writable, so freeze it again
        self.parents.flags.writeable = False
        self.lengths.flags.writeable = False


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


def _strip_comments(text: str) -> str:
    """Remove square-bracket comments (nesting allowed); a "]" outside any
    comment is kept."""
    out = []
    depth = 0
    for piece in re.split(r"([\[\]])", text):
        if piece == "[":
            depth += 1
        elif piece == "]" and depth:
            depth -= 1
        elif not depth:
            out.append(piece)
    return "".join(out)


def parse_newick(text: str) -> Tree:
    """Parse a single ``;``-terminated Newick statement into a Tree.

    Square-bracket comments are stripped first; error offsets refer to the
    comment-stripped text. Branch lengths absent from the input default to
    1.0 and the affected nodes are recorded in ``Tree.defaulted``; an absent
    root length becomes 0.0 (the root has no parent edge) and is not
    flagged.

    One left-to-right scan writes the tree's arrays: a node is appended when
    it closes (a tip once its label and length are read, an internal node at
    its ``)``), which numbers the nodes in left-to-right postorder, and its
    children's parent entries are set then. The scan is iterative, so nesting
    depth is bounded by memory rather than by the recursion limit.

    Raises
    ------
    NewickError
        On empty input, unbalanced parentheses, missing or duplicate tip
        labels, negative or non-numeric branch lengths, a missing ``;``,
        or trailing content. Each error carries the character offset; a
        duplicate tip is reported at the later occurrence of the first label
        seen twice, after every other check.
    """
    s = _strip_comments(text)
    pos = _SPACE.match(s).end()
    if pos >= len(s):
        raise NewickError("empty input", 0)

    parents: list[int] = []
    lengths: list[float] = []
    labels: list[str | None] = []
    defaulted: list[int] = []

    def close(tail: re.Match[str], children: list[int]) -> int:
        """Append the node whose label and length ``tail`` matched."""
        node = len(labels)
        for child in children:
            parents[child] = node
        parents.append(-1)
        labels.append(tail[1] or None)
        raw = tail[2]
        if raw is None:
            lengths.append(1.0)
            defaulted.append(node)
            return node
        try:
            value = float(raw)
        except ValueError:
            raise NewickError(f"non-numeric branch length {raw!r}", tail.start(2)) from None
        if not np.isfinite(value):
            raise NewickError(f"non-finite branch length {raw!r}", tail.start(2))
        if value < 0:
            raise NewickError(f"negative branch length {raw!r}", tail.start(2))
        lengths.append(abs(value))  # "-0" is +0.0, which write_newick writes back as "0"
        return node

    seen: set[str] = set()
    duplicate: NewickError | None = None
    groups: list[list[int]] = []  # the closed children of each open "("
    while True:
        pos = _SPACE.match(s, pos).end()
        if pos < len(s) and s[pos] == "(":
            groups.append([])
            pos += 1
            continue
        if pos < len(s) and s[pos] == ")":
            raise NewickError("unbalanced parentheses", pos)
        tail = _TAIL.match(s, pos)
        label = tail[1]
        if not label:
            raise NewickError("missing tip label", pos)
        if label in seen and duplicate is None:
            duplicate = NewickError(f"duplicate tip label {label!r}", pos)
        seen.add(label)
        node, pos = close(tail, []), tail.end()
        # Add the closed node to its group; a ")" closes that group too.
        while groups:
            groups[-1].append(node)
            if pos >= len(s):
                raise NewickError("unbalanced parentheses", len(s))
            if s[pos] == ",":
                pos += 1
                break
            if s[pos] != ")":
                raise NewickError(f"unexpected character {s[pos]!r}", pos)
            tail = _TAIL.match(s, pos + 1)
            node, pos = close(tail, groups.pop()), tail.end()
        if not groups:
            break

    if pos >= len(s) or s[pos] != ";":
        if pos < len(s) and s[pos] == ")":
            raise NewickError("unbalanced parentheses", pos)
        raise NewickError("missing ';' terminator", pos)
    pos = _SPACE.match(s, pos + 1).end()
    if pos < len(s):
        raise NewickError("trailing content after ';'", pos)
    if duplicate is not None:
        raise duplicate

    # Root branch length: absent means "no parent edge", not a default.
    if defaulted and defaulted[-1] == node:
        lengths[node] = 0.0
        defaulted.pop()
    return Tree(
        np.array(parents, dtype=np.intp),
        np.array(lengths, dtype=float),
        tuple(labels),
        frozenset(defaulted),
    )


def read_newick_file(source: str | Path | IO[str]) -> Tree:
    """Read one UTF-8 Newick tree (a leading BOM dropped) from a file path or
    an open text stream."""
    if isinstance(source, (str, Path)):
        return parse_newick(Path(source).read_text(encoding="utf-8-sig"))
    return parse_newick(source.read())


# -- serialization ---------------------------------------------------------


def _format_length(x: float) -> str:
    # Shortest decimal that round-trips: integers lose the ".0", the rest
    # use repr (exact for float64).
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def write_newick(tree: Tree) -> str:
    """Serialize canonically: children in index order, shortest round-trip lengths."""
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
    at a time. Each node's surviving children keep their order, since
    sibling subtrees occupy ascending index ranges.
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
    return Tree(new_parents, new_lengths, tuple(map(tree.labels.__getitem__, kept.tolist())))


def tree_summary(tree: Tree) -> TreeSummary:
    """Tip/node counts, height, binarity, and polytomy count."""
    counts = tree.child_table[1]
    internal = counts[counts > 0]
    return TreeSummary(
        tip_count=tree.n_tips,
        node_count=tree.n_nodes,
        height=tree.height,
        is_binary=bool(len(internal)) and bool(np.all(internal == 2)),
        polytomy_count=int(np.count_nonzero(internal > 2)),
    )
