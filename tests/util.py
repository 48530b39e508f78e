"""Shared fixtures-by-construction and independent oracle implementations.

The oracles here deliberately avoid the package's vectorized code paths:
they are dict-based recursions over the tree structure, kept in lockstep
with the documented arithmetic (same child order, same sequential
accumulation, same epsilon policy), pruning through a nested rebuild,
k-means one restart at a time, and the silhouette one point at a time, so
that equality can be asserted bitwise, not just within a tolerance.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np

from lexiphylo._rng import stream
from lexiphylo.cognates import CognateFormatError, ValidationIssue, binary_traits
from lexiphylo.comparative import DStatResult
from lexiphylo.metrics import compute_metrics, plan
from lexiphylo.multivariate import MAX_LLOYD_ITERATIONS, ClusterAssignment
from lexiphylo.report import _HEIGHT, _MARGIN, _PALETTE, _WIDTH, _hull, escape
from lexiphylo.tree import NewickError, Tree, TreeError


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


def benchmark_corpus() -> tuple[str, str]:
    """The Newick and cognate CSV texts of the benchmark's generated 400 x 24
    corpus (perfbench/corpus.py, seed 0)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(0, 400, 24)


def benchmark_corpus_newick() -> str:
    """The 400-tip tree of the benchmark's generated corpus."""
    return benchmark_corpus()[0]


def _xml_char(ch: str) -> bool:
    """Whether XML 1.0's Char production holds ``ch``."""
    code = ord(ch)
    return (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF or 0xE000 <= code <= 0xFFFD
            or 0x10000 <= code <= 0x10FFFF)


def oracle_load_cognates(text: str):
    """``load_cognates`` of a table text, done naively: the whole text split
    into lines at once, each row's lines sliced from that list, entries
    collected as sets and frozen at the end. Returns (languages, concepts,
    entries, loans, warnings), or raises CognateFormatError as the package
    documents it, a concept that XML cannot hold included."""
    lines = io.StringIO(text, newline="").readlines()
    if not lines or not lines[0].strip():
        raise CognateFormatError("empty input (no header)", 1)
    reader = csv.reader(lines, delimiter="\t" if "\t" in lines[0] else ",", strict=True)
    rows = []  # (first line, stripped fields) of each non-blank row
    malformed = None  # the error of a row the reader cannot read, raised when reached
    read = 0
    try:
        for fields in reader:
            if "".join(lines[read:reader.line_num]).strip():
                rows.append((read + 1, [f.strip() for f in fields]))
            read = reader.line_num
    except csv.Error as exc:
        malformed = CognateFormatError(f"malformed row ({exc})", reader.line_num)
    if not rows:
        raise malformed

    header = rows[0][1]
    for name in ("language", "concept", "cognate_id", "loan"):
        if header.count(name) > 1:
            raise CognateFormatError(f"duplicate column {name!r} in header", 1)
    for name in ("language", "concept", "cognate_id"):
        if name not in header:
            raise CognateFormatError(f"missing required column {name!r}", 1)
    warnings = []
    if "loan" not in header:
        warnings.append(ValidationIssue("warning", 1, "loan column absent; all loan flags set to 0"))

    languages, concepts, entries, loans = [], [], {}, set()
    for lineno, fields in rows[1:]:
        if len(fields) != len(header):
            raise CognateFormatError(f"expected {len(header)} fields, got {len(fields)}", lineno)
        record = dict(zip(header, fields))
        for name in ("language", "concept", "cognate_id"):
            if record[name] == "":
                raise CognateFormatError(f"empty {name}", lineno)
        language, concept, cls = record["language"], record["concept"], record["cognate_id"]
        unheld = [ch for ch in concept if not _xml_char(ch)]
        if unheld:  # at its first row, which is where it first appears
            raise CognateFormatError(f"concept {concept!r} holds U+{ord(unheld[0]):04X}, "
                                     "which XML cannot hold", lineno)
        if cls in entries.get((language, concept), ()):
            raise CognateFormatError(f"duplicate row ({language}, {concept}, {cls})", lineno)
        flag = record.get("loan", "")
        if flag not in ("", "0", "1"):
            raise CognateFormatError(f"loan flag must be 0, 1, or empty, got {flag!r}", lineno)
        entries.setdefault((language, concept), set()).add(cls)
        if language not in languages:
            languages.append(language)
        if concept not in concepts:
            concepts.append(concept)
        if flag == "1":
            loans.add((language, concept, cls))
    if malformed is not None:
        raise malformed
    if not entries:
        raise CognateFormatError("no data rows", len(lines))
    frozen = {key: frozenset(classes) for key, classes in entries.items()}
    return tuple(languages), tuple(concepts), frozen, frozenset(loans), warnings


def oracle_parse_newick(text: str) -> Tree:
    """``parse_newick`` done one character at a time: comments dropped by a
    per-character depth count, then a scan that skips whitespace and reads
    each label and length token with its own loop. Returns the Tree, or
    raises NewickError (or the Tree's TreeError) as the package documents."""
    out, depth = [], 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    s = "".join(out)

    def skip_ws(pos):
        while pos < len(s) and s[pos].isspace():
            pos += 1
        return pos

    def read_token(pos):
        pos = start = skip_ws(pos)
        while pos < len(s) and s[pos] not in "(),:;" and not s[pos].isspace():
            pos += 1
        return s[start:pos] or None, pos

    parents, lengths, labels, defaulted = [], [], [], []

    def close(label, children, pos):
        pos = skip_ws(pos)
        length, absent = 1.0, True
        if pos < len(s) and s[pos] == ":":
            start = skip_ws(pos + 1)
            token, pos = read_token(start)
            raw = token or ""
            try:
                value = float(raw)
            except ValueError:
                raise NewickError(f"non-numeric branch length {raw!r}", start) from None
            if not math.isfinite(value):
                raise NewickError(f"non-finite branch length {raw!r}", start)
            if value < 0:
                raise NewickError(f"negative branch length {raw!r}", start)
            length, absent = abs(value), False
        node = len(labels)
        for child in children:
            parents[child] = node
        parents.append(-1)
        lengths.append(length)
        labels.append(label)
        if absent:
            defaulted.append(node)
        return node, pos

    pos = skip_ws(0)
    if pos >= len(s):
        raise NewickError("empty input", 0)
    seen, duplicate, groups = set(), None, []
    while True:
        pos = skip_ws(pos)
        if pos < len(s) and s[pos] == "(":
            groups.append([])
            pos += 1
            continue
        if pos < len(s) and s[pos] == ")":
            raise NewickError("unbalanced parentheses", pos)
        offset = pos
        label, pos = read_token(pos)
        if label is None:
            raise NewickError("missing tip label", offset)
        if label in seen and duplicate is None:
            duplicate = NewickError(f"duplicate tip label {label!r}", offset)
        seen.add(label)
        node, pos = close(label, [], pos)
        while groups:
            groups[-1].append(node)
            pos = skip_ws(pos)
            if pos >= len(s):
                raise NewickError("unbalanced parentheses", len(s))
            if s[pos] == ",":
                pos += 1
                break
            if s[pos] != ")":
                raise NewickError(f"unexpected character {s[pos]!r}", pos)
            label, pos = read_token(pos + 1)
            node, pos = close(label, groups.pop(), pos)
        if not groups:
            break
    pos = skip_ws(pos)
    if pos >= len(s) or s[pos] != ";":
        if pos < len(s) and s[pos] == ")":
            raise NewickError("unbalanced parentheses", pos)
        raise NewickError("missing ';' terminator", pos)
    if skip_ws(pos + 1) < len(s):
        raise NewickError("trailing content after ';'", skip_ws(pos + 1))
    if duplicate is not None:
        raise duplicate
    if defaulted and defaulted[-1] == node:
        lengths[node] = 0.0
        defaulted.pop()
    return Tree(np.array(parents, dtype=np.intp), np.array(lengths, dtype=float),
                tuple(labels), frozenset(defaulted))


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


def oracle_simulate_bm(tree: Tree, sigma2: float, root_value: float, seed: int) -> np.ndarray:
    """Brownian motion node by node from the root: the innovations are one
    (n_nodes, 1) draw from stream ``(seed, 0)``, and node ``i`` takes its
    parent's value plus ``sqrt(sigma2 * length[i]) * z[i]``."""
    z = stream(seed, 0).standard_normal((tree.n_nodes, 1))[:, 0].tolist()
    values = np.empty(tree.n_nodes)
    values[tree.root] = root_value
    for i in range(tree.n_nodes - 2, -1, -1):
        sd = math.sqrt(sigma2 * float(tree.lengths[i]))
        values[i] = float(values[tree.parents[i]]) + sd * z[i]
    return values


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


def oracle_to_json(document) -> str:
    """``to_json`` as first written: json's own indent-2 encoder, in pure Python."""
    return json.dumps(document, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


def oracle_emit_scatter(pca, clusters, ranking) -> str:
    """``emit_scatter`` as first written, each element's syntax in an f-string
    of its own; the package's writer must match its bytes."""
    n = len(pca.row_labels)
    if n < 3:
        raise ValueError(f"need >= 3 points for a scatter, got {n}")
    if len(clusters.labels) != n:
        raise ValueError("cluster labels do not match the PCA rows")

    xs = pca.scores[:, 0].astype(float)
    ys = pca.scores[:, 1].astype(float)
    rank_by_concept = {row.concept: row for row in ranking.rows}

    def padded(lo: float, hi: float) -> tuple[float, float]:
        if hi - lo < 1e-9:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.08 * (hi - lo)
        return lo - pad, hi + pad

    # Keep the origin inside the frame: loading arrows start there.
    xmin, xmax = padded(min(xs.min(), 0.0), max(xs.max(), 0.0))
    ymin, ymax = padded(min(ys.min(), 0.0), max(ys.max(), 0.0))
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN

    def px(x: float) -> float:
        return _MARGIN + (x - xmin) / (xmax - xmin) * plot_w

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - ymin) / (ymax - ymin) * plot_h

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>'
    )
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    # Zero lines.
    parts.append(
        f'<line x1="{fmt(px(0.0))}" y1="{_MARGIN}" x2="{fmt(px(0.0))}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="#bbbbbb" stroke-dasharray="4,4"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{fmt(py(0.0))}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{fmt(py(0.0))}" stroke="#bbbbbb" stroke-dasharray="4,4"/>'
    )

    # Cluster hulls first so points draw on top.
    for cluster_id in sorted(set(int(c) for c in clusters.labels)):
        member_idx = [i for i in range(n) if int(clusters.labels[i]) == cluster_id]
        hull = _hull([(float(xs[i]), float(ys[i])) for i in member_idx])
        if len(hull) < 3:
            continue
        color = _PALETTE[cluster_id % len(_PALETTE)]
        path = " ".join(f"{fmt(px(x))},{fmt(py(y))}" for x, y in hull)
        parts.append(
            f'<polygon points="{path}" fill="{color}" fill-opacity="0.12" '
            f'stroke="{color}" stroke-width="1"/>'
        )

    # Loading arrows for the variables.
    arrow_scale = 0.85 * min(
        max(abs(xmin), abs(xmax)), max(abs(ymin), abs(ymax))
    ) / max(np.max(np.abs(pca.loadings[:, :2])), 1e-12)
    for v, name in enumerate(pca.variables):
        lx = float(pca.loadings[v, 0]) * arrow_scale
        ly = float(pca.loadings[v, 1]) * arrow_scale
        x1, y1 = px(0.0), py(0.0)
        x2, y2 = px(lx), py(ly)
        parts.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            'stroke="#884400" stroke-width="1.5" class="loading-arrow"/>'
        )
        # Arrowhead: two short strokes back from the tip.
        dx, dy = x2 - x1, y2 - y1
        norm = max((dx * dx + dy * dy) ** 0.5, 1e-9)
        ux, uy = dx / norm, dy / norm
        for rot in (0.35, -0.35):
            cos_r, sin_r = np.cos(np.pi - rot), np.sin(np.pi - rot)
            hx = ux * cos_r - uy * sin_r
            hy = ux * sin_r + uy * cos_r
            parts.append(
                f'<line x1="{fmt(x2)}" y1="{fmt(y2)}" x2="{fmt(x2 + 8 * hx)}" '
                f'y2="{fmt(y2 + 8 * hy)}" stroke="#884400" stroke-width="1.5"/>'
            )
        anchor = "start" if lx >= 0 else "end"
        parts.append(
            f'<text x="{fmt(x2 + (4 if lx >= 0 else -4))}" y="{fmt(y2 - 4)}" '
            f'font-size="11" fill="#884400" text-anchor="{anchor}">{escape(name)}</text>'
        )

    # Points with concept labels.
    for i, concept in enumerate(pca.row_labels):
        color = _PALETTE[int(clusters.labels[i]) % len(_PALETTE)]
        cx, cy = px(float(xs[i])), py(float(ys[i]))
        row = rank_by_concept.get(concept)
        title = (
            f"{concept}: rank {row.rank}, {row.quadrant}" if row is not None else concept
        )
        parts.append(
            f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="3.5" fill="{color}" '
            f'class="concept-point"><title>{escape(title)}</title></circle>'
        )
        parts.append(
            f'<text x="{fmt(cx + 5)}" y="{fmt(cy - 5)}" font-size="10" '
            f'fill="#222222">{escape(concept)}</text>'
        )

    pc1_pct = float(pca.explained_variance[0]) * 100.0
    pc2_pct = float(pca.explained_variance[1]) * 100.0
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 20}" font-size="14" '
        f'text-anchor="middle">PC1 ({pc1_pct:.1f}% explained)</text>'
    )
    parts.append(
        f'<text x="22" y="{_HEIGHT / 2:.1f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 22 {_HEIGHT / 2:.1f})">PC2 ({pc2_pct:.1f}% '
        "explained)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
