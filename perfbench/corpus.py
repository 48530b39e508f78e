#!/usr/bin/env python3
"""Deterministic scale corpus for the benchmark: a coalescent tree and a cognate table.

Self-contained on purpose: it uses numpy only, never lexiphylo or
tools/make_synthetic_corpus.py, so edits to the package or to that tool
cannot shift the benchmark's inputs.

The seed chooses the tree topology, branch lengths, the Brownian-motion
traits the cognate classes are carved from, and which languages are missing,
singletons or loans. The *amount* of work does not depend on the seed:
class counts, missing counts, singleton counts and loan counts per concept
follow a fixed schedule, so every seed yields about the same number of
analysable cognate classes on the same number of tips.

    python3 perfbench/corpus.py --seed 3 --tips 400 --concepts 60 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

import numpy as np


def _coalescent(
    rng: np.random.Generator, n_tips: int
) -> tuple[str, np.ndarray, np.ndarray, list[str]]:
    """Random ultrametric coalescent tree.

    Returns the Newick text, per-node parent index and branch length, and tip labels,
    with tips numbered 0..n-1 and internal nodes numbered in creation order
    (so the root is the last node and parents always follow children).
    """
    labels = [f"L{i:04d}" for i in rng.permutation(n_tips)]
    n_nodes = 2 * n_tips - 1
    parent = np.full(n_nodes, -1)
    length = np.zeros(n_nodes)
    # Each part: (newick text, node index, height).
    parts = [(labels[i], i, 0.0) for i in range(n_tips)]
    height = 0.0
    next_node = n_tips
    while len(parts) > 1:
        k = len(parts)
        height += float(rng.exponential(2.0 / (k * (k - 1))))
        i, j = sorted(int(x) for x in rng.choice(k, size=2, replace=False))
        text_j, node_j, h_j = parts.pop(j)
        text_i, node_i, h_i = parts.pop(i)
        for node, h in ((node_i, h_i), (node_j, h_j)):
            parent[node] = next_node
            length[node] = round(height - h, 6)
        text = f"({text_i}:{height - h_i:.6f},{text_j}:{height - h_j:.6f})"
        parts.append((text, next_node, height))
        next_node += 1
    return parts[0][0] + ";", parent, length, labels


def _bm_tips(
    rng: np.random.Generator, parent: np.ndarray, length: np.ndarray, n_tips: int
) -> np.ndarray:
    """Brownian motion (rate 1, root 0) evolved top-down; returns tip values."""
    n_nodes = len(parent)
    z = rng.standard_normal(n_nodes)
    values = np.zeros(n_nodes)
    for node in range(n_nodes - 2, -1, -1):
        values[node] = values[parent[node]] + np.sqrt(length[node]) * z[node]
    return values[:n_tips]


def generate(seed: int, n_tips: int, n_concepts: int) -> tuple[str, str]:
    """Return (newick text, cognate csv text) for one seed and shape."""
    if n_tips < 8 or n_concepts < 8:
        raise ValueError("need at least 8 tips and 8 concepts")
    rng = np.random.default_rng([seed, n_tips, n_concepts])
    newick, parent, length, labels = _coalescent(rng, n_tips)

    rows = ["language,concept,cognate_id,loan"]
    for c in range(n_concepts):
        concept = f"c{c:03d}"
        # Fixed schedule: the work per concept does not depend on the seed.
        n_classes = 2 + c % 7
        shuffle_fraction = 0.05 + 0.04 * ((7 * c) % 10)
        n_missing = round(n_tips * 0.03 * ((3 * c) % 10))
        n_singletons = c % 6
        n_loans = round(n_tips * 0.02)
        n_synonyms = round(n_tips * 0.02)

        tips = _bm_tips(rng, parent, length, n_tips)
        order = np.argsort(tips, kind="stable")
        assignment = np.empty(n_tips, dtype=int)
        for k, chunk in enumerate(np.array_split(order, n_classes)):
            assignment[chunk] = k
        n_shuffle = round(shuffle_fraction * n_tips)
        idx = rng.choice(n_tips, size=n_shuffle, replace=False)
        assignment[idx] = rng.integers(0, n_classes, size=n_shuffle)
        singletons = rng.choice(n_tips, n_singletons, replace=False)
        for s, t in enumerate(sorted(int(i) for i in singletons)):
            assignment[t] = n_classes + s

        present = np.ones(n_tips, dtype=bool)
        present[rng.choice(n_tips, size=n_missing, replace=False)] = False
        attested = np.flatnonzero(present)
        loan = np.zeros(n_tips, dtype=bool)
        loan[rng.choice(attested, size=n_loans, replace=False)] = True
        synonym = np.full(n_tips, -1)
        for t in rng.choice(attested, size=n_synonyms, replace=False):
            other = (assignment[t] + 1 + int(rng.integers(0, n_classes - 1))) % n_classes
            synonym[t] = other

        for t in attested:
            rows.append(f"{labels[t]},{concept},{concept}-{assignment[t]:02d},{int(loan[t])}")
            if synonym[t] >= 0 and synonym[t] != assignment[t]:
                rows.append(f"{labels[t]},{concept},{concept}-{synonym[t]:02d},1")
    return newick + "\n", "\n".join(rows) + "\n"


def write_corpus(seed: int, n_tips: int, n_concepts: int, out: Path) -> str:
    """Generate twice, require identical bytes, write tree.nwk and cognates.csv.

    Returns the SHA-256 of the corpus (tree bytes followed by cognate bytes).
    """
    first = generate(seed, n_tips, n_concepts)
    if generate(seed, n_tips, n_concepts) != first:
        raise RuntimeError("corpus generation is not deterministic")
    tree_bytes, cognate_bytes = (text.encode("utf-8") for text in first)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tree.nwk").write_bytes(tree_bytes)
    (out / "cognates.csv").write_bytes(cognate_bytes)
    return hashlib.sha256(tree_bytes + cognate_bytes).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tips", type=int, required=True)
    parser.add_argument("--concepts", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    digest = write_corpus(args.seed, args.tips, args.concepts, args.out)
    print(f"{args.out}: {args.tips} tips x {args.concepts} concepts, sha256 {digest}")


if __name__ == "__main__":
    main()
