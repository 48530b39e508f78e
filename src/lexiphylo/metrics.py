"""Per-concept suitability variables and the concept x variable feature table.

Six variables per meaning class: loan-flagged triple count, mean D over the
concept's analyzable cognate classes, singleton-class count, fraction of
tree languages with no entry, and mean and maximum class size (languages
attesting). All counts are taken over the tree's tip languages: a language
absent from the tree cannot contribute phylogenetic signal, so it is left
out of every variable rather than only some.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from ._rng import derived_seed
from .cognates import CognateMatrix, binary_traits
from .comparative import DEFAULT_N_REPS, MIN_TIPS_FOR_D, DStatResult, d_statistic
from .tree import Tree

FEATURE_COLUMNS = (
    "n_loans",
    "mean_D",
    "n_singletons",
    "missing_fraction",
    "mean_class_size",
    "max_class_size",
)


@dataclass(frozen=True)
class DStatConfig:
    """Knobs for the per-class D computations inside compute_metrics."""

    seed: int
    n_reps: int = DEFAULT_N_REPS

    def class_seed(self, concept: str, cognate_class: str) -> int:
        # Hash-derived so results do not depend on evaluation order.
        return derived_seed(self.seed, concept, cognate_class)


@dataclass(frozen=True)
class MeaningClassMetrics:
    concept: str
    n_loans: int
    mean_d: float | None  # None when no cognate class was analyzable
    n_singletons: int
    missing_fraction: float
    mean_class_size: float
    max_class_size: int
    n_classes: int
    class_results: dict[str, DStatResult] = field(default_factory=dict)
    class_skips: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class FeatureTable:
    row_labels: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray
    standardized: bool = False


def compute_metrics(
    matrix: CognateMatrix,
    tree: Tree,
    concept: str,
    config: DStatConfig,
) -> MeaningClassMetrics:
    """All six variables for one concept, plus per-class D detail.

    A cognate class is analyzable when the concept has at least
    ``MIN_TIPS_FOR_D`` attested tree languages and the class's
    presence/absence trait varies among them; other classes are recorded in
    ``class_skips`` with a reason. ``mean_d`` averages the analyzable
    classes only, and is None when there are none.
    """
    classes = sorted(matrix.classes_for(concept))
    presence, mask = binary_traits(matrix, concept, classes, tree.tip_labels)
    n_attested = int(np.count_nonzero(mask))
    if not n_attested:
        raise ValueError(f"concept {concept!r} has no attestations among tree languages")

    # A class attested only off the tree is left out, like its languages.
    sizes = presence.sum(axis=1)
    on_tree = sizes > 0
    classes = [cls for cls, kept in zip(classes, on_tree.tolist()) if kept]
    presence, sizes = presence[on_tree], sizes[on_tree].tolist()
    # A loan triple is also an entry, so a tree language's loan lies in ``classes``.
    tree_languages = set(tree.tip_labels)
    n_loans = sum(1 for (lang, _, _) in matrix.loans_for(concept) if lang in tree_languages)

    # Every class of the concept shares its attested mask, so the analysable
    # ones go to the D statistic as one stack, each with its own seed.
    reasons: dict[str, DStatResult | str | None] = {
        cls: f"fewer than {MIN_TIPS_FOR_D} usable tips" if n_attested < MIN_TIPS_FOR_D
        else "constant trait (attested by every usable language)" if size == n_attested
        else None
        for cls, size in zip(classes, sizes)
    }
    stacked = [j for j, reason in enumerate(reasons.values()) if reason is None]
    if stacked:
        seeds = [config.class_seed(concept, classes[j]) for j in stacked]
        batch = d_statistic(tree, presence[stacked], mask, n_reps=config.n_reps, seed=seeds)
        reasons.update(zip([classes[j] for j in stacked], batch.results))
    class_results = {cls: r for cls, r in reasons.items() if isinstance(r, DStatResult)}
    class_skips = {cls: r for cls, r in reasons.items() if isinstance(r, str)}

    mean_d = (
        float(np.mean([res.D for res in class_results.values()]))
        if class_results
        else None
    )
    return MeaningClassMetrics(
        concept=concept,
        n_loans=n_loans,
        mean_d=mean_d,
        n_singletons=sizes.count(1),
        missing_fraction=1.0 - n_attested / len(tree_languages),
        mean_class_size=float(np.mean(sizes)),
        max_class_size=max(sizes),
        n_classes=len(classes),
        class_results=class_results,
        class_skips=class_skips,
    )


def build_feature_table(metrics: list[MeaningClassMetrics]) -> FeatureTable:
    """Assemble the concept x 6 table, imputing undefined mean_D cells.

    Rows are sorted by concept ID. Concepts whose every class was skipped
    (``mean_d`` is None) get the cross-concept mean of the defined mean_D
    values, so the PCA row set stays equal to the concept set. Whether a
    cell was imputed, and which classes were skipped and why, is read from
    the MeaningClassMetrics records themselves.
    """
    if len(metrics) < 3:
        raise ValueError(f"need >= 3 concepts for a feature table, got {len(metrics)}")
    by_concept = {m.concept: m for m in metrics}
    if len(by_concept) != len(metrics):
        raise ValueError("duplicate concept in metrics list")
    ordered = [by_concept[c] for c in sorted(by_concept)]

    defined = [m.mean_d for m in ordered if m.mean_d is not None]
    if not defined:
        raise ValueError("no concept has a defined mean_D; nothing to impute from")
    imputation = float(np.mean(defined))

    rows = [
        [
            float(m.n_loans),
            m.mean_d if m.mean_d is not None else imputation,
            float(m.n_singletons),
            m.missing_fraction,
            m.mean_class_size,
            float(m.max_class_size),
        ]
        for m in ordered
    ]
    return FeatureTable(
        row_labels=tuple(m.concept for m in ordered),
        columns=FEATURE_COLUMNS,
        values=np.array(rows, dtype=float),
        standardized=False,
    )


def feature_table_to_csv(table: FeatureTable) -> str:
    """Delimited-text export with a header row; IDs holding ``,`` or ``"`` are quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("concept", *table.columns))
    for label, row in zip(table.row_labels, table.values):
        writer.writerow((label, *(repr(float(v)) for v in row)))
    return buf.getvalue()
