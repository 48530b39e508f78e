"""Per-concept suitability variables and the concept x variable feature table.

Six variables per meaning class: loan-flagged triple count, mean D over the
concept's analyzable cognate classes, singleton-class count, fraction of
tree languages with no entry, and mean and maximum class size (languages
attesting). All counts are taken over the tree's tip languages: a language
absent from the tree cannot contribute phylogenetic signal, so it is left
out of every variable rather than only some.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import derived_seed
from .cognates import CognateMatrix, binary_traits, csv_text
from .comparative import DEFAULT_N_REPS, MIN_TIPS_FOR_D, DStatResult, d_statistic
from .tree import Tree

MIN_CONCEPTS = 3  # the fewest rows a feature table is built from

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
    """The master seed and replicate count of the metrics stage's D computations."""

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


@dataclass(frozen=True)
class ConceptPlan:
    """One concept's D work, decided before any draw.

    ``classes`` maps each class attested among the tree languages, sorted,
    to its seed, or to the reason it gets no D statistic; ``presence`` holds
    their rows over the tree's tips, in that order, and ``mask`` marks the
    tips that attest the concept at all.
    """

    concept: str
    classes: dict[str, int | str]
    presence: np.ndarray
    mask: np.ndarray
    n_loans: int

    def work(self, cognate_class: str) -> int | str:
        """The seed of a class of the concept, or why it gets no D statistic."""
        # A class attested only off the tree is left out, like its languages.
        return self.classes.get(cognate_class, "attested only by languages off the tree")


def plan(
    matrix: CognateMatrix, tree: Tree, config: DStatConfig
) -> tuple[list[ConceptPlan], dict[str, str]]:
    """The D work of each concept attested among the tree languages, sorted,
    and a skip warning for each other concept, by concept.

    A class is analysable when the concept has at least ``MIN_TIPS_FOR_D``
    attested tree languages and the class's presence/absence trait varies
    among them; every other class gets its reason here.
    """
    tree_languages = set(tree.tip_labels)
    plans: list[ConceptPlan] = []
    skipped: dict[str, str] = {}
    for concept in sorted(matrix.concepts):
        if not matrix.languages_for(concept) & tree_languages:
            skipped[concept] = f"concept {concept!r} skipped: no attestations among tree languages"
            continue
        classes = sorted(matrix.classes_for(concept))
        presence, mask = binary_traits(matrix, concept, classes, tree.tip_labels)
        sizes = presence.sum(axis=1)
        n_attested = int(np.count_nonzero(mask))
        on_tree = sizes > 0
        classes = [cls for cls, kept in zip(classes, on_tree.tolist()) if kept]
        # A loan triple is also an entry, so a tree language's loan lies in ``classes``.
        n_loans = sum(1 for (lang, _, _) in matrix.loans_for(concept) if lang in tree_languages)
        work = {
            cls: f"fewer than {MIN_TIPS_FOR_D} usable tips" if n_attested < MIN_TIPS_FOR_D
            else "constant trait (attested by every usable language)" if size == n_attested
            else config.class_seed(concept, cls)
            for cls, size in zip(classes, sizes[on_tree].tolist())
        }
        plans.append(ConceptPlan(concept, work, presence[on_tree], mask, n_loans))
    return plans, skipped


def compute_metrics(tree: Tree, planned: ConceptPlan, n_reps: int) -> MeaningClassMetrics:
    """All six variables for the concept of ``planned``, plus per-class D detail.

    The classes with a seed go to the D statistic as one stack on the
    concept's mask; a class whose nulls coincide is skipped with that
    reason. ``mean_d`` averages the class results, and is None when there
    are none.
    """
    classes, outcomes = list(planned.classes), list(planned.classes.values())
    stacked = [j for j, work in enumerate(outcomes) if not isinstance(work, str)]
    if stacked:
        seeds = [outcomes[j] for j in stacked]
        batch = d_statistic(tree, planned.presence[stacked], planned.mask, n_reps, seed=seeds)
        for j, result in zip(stacked, batch.results):
            outcomes[j] = result
    class_results = {cls: r for cls, r in zip(classes, outcomes) if isinstance(r, DStatResult)}
    class_skips = {cls: r for cls, r in zip(classes, outcomes) if isinstance(r, str)}
    sizes = planned.presence.sum(axis=1).tolist()
    mean_d = float(np.mean([res.D for res in class_results.values()])) if class_results else None
    return MeaningClassMetrics(
        concept=planned.concept,
        n_loans=planned.n_loans,
        mean_d=mean_d,
        n_singletons=sizes.count(1),
        missing_fraction=1.0 - int(np.count_nonzero(planned.mask)) / len(planned.mask),
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
    if len(metrics) < MIN_CONCEPTS:
        raise ValueError(f"need >= {MIN_CONCEPTS} concepts for a feature table, got {len(metrics)}")
    by_concept = {m.concept: m for m in metrics}
    if len(by_concept) != len(metrics):
        raise ValueError("duplicate concept in metrics list")
    ordered = [by_concept[c] for c in sorted(by_concept)]

    defined = [m.mean_d for m in ordered if m.mean_d is not None]
    if not defined:
        raise ValueError("no concept has a defined mean_D; nothing to impute from")
    with np.errstate(over="ignore"):  # an inf cell, which standardize refuses
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
    """The table as CSV in the package's one dialect (``cognates.csv_text``), with a header row."""
    labels, values = table.row_labels, table.values
    rows = [(label, *map(repr, map(float, row))) for label, row in zip(labels, values)]
    return csv_text(("concept", *table.columns), rows)
