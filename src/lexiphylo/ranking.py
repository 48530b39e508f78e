"""Axis orientation, suitability ranking, and wordlist selection.

Eigenvectors come out of the PCA with arbitrary signs. We orient them to
the domain reading of the first two dimensions: dimension 1 is dominated
by missingness, so it is flipped (if needed) until ``missing_fraction``
loads negatively - a high PC1 score then means well-attested; dimension 2
is dominated by singleton classes and is flipped until ``n_singletons``
loads positively - a low PC2 score then means few singletons. Concepts
scoring high on PC1 and low on PC2 are the best phylogenetic candidates,
so the suitability score is PC1 - PC2.

The southeast quadrant (PC1 > 0, PC2 < 0) holds the most stable classes; a
wordlist drawn almost entirely from it risks underestimating language
splits, which ``select_wordlist`` reports as a stability-mix warning.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter

from .multivariate import ClusterAssignment, PcaResult

DEFAULT_WORDLIST_SIZE = 30  # roughly thirty data points per language
DEFAULT_STABILITY_THRESHOLD = 0.8

_ORIENT_DIM1_VARIABLE = "missing_fraction"  # must load negatively on dim 1
_ORIENT_DIM2_VARIABLE = "n_singletons"  # must load positively on dim 2


@dataclass(frozen=True)
class RankedConcept:
    concept: str
    pc1: float
    pc2: float
    score: float
    rank: int
    quadrant: str
    cluster: int


@dataclass(frozen=True)
class SuitabilityRanking:
    rows: tuple[RankedConcept, ...]

    def concepts_by_rank(self) -> tuple[str, ...]:
        return tuple(row.concept for row in self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class WordlistSelection:
    concepts: tuple[str, ...]
    k: int
    se_fraction: float
    threshold: float
    warnings: tuple[str, ...]


def orient_axes(result: PcaResult) -> PcaResult:
    """Fix the sign ambiguity of the first two dimensions (idempotent).

    Flipping negates a loading column and its score column together, so
    eigenvalues, contributions, and all pairwise score distances are
    untouched. Dimensions beyond the second keep their solver signs.
    """
    for name in (_ORIENT_DIM1_VARIABLE, _ORIENT_DIM2_VARIABLE):
        if name not in result.variables:
            raise ValueError(f"cannot orient axes without variable {name!r}")
    loadings = result.loadings.copy()
    scores = result.scores.copy()
    var_index = {name: i for i, name in enumerate(result.variables)}
    if loadings[var_index[_ORIENT_DIM1_VARIABLE], 0] > 0:
        loadings[:, 0] = -loadings[:, 0]
        scores[:, 0] = -scores[:, 0]
    if loadings[var_index[_ORIENT_DIM2_VARIABLE], 1] < 0:
        loadings[:, 1] = -loadings[:, 1]
        scores[:, 1] = -scores[:, 1]
    return replace(result, loadings=loadings, scores=scores)


def _quadrant(pc1: float, pc2: float) -> str:
    ns = "N" if pc2 > 0 else "S"
    ew = "E" if pc1 > 0 else "W"
    return ns + ew


def suitability_rank(
    result: PcaResult, clusters: ClusterAssignment
) -> SuitabilityRanking:
    """Rank concepts by PC1 - PC2 on oriented axes (ties by concept ID)."""
    if len(clusters.labels) != len(result.row_labels):
        raise ValueError("cluster labels do not match the PCA rows")
    entries = []
    for i, concept in enumerate(result.row_labels):
        pc1 = float(result.scores[i, 0])
        pc2 = float(result.scores[i, 1])
        entries.append((concept, pc1, pc2, pc1 - pc2, int(clusters.labels[i])))
    entries.sort(key=lambda e: (-e[3], e[0]))
    rows = tuple(
        RankedConcept(
            concept=concept,
            pc1=pc1,
            pc2=pc2,
            score=score,
            rank=rank,
            quadrant=_quadrant(pc1, pc2),
            cluster=cluster,
        )
        for rank, (concept, pc1, pc2, score, cluster) in enumerate(entries, start=1)
    )
    return SuitabilityRanking(rows)


def select_wordlist(
    ranking: SuitabilityRanking,
    k: int = DEFAULT_WORDLIST_SIZE,
    threshold: float = DEFAULT_STABILITY_THRESHOLD,
) -> WordlistSelection:
    """Take the top-k concepts; warn when the selection is too stable a mix.

    The warning fires when more than ``threshold`` of the selected concepts
    sit in the southeast quadrant - the most stable classes, whose
    over-selection tends to underestimate splits.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"stability threshold must be finite, got {threshold}")
    n = len(ranking)
    if not 1 <= k <= n:
        raise ValueError(f"k out of range: need 1 <= k <= {n}, got {k}")
    chosen = ranking.rows[:k]
    se_count = sum(1 for row in chosen if row.quadrant == "SE")
    se_fraction = se_count / k
    warning_list: list[str] = []
    if se_fraction > threshold:
        warning_list.append(
            f"stability mix: {se_fraction * 100:.0f}% SE > {threshold * 100:.0f}%; "
            "selection is dominated by the most stable classes and may "
            "underestimate splits"
        )
    return WordlistSelection(
        concepts=tuple(row.concept for row in chosen),
        k=k,
        se_fraction=se_fraction,
        threshold=threshold,
        warnings=tuple(warning_list),
    )


def ranking_to_csv(ranking: SuitabilityRanking) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [f.name for f in fields(RankedConcept)]
    writer.writerow(names)
    writer.writerows(map(attrgetter(*names), ranking.rows))
    return buf.getvalue()
