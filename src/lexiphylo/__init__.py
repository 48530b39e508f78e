"""Rank meaning classes in cognate databases for lexical phylogenetic inference.

The pipeline: parse a rooted tree and a long-format cognate table, score
every meaning class on six variables (loans, phylogenetic signal via the
D statistic, singletons, missing data, mean and maximum class size), run
correlation-matrix PCA with variable contributions, cluster the first two
PC scores, and rank concepts for wordlist selection - with a warning when
a selection leans too hard on the most stable classes.
"""

from ._version import __version__
from .cognates import (
    CognateFormatError,
    CognateMatrix,
    ConceptSummary,
    ValidationIssue,
    binary_traits,
    concept_summary,
    load_cognates,
    write_cognates,
)
from .comparative import (
    BmParams,
    DStatBatch,
    DStatResult,
    d_statistic,
    d_sum,
    estimate_sigma2,
    nodal_estimates,
    simulate_bm,
    threshold_at_prevalence,
)
from .metrics import (
    FEATURE_COLUMNS,
    ConceptPlan,
    DStatConfig,
    FeatureTable,
    MeaningClassMetrics,
    build_feature_table,
    compute_metrics,
    plan,
)
from .multivariate import (
    ClusterAssignment,
    LowStructureWarning,
    PcaResult,
    ZeroVarianceWarning,
    choose_k,
    kmeans,
    pca,
    silhouette_score,
    standardize,
)
from .ranking import (
    RankedConcept,
    SuitabilityRanking,
    WordlistSelection,
    orient_axes,
    select_wordlist,
    suitability_rank,
)
from .report import emit_report, emit_scatter, report_schema
from .tree import (
    NewickError,
    Tree,
    TreeError,
    TreeSummary,
    parse_newick,
    prune_to_taxa,
    read_newick_file,
    tree_summary,
    write_newick,
    write_newick_file,
)

__all__ = [
    "__version__",
    "BmParams",
    "ClusterAssignment",
    "CognateFormatError",
    "CognateMatrix",
    "ConceptPlan",
    "ConceptSummary",
    "DStatBatch",
    "DStatConfig",
    "DStatResult",
    "FEATURE_COLUMNS",
    "FeatureTable",
    "LowStructureWarning",
    "MeaningClassMetrics",
    "NewickError",
    "PcaResult",
    "RankedConcept",
    "SuitabilityRanking",
    "Tree",
    "TreeError",
    "TreeSummary",
    "ValidationIssue",
    "WordlistSelection",
    "ZeroVarianceWarning",
    "binary_traits",
    "build_feature_table",
    "choose_k",
    "compute_metrics",
    "concept_summary",
    "d_statistic",
    "d_sum",
    "emit_report",
    "emit_scatter",
    "estimate_sigma2",
    "kmeans",
    "load_cognates",
    "nodal_estimates",
    "orient_axes",
    "parse_newick",
    "pca",
    "plan",
    "prune_to_taxa",
    "read_newick_file",
    "report_schema",
    "select_wordlist",
    "silhouette_score",
    "simulate_bm",
    "standardize",
    "suitability_rank",
    "threshold_at_prevalence",
    "tree_summary",
    "write_cognates",
    "write_newick",
    "write_newick_file",
]
