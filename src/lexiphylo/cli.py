"""Command-line pipeline: validate, metrics, dstat, pca, cluster, rank, simulate, report.

The four pipeline stages (metrics, pca, cluster, report) are one function
each: it takes the upstream stages' caches, writes its own JSON cache to the
output directory and returns it. A cache is a record of the type declared
for its file and the SHA-256 of the bytes written or read: ``rank`` chains
the stages' records in memory, and the pca, cluster and report subcommands
read each upstream cache once, through ``_read_cache``, which checks every
field against the record type. A cache that is not JSON or lacks or mistypes
a field is an error naming the file, the field and the stage to re-run.
``pca.json`` and ``clusters.json`` record the digest of the upstream cache,
and the report stage refuses a stale link. Each flag is declared once, in
``_FLAGS``. Every stochastic subcommand requires an explicit --seed; there is
no wall-clock fallback, so a command line plus its inputs fully determines
the output bytes.

Exit codes: 0 success, 1 domain error (parse/validation/statistics, a
failed numerical invariant in the pca or cluster stage, or a --reps too
large to allocate), 2 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import reprlib
import sys
import typing
import warnings as _warnings
from pathlib import Path

import numpy as np

from ._version import __version__
from .cognates import (
    CognateFormatError,
    ValidationIssue,
    load_cognates,
)
from .comparative import (
    DEFAULT_N_REPS,
    BmParams,
    ReplicateMemoryError,
    d_statistic,
    release_workspace,
    simulate_bm,
)
from .metrics import (
    MIN_CONCEPTS,
    ConceptPlan,
    DStatConfig,
    FeatureTable,
    MeaningClassMetrics,
    build_feature_table,
    compute_metrics,
    feature_table_to_csv,
    plan,
)
from .multivariate import (
    DEFAULT_RESTARTS,
    ClusterAssignment,
    PcaResult,
    choose_k,
    kmeans,
    pca as run_pca,
    standardize,
)
from .ranking import (
    DEFAULT_STABILITY_THRESHOLD,
    DEFAULT_WORDLIST_SIZE,
    WordlistSelection,
    ranking_to_csv,
    select_wordlist,
    suitability_rank,
    orient_axes,
)
from .report import emit_report, emit_scatter, to_json
from .tree import NewickError, Tree, TreeError, read_newick_file


class CliError(Exception):
    """Domain error already formatted for the user."""


# -- per-concept metrics, optionally in parallel ------------------------------

_POOL_STATE: dict = {}


def _pool_init(tree: Tree, n_reps: int) -> None:
    _POOL_STATE["args"] = (tree, n_reps)


def _pool_task(planned: ConceptPlan) -> MeaningClassMetrics:
    tree, n_reps = _POOL_STATE["args"]
    return compute_metrics(tree, planned, n_reps)


def _compute_all_metrics(
    tree: Tree, plans: list[ConceptPlan], n_reps: int, workers: int
) -> list[MeaningClassMetrics]:
    """Metrics for the planned concepts, in their order.

    The result is independent of the worker count: per-class seeds are
    hash-derived and assembly keeps the input order. A pool starts all its
    workers up front, so it gets at most one per concept, and a single
    worker runs in this process, which frees the D statistic's buffers when
    it is done: the later stages need none of them.
    """
    workers = min(workers, len(plans))
    if workers <= 1:
        try:
            results = [compute_metrics(tree, planned, n_reps) for planned in plans]
        finally:
            release_workspace()
    else:
        # Imported here: a one-worker run does not pay for the process pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(tree, n_reps)
        ) as pool:
            results = list(pool.map(_pool_task, plans, chunksize=4))
    return results


# -- stage caches: one declared record type each -------------------------------


class _Mistyped(TypeError):
    """A JSON value that does not fit its declared type; ``path`` locates it, innermost first."""

    MISSING = object()  # the value of a required key that a JSON object lacks

    def __init__(self, expected: str, value: object, at: str = "") -> None:
        super().__init__(expected, value)
        self.path: list[str] = [at] if at else []

    def __str__(self) -> str:
        expected, value = self.args
        where = "".join(reversed(self.path)).lstrip(".")
        got = "nothing" if value is self.MISSING else reprlib.repr(value)
        return f"{where + ': ' if where else ''}expected {expected}, got {got}"


_InputDigest = typing.TypedDict("_InputDigest", {"path": str, "sha256": str})


@dataclasses.dataclass(frozen=True)
class _MetricsCache:
    """``metrics.json``: the run's D config, input digests, warnings and concept records."""

    config: DStatConfig
    inputs: dict[str, _InputDigest]
    warnings: list[str]
    concepts: list[MeaningClassMetrics]

    def __post_init__(self) -> None:
        for i, m in enumerate(self.concepts):
            # mean_D averages the class results, so it is null exactly when there are none.
            if (m.mean_d is None) != (not m.class_results):
                expected = "null exactly when there are no class results"
                raise _Mistyped(expected, m.mean_d, f".concepts[{i}].mean_d")
        self.table  # a record whose concepts make no feature table raises ValueError here

    @functools.cached_property
    def table(self) -> FeatureTable:
        """The concepts' feature table, built once per record; ``asdict`` leaves it out."""
        return build_feature_table(self.concepts)


@dataclasses.dataclass(frozen=True)
class _PcaCache(PcaResult):
    """``pca.json``: the PCA of the features of the ``metrics.json`` with ``upstream_sha256``."""

    upstream_sha256: str
    warnings: list[str]

    def __post_init__(self) -> None:
        p, n = len(self.variables), len(self.row_labels)
        # The cluster stage reads the first two score columns.
        if self.scores.ndim != 2 or len(self.scores) != n or self.scores.shape[1] < 2:
            raise _Mistyped(f"{n} rows of at least 2 numbers", self.scores.shape, ".scores")
        for name, shape in (("eigenvalues", (p,)), ("explained_variance", (p,)),
                            ("loadings", (p, p)), ("contributions", (p, p)), ("scores", (n, p))):
            if getattr(self, name).shape != shape:
                got = getattr(self, name).shape
                raise _Mistyped(f"an array of shape {shape}", got, f".{name}")


class _Selection(typing.TypedDict("_Selection", {"mode": str, "warnings": list[str]}),
                 total=False):
    """How k was chosen; ``range``, the k range searched, is there in auto mode only."""

    range: list[int]


@dataclasses.dataclass(frozen=True)
class _ClustersCache:
    """``clusters.json``: a ``ClusterAssignment`` with its labels keyed by concept."""

    upstream_sha256: str
    labels: dict[str, int]
    centroids: np.ndarray
    wcss: float
    k: int
    seed: int
    n_restarts: int
    selection: _Selection

    def __post_init__(self) -> None:
        if self.centroids.shape != (self.k, 2):
            raise _Mistyped(f"an array of shape {(self.k, 2)}", self.centroids.shape, ".centroids")
        for concept, label in self.labels.items():
            if not 0 <= label < self.k:
                raise _Mistyped(f"a cluster in 0..{self.k - 1}", label, f".labels[{concept!r}]")


# The JSON types that a scalar annotation stands for; no bool is a number.
_JSON_TYPES = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    type(None): ("null", (type(None),)),
}


@functools.cache
def _decoder(hint) -> tuple[str, typing.Callable[[object], typing.Any]]:
    """What a JSON value of type ``hint`` must be, and a function that checks a parsed value
    field by field and returns it as that type, or raises ``_Mistyped``: a dataclass is
    built from an object with (at least) its fields, a TypedDict from one with its required
    keys; ``dict[str, T]`` is an object of ``T``, ``list[T]`` and ``tuple[T, ...]`` an array
    of ``T``, ``np.ndarray`` one of numbers or of such arrays, ``T | None`` a ``T`` or null."""
    if dataclasses.is_dataclass(hint) or typing.is_typeddict(hint):
        optional = getattr(hint, "__optional_keys__", ())
        members = [(name, *_decoder(h)) for name, h in typing.get_type_hints(hint).items()]
        build = dict if typing.is_typeddict(hint) else hint

        def decode(value: object):
            if type(value) is not dict:
                raise _Mistyped("an object", value)
            values = {}
            for name, expected, decode_member in members:
                try:
                    if name in value:
                        values[name] = decode_member(value[name])
                    elif name not in optional:
                        raise _Mistyped(expected, _Mistyped.MISSING)
                except _Mistyped as exc:
                    exc.path.append(f".{name}")
                    raise
            return build(**values)

        return "an object", decode
    if hint is np.ndarray:
        def decode(value: object) -> np.ndarray:
            nested = type(value) is list and value and type(value[0]) is list
            items = _decoder(list[list[float]] if nested else list[float])[1](value)
            try:
                return np.array(items, dtype=float)
            except (ValueError, OverflowError):  # ragged, or an integer beyond a double
                raise _Mistyped("a rectangular array of numbers", value) from None

        return "an array of numbers", decode
    container = typing.get_origin(hint)
    if container in (dict, list, tuple):
        json_type, expected = (dict, "an object") if container is dict else (list, "an array")
        _, decode_item = _decoder(typing.get_args(hint)[container is dict])

        def decode(value: object):
            if type(value) is not json_type:
                raise _Mistyped(expected, value)
            decoded = {}
            for key, item in value.items() if json_type is dict else enumerate(value):
                try:
                    decoded[key] = decode_item(item)
                except _Mistyped as exc:
                    exc.path.append(f"[{key!r}]")
                    raise
            return decoded if container is dict else container(decoded.values())

        return expected, decode
    kinds = [_JSON_TYPES[arg] for arg in typing.get_args(hint) or (hint,)]
    expected = " or ".join(name for name, _ in kinds)
    allowed = tuple(t for _, types in kinds for t in types)

    def decode(value: object):
        if type(value) not in allowed:
            raise _Mistyped(expected, value)
        return value

    return expected, decode


def _malformed(path: Path, stage: str, problem: object) -> CliError:
    return CliError(f"{path} is malformed ({problem}); re-run the {stage} stage")


def _write_cache(out: Path, name: str, record) -> tuple[typing.Any, str]:
    """Write ``record`` as the cache ``name`` in ``out``; returns it and the bytes' SHA-256."""
    data = to_json({"schema_version": 1, **dataclasses.asdict(record)}).encode("utf-8")
    (out / name).write_bytes(data)
    return record, hashlib.sha256(data).hexdigest()


def _not_json(token: str) -> typing.NoReturn:
    """``json.loads`` accepts ``NaN``, ``Infinity`` and ``-Infinity``; JSON does not."""
    raise ValueError(f"{token} is not a JSON value")


def _read_cache(out: Path, name: str, stage: str, record: type) -> tuple[typing.Any, str]:
    """The cache ``name`` in ``out`` read once and decoded as ``record``, and the
    SHA-256 of its bytes; ``stage`` is the one that writes it."""
    path = out / name
    if not path.exists():
        raise CliError(f"{path} not found; run the {stage} stage first")
    data = path.read_bytes()
    try:
        document = json.loads(data.decode("utf-8"), parse_constant=_not_json)
    except ValueError as exc:  # not UTF-8 or not JSON
        raise _malformed(path, stage, f"not JSON: {exc}") from exc
    try:
        value = _decoder(record)[1](document)
    except (_Mistyped, ValueError) as exc:  # a ValueError is a record's own check
        raise _malformed(path, stage, exc) from None
    return value, hashlib.sha256(data).hexdigest()


def _read_input(path: Path) -> tuple[typing.TextIO, _InputDigest]:
    """An input file, read once: a UTF-8 text stream over its bytes, which
    decodes them as ``Path.read_text`` does, and its path and the SHA-256 of
    those bytes, as ``metrics.json`` records them."""
    data = path.read_bytes()
    digest = _InputDigest(path=str(path), sha256=hashlib.sha256(data).hexdigest())
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), digest


def _metrics_stage(args: argparse.Namespace) -> tuple[_MetricsCache, str]:
    """Compute and write the metrics cache.

    Every concept's D work is planned before any draw, so a corpus that can
    make no feature table, and a --k (rank) above the planned concepts, are
    refused before any D statistic is computed.
    """
    out = Path(args.out)
    tree_text, tree_input = _read_input(Path(args.tree))
    tree = read_newick_file(tree_text)
    cognates_text, cognates_input = _read_input(Path(args.cognates))
    matrix, load_issues = load_cognates(cognates_text)
    config = DStatConfig(seed=args.seed, n_reps=args.reps)
    plans, skipped = plan(matrix, tree, config)
    if len(plans) < MIN_CONCEPTS:
        raise CliError(
            f"{args.cognates}: need >= {MIN_CONCEPTS} concepts attested among the tree "
            f"languages for a feature table, got {len(plans)}"
        )
    if all(isinstance(work, str) for planned in plans for work in planned.classes.values()):
        raise CliError(f"{args.cognates}: no cognate class has a D statistic to compute")
    if "k" in args and args.k > len(plans):
        raise CliError(
            f"k out of range: need 1 <= k <= {len(plans)} usable concepts, got {args.k}"
        )
    metrics = _compute_all_metrics(tree, plans, config.n_reps, args.workers)
    inputs = {"tree": tree_input, "cognates": cognates_input}
    warned = sorted([*skipped.values(), *(issue.message for issue in load_issues)])
    record = _MetricsCache(config=config, inputs=inputs, warnings=warned, concepts=metrics)
    out.mkdir(parents=True, exist_ok=True)
    # An export for other tools; nothing reads it back.
    (out / "features.csv").write_text(feature_table_to_csv(record.table), "utf-8")
    return _write_cache(out, "metrics.json", record)


@contextlib.contextmanager
def _stage_invariants(stage: str):
    """Turn a failed numerical invariant of ``stage`` into a located error.

    k-means asserts that no Lloyd iteration raised a restart's WCSS, and
    the Jacobi eigensolver raises RuntimeError when it does not converge.
    """
    try:
        yield
    except (AssertionError, RuntimeError) as exc:
        raise CliError(f"{stage} stage failed an internal check: {exc!r}") from exc


@_stage_invariants("pca")
def _pca_stage(
    args: argparse.Namespace, metrics: tuple[_MetricsCache, str]
) -> tuple[_PcaCache, str]:
    record, metrics_sha256 = metrics
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        result = run_pca(standardize(record.table))
    warned = sorted(str(w.message) for w in caught)
    pca = _PcaCache(**vars(result), upstream_sha256=metrics_sha256, warnings=warned)
    return _write_cache(Path(args.out), "pca.json", pca)


@_stage_invariants("cluster")
def _cluster_stage(
    args: argparse.Namespace, pca: tuple[_PcaCache, str]
) -> tuple[_ClustersCache, str]:
    """k-means over PC1/PC2, with k fixed or chosen by silhouette over 2..6.

    k may not exceed the number of distinct PC1/PC2 rows: k-means cannot
    fill more clusters than there are distinct points, so a larger
    ``--kmeans-k`` is an error and the auto range stops there.
    """
    record, pca_sha256 = pca
    pca_path = Path(args.out) / "pca.json"
    scores2 = record.scores[:, :2]
    n_distinct = len(set(map(tuple, scores2.tolist())))
    kmeans_k = args.kmeans_k
    if kmeans_k is not None and kmeans_k > n_distinct:
        raise CliError(
            f"--kmeans-k {kmeans_k} exceeds the {n_distinct} distinct PC1/PC2 rows in {pca_path}"
        )
    selection = _Selection(mode="fixed", warnings=[])
    if kmeans_k is None:
        k_hi = min(6, len(scores2) - 1, n_distinct)
        if k_hi < 2:
            raise CliError(
                f"--kmeans-k auto needs at least 2 distinct PC1/PC2 rows in {pca_path}, "
                f"found {n_distinct}"
            )
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            kmeans_k = choose_k(scores2, range(2, k_hi + 1), args.seed, args.restarts)
        warned = sorted(str(w.message) for w in caught)
        selection = _Selection(mode="auto", range=[2, k_hi], warnings=warned)
    assignment = kmeans(scores2, kmeans_k, seed=args.seed, n_restarts=args.restarts)
    labels = dict(zip(record.row_labels, assignment.labels.tolist()))
    clusters = _ClustersCache(
        **{**vars(assignment), "labels": labels}, upstream_sha256=pca_sha256, selection=selection
    )
    return _write_cache(Path(args.out), "clusters.json", clusters)


def _report_stage(
    args: argparse.Namespace, metrics: tuple[_MetricsCache, str], pca: tuple[_PcaCache, str],
    clusters: tuple[_ClustersCache, str],
) -> WordlistSelection:
    out = Path(args.out)
    (metrics, metrics_sha256), (pca, pca_sha256), (clusters, _) = metrics, pca, clusters
    # Each cache records the digest of the upstream cache it was built from.
    for name, record, upstream, upstream_sha256, stage in (
        ("pca.json", pca, "metrics.json", metrics_sha256, "pca"),
        ("clusters.json", clusters, "pca.json", pca_sha256, "cluster"),
    ):
        if record.upstream_sha256 != upstream_sha256:
            raise CliError(
                f"{out / name} was not built from the current {upstream}; "
                f"re-run the {stage} stage"
            )
    # ... and the PCA is of that cache's feature table: its variables and concepts.
    for name, expected in (("variables", metrics.table.columns),
                           ("row_labels", metrics.table.row_labels)):
        if getattr(pca, name) != expected:
            problem = _Mistyped(f"the {name} of the metrics.json feature table",
                                getattr(pca, name), f".{name}")
            raise _malformed(out / "pca.json", "pca", problem)
    oriented = orient_axes(pca)
    try:
        labels = np.array([clusters.labels[concept] for concept in oriented.row_labels])
    except KeyError as exc:
        missing = _Mistyped("an integer", _Mistyped.MISSING, f"labels[{exc.args[0]!r}]")
        raise _malformed(out / "clusters.json", "cluster", missing) from None
    extra = sorted(clusters.labels.keys() - set(oriented.row_labels))
    if extra:
        problem = _Mistyped("no label for a concept outside pca.json",
                            clusters.labels[extra[0]], f"labels[{extra[0]!r}]")
        raise _malformed(out / "clusters.json", "cluster", problem)
    kept = {f.name: getattr(clusters, f.name) for f in dataclasses.fields(ClusterAssignment)}
    assignment = ClusterAssignment(**{**kept, "labels": labels})
    ranking = suitability_rank(oriented, assignment)
    selection = select_wordlist(ranking, k=args.k, threshold=args.theta)
    run_block = {
        **dataclasses.asdict(metrics.config),
        "inputs": metrics.inputs,
        "warnings": sorted(metrics.warnings + pca.warnings + clusters.selection["warnings"]),
        "wordlist_size": args.k,
        "stability_threshold": args.theta,
        "suitability_score": "PC1 - PC2 (oriented axes)",
        "kmeans": {
            "k": assignment.k,
            "n_restarts": assignment.n_restarts,
            "seed": assignment.seed,
            "algorithm": "kmeans++ seeding, Lloyd iterations, best-of-restarts",
            "space": "first two PC scores",
            **clusters.selection,
        },
    }
    artifacts = {
        "report.json": emit_report(
            metrics.concepts, oriented, assignment, ranking, selection, run_block
        ),
        "ranking.csv": ranking_to_csv(ranking),
        "scatter.svg": emit_scatter(oriented, assignment, ranking),
    }
    for name, text in artifacts.items():
        (out / name).write_text(text, "utf-8")
        print(f"{Path(name).stem} -> {out / name}")
    return selection


# -- subcommands ---------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    issues: list[ValidationIssue] = []
    tree = read_newick_file(Path(args.tree))
    if tree.defaulted:
        message = f"tree has {len(tree.defaulted)} absent branch length(s), set to 1.0"
        issues.append(ValidationIssue("warning", None, message))
    matrix, load_warnings = load_cognates(Path(args.cognates))
    issues.extend(load_warnings)

    tree_languages = set(tree.tip_labels)
    db_languages = set(matrix.languages)
    for lang in sorted(db_languages - tree_languages):
        issues.append(
            ValidationIssue("warning", None, f"language {lang!r} in cognates but not in tree")
        )
    for lang in sorted(tree_languages - db_languages):
        issues.append(
            ValidationIssue("warning", None, f"tree tip {lang!r} has no cognate rows")
        )

    for issue in issues:
        print(issue.render())
    errors = sum(1 for i in issues if i.level == "error")
    warn_count = sum(1 for i in issues if i.level == "warning")
    print(
        f"validated {len(matrix.languages)} languages, {len(matrix.concepts)} concepts: "
        f"{errors} errors, {warn_count} warnings"
    )
    return 0 if errors == 0 else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    record, _ = _metrics_stage(args)
    for message in record.warnings:
        print(f"warning: {message}", file=sys.stderr)
    out = Path(args.out)
    print(f"computed metrics for {len(record.concepts)} concepts -> {out / 'metrics.json'}")
    print(f"feature table -> {out / 'features.csv'}")
    return 0


def _cmd_dstat(args: argparse.Namespace) -> int:
    tree = read_newick_file(Path(args.tree))
    matrix, _ = load_cognates(Path(args.cognates))
    concept, cls = args.concept, args.cognate_class
    if cls not in matrix.classes_for(concept):
        raise CliError(f"unknown cognate class {cls!r} for concept {concept!r}")
    # The metrics stage's plan, so this prints the class's report entry or skip reason.
    plans, skipped = plan(matrix, tree, DStatConfig(args.seed, args.reps))
    planned = next((p for p in plans if p.concept == concept), None)
    seed = skipped[concept] if planned is None else planned.work(cls)
    if isinstance(seed, str):
        raise CliError(seed)
    row = list(planned.classes).index(cls)
    result = d_statistic(tree, planned.presence[row], planned.mask, n_reps=args.reps, seed=seed)
    print(f"concept={concept} cognate_class={cls}")
    for name, value in dataclasses.asdict(result).items():
        print(f"{name}={value}")
    return 0


def _cmd_pca(args: argparse.Namespace) -> int:
    out = Path(args.out)
    record, _ = _pca_stage(args, _read_cache(out, "metrics.json", "metrics", _MetricsCache))
    explained = ", ".join(f"{100 * v:.1f}%" for v in record.explained_variance[:2])
    print(f"pca over {len(record.row_labels)} concepts (PC1, PC2 explain {explained})")
    print(f"pca results -> {out / 'pca.json'}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    out = Path(args.out)
    record, _ = _cluster_stage(args, _read_cache(out, "pca.json", "pca", _PcaCache))
    print(f"k-means: k={record.k}, wcss={record.wcss:.4f}")
    print(f"clusters -> {out / 'clusters.json'}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    metrics = _metrics_stage(args)
    pca = _pca_stage(args, metrics)
    selection = _report_stage(args, metrics, pca, _cluster_stage(args, pca))
    print(f"top {len(selection.concepts)} concepts:")
    for concept in selection.concepts:
        print(f"  {concept}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out)
    metrics = _read_cache(out, "metrics.json", "metrics", _MetricsCache)
    pca = _read_cache(out, "pca.json", "pca", _PcaCache)
    _report_stage(args, metrics, pca, _read_cache(out, "clusters.json", "cluster", _ClustersCache))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    tree = read_newick_file(Path(args.tree))
    params = BmParams(sigma2=args.sigma2, root_value=args.root, seed=args.seed)
    values = simulate_bm(tree, params)
    lines = ["tip\tvalue"]
    for idx, label in zip(tree.tip_indices, tree.tip_labels):
        lines.append(f"{label}\t{float(values[idx])!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, "utf-8")
        print(f"simulated {tree.n_tips} tip values -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# -- argument plumbing ---------------------------------------------------------


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _kmeans_k(value: str):
    if value == "auto":
        return None
    return _positive_int(value)


def _threshold(value: str) -> float:
    parsed = float(value)
    if not math.isfinite(parsed):
        raise argparse.ArgumentTypeError(f"stability threshold must be finite, got {value}")
    return parsed


class _ArgumentParser(argparse.ArgumentParser):
    """An argument error is a domain error: ``error:`` on stderr and exit 1."""

    def error(self, message: str) -> typing.NoReturn:
        raise CliError(f"{self.prog}: {message}")


# Every flag once, by name: its option string and its add_argument keywords,
# so a flag means the same in every subcommand that takes it. simulate's
# optional --out FILE is the one option string with a second entry.
_FLAGS: dict[str, tuple[str, dict]] = {
    "tree": ("--tree", dict(required=True, metavar="NEWICK")),
    "cognates": ("--cognates", dict(required=True, metavar="CSV")),
    "config": ("--config", dict(metavar="JSON",
                                help="flat JSON file supplying defaults for any flag")),
    "seed": ("--seed", dict(type=int,
                            help="required; stochastic runs have no wall-clock default")),
    "reps": ("--reps", dict(type=_positive_int, default=DEFAULT_N_REPS,
                            help=f"null replicates (default {DEFAULT_N_REPS})")),
    "out": ("--out", dict(required=True, metavar="DIR")),
    "workers": ("--workers", dict(type=_positive_int, default=1)),
    "concept": ("--concept", dict(required=True)),
    "cognate_class": ("--cognate-class", dict(required=True)),
    "kmeans_k": ("--kmeans-k", dict(
        type=_kmeans_k,
        help="cluster count, or 'auto' for silhouette selection (default auto)")),
    "restarts": ("--restarts", dict(type=_positive_int, default=DEFAULT_RESTARTS)),
    "k": ("--k", dict(type=_positive_int, default=DEFAULT_WORDLIST_SIZE,
                      help=f"wordlist size (default {DEFAULT_WORDLIST_SIZE})")),
    "theta": ("--theta", dict(
        type=_threshold, default=DEFAULT_STABILITY_THRESHOLD,
        help=f"stability-mix warning threshold (default {DEFAULT_STABILITY_THRESHOLD})")),
    "sigma2": ("--sigma2", dict(type=float, required=True)),
    "root": ("--root", dict(type=float, default=0.0, help="root value (default 0)")),
    "out_file": ("--out", dict(metavar="FILE")),
}

# Each subcommand: its handler, its help line and its flags, in --help order.
_COMMANDS: dict[str, tuple[typing.Callable, str, tuple[str, ...]]] = {
    "validate": (_cmd_validate, "check tree + cognate inputs and cross-references",
                 ("tree", "cognates", "config")),
    "metrics": (_cmd_metrics, "compute the six per-concept variables (the slow stage)",
                ("tree", "cognates", "config", "seed", "reps", "out", "workers")),
    "dstat": (_cmd_dstat, "D statistic for one cognate class",
              ("tree", "cognates", "config", "seed", "concept", "cognate_class", "reps")),
    "pca": (_cmd_pca, "standardize cached features and run PCA", ("config", "out")),
    "cluster": (_cmd_cluster, "k-means over cached PC1/PC2 scores",
                ("config", "seed", "out", "kmeans_k", "restarts")),
    "rank": (_cmd_rank, "full pipeline: metrics, pca, cluster, rank, report",
             ("tree", "cognates", "config", "seed", "reps", "k", "kmeans_k", "restarts",
              "theta", "out", "workers")),
    "report": (_cmd_report, "re-emit report artifacts from cached stages",
               ("config", "out", "k", "theta")),
    "simulate": (_cmd_simulate, "Brownian-motion tip values for a tree",
                 ("tree", "config", "seed", "sigma2", "root", "out_file")),
}


def build_parser(defaults: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """``defaults`` maps a subcommand to flag values, by dest, that replace built-in defaults."""
    parser = _ArgumentParser(
        prog="lexiphylo",
        description=(
            "Score meaning classes in a cognate database for suitability in "
            "lexical phylogenetic inference."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name in names:
            option, spec = _FLAGS[name]
            p.add_argument(option, **spec)
        p.set_defaults(func=func, **(defaults or {}).get(command, {}))
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built on first use.

    Building it at import would add to the cost of ``import lexiphylo``, and
    a parser per call leaves its reference cycles to the garbage collector.
    Nothing may change it after it is built.
    """
    return build_parser()


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv``; a --config file's values become the subcommand's defaults.

    Each value is parsed from its text by the flag's ``type`` in ``_FLAGS``,
    so a config value is accepted exactly when the same text on the command
    line would be. Flags given on the command line win, JSON null keeps the
    built-in default, and keys naming no flag of the subcommand are ignored.
    The defaults go into a parser built for this call alone, so the shared
    parser keeps its built-in defaults.
    """
    args = _shared_parser().parse_args(argv)
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text("utf-8"))
        except ValueError as exc:
            raise CliError(f"--config {args.config} is not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise CliError("--config must contain a flat JSON object")
        config = {str(k).replace("-", "_"): v for k, v in raw.items()}
        defaults = {}
        for name in _COMMANDS[args.command][2]:
            option, spec = _FLAGS[name]
            dest = option[2:].replace("-", "_")
            value = config.get(dest)
            if value is None:
                continue
            try:
                defaults[dest] = spec.get("type", str)(str(value))
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise CliError(f"--config key {dest!r}: bad value {value!r}: {exc}") from exc
        args = build_parser({args.command: defaults}).parse_args(argv)
    if "seed" in args and args.seed is None:
        raise CliError(f"a --seed is required for '{args.command}' (no wall-clock default)")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (CliError, NewickError, TreeError, CognateFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReplicateMemoryError as exc:
        print(f"error: not enough memory: {exc} (lower --reps)", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
