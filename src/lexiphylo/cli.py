"""Command-line pipeline: validate, metrics, dstat, pca, cluster, rank, simulate, report.

The four pipeline stages (metrics, pca, cluster, report) are one function
each: it takes the upstream stages' caches, writes its own JSON cache to the
output directory and returns it. A cache is its document and the SHA-256 of
the bytes the stage wrote or read, so no file is read twice: ``rank`` chains
the stages in memory, and the pca, cluster and report subcommands read the
upstream caches back once each, so the cheap stages re-run without
recomputing the D statistics. ``features.csv`` is an export nothing reads.
``pca.json`` and ``clusters.json`` record the digest of the upstream cache
they were built from, and the report stage refuses a stale link. A cache
that is not JSON or lacks or mistypes a field is an error naming the file
and the stage to re-run, not a traceback. Each flag is declared once, in
``_FLAGS``, so it means the same in every subcommand that takes it. Every
stochastic subcommand takes and requires an explicit --seed; there is no
wall-clock fallback, so a command line plus its inputs fully determines the
output bytes.

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
import sys
import typing
import warnings as _warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .cognates import (
    CognateFormatError,
    CognateMatrix,
    ValidationIssue,
    binary_trait,
    load_cognates,
)
from .comparative import (
    DEFAULT_N_REPS,
    BmParams,
    DStatResult,
    ReplicateMemoryError,
    d_statistic,
    release_workspace,
    simulate_bm,
)
from .metrics import (
    DStatConfig,
    MeaningClassMetrics,
    build_feature_table,
    compute_metrics,
    feature_table_to_csv,
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


def _pool_init(tree: Tree, matrix: CognateMatrix, config: DStatConfig) -> None:
    _POOL_STATE["args"] = (tree, matrix, config)


def _pool_task(concept: str) -> MeaningClassMetrics:
    tree, matrix, config = _POOL_STATE["args"]
    return compute_metrics(matrix, tree, concept, config)


def _usable_concepts(matrix: CognateMatrix, tree: Tree) -> tuple[list[str], list[str]]:
    """Concepts attested among the tree languages, sorted, and skip warnings for the rest.

    A concept with no such attestation is skipped with a warning rather
    than aborting the run.
    """
    tree_languages = set(tree.tip_labels)
    usable: list[str] = []
    skipped: list[str] = []
    for concept in sorted(matrix.concepts):
        if matrix.languages_for(concept) & tree_languages:
            usable.append(concept)
        else:
            skipped.append(
                f"concept {concept!r} skipped: no attestations among tree languages"
            )
    return usable, skipped


def _compute_all_metrics(
    matrix: CognateMatrix,
    tree: Tree,
    usable: list[str],
    config: DStatConfig,
    workers: int,
) -> list[MeaningClassMetrics]:
    """Metrics for the ``usable`` concepts, in their order.

    The result is independent of the worker count: per-class seeds are
    hash-derived and assembly keeps the input order. A pool starts all its
    workers up front, so it gets at most one per concept, and a single
    worker runs in this process, which frees the D statistic's buffers when
    it is done: the later stages need none of them.
    """
    workers = min(workers, len(usable))
    if workers <= 1:
        try:
            results = [compute_metrics(matrix, tree, c, config) for c in usable]
        finally:
            release_workspace()
    else:
        # Imported here: a one-worker run does not pay for the process pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(tree, matrix, config)
        ) as pool:
            results = list(pool.map(_pool_task, usable, chunksize=4))
    return results


# -- stages and their cache documents ----------------------------------------

# A stage cache: its document and the SHA-256 of the bytes it was written or read as.
Cache = tuple[dict, str]


@contextlib.contextmanager
def _malformed(path: Path, stage: str):
    """Turn a cache document that is not JSON or lacks or mistypes a field into a located error."""
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliError(f"{path} is malformed ({exc!r}); re-run the {stage} stage") from exc


def _write_cache(out: Path, name: str, doc: dict) -> Cache:
    """Write ``doc`` as the cache ``name`` in ``out``, with the schema version all caches share."""
    doc = {"schema_version": 1, **doc}
    data = to_json(doc).encode("utf-8")
    (out / name).write_bytes(data)
    return doc, hashlib.sha256(data).hexdigest()


def _read_cache(out: Path, name: str, stage: str) -> Cache:
    """The cache ``name`` in ``out``, read once; ``stage`` is the one that writes it."""
    path = out / name
    if not path.exists():
        raise CliError(f"{path} not found; run the {stage} stage first")
    data = path.read_bytes()
    with _malformed(path, stage):
        doc = json.loads(data.decode("utf-8"))
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        if name == "metrics.json":
            _check_metrics(doc)
    return doc, hashlib.sha256(data).hexdigest()


class _InputDigest(typing.TypedDict):
    path: str
    sha256: str


class _RunConfig(typing.TypedDict):
    seed: int
    n_reps: int


class _MetricsCache(typing.TypedDict):
    """The fields of ``metrics.json`` that the pca and report stages read."""

    config: _RunConfig
    inputs: dict[str, _InputDigest]
    warnings: list[str]
    concepts: list[MeaningClassMetrics]


class _Mistyped(TypeError):
    """A JSON value of the wrong type; ``path`` locates it, innermost part first."""

    def __init__(self, expected: str, value: object) -> None:
        super().__init__(expected, value)
        self.path: list[str] = []

    def __str__(self) -> str:
        expected, value = self.args
        return f"{''.join(reversed(self.path)).lstrip('.')}: expected {expected}, got {value!r}"


# The JSON types that a field annotation stands for; no bool is a number.
_JSON_TYPES = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    type(None): ("null", (type(None),)),
}


@functools.cache
def _json_check(hint) -> typing.Callable[[object], None]:
    """A test that raises ``_Mistyped`` unless a JSON value has the type ``hint`` annotates.

    A dataclass or TypedDict is an object with (at least) its fields,
    ``dict[str, T]`` an object of ``T``, ``list[T]`` an array of ``T``, and
    ``T | None`` a ``T`` or null.
    """
    if dataclasses.is_dataclass(hint) or typing.is_typeddict(hint):
        members = [(name, _json_check(h)) for name, h in typing.get_type_hints(hint).items()]

        def check(value: object) -> None:
            if type(value) is not dict:
                raise _Mistyped("an object", value)
            for name, check_member in members:
                try:
                    check_member(value[name])
                except KeyError:
                    raise KeyError(name) from None
                except _Mistyped as exc:
                    exc.path.append(f".{name}")
                    raise

        return check
    container = typing.get_origin(hint)
    if container in (dict, list):
        check_item = _json_check(typing.get_args(hint)[-1])
        kind = "an object" if container is dict else "an array"

        def check(value: object) -> None:
            if type(value) is not container:
                raise _Mistyped(kind, value)
            for key, item in value.items() if container is dict else enumerate(value):
                try:
                    check_item(item)
                except _Mistyped as exc:
                    exc.path.append(f"[{key!r}]")
                    raise

        return check
    kinds = [_JSON_TYPES[arg] for arg in typing.get_args(hint) or (hint,)]
    expected = " or ".join(name for name, _ in kinds)
    allowed = tuple(t for _, types in kinds for t in types)

    def check(value: object) -> None:
        if type(value) not in allowed:
            raise _Mistyped(expected, value)

    return check


def _check_metrics(doc: dict) -> None:
    """Raise TypeError, KeyError or ValueError at the first field of a metrics
    document that does not have the type the later stages read it as."""
    try:
        _json_check(_MetricsCache)(doc)
    except _Mistyped as exc:
        raise TypeError(str(exc)) from None
    for i, m in enumerate(doc["concepts"]):
        # mean_D averages the class results, so it is null exactly when there are none.
        if (m["mean_d"] is None) != (not m["class_results"]):
            raise ValueError(
                f"concepts[{i}].mean_d must be null exactly when it has no class results"
            )


def _rebuild(cls, doc: dict, **overrides):
    """Dataclass ``cls`` from its cache document, the inverse of ``asdict``.

    JSON keeps only lists: ndarray fields get their array back and tuple
    fields their tuple. ``overrides`` supplies fields the document stores
    in another shape.
    """
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        value = doc[f.name]
        if hints[f.name] is np.ndarray:
            value = np.array(value)
        elif isinstance(value, list):
            value = tuple(value)
        values[f.name] = value
    return cls(**{**values, **overrides})


def _metrics_from_doc(doc: dict, with_classes: bool = True) -> list[MeaningClassMetrics]:
    """The concept records of a metrics document.

    Without ``with_classes`` the records carry no per-class D results:
    the feature table needs only the concept-level fields.
    """
    metrics = []
    for m in doc["concepts"]:
        results = m["class_results"] if with_classes else {}
        results = {cls: DStatResult(**res) for cls, res in results.items()}
        metrics.append(MeaningClassMetrics(**{**m, "class_results": results}))
    return metrics


def _read_input(path: Path) -> tuple[typing.TextIO, dict]:
    """An input file, read once: a UTF-8 text stream over its bytes, which
    decodes them as ``Path.read_text`` does, and its path and the SHA-256 of
    those bytes, as ``metrics.json`` records them."""
    data = path.read_bytes()
    digest = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), digest


def _metrics_stage(args: argparse.Namespace) -> Cache:
    """Compute and write the metrics cache.

    A subcommand that takes --k (rank) has it checked against the usable
    concepts before any D statistic is computed.
    """
    out = Path(args.out)
    tree_text, tree_input = _read_input(Path(args.tree))
    tree = read_newick_file(tree_text)
    cognates_text, cognates_input = _read_input(Path(args.cognates))
    matrix, load_issues = load_cognates(cognates_text)
    usable, skip_warnings = _usable_concepts(matrix, tree)
    if "k" in args and args.k > len(usable):
        raise CliError(
            f"k out of range: need 1 <= k <= {len(usable)} usable concepts, got {args.k}"
        )
    config = DStatConfig(seed=args.seed, n_reps=args.reps)
    metrics = _compute_all_metrics(matrix, tree, usable, config, args.workers)
    table = build_feature_table(metrics)
    doc = {
        "config": {"seed": args.seed, "n_reps": args.reps},
        "inputs": {"tree": tree_input, "cognates": cognates_input},
        "warnings": sorted(skip_warnings + [issue.message for issue in load_issues]),
        "concepts": [asdict(m) for m in metrics],
    }
    out.mkdir(parents=True, exist_ok=True)
    # An export for other tools; nothing reads it back.
    (out / "features.csv").write_text(feature_table_to_csv(table), "utf-8")
    return _write_cache(out, "metrics.json", doc)


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
def _pca_stage(args: argparse.Namespace, metrics: Cache) -> Cache:
    metrics_doc, metrics_sha256 = metrics
    with _malformed(Path(args.out) / "metrics.json", "metrics"):
        table = build_feature_table(_metrics_from_doc(metrics_doc, with_classes=False))
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        result = run_pca(standardize(table))
    doc = {
        "upstream_sha256": metrics_sha256,
        **asdict(result),
        "warnings": sorted(str(w.message) for w in caught),
    }
    return _write_cache(Path(args.out), "pca.json", doc)


@_stage_invariants("cluster")
def _cluster_stage(args: argparse.Namespace, pca: Cache) -> Cache:
    """k-means over PC1/PC2, with k fixed or chosen by silhouette over 2..6.

    k may not exceed the number of distinct PC1/PC2 rows: k-means cannot
    fill more clusters than there are distinct points, so a larger
    ``--kmeans-k`` is an error and the auto range stops there.
    """
    pca_doc, pca_sha256 = pca
    pca_path = Path(args.out) / "pca.json"
    with _malformed(pca_path, "pca"):
        scores2 = np.array(pca_doc["scores"], dtype=float)[:, :2]
        row_labels = list(pca_doc["row_labels"])
    n_distinct = len(set(map(tuple, scores2.tolist())))
    kmeans_k = args.kmeans_k
    if kmeans_k is not None and kmeans_k > n_distinct:
        raise CliError(
            f"--kmeans-k {kmeans_k} exceeds the {n_distinct} distinct PC1/PC2 rows in {pca_path}"
        )
    meta: dict = {"mode": "fixed", "warnings": []}
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
        meta = {
            "mode": "auto",
            "range": [2, k_hi],
            "warnings": sorted(str(w.message) for w in caught),
        }
    assignment = kmeans(scores2, kmeans_k, seed=args.seed, n_restarts=args.restarts)
    doc = {
        "upstream_sha256": pca_sha256,
        **asdict(assignment),
        "labels": dict(zip(row_labels, assignment.labels.tolist())),
        "selection": meta,
    }
    return _write_cache(Path(args.out), "clusters.json", doc)


def _report_stage(
    args: argparse.Namespace, metrics: Cache, pca: Cache, clusters: Cache
) -> WordlistSelection:
    out = Path(args.out)
    metrics_doc, metrics_sha256 = metrics
    pca_doc, pca_sha256 = pca
    clusters_doc, _ = clusters
    with _malformed(out / "metrics.json", "metrics"):
        records = _metrics_from_doc(metrics_doc)
    # Each cache records the digest of the upstream cache it was built from.
    for name, doc, upstream, upstream_sha256, stage in (
        ("pca.json", pca_doc, "metrics.json", metrics_sha256, "pca"),
        ("clusters.json", clusters_doc, "pca.json", pca_sha256, "cluster"),
    ):
        if doc.get("upstream_sha256") != upstream_sha256:
            raise CliError(
                f"{out / name} was not built from the current {upstream}; "
                f"re-run the {stage} stage"
            )
    with _malformed(out / "pca.json", "pca"):
        oriented = orient_axes(_rebuild(PcaResult, pca_doc))
        stage_warnings = list(pca_doc["warnings"])
    with _malformed(out / "clusters.json", "cluster"):
        labels = clusters_doc["labels"]
        assignment = _rebuild(
            ClusterAssignment,
            clusters_doc,
            labels=np.array([labels[concept] for concept in oriented.row_labels]),
        )
        cluster_meta = clusters_doc["selection"]
        stage_warnings += cluster_meta["warnings"]
    with _malformed(out / "metrics.json", "metrics"):
        config = metrics_doc["config"]
        run_metadata = {
            "seed": config["seed"],
            "n_reps": config["n_reps"],
            "inputs": metrics_doc["inputs"],
            "warnings": sorted(metrics_doc["warnings"] + stage_warnings),
        }
    ranking = suitability_rank(oriented, assignment)
    selection = select_wordlist(ranking, k=args.k, threshold=args.theta)
    run_block = {
        **run_metadata,
        "wordlist_size": args.k,
        "stability_threshold": args.theta,
        "suitability_score": "PC1 - PC2 (oriented axes)",
        "kmeans": {
            "k": assignment.k,
            "n_restarts": assignment.n_restarts,
            "seed": assignment.seed,
            "algorithm": "kmeans++ seeding, Lloyd iterations, best-of-restarts",
            "space": "first two PC scores",
            **cluster_meta,
        },
    }
    artifacts = {
        "report.json": emit_report(
            records, oriented, assignment, ranking, selection, run_block
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
    doc, _ = _metrics_stage(args)
    for message in doc["warnings"]:
        print(f"warning: {message}", file=sys.stderr)
    out = Path(args.out)
    print(f"computed metrics for {len(doc['concepts'])} concepts -> {out / 'metrics.json'}")
    print(f"feature table -> {out / 'features.csv'}")
    return 0


def _cmd_dstat(args: argparse.Namespace) -> int:
    tree = read_newick_file(Path(args.tree))
    matrix, _ = load_cognates(Path(args.cognates))
    presence, mask = binary_trait(matrix, args.concept, args.cognate_class, tree.tip_labels)
    # The same per-class seed as the metrics stage, so this reproduces the report's entry.
    seed = DStatConfig(args.seed, args.reps).class_seed(args.concept, args.cognate_class)
    result = d_statistic(tree, presence, mask, n_reps=args.reps, seed=seed)
    print(f"concept={args.concept} cognate_class={args.cognate_class}")
    for name, value in asdict(result).items():
        print(f"{name}={value}")
    return 0


def _cmd_pca(args: argparse.Namespace) -> int:
    out = Path(args.out)
    doc, _ = _pca_stage(args, _read_cache(out, "metrics.json", "metrics"))
    explained = ", ".join(f"{100 * v:.1f}%" for v in doc["explained_variance"][:2])
    print(f"pca over {len(doc['row_labels'])} concepts (PC1, PC2 explain {explained})")
    print(f"pca results -> {out / 'pca.json'}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    out = Path(args.out)
    doc, _ = _cluster_stage(args, _read_cache(out, "pca.json", "pca"))
    print(f"k-means: k={doc['k']}, wcss={doc['wcss']:.4f}")
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
    metrics = _read_cache(out, "metrics.json", "metrics")
    pca = _read_cache(out, "pca.json", "pca")
    _report_stage(args, metrics, pca, _read_cache(out, "clusters.json", "cluster"))
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
