"""Subprocess side of the benchmark: traced CLI runs and in-process restage cycles.

    python3 perfbench/child.py trace SPANS_DIR -- rank --tree ... --out ...
        Run one ``lexiphylo`` command line in this process with every layer
        wrapped (see ``TARGETS``). Each process, including forked pool
        workers, writes its spans to ``SPANS_DIR/spans-<pid>.npz`` when it
        exits.

    python3 perfbench/child.py restage OUT SEED K SECONDS RESULT [SPANS_DIR]
        Repeat pca -> cluster -> report --k K cycles on the stage caches in OUT
        for SECONDS (at least one cycle), write per-cycle wall times, exit
        codes and artifact digests to RESULT as JSON. With SPANS_DIR, every
        second cycle is traced and the others are not, so one run gives
        both the traced and the untraced cycle time.

Run with ``src`` on ``PYTHONPATH``. The wrappers sit where callers look the
names up: modules import functions by name, so ``lexiphylo.metrics``
calls its own ``d_statistic`` binding, not ``lexiphylo.comparative``'s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing.util
import os
import resource
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) -> span name. Class attributes are given as "module:Class".
TARGETS = {
    ("lexiphylo.cli", "read_newick_file"): "cli.read_newick_file",
    ("lexiphylo.cli", "load_cognates"): "cli.load_cognates",
    ("lexiphylo.cli", "compute_metrics"): "cli.compute_metrics",
    ("lexiphylo.cli", "standardize"): "cli.standardize",
    ("lexiphylo.cli", "run_pca"): "cli.run_pca",
    ("lexiphylo.cli", "choose_k"): "cli.choose_k",
    ("lexiphylo.cli", "kmeans"): "cli.kmeans",
    ("lexiphylo.cli", "orient_axes"): "cli.orient_axes",
    ("lexiphylo.cli", "suitability_rank"): "cli.suitability_rank",
    ("lexiphylo.cli", "select_wordlist"): "cli.select_wordlist",
    ("lexiphylo.cli", "ranking_to_csv"): "cli.ranking_to_csv",
    ("lexiphylo.cli", "emit_report"): "cli.emit_report",
    ("lexiphylo.cli", "emit_scatter"): "cli.emit_scatter",
    ("lexiphylo.cognates:CognateMatrix", "languages_for"): "CognateMatrix.languages_for",
    ("lexiphylo.cognates:CognateMatrix", "classes_for"): "CognateMatrix.classes_for",
    ("lexiphylo.metrics", "d_statistic"): "metrics.d_statistic",
    ("lexiphylo.comparative", "prune_to_taxa"): "comparative.prune_to_taxa",
    ("lexiphylo.comparative", "stream"): "comparative.stream",
    ("lexiphylo.multivariate", "stream"): "multivariate.stream",
    ("lexiphylo.multivariate", "kmeans"): "multivariate.kmeans",
    ("lexiphylo.multivariate", "silhouette_score"): "multivariate.silhouette_score",
}
ROOT_SPAN = "cli.main"
NAMES = [ROOT_SPAN, *TARGETS.values()]


class Tracer:
    """Spans kept in flat arrays in memory and written to disk at process exit.

    A span row is (op, name id, start ns, end ns, parent row, x, ok). ``x``
    is the node count of a pruned tree for prune_to_taxa, ``n_reps`` for
    d_statistic, and 0 otherwise; ``ok`` is 0 when the call raised.
    """

    def __init__(self, spans_dir: Path) -> None:
        self.spans_dir = spans_dir
        self.op = 0
        self.worker = False
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.cols = [array("q") for _ in range(7)]
        self.stack: list[int] = []

    def _after_fork(self) -> None:
        # A forked pool worker keeps only its own spans and writes them when
        # multiprocessing shuts the worker down (atexit does not run there).
        self._reset()
        self.worker = True
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def wrap(self, name: str, func):
        name_id = NAMES.index(name)
        extra = {
            "comparative.prune_to_taxa": lambda result: result.n_nodes,
            "metrics.d_statistic": lambda result: result.n_reps,
        }.get(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            cols, stack = tracer.cols, tracer.stack
            row = len(cols[0])
            parent = stack[-1] if stack else -1
            for col, value in zip(cols, (tracer.op, name_id, 0, 0, parent, 0, 1)):
                col.append(value)
            stack.append(row)
            cols[2][row] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                cols[6][row] = 0
                raise
            finally:
                cols[3][row] = clock()
                stack.pop()
            if extra:
                cols[5][row] = extra(result)
            return result

        return traced

    def dump(self) -> None:
        if not len(self.cols[0]):
            return
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        np.savez(
            self.spans_dir / f"spans-{os.getpid()}.npz",
            rows=np.array([np.frombuffer(col, dtype=np.int64) for col in self.cols]).T,
            names=np.array(NAMES),
            worker=np.array(self.worker),
        )


def _resolve(module_attr: str):
    module_name, _, class_name = module_attr.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    return getattr(owner, class_name) if class_name else owner


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    saved = []
    for (module_attr, attr), name in TARGETS.items():
        owner = _resolve(module_attr)
        original = getattr(owner, attr)  # AttributeError if a name went away
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in saved:
        setattr(owner, attr, original)


def run_main(tracer: Tracer | None, argv: list[str]) -> int:
    """``lexiphylo.cli.main(argv)`` with its stdout discarded, as a root span."""
    from lexiphylo import cli

    main = tracer.wrap(ROOT_SPAN, cli.main) if tracer else cli.main
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _digests(out: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.json", "ranking.csv", "scatter.svg")
        if (out / name).exists()
    }


def restage(
    out: Path, seed: str, k: str, seconds: float, result: Path, spans_dir: Path | None
) -> None:
    tracer = Tracer(spans_dir) if spans_dir else None
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds or (
        tracer and len(cycles) < 2
    ):
        traced = tracer is not None and len(cycles) % 2 == 1
        saved = install(tracer) if traced else []
        if traced:
            tracer.op = len(cycles)
        t0 = time.perf_counter()
        codes = [
            run_main(tracer if traced else None, ["pca", "--out", str(out)]),
            run_main(tracer if traced else None, ["cluster", "--seed", seed, "--out", str(out)]),
            run_main(tracer if traced else None, ["report", "--k", k, "--out", str(out)]),
        ]
        wall = time.perf_counter() - t0
        uninstall(saved)
        cycles.append(
            {"wall_s": wall, "traced": traced, "codes": codes, "digests": _digests(out)}
        )
    if tracer:
        tracer.dump()
    payload = {
        "cycles": cycles,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    result.write_text(json.dumps(payload), "utf-8")


def trace(spans_dir: Path, argv: list[str]) -> int:
    tracer = Tracer(spans_dir)
    install(tracer)
    try:
        return run_main(tracer, argv)
    finally:
        tracer.dump()


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "trace":
        if len(rest) < 2 or rest[1] != "--":
            raise SystemExit("usage: child.py trace SPANS_DIR -- ARGV...")
        return trace(Path(rest[0]), rest[2:])
    if mode == "restage":
        out, seed, k, seconds, result, *spans = rest
        restage(Path(out), seed, k, float(seconds), Path(result), Path(spans[0]) if spans else None)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
