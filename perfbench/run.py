#!/usr/bin/env python3
"""Benchmark for lexiphylo: wall time of `rank` and of cached re-staging.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the script changes to it anyway). The package
is used from ``src/`` exactly as a user runs it: ``python3 -m lexiphylo``
in a fresh process per operation, with ``OMP_NUM_THREADS`` and
``OPENBLAS_NUM_THREADS`` set to 1. Working files go to ``.perfbench_work/``.

Workloads (closed loop, one client: the next operation starts when the
previous one has finished; operations repeat until S seconds have passed,
and at least one runs):

  bundled-1000     ``rank`` on data/synthetic (100 tips x 50 concepts) at the
                   paper's 1000 replicates, 1 worker. Replicate-heavy: the
                   Philox stream set-up and the per-replicate loops of the D
                   statistic dominate; pruning and cognate lookups do not.
  wide-400         ``rank`` on a generated 400-tip x 24-concept corpus
                   (perfbench/corpus.py) at 10 replicates, ``--k 12``. Tree-heavy:
                   per-node sweeps and prune_to_taxa dominate; RNG does not. The
                   concept count sets the run length; the tip count is the point.
  restage          The wide-400 stage caches are built once, untimed; then
                   pca -> cluster (auto k, 25 restarts) -> report cycles run
                   in one process. The cache-read path: k-means and silhouette
                   dominate, the D statistic does no work.
  bundled-1000-w2  bundled-1000 with ``--workers 2``: the process pool and
                   its chunk imbalance. Skipped when fewer than 2 CPUs.

Correctness: an operation fails if it exits non-zero, writes a traceback,
or writes a report.json, ranking.csv or scatter.svg whose SHA-256 differs
from perfbench/golden.json (written by make_golden.py on a commit whose
output is correct by definition).
The golden record covers workload seeds modulo ``golden["seeds"]``: seed N
runs the program with seed ``N % seeds`` and, for wide-400 and restage,
generates the corpus from that seed as well. Inputs are passed by the same
relative paths from the same working directory every time, because
report.json stores the input paths as typed.

End-to-end metrics (trace 0): wall_s is the median operation wall time;
setup_s the median of 12 timed ``import lexiphylo`` in fresh interpreters
(half before the operations, half after); peak_rss_mb the median over
operations of the largest resident set of any process of the operation.
The tail percentile, sample count, failed fraction and replicates per
second are printed above the result line.

Per-layer metrics (trace 1): operations alternate untraced and traced
(perfbench/child.py wraps the package's functions where callers look them
up). Times are per traced operation; ``*_s`` layer times are self times
(span minus wrapped children) except ``comparative.dstat_s``, which is the
total of d_statistic and whose self time is ``comparative.kernel_s``, and
``cli.self_s``, the traced wall time that no span of the operation's main
process covers. Spans are kept in .perfbench_work/<workload>/spans/. The
run fails if a function the workload must call recorded no calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import child
import corpus

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path("perfbench")
WORK = Path(".perfbench_work")
GOLDEN = BENCH / "golden.json"
BUNDLED = Path("data/synthetic")
WIDE_TIPS, WIDE_CONCEPTS = 400, 24
WIDE_CORPUS = WORK / f"corpus-{WIDE_TIPS}x{WIDE_CONCEPTS}"
ARTIFACTS = ("report.json", "ranking.csv", "scatter.svg")
STAGE_CACHES = ("metrics.json", "features.csv", "pca.json", "clusters.json")
SETUP_SAMPLES = 6  # taken before and again after the timed operations
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lexiphylo; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    corpus: str  # "bundled" or "wide"
    reps: int
    wordlist: int  # --k; the wide corpus has fewer concepts than the default 30
    workers: int = 1
    restage: bool = False

    @property
    def golden_family(self) -> str:
        if self.corpus == "bundled":
            return f"bundled-r{self.reps}"
        return f"wide{WIDE_TIPS}x{WIDE_CONCEPTS}-r{self.reps}"

    @property
    def inputs(self) -> Path:
        return BUNDLED if self.corpus == "bundled" else WIDE_CORPUS


WORKLOADS = {
    "bundled-1000": Workload("bundled", 1000, 30),
    "wide-400": Workload("wide", 10, 12),
    "restage": Workload("wide", 10, 12, restage=True),
    "bundled-1000-w2": Workload("bundled", 1000, 30, workers=2),
}

# Span name -> layer. Layer times are summed self times of their spans.
LAYERS = {
    "cli.main": "cli",
    "cli.read_newick_file": "tree.read",
    "comparative.prune_to_taxa": "tree.prune",
    "cli.load_cognates": "cognates.load",
    "CognateMatrix.languages_for": "cognates.lookup",
    "CognateMatrix.classes_for": "cognates.lookup",
    "comparative.stream": "rng.stream",
    "multivariate.stream": "rng.stream",
    "metrics.d_statistic": "comparative.kernel",
    "cli.compute_metrics": "metrics.concept",
    "cli.standardize": "multivariate.pca",
    "cli.run_pca": "multivariate.pca",
    "cli.kmeans": "multivariate.kmeans",
    "multivariate.kmeans": "multivariate.kmeans",
    "multivariate.silhouette_score": "multivariate.silhouette",
    "cli.choose_k": "multivariate.choose_k",
    "cli.orient_axes": "ranking",
    "cli.suitability_rank": "ranking",
    "cli.select_wordlist": "ranking",
    "cli.ranking_to_csv": "ranking",
    "cli.emit_report": "report.emit",
    "cli.emit_scatter": "report.emit",
}
# Functions the restage cycle must call; rank must call every wrapped function.
RESTAGE_CALLS = {
    "cli.standardize", "cli.run_pca", "cli.choose_k", "cli.kmeans",
    "multivariate.kmeans", "multivariate.silhouette_score", "multivariate.stream",
    "cli.orient_axes", "cli.suitability_rank", "cli.select_wordlist",
    "cli.ranking_to_csv", "cli.emit_report", "cli.emit_scatter",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "tree.read_s": "s", "tree.prune_s": "s", "tree.prune_calls": "count",
    "tree.prune_nodes_out": "count",
    "cognates.load_s": "s", "cognates.lookup_s": "s", "cognates.lookup_calls": "count",
    "rng.stream_s": "s", "rng.stream_calls": "count",
    "comparative.dstat_s": "s", "comparative.dstat_calls": "count",
    "comparative.useful_ratio": "ratio", "comparative.kernel_s": "s",
    "comparative.node_reps": "count", "comparative.kernel_ns_per_node_rep": "ns",
    "metrics.concept_s.p50": "s", "metrics.concept_s.p90": "s", "metrics.self_s": "s",
    "multivariate.pca_s": "s", "multivariate.kmeans_s": "s",
    "multivariate.kmeans_calls": "count", "multivariate.silhouette_s": "s",
    "multivariate.choose_k_s": "s", "ranking.s": "s", "report.emit_s": "s",
    "report.artifact_bytes": "bytes", "cli.self_s": "s", "cli.cache_bytes": "bytes",
    "cli.pool_busy_frac": "ratio", "trace.overhead_s": "s", "trace.wall_s": "s",
}

# Self-time metrics: with cli.self_s they partition the traced operation's time.
SELF_TIMES = {
    "tree.read_s", "tree.prune_s", "cognates.load_s", "cognates.lookup_s", "rng.stream_s",
    "comparative.kernel_s", "metrics.self_s", "multivariate.pca_s", "multivariate.kmeans_s",
    "multivariate.silhouette_s", "multivariate.choose_k_s", "ranking.s", "report.emit_s",
    "cli.self_s",
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


@dataclass(frozen=True)
class Op:
    """One timed operation; ``problem`` says why it failed, empty if it did not."""

    wall_s: float
    traced: bool
    peak_rss_kb: int
    spans_dir: Path | None
    problem: str


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_env": {k: child_env()[k] for k in THREAD_ENV},
    }


def prepare_inputs(wl: Workload, seed: int) -> str:
    """Write the workload's corpus (if generated); return its SHA-256."""
    if wl.corpus == "wide":
        return corpus.write_corpus(seed, WIDE_TIPS, WIDE_CONCEPTS, WIDE_CORPUS)
    return bundled_sha256()


def bundled_sha256() -> str:
    return hashlib.sha256(
        (BUNDLED / "tree.nwk").read_bytes() + (BUNDLED / "cognates.csv").read_bytes()
    ).hexdigest()


def rank_argv(wl: Workload, seed: int, out: Path) -> list[str]:
    return [
        "rank", "--tree", str(wl.inputs / "tree.nwk"),
        "--cognates", str(wl.inputs / "cognates.csv"),
        "--seed", str(seed), "--reps", str(wl.reps), "--k", str(wl.wordlist),
        "--workers", str(wl.workers), "--out", str(out),
    ]


def artifact_digests(out: Path) -> dict[str, str]:
    return {name: sha256_file(out / name) for name in ARTIFACTS if (out / name).exists()}


def spawn(cmd: list[str], log: Path) -> tuple[int, float, int, str]:
    """Run ``cmd``; return exit code, wall s, peak RSS (KiB) of it and its children, stderr."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, log.read_text("utf-8", errors="replace")


def check(code: int, stderr: str, digests: dict, golden: dict) -> str:
    """Why an operation failed, or "" if it did not."""
    if code != 0:
        return f"exit code {code}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    wrong = [name for name in ARTIFACTS if digests.get(name) != golden[name]]
    return f"digest mismatch: {', '.join(wrong)}" if wrong else ""


def run_rank(wl: Workload, seed: int, run_dir: Path, golden: dict, index: int, traced: bool) -> Op:
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = rank_argv(wl, seed, out)
    spans_dir = run_dir / "spans" / f"op{index}" if traced else None
    if spans_dir:
        shutil.rmtree(spans_dir, ignore_errors=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "trace", str(spans_dir), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "lexiphylo", *argv]
    code, wall, rss, stderr = spawn(cmd, run_dir / "stderr.txt")
    problem = check(code, stderr, artifact_digests(out), golden)
    return Op(wall, traced, rss, spans_dir, problem)


def run_restage(
    wl: Workload, seed: int, run_dir: Path, golden: dict, seconds: float, traced: bool
) -> list[Op]:
    result = run_dir / "restage.json"
    spans_dir = run_dir / "spans" / "restage"
    shutil.rmtree(spans_dir, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "restage", str(run_dir / "out"), str(seed),
           str(wl.wordlist), str(seconds), str(result)] + ([str(spans_dir)] if traced else [])
    code, _, _, stderr = spawn(cmd, run_dir / "stderr.txt")
    if code != 0 or "Traceback" in stderr:
        raise BenchError(f"restage process failed (exit code {code}):\n{stderr[-2000:]}")
    payload = json.loads(result.read_text("utf-8"))
    ops = []
    for cycle in payload["cycles"]:
        problem = check(max(cycle["codes"]), "", cycle["digests"], golden)
        ops.append(Op(cycle["wall_s"], cycle["traced"], payload["peak_rss_kb"],
                      spans_dir if cycle["traced"] else None, problem))
    return ops


def measure_setup(run_dir: Path) -> list[float]:
    """Seconds for ``import lexiphylo`` in ``SETUP_SAMPLES`` fresh interpreters.

    An untimed warm-up import first writes the bytecode caches, which a
    fresh checkout lacks and every later CLI call reuses.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        log = run_dir / "import.txt"
        with open(log, "wb") as out:
            code = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                                  stdout=out, stderr=subprocess.STDOUT).returncode
        text = log.read_text("utf-8", errors="replace")
        if code != 0:
            raise BenchError(f"import lexiphylo failed:\n{text}")
        if i:
            samples.append(float(text.split()[-1]))
    return samples


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it (the maximum below 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) / n:.0f}", ordered[n - 11]


def load_spans(spans_dir: Path) -> list[dict]:
    """Per-process span tables with durations and self times (seconds)."""
    tables = []
    for path in sorted(spans_dir.glob("spans-*.npz")):
        with np.load(path) as data:
            rows, names, worker = data["rows"], list(data["names"]), bool(data["worker"])
        if names != child.NAMES:
            raise BenchError(f"{path}: span names do not match child.NAMES")
        op, name, start, end, parent, x, ok = rows.T
        dur = (end - start) / 1e9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(rows))
        tables.append({
            "dir": str(spans_dir), "op": op, "name": name, "start": start, "end": end,
            "parent": parent, "x": x, "ok": ok, "dur": dur, "self": dur - covered,
            "worker": worker,
        })
    return tables


def layer_metrics(tables: list[dict], n_ops: int, workers: int) -> tuple[dict, dict]:
    """Per-layer metrics per traced operation, and call counts per wrapped function."""
    name_id = {name: i for i, name in enumerate(child.NAMES)}
    calls = {name: 0 for name in child.NAMES}
    self_s = {layer: 0.0 for layer in LAYERS.values()}
    dstat_total = node_reps = prune_nodes = 0.0
    dstat_ok = 0
    concept_durs: list[float] = []
    busy = main_covered = 0.0
    windows: dict[tuple[str, int], tuple[int, int]] = {}
    for t in tables:
        for name, i in name_id.items():
            sel = t["name"] == i
            calls[name] += int(sel.sum())
            self_s[LAYERS[name]] += float(t["self"][sel].sum())
        if not t["worker"]:
            main_covered += float(t["self"][t["name"] != name_id[child.ROOT_SPAN]].sum())
        dstat = t["name"] == name_id["metrics.d_statistic"]
        prune = t["name"] == name_id["comparative.prune_to_taxa"]
        dstat_total += float(t["dur"][dstat].sum())
        dstat_ok += int(t["ok"][dstat].sum())
        prune_nodes += float(t["x"][prune].sum())
        parents = t["parent"][prune]
        under_dstat = (parents >= 0) & dstat[np.maximum(parents, 0)]
        node_reps += float((t["x"][prune][under_dstat] * t["x"][parents[under_dstat]]).sum())
        concept = t["name"] == name_id["cli.compute_metrics"]
        concept_durs.extend(t["dur"][concept].tolist())
        busy += float(t["dur"][concept].sum())
        for op in np.unique(t["op"][concept]).tolist():
            sel = concept & (t["op"] == op)
            first, last = windows.get((t["dir"], op), (np.inf, -np.inf))
            windows[t["dir"], op] = (
                min(first, t["start"][sel].min()), max(last, t["end"][sel].max())
            )
    dstat_calls = calls["metrics.d_statistic"]
    window = sum(float(end - start) for start, end in windows.values()) / 1e9
    totals = {
        "tree.read_s": self_s["tree.read"],
        "tree.prune_s": self_s["tree.prune"],
        "tree.prune_calls": calls["comparative.prune_to_taxa"],
        "tree.prune_nodes_out": prune_nodes,
        "cognates.load_s": self_s["cognates.load"],
        "cognates.lookup_s": self_s["cognates.lookup"],
        "cognates.lookup_calls": calls["CognateMatrix.languages_for"]
        + calls["CognateMatrix.classes_for"],
        "rng.stream_s": self_s["rng.stream"],
        "rng.stream_calls": calls["comparative.stream"] + calls["multivariate.stream"],
        "comparative.dstat_s": dstat_total,
        "comparative.dstat_calls": dstat_calls,
        "comparative.kernel_s": self_s["comparative.kernel"],
        "comparative.node_reps": node_reps,
        "metrics.self_s": self_s["metrics.concept"],
        "multivariate.pca_s": self_s["multivariate.pca"],
        "multivariate.kmeans_s": self_s["multivariate.kmeans"],
        "multivariate.kmeans_calls": calls["cli.kmeans"] + calls["multivariate.kmeans"],
        "multivariate.silhouette_s": self_s["multivariate.silhouette"],
        "multivariate.choose_k_s": self_s["multivariate.choose_k"],
        "ranking.s": self_s["ranking"],
        "report.emit_s": self_s["report.emit"],
        "main_covered_s": main_covered,
    }
    metrics = {name: value / n_ops for name, value in totals.items()}
    metrics.update({
        "comparative.useful_ratio": dstat_ok / dstat_calls if dstat_calls else 0.0,
        "comparative.kernel_ns_per_node_rep": (
            1e9 * self_s["comparative.kernel"] / node_reps if node_reps else 0.0
        ),
        "metrics.concept_s.p50": float(np.percentile(concept_durs, 50)) if concept_durs else 0.0,
        "metrics.concept_s.p90": float(np.percentile(concept_durs, 90)) if concept_durs else 0.0,
        "cli.pool_busy_frac": busy / (workers * window) if window else 0.0,
    })
    return metrics, calls


def run_ops(
    wl: Workload, seed: int, run_dir: Path, golden: dict, args: argparse.Namespace
) -> list[Op]:
    """Operations for ``args.seconds`` (at least one; with tracing, one traced and one not)."""
    if wl.restage:
        # Stage caches, written once and not timed.
        code, _, _, stderr = spawn(
            [sys.executable, "-m", "lexiphylo", *rank_argv(wl, seed, run_dir / "out")],
            run_dir / "stderr.txt")
        if code != 0:
            raise BenchError(f"restage set-up rank failed:\n{stderr[-2000:]}")
        return run_restage(wl, seed, run_dir, golden, args.seconds, bool(args.trace))
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds or (args.trace and len(ops) < 2):
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_rank(wl, seed, run_dir, golden, len(ops), traced))
    return ops


def trace_metrics(wl: Workload, name: str, ops: list[Op], wall_s: float, out: Path) -> dict:
    """Per-layer metrics of the traced operations; fails if a required function went uncalled."""
    traced = [op for op in ops if op.traced]
    tables = [t for d in sorted({op.spans_dir for op in traced}) for t in load_spans(d)]
    layers, calls = layer_metrics(tables, len(traced), wl.workers)
    required = RESTAGE_CALLS if wl.restage else set(child.NAMES)
    missing = sorted(fn for fn in required if calls[fn] == 0)
    if missing:
        raise BenchError(f"wrapped functions recorded no calls on {name}: {', '.join(missing)}; "
                         "the benchmark's wrap targets need updating")
    traced_wall = statistics.median(op.wall_s for op in traced)
    layers["trace.wall_s"] = traced_wall
    # Time no span of the operation's main process covers: interpreter start,
    # imports, argument handling, stage-cache I/O, and waiting for pool workers.
    layers["cli.self_s"] = traced_wall - layers.pop("main_covered_s")
    layers["trace.overhead_s"] = traced_wall - wall_s
    layers["report.artifact_bytes"] = sum((out / n).stat().st_size for n in ARTIFACTS)
    layers["cli.cache_bytes"] = sum((out / n).stat().st_size for n in STAGE_CACHES)
    process_s = sum(layers[m] for m in SELF_TIMES)
    print(f"traced wall {traced_wall:.4g} s vs untraced {wall_s:.4g} s; self-time shares "
          f"of {process_s:.4g} s summed over the operation's processes:")
    for metric, value in sorted(layers.items()):
        share = f"{100 * value / process_s:5.1f}%" if metric in SELF_TIMES else ""
        print(f"  {metric:<38} {share:>6} {value:.6g} {PER_LAYER_UNITS[metric]}")
    print(f"calls: {json.dumps(calls)}")
    return layers


def run(args: argparse.Namespace) -> int:
    wl = WORKLOADS[args.workload]
    env = environment()
    if wl.workers > env["nproc"]:
        print(json.dumps({"workload": args.workload, "status": "skipped",
                          "reason": f"needs {wl.workers} CPUs, nproc is {env['nproc']}",
                          "environment": env}))
        return 0
    golden_doc = json.loads(GOLDEN.read_text("utf-8"))
    seed = args.seed % golden_doc["seeds"]
    golden = golden_doc["golden"][f"{wl.golden_family}/{seed}"]
    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup = measure_setup(run_dir)
    corpus_sha = prepare_inputs(wl, seed)
    problems = []
    if corpus_sha != golden["corpus_sha256"]:
        problems.append("corpus differs from the golden record's corpus")
    ops = run_ops(wl, seed, run_dir, golden, args)
    setup += measure_setup(run_dir)
    failed = sum(bool(op.problem) for op in ops)
    problems += sorted({op.problem for op in ops if op.problem})

    untraced = [op for op in ops if not op.traced]
    walls = [op.wall_s for op in untraced]
    wall_s = statistics.median(walls)
    tail_name, tail_value = tail(walls)
    out = run_dir / "out"
    doc = json.loads((out / "metrics.json").read_text("utf-8"))
    analysed = sum(len(c["class_results"]) for c in doc["concepts"])
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(op.peak_rss_kb for op in untraced) / 1024,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": seed,
        "corpus_sha256": corpus_sha,
        "bundled_corpus_sha256": bundled_sha256(),
        "environment": env,
        "samples": len(walls),
        f"wall_s.{tail_name}": tail_value,
        "failed_frac": failed / len(ops),
        "replicates_per_s": None if wl.restage else analysed * wl.reps * 2 / wall_s,
        "problems": problems,
        **end_to_end,
    }
    for name, value in end_to_end.items():
        print(f"{name:<18} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{'wall_s.' + tail_name:<18} {tail_value:.6g} s  ({len(walls)} samples)")
    print(f"{'failed_frac':<18} {record['failed_frac']:.6g}")
    if wl.restage:
        print(f"{'replicates_per_s':<18} n/a (restage computes no D statistic)")
    else:
        print(f"{'replicates_per_s':<18} {record['replicates_per_s']:.6g} 1/s  "
              f"({analysed} classes x {wl.reps} reps x 2 nulls)")
    for problem in problems:
        print(f"problem: {problem}")

    metrics, units = end_to_end, END_TO_END_UNITS
    if args.trace:
        metrics, units = trace_metrics(wl, args.workload, ops, wall_s, out), PER_LAYER_UNITS
        record["per_layer"] = metrics
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", "utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    if not (Path("src/lexiphylo/__init__.py").is_file() and BUNDLED.is_dir() and GOLDEN.is_file()):
        print("error: run from a lexiphylo checkout (src/, data/synthetic/ and "
              "perfbench/golden.json are needed)", file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
