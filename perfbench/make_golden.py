#!/usr/bin/env python3
"""Write perfbench/golden.json: artifact digests of `rank` for every golden seed.

    python3 perfbench/make_golden.py

Run it only on a commit whose output bytes are correct by definition (the
benchmark treats any other bytes as a failed operation). Each entry is
made by one ``rank`` run with one worker, from the repository root, with
the same relative input paths and flags that run.py passes; -w2 and
restage are checked against the same entries.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run

SEEDS = 16


def golden_entry(wl: run.Workload, seed: int, out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    code, _, _, stderr = run.spawn(
        [sys.executable, "-m", "lexiphylo", *run.rank_argv(wl, seed, out)],
        out.parent / f"{out.name}.err",
    )
    if code != 0 or "Traceback" in stderr:
        raise SystemExit(f"rank failed for {wl.golden_family}/{seed}:\n{stderr}")
    return run.artifact_digests(out)


def main() -> None:
    os.chdir(run.ROOT)
    scratch = run.WORK / "golden"
    golden: dict[str, dict] = {}

    bundled = run.WORKLOADS["bundled-1000"]
    sha = run.bundled_sha256()
    with ThreadPoolExecutor(max_workers=run.nproc()) as pool:
        futures = {
            seed: pool.submit(golden_entry, bundled, seed, scratch / f"bundled-{seed}")
            for seed in range(SEEDS)
        }
        for seed, future in futures.items():
            golden[f"{bundled.golden_family}/{seed}"] = {"corpus_sha256": sha, **future.result()}
            print(f"{bundled.golden_family}/{seed} done", flush=True)

    wide = run.WORKLOADS["wide-400"]
    for seed in range(SEEDS):  # one at a time: the corpus path is fixed
        sha = run.prepare_inputs(wide, seed)
        golden[f"{wide.golden_family}/{seed}"] = {
            "corpus_sha256": sha, **golden_entry(wide, seed, scratch / "wide")
        }
        print(f"{wide.golden_family}/{seed} done", flush=True)

    doc = {"seeds": SEEDS, "golden": golden}
    run.GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")
    shutil.rmtree(scratch)
    print(f"wrote {run.GOLDEN}")


if __name__ == "__main__":
    main()
