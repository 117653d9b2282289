"""Benchmark of cuspdyn: four closed-loop workloads with exact output checks.

    python3 perfbench/run.py --workload {coding,conjugacy,spectrum,tiling}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from src/.  A
run draws a corpus of inputs from the seed and runs it, one op at a
time, checking every op exactly outside its timed span.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
from an untraced run of about --seconds: one pass over the corpus, then
rounds that give every input about the same time (see worker.Loop);
set-up time is the median over SETUP_SAMPLES fresh processes.
With --trace 1 they are the per-layer metrics: one pass runs untraced
and then again traced, and the spans go to perfbench/out/.  Lines before
the last one restate the metrics with the tail percentile and its sample
count, the environment, and the digest of the op results, compared with
perfbench/baseline/seed-commit.json when that file has the same workload
and seed.  Every run also writes its full record to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
BASELINE = ROOT / "perfbench" / "baseline" / "seed-commit.json"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("coding", "conjugacy", "spectrum", "tiling")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 60.0, 50.0)
MIN_BEYOND = 10  # a tail percentile needs this many inputs above it
# Spectrum runs with a fixed glibc mmap threshold: blocks of 8 MiB or
# more are mapped and unmapped on their own.  With glibc's default
# sliding threshold, freed eigvals workspaces stayed in the heap, and
# spectrum's peak RSS moved by 10% with the order of the ops.  A 1 MiB
# threshold made its 40 ms ops 20% slower; at 8 MiB only the 0.5-1.5 s
# ones map.  The other workloads keep the default: the threshold made
# conjugacy's tail ops 50% slower.
WORKER_ENV = {"spectrum": {"MALLOC_MMAP_THRESHOLD_": str(8 << 20)}}


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)]


def tail_pct(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND of n values above it."""
    return next((q for q in TAIL_LADDER if n - math.ceil(q / 100 * n) >= MIN_BEYOND), 50.0)


def spawn(args, mode: str) -> tuple[dict, float]:
    """Run one worker to completion; returns its record and its set-up time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--ops", str(args.ops)]
    if args.corrupt:
        cmd.append("--corrupt")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          env=dict(os.environ, **WORKER_ENV.get(args.workload, {})))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record, record["ready"] - start


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and a digest of src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None if proc.returncode == 0 else None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def end_to_end(record: dict, setup_s: float) -> tuple[dict, dict]:
    """Metrics over the inputs' latencies, each its fastest run (see worker.Loop)."""
    lat = sorted(record["latency_s"])
    n, attempted, failed = len(lat), record["attempted"], record["failed"]
    if not n:
        raise SystemExit(f"every op failed: {record['errors']}")
    pct = tail_pct(n)
    metrics = {
        "ops_per_s": (n / sum(lat), "op/s"),
        "op_p50_ms": (percentile(lat, 50.0) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, pct) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "verified_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {"op_tail_ms": f"p{pct:g}, {n - math.ceil(pct / 100 * n)} of {n} inputs beyond",
             "verified_ratio": f"fail_ratio = {failed / attempted:.6g}"}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help="use only the first OPS inputs (smoke tests)")
    ap.add_argument("--corrupt", action="store_true",
                    help="falsify the first op's reference, to show that checks can fail")
    args = ap.parse_args()
    if not (ROOT / "src" / "cuspdyn" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'cuspdyn'}", file=sys.stderr)
        return 2

    if args.trace:
        record, setup_s = spawn(args, "trace")
        metrics, notes = record.pop("metrics"), {}
        setup_samples = [setup_s]
    else:
        setup_samples = [spawn(args, "setup")[1] for _ in range(SETUP_SAMPLES - 1)]
        record, setup_s = spawn(args, "run")
        setup_samples.append(setup_s)
        metrics, notes = end_to_end(record, statistics.median(setup_samples))
    attempted, failed = record["attempted"], record["failed"]
    env = dict(record.pop("env"), **source_identity(), seed=args.seed)

    digest = record.get("digest", {})
    verdict = "no baseline for this workload and seed"
    if BASELINE.is_file():
        base = json.loads(BASELINE.read_text()).get("digests", {}).get(args.workload, {})
        want = base.get(str(args.seed))
        if want is not None and want["inputs"] != digest.get("inputs"):
            verdict = f"not compared: the baseline covers {want['inputs']} inputs"
        elif want is not None:
            verdict = "matches the seed-commit baseline" if want == digest else \
                f"DIFFERS from the seed-commit baseline {want['sha256'][:16]}"

    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.update(workload=args.workload, env=env, setup_samples_s=setup_samples,
                  metrics=metrics, digest_verdict=verdict)
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}: {attempted} ops over {record['inputs']} inputs in {record['passes']} "
          f"passes, {failed} failed, trace={args.trace}")
    for e in record["errors"]:
        print(f"  error: {e}")
    if record["defects"]:
        print(f"  known defect met by inputs {record['defects']} (see perfbench/workloads.py)")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{note}")
    print(f"env: {json.dumps(env)}")
    print(f"results digest: {digest.get('sha256', '')[:16]} over {digest.get('inputs', 0)} inputs, {verdict}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
