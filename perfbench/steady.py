"""Steadiness mode: run workloads over many seeds and summarise each metric.

    python3 perfbench/steady.py [--workload W ...] [--seeds 1-10] [--seconds 10]
                                [--out FILE] [--against FILE]

Runs perfbench/run.py once per workload and seed (--trace 0), then prints
for every end-to-end metric its median, quartiles and spread, the
interquartile distance as a share of the median.  The spread is compared
with the metric's bound in BENCHMARK.json: "steady" below a third of it,
"wide" above a third, "TOO WIDE" above the bound (set-up time only needs
a steady median, so its spread is informational).  --out writes the
summary, every run's metrics and the result digests; the committed
perfbench/baseline/seed-commit.json was written this way.  --against
compares each median with such a file and flags a change for the worse
by more than the bound.  Exits 1 if a run fails its checks, a spread
exceeds its bound, or a median regresses past its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()
    against = json.loads(args.against.read_text())["summary"] if args.against else {}

    bad = False
    out: dict = {"seconds": args.seconds, "seeds": args.seeds, "summary": {}, "runs": {},
                 "digests": {}}
    for wl in args.workload or names:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{wl} seed {seed}: run.py exited with code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / "perfbench" / "out" / f"{wl}-seed{seed}-trace0.json").read_text())
            bad |= not result["correct"]
            runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            out["digests"].setdefault(wl, {})[str(seed)] = record["digest"]
            out["env"] = record["env"]
            print(f"{wl} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()
                                                       if k != "seed"), flush=True)
        out["runs"][wl] = runs
        summary = out["summary"][wl] = {}
        print(f"\n{wl}: {len(runs)} seeds, {args.seconds} s each")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, spec in metrics.items():
            s = summary[name] = summarise([r[name] for r in runs])
            if s["spread"] > spec["bound"] and name != "setup_s":
                verdict, bad = "TOO WIDE", True
            else:
                verdict = "steady" if s["spread"] < spec["bound"] / 3 else "wide"
            line = (f"  {name:16s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                    f"{s['spread']:8.4f} {spec['bound']:6.3g}  {verdict}")
            base = against.get(wl, {}).get(name)
            if base:
                change = s["median"] / base["median"] - 1
                worse = change if spec["better"] == "lower" else -change
                line += f"  median {change:+.2%} vs baseline"
                if worse > spec["bound"]:
                    line, bad = line + " REGRESSED", True
            print(line)
        print()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
