"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For every workload, runs perfbench/run.py at a tiny size, traced and
untraced, and asserts that the result line carries exactly the metrics
of BENCHMARK.json with their units and that every op passed its check.
Then runs each workload with a deliberately corrupted reference (for
coding, a wrong continued-fraction digit) and asserts that the run
reports the failure: correct is false and fail_ratio > 0.  Exits 1 on
the first broken expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPS = 6


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--ops", str(OPS), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    try:
        for wl in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                res = run(wl, trace)
                expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                       f"{wl}: result keys {sorted(res)}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                expect(got == units[trace], f"{wl} trace={trace}: metrics/units differ: {got}")
                expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                       f"{wl} trace={trace}: non-numeric metric")
                expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= OPS,
                       f"{wl} trace={trace}: {res['failed']} of {res['attempted']} ops failed")
            bad = run(wl, 0, "--corrupt")
            fail_ratio = bad["failed"] / bad["attempted"]
            expect(not bad["correct"] and fail_ratio > 0,
                   f"{wl}: a corrupted reference went unnoticed")
            print(f"{wl}: metrics and units complete; corrupted reference gives "
                  f"fail_ratio {fail_ratio:.3g}", flush=True)
    except AssertionError as err:
        print(f"FAIL: {err}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
