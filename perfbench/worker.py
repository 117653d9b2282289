"""One workload process: set up, run the closed loop, print one JSON record.

Started by run.py; not meant to be run by hand.  Modes:
  setup  set up and draw the corpus, report when the first op could start
  run    set up, then one pass over the corpus and time-balanced rounds
         until --seconds have passed
  trace  set up, make one pass untraced and the same pass traced
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

# One BLAS thread: a single caller gains nothing from more on small
# matrices, and spinning BLAS threads on a shared 2-core machine made one
# 128x128 eigvals take 0.8 s instead of 6 ms.  Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT = ROOT / "perfbench" / "out"
PICK_CPU_EVERY_S = 0.5
REPS_MAX = 20  # runs of one input in one round of a timed run


def _probe_s() -> float:
    """Time of a small fixed exact-arithmetic loop: the current core's speed."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def pick_cpu(cpus: list[int]) -> None:
    """Pin this process to the allowed core that now runs the probe fastest."""
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe_s() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


class Loop:
    """Closed-loop passes over a corpus, with untimed checks after each op.

    times[i] holds the verified runs of input i; an input's latency is
    the fastest of them.  On a shared 2-core machine the same code runs
    at 1.0 to 2.0 times its best speed, switching every few to few
    hundred milliseconds: ops of a second or more average this out and
    repeat within a few percent, while ops of 1-50 ms need dozens of
    runs before their fastest one is steady.  So a timed run makes one
    pass over the corpus and then rounds in which the inputs get about
    the same time each (plan): cheap inputs get many runs, spread over
    the round in shuffled order, and every input gets at least the
    workload's MIN_RUNS runs.  Every PICK_CPU_EVERY_S the loop also
    moves to the core that is currently faster.
    """

    def __init__(self, wl, corpus: list, seed: int, corrupt: bool):
        self.wl, self.corpus, self.corrupt = wl, corpus, corrupt
        self.rng = random.Random(seed)
        self.times: list[list[float]] = [[] for _ in corpus]
        self.spent: list[list[float]] = [[] for _ in corpus]  # every run, failed ones too
        self.attempted = self.failed = self.passes = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.next_pick = 0.0

    def order(self) -> list[int]:
        keys = list(range(len(self.corpus)))
        self.rng.shuffle(keys)
        return keys

    def plan(self, budget_s: float, every: bool) -> list[int]:
        """Keys of a round of about budget_s op time, shared alike by the inputs.

        With c_i input i's mean op time so far, input i runs
        min(REPS_MAX, round(q / c_i)) times, at least once if every; q is
        the largest share whose round fits budget_s (by bisection).  The
        keys are shuffled, so an input's runs fall far apart.
        """
        costs = [max(statistics.fmean(t), 1e-9) for t in self.spent]

        def reps(q: float) -> list[int]:
            return [min(REPS_MAX, max(int(every), round(q / c))) for c in costs]

        lo, hi = 0.0, max(budget_s, 0.0)
        for _ in range(50):
            q = (lo + hi) / 2
            if sum(r * c for r, c in zip(reps(q), costs)) <= budget_s:
                lo = q
            else:
                hi = q
        keys = [k for k, r in enumerate(reps(lo)) for _ in range(r)]
        self.rng.shuffle(keys)
        return keys

    def run_pass(self, keys: list[int], tracer: Tracer | None = None) -> float:
        """One op per key; returns the summed op time."""
        total = 0.0
        wl = self.wl
        for key in keys:
            if len(self.cpus) > 1 and time.perf_counter() >= self.next_pick:
                pick_cpu(self.cpus)
                self.next_pick = time.perf_counter() + PICK_CPU_EVERY_S
            inp = self.corpus[key]
            corrupt = self.corrupt and self.attempted == 0
            self.attempted += 1
            if tracer is not None:
                tracer.op_id = key
            out = None  # the last op's result must not count in this op's memory
            t0 = time.perf_counter()
            try:
                out, err = wl.op(inp), None
            except Exception as exc:  # a raising op is a failed op, not a failed run
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.op_id = -1
            total += dt
            self.spent[key].append(dt)
            ok = False
            if err is None:
                try:
                    ok = wl.check(key, inp, out, corrupt)
                except Exception as exc:  # a malformed result fails its check
                    err = exc
            if not ok:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"input {key}: " + (repr(err) if err else "check failed"))
                continue
            self.times[key].append(dt)
            if key not in self.digests:
                self.digests[key] = hashlib.sha256(wl.emit(inp, out).encode()).hexdigest()
        self.passes += 1
        return total

    def result(self) -> dict:
        lines = "".join(f"{k}:{v}\n" for k, v in sorted(self.digests.items()))
        return {
            "attempted": self.attempted, "failed": self.failed, "passes": self.passes,
            "inputs": len(self.corpus),
            "latency_s": [min(t) for t in self.times if t],
            "errors": self.errors, "defects": sorted(self.wl.defects),
            "digest": {"sha256": hashlib.sha256(lines.encode()).hexdigest(),
                       "inputs": len(self.digests)},
        }


def layer_metrics(tracer: Tracer, setup: dict, ops: int, t_untraced: float, t_traced: float) -> dict:
    """Per-layer metrics of the traced pass, with the trace overhead."""
    g = tracer.group_stats()

    def calls(group: str) -> int:
        return g.get(group, {}).get("calls", 0)

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    m = {
        "trace.ops": (ops, "count"),
        "trace.ops_per_s_untraced": (ops / t_untraced, "op/s"),
        "trace.ops_per_s_traced": (ops / t_traced, "op/s"),
        "trace.overhead": (t_traced / t_untraced, "ratio"),
    }
    for group in ("exact.compare", "exact.arith", "moebius.apply_boundary", "moebius.apply_hpoint",
                  "dynamics.apply_F", "flow_oracle.first_return", "tessellation.build_domain"):
        m[f"{group}.calls"] = (calls(group), "count")
        m[f"{group}.calls_per_op"] = (calls(group) / ops, "count/op")
    for group in ("exact.compare", "exact.arith", "moebius.apply_boundary", "moebius.apply_hpoint",
                  "dynamics.apply_F", "dynamics.branch_of", "dynamics.code_future",
                  "dynamics.code_two_sided", "dynamics.accelerate_to_cf",
                  "flow_oracle.first_return", "flow_oracle.previous_exterior",
                  "transfer.collocation_build", "transfer.eigenvalues",
                  "tessellation.reduce_point", "tessellation.locate_cell"):
        m[f"{group}.self_s"] = (g.get(group, {}).get("self_s", 0.0), "s")
    returns = calls("flow_oracle.first_return") + calls("flow_oracle.previous_exterior")
    dims, rounds = tracer.matrix_dims, tracer.reduce_rounds
    m.update({
        "exact.coeff_bits_max": (tracer.coeff_bits_max, "bits"),
        "dynamics.letters_per_run": (ratio(tracer.letters, tracer.runs), "letters/run"),
        "flow_oracle.compares_per_return": (ratio(tracer.compares_in_oracle, returns), "count/return"),
        "flow_oracle.warmup_s": (setup.get("warmup_s", 0.0), "s"),
        "transfer.matrix_dim": (ratio(sum(dims), len(dims)), "rows"),
        "tessellation.reduce_rounds": (ratio(sum(rounds), len(rounds)), "rounds"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--ops", type=int, default=0, help="use only the first OPS inputs (0: all)")
    ap.add_argument("--corrupt", action="store_true", help="falsify the first op's reference")
    args = ap.parse_args()

    env = {
        "nproc": len(os.sched_getaffinity(0)),  # before the loop pins itself to one core
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
    }
    wl = workloads.WORKLOADS[args.workload]()
    setup = wl.setup()
    corpus = wl.corpus(args.seed)[: args.ops or None]
    loop = Loop(wl, corpus, args.seed, args.corrupt)
    record: dict = {"ready": time.monotonic(), "setup": setup}
    if args.mode == "run":
        # One pass, MIN_RUNS - 1 rounds with every input, then rounds of
        # the inputs that fit the time left.  Each round with every input
        # leaves a share of the time to the last ones, which adapt to
        # how long the rounds before really took.  Plans count op time
        # only; wall_per_op scales them by the checks and core picks of
        # the round before.
        deadline = time.perf_counter() + args.seconds
        keys, full = loop.order(), wl.MIN_RUNS - 1
        while keys:
            t0 = time.perf_counter()
            op_s = loop.run_pass(keys)
            wall_per_op = (time.perf_counter() - t0) / op_s if op_s > 0 else 1.0
            left = deadline - time.perf_counter()
            share = full + 1 if full > 0 else 1
            keys = loop.plan(left / wall_per_op / share, full > 0) if left > 0 else []
            full -= 1
    elif args.mode == "trace":
        keys = loop.order()
        t_untraced = loop.run_pass(keys)
        tracer = Tracer()
        tracer.install()
        try:
            t_traced = loop.run_pass(keys, tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(parents=True, exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        record.update(
            metrics=layer_metrics(tracer, setup, len(keys), t_untraced, t_traced),
            groups=tracer.group_stats(),
            spans={"file": str(spans_file.relative_to(ROOT)),
                   "kept": tracer.write_spans(spans_file), "dropped": tracer.spans_dropped},
        )
    if args.mode != "setup":
        record.update(loop.result())
    record["env"] = env
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
