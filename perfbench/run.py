"""homlie3 benchmark: one closed-loop client, one process, no extra threads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload, smallest inputs
    python3 perfbench/run.py --record-goldens   # rewrite perfbench/goldens.json
    python3 perfbench/run.py --census           # rewrite perfbench/census.json

A run repeats its seeded cycle of ops until ``--seconds`` is spent (it stops
when the next cycle would end more than half a cycle late), checks every
op's result against its golden, prints every metric as ``name = value
unit`` and, last, one JSON line. Times are scaled to a reference host speed
(see hostprobe.py). ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json. ``--trace 1`` times cycles for half of
``--seconds``, re-runs as many cycles with span wrappers installed, then one
cycle under cProfile, and reports the per-layer metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostprobe import PROBE_REFERENCE_S, HostProbe  # noqa: E402
from tracer import LAYERS, FractionCounter, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDENS = os.path.join(HERE, "goldens.json")
CENSUS = os.path.join(HERE, "census.json")
SETUP_REPEATS = 7
# Prints the import time and the median of five host probes run after it.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import homlie3; "
                "took = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
                "from hostprobe import probe; "
                "print(took, sorted(probe() for _ in range(5))[2])")

class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program or spec)."""


def load_spec(root: str) -> dict:
    src = os.path.join(root, "src", "homlie3", "__init__.py")
    fixtures = os.path.join(root, "tests", "fixtures")
    if not os.path.isfile(src) or not os.path.isdir(fixtures):
        raise BenchError(f"no homlie3 sources or fixtures under {root}")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e


def percentile(sorted_vals: list, pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = (len(sorted_vals) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


class Run:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root: str, workload: str, seed, goldens: dict):
        self.root = root
        self.base = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(self.base, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="work-", dir=self.base)
        for layer in LAYERS:  # the package does not import cli and fileio
            importlib.import_module(f"homlie3.{layer}")
        self.hl = sys.modules["homlie3"]
        self.wl = WORKLOADS[workload](self.hl, root, self.workdir)
        self.seed = seed
        self.goldens = goldens.get(workload, {})
        self.attempted = 0
        self.mismatches: list = []
        self.host = HostProbe()

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------ set-up

    def setup(self):
        """Median over SETUP_REPEATS of: homlie3 import time in a fresh
        interpreter plus in-process input generation for this seed, each
        scaled to the reference host speed by the probes of its own process
        (see hostprobe)."""
        src = os.path.join(self.root, "src")
        totals = []
        with self.host:
            for _ in range(SETUP_REPEATS):
                out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src, HERE],
                                     capture_output=True, text=True, check=True,
                                     timeout=60)
                imported, child_probe = map(float, out.stdout.split())
                spent, t1 = self.host.spent, perf_counter()
                inputs = self.wl.generate(self.seed)
                t2 = perf_counter()
                generated = t2 - t1 - (self.host.spent - spent)
                totals.append(imported * PROBE_REFERENCE_S / child_probe
                              + generated * self.host.scale(t1, t2))
        return statistics.median(totals), inputs

    # ------------------------------------------------------------ ops

    def run_op(self, op, call) -> tuple:
        """Run one op through ``call``, check it against its golden and
        return its latency in seconds, less any host probes run inside it, and
        its record."""
        if op.prepare:
            op.prepare()
        gc.collect()  # start each op from a collected heap
        spent = self.host.spent
        t0 = perf_counter()
        try:
            result = call(op.call)
            err = None
        except Exception as e:  # an op that raises is a failed op
            err = {"error": type(e).__name__}
        dt = perf_counter() - t0 - (self.host.spent - spent)
        rec = err if err is not None else op.record(result)
        self.attempted += 1
        if rec != self.goldens.get(op.key):
            self.mismatches.append((op.key, rec))
        return dt, rec

    def timed_cycles(self, ops, seconds: float) -> list:
        """Repeat the cycle, probing the host, until the time is spent.
        Returns one list per whole cycle run of (start, end, latency) per op."""
        cycles, start = [], perf_counter()
        with self.host:
            while True:
                cycle = []
                for op in ops:
                    self.host.sample()
                    t0 = perf_counter()
                    dt = self.run_op(op, lambda f: f())[0]
                    cycle.append((t0, perf_counter(), dt))
                cycles.append(cycle)
                elapsed = perf_counter() - start
                if elapsed + elapsed / len(cycles) / 2 > seconds:
                    return cycles

    # ------------------------------------------------------------ metrics

    def end_to_end(self, cycles: list, setup_s: float) -> tuple:
        """Times scaled to the reference host speed (see hostprobe).
        ops_per_s divides the ops of a cycle by the sum, over its ops, of
        each op's median latency across cycles, so that a burst of host
        load in one cycle does not move it; p50 and tail use every sample."""
        cycles = [[dt * self.host.scale(t0, t1) for t0, t1, dt in cycle]
                  for cycle in cycles]
        s = sorted(v for c in cycles for v in c)
        typical = sum(statistics.median(per_op) for per_op in zip(*cycles))
        tail = percentile(s, self.wl.tail_pct)
        beyond = sum(v > tail for v in s)
        metrics = {
            "ops_per_s": len(cycles[0]) / typical,
            "op_p50_ms": statistics.median(s) * 1e3,
            "op_tail_ms": tail * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        note = (f"op_tail_ms is p{self.wl.tail_pct:g} of {len(s)} samples, "
                f"{beyond} beyond it; {len(self.host.probes)} host probes, "
                f"median {statistics.median(self.host.probes) * 1e3:.4f} ms, "
                f"times scaled to {PROBE_REFERENCE_S * 1e3:g} ms")
        return metrics, note

    def per_layer(self, ops, cycles: int, untraced_s: float) -> dict:
        """A traced pass over as many cycles as the untraced pass ran, then
        one counting cycle under cProfile."""
        tracer = Tracer(self.hl)
        tracer.install()
        try:
            traced = []
            for _ in range(cycles):
                traced.extend(self.run_op(op, lambda f, op=op: tracer.call(op.key, f))[0]
                              for op in ops)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(self.base, f"spans-{self.wl.name}-seed{self.seed}.jsonl"))
        metrics = tracer.layer_metrics(cycles)
        counter = FractionCounter()
        records = [self.run_op(op, counter.call)[1] for op in ops]
        metrics["work.checked"] = sum(rec.get("checked", 0) for rec in records)
        metrics["work.fraction_calls"] = counter.fraction_calls()
        metrics["trace.overhead_ratio"] = sum(traced) / untraced_s
        return metrics

    def measure(self, seconds: float, trace: bool, smoke: bool = False) -> dict:
        setup_s, inputs = self.setup()
        ops = self.wl.cycle(inputs, smoke)
        if trace:  # halves, so the traced pass and the counting cycle fit
            cycles = self.timed_cycles(ops, seconds / 2)
            untraced_s = sum(dt for cycle in cycles for _, _, dt in cycle)
            metrics, note = self.per_layer(ops, len(cycles), untraced_s), None
        else:
            cycles = self.timed_cycles(ops, seconds)
            metrics, note = self.end_to_end(cycles, setup_s)
        return {"metrics": metrics, "note": note, "cycles": len(cycles),
                "ops_per_cycle": len(ops)}


def emit(spec: dict, run: Run, res: dict, trace: bool) -> bool:
    """Print every metric with its unit, then the JSON result line. Returns
    whether the run was correct and printed every declared metric."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
    print(f"workload {run.wl.name} seed {run.seed}: {res['cycles']} cycles of "
          f"{res['ops_per_cycle']} ops")
    out = {}
    for m in declared:
        if m["name"] in res["metrics"]:
            v = res["metrics"][m["name"]]
            out[m["name"]] = {"value": v, "unit": m["unit"]}
            print(f"  {m['name']} = {v:.6g} {m['unit']}")
    if res["note"]:
        print(f"  ({res['note']})")
    failed = len(run.mismatches)
    print(f"  failed_ratio = {failed / run.attempted:.6g} ratio "
          f"({failed} of {run.attempted} ops differ from their golden)")
    for key, rec in run.mismatches[:5]:
        print(f"  MISMATCH {key}: {json.dumps(rec)}")
    for name in missing:
        print(f"  MISSING metric {name}")
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed, "metrics": out}))
    return correct


def record_goldens(root: str) -> None:
    goldens = {}
    for name in WORKLOADS:
        run = Run(root, name, None, {})
        try:
            wl = run.wl
            recs = goldens[name] = {}
            for op in wl.cycle(wl.generate(None)):
                recs[op.key] = run.run_op(op, lambda f: f())[1]
                print(f"{name}: {op.key}: {json.dumps(recs[op.key])[:100]}")
        finally:
            run.close()
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload once on its smallest inputs, traced and untraced")
    p.add_argument("--record-goldens", action="store_true")
    p.add_argument("--census", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()
    try:
        spec = load_spec(root)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.record_goldens:
        record_goldens(root)
        return 0
    if args.census:
        from census import write_census
        write_census(root, GOLDENS, CENSUS)
        return 0
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                run = Run(root, name, args.seed, goldens)
                try:
                    ok &= emit(spec, run, run.measure(0, trace, smoke=True), trace)
                finally:
                    run.close()
        return 0 if ok else 1
    if args.workload is None:
        p.error("--workload is required")
    run = Run(root, args.workload, args.seed, goldens)
    try:
        res = run.measure(args.seconds, bool(args.trace))
    finally:
        run.close()
    emit(spec, run, res, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
