"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench

The smoke test takes about two minutes: it runs ``--smoke`` twice, under
two hash seeds, to show that the work counts repeat exactly.
"""
import collections
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostprobe import HostProbe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(args, cwd=ROOT, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def smoke_runs():
    return [run_bench(["--smoke"], hashseed=h) for h in ("1", "2")]


def test_smoke_prints_every_metric_with_its_unit(smoke_runs):
    out = smoke_runs[0]
    assert out.returncode == 0, out.stdout + out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines()
               if line.startswith("{")]
    s = spec()
    # per workload: one untraced, then one traced result
    assert len(results) == 2 * len(s["workloads"])
    for i, res in enumerate(results):
        declared = s["per_layer"] if i % 2 else s["end_to_end"]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == {
            name: v["unit"] for name, v in res["metrics"].items()}
    for m in s["end_to_end"] + s["per_layer"]:
        assert re.search(rf"^  {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$",
                         out.stdout, re.M), m["name"]
    assert "failed_ratio = 0 ratio" in out.stdout


def test_work_counts_repeat_exactly(smoke_runs):
    counts = []
    for out in smoke_runs:
        assert out.returncode == 0, out.stderr
        traced = [json.loads(line) for line in out.stdout.splitlines()
                  if line.startswith("{")][1::2]
        counts.append([{k: r["metrics"][k]["value"]
                        for k in ("work.checked", "work.fraction_calls")}
                       for r in traced])
    assert counts[0] == counts[1]
    assert all(c["work.fraction_calls"] > 0 for c in counts[0])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(["--workload", "cli-corpus", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_goldens_cover_every_seeded_op():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import homlie3.cli  # noqa: F401
    import homlie3.fileio  # noqa: F401
    from workloads import WORKLOADS
    hl = sys.modules["homlie3"]
    with open(os.path.join(HERE, "goldens.json")) as fh:
        goldens = json.load(fh)
    for name, cls in WORKLOADS.items():
        wl = cls(hl, ROOT, "work")
        for seed in (1, 2, 3):
            keys = [op.key for op in wl.cycle(wl.generate(seed))]
            # only the repeated fileio rounds of nilpotent-chain share a key
            assert all(n == 1 or ".dump." in k or ".load." in k
                       for k, n in collections.Counter(keys).items())
            assert set(keys) <= set(goldens[name]), name


def test_layer_moves_name_declared_metrics():
    s = spec()
    per_layer = {m["name"] for m in s["per_layer"]}
    e2e = {m["name"] for m in s["end_to_end"]}
    workloads = {w["name"] for w in s["workloads"]}
    with open(os.path.join(HERE, "layers.json")) as fh:
        moves = json.load(fh)["moves"]
    for entry in moves:
        assert entry["metric"] in per_layer
        for wl, metrics in entry["moves"].items():
            assert wl in workloads and set(metrics) <= e2e
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.busy_s", f"{layer}.self_s"} <= per_layer


def test_self_and_busy_time_from_spans():
    t = Tracer(None)
    # op root [0, 10]; reps [1, 9] calls homlie [2, 5], which calls reps [3, 4]
    t.spans = [[0, None, "op", "op", 0.0, 10.0],
               [1, 0, "reps.check_representation", "reps", 1.0, 9.0],
               [2, 1, "homlie.check_algebra", "homlie", 2.0, 5.0],
               [3, 2, "reps.adjoint_rep", "reps", 3.0, 4.0]]
    m = t.layer_metrics(cycles=2)
    assert m["reps.calls"] == 1.0 and m["homlie.calls"] == 0.5
    assert m["reps.self_s"] == (5.0 + 1.0) / 2
    assert m["reps.busy_s"] == 8.0 / 2  # the nested reps span is inside it
    assert m["homlie.self_s"] == 2.0 / 2
    assert m["reps.check_representation.self_s"] == 5.0 / 2
    assert m["cli.busy_s"] == 0.0


def test_host_probe_scales_by_the_probes_near_an_op():
    h = HostProbe()
    h.times = [0.0, 1.0, 1.02, 1.2, 3.0]
    h.probes = [0.002, 0.001, 0.003, 0.004, 0.008]
    assert h.scale(1.0, 1.1) == 0.001 / 0.002  # the probes at 1.0 and 1.02
    assert h.scale(2.0, 2.1) == 0.001 / 0.003  # none near: the run's median
