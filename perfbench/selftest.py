#!/usr/bin/env python3
"""Self-test of the benchmark, on the tiny variants of its workloads.

Run from the repository root:

    python3 perfbench/selftest.py

Asserts that
  * every metric BENCHMARK.json names is printed, with its unit, under
    --trace 0 (end-to-end) and --trace 1 (per-layer);
  * two invocations at one seed agree exactly on sim_rounds, the report
    digest and every count metric;
  * the Chrome trace parses and its per-round aggregates cover the whole
    run;
  * run.py fails (non-zero exit, no result line) in a directory holding
    only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed assertion.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SEED = 5

sys.path.insert(0, str(RUN.parent))
from run import WORKLOADS  # noqa: E402  (every workload run.py offers)


def invoke(workload, trace, cwd=ROOT, run=RUN):
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def parse(proc, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result, declared, label):
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), f"{label}: metric names differ: {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']} != {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{label}: {name} not a number"


def check_trace(detail, label):
    trace = json.loads((ROOT / detail["trace_file"]).read_text())
    assert trace["traceEvents"], f"{label}: no spans"
    agg = trace["otherData"]["round_aggregates"]
    observed = agg["interval_empty_round"]["count"] + agg["interval_stepped_round"]["count"]
    assert observed == agg["rounds_observed"], label
    assert agg["rounds_observed"] + agg["rounds_charged"] == agg["rounds_total"], label
    assert agg["rounds_total"] == detail["inputs"][0]["sim_rounds"], label
    for name in ("interval_empty_round", "interval_stepped_round"):
        assert sum(agg[name]["pow2_hist"]) == agg[name]["count"], f"{label}: {name} histogram"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        seen = []
        for rep in range(2):
            label = f"{workload} trace=0 #{rep}"
            detail, result = parse(invoke(workload, 0), label)
            check_metrics(result, spec["end_to_end"], label)
            label = f"{workload} trace=1 #{rep}"
            tdetail, tresult = parse(invoke(workload, 1), label)
            check_metrics(tresult, spec["per_layer"], label)
            check_trace(tdetail, label)
            results = [(i["input_seed"], i["sim_rounds"], i["digest"])
                       for i in detail["inputs"]]
            traced = tdetail["inputs"][0]
            assert results[0] == (traced["input_seed"], traced["sim_rounds"],
                                  traced["digest"]), f"{label}: timed/traced disagree"
            seen.append((results, tdetail["counts"]))
        assert seen[0] == seen[1], f"{workload}: runs at one seed differ:\n{seen}"
        print(f"ok {workload}: inputs (seed, sim_rounds, digest) {seen[0][0]}")

    # Without the library sources next to it the benchmark must fail cleanly.
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(spec["workloads"][0]["name"], 0, cwd=bare,
                      run=Path(bare) / "perfbench" / "run.py")
        assert proc.returncode != 0, "bare tree: expected a non-zero exit"
        assert '"correct"' not in proc.stdout, "bare tree: printed a result"
    print("ok bare tree fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
