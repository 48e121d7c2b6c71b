#!/usr/bin/env python3
"""Whole-protocol-run benchmark for libdcc on three paper workloads.

Run from the repository root:

    python3 perfbench/run.py --workload clustering_u512 --seed 1 \
        --seconds 45 --trace 0

Builds perfbench/ (libdcc plus the dcc_protocol_bench driver) into
$CARGO_TARGET_DIR (default .bench_build), then:

  --trace 0  runs untraced protocol runs, one process each, over the
             INPUTS_PER_SEED inputs derived from --seed (round-robin until
             --seconds have elapsed) and reports the end-to-end metrics.
             Timings are in reference seconds: wall time scaled by the
             host-speed calibration kernel timed around every run (see
             reference_scale).
  --trace 1  runs one untraced and one traced run of the first input and
             reports the per-layer split, with the untraced run's raw wall
             time; the traced run's spans and per-round aggregates are
             written as Chrome-trace JSON under <build dir>/traces/.

Every run is checked: the protocol's own validator, identical
deterministic results (round count and report digest) across every run of
one invocation, and in the traced run exact agreement of the replayed
engine with the observed rounds plus the grid-vs-exact sample check.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it carries the host fingerprint and
the deterministic counts. Exit code 0 only when every check passed.
"""

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("clustering_u512", "gbcast_cu512_t2", "sns_u8192_t2")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "sim_rounds": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "wall.run_s": "s",
    "wall.setup_s": "s",
    "cal_s": "s",
    "setup.topology_s": "s",
    "setup.network_s": "s",
    "setup.exec_init_s": "s",
    "sim.rounds": "count",
    "sim.empty_rounds": "count",
    "sim.empty_frac": "ratio",
    "sim.self_s": "s",
    "sim.empty_round_ns": "ns",
    "sim.stepped_overhead_ns": "ns",
    "sinr.step_s": "s",
    "sinr.step_share": "ratio",
    "sinr.round_us_p50": "us",
    "sinr.round_us_p99": "us",
    "sinr.stepped_rounds": "count",
    "sinr.tx_mean": "count",
    "sinr.tx_p99": "count",
    "sinr.listeners_mean": "count",
    "sinr.pairs": "count",
    "sinr.ns_per_pair": "ns",
    "sinr.receptions": "count",
    "sinr.grid_pruned": "count",
    "sinr.grid_fallbacks": "count",
    "sinr.fallback_yield": "ratio",
    "sinr.tile_states_computed": "count",
    "parallel.rounds_parallel": "count",
    "parallel.rounds_serial": "count",
    "parallel.imbalance": "ratio",
    "parallel.replay_speedup": "ratio",
    "cluster.density_s": "s",
    "cluster.build_s": "s",
    "cluster.validate_s": "s",
    "bcast.run_s": "s",
    "obs.trace_overhead": "ratio",
}

# Per-layer metrics that are exact counts: identical on every run of one
# (workload, seed), so any change to them is a behaviour change.
COUNT_METRICS = (
    "sim.rounds",
    "sim.empty_rounds",
    "sinr.stepped_rounds",
    "sinr.pairs",
    "sinr.receptions",
    "sinr.grid_pruned",
    "sinr.grid_fallbacks",
    "sinr.tile_states_computed",
    "parallel.rounds_parallel",
    "parallel.rounds_serial",
)

# The runs of one invocation (after the build, which only the first
# invocation in a fresh tree pays) must end well inside 180 s.
DEADLINE_S = 170.0

# Inputs per --seed: the workload's topology is pinned, and each input is
# one node-ID permutation plus selector nonce derived from the seed.
# Averaging over several inputs keeps the figures comparable across seeds
# (one ID assignment alone moves a broadcast's round count by several %).
INPUTS_PER_SEED = 4


def input_seed(seed, k):
    return (seed * 1000 + k) % (1 << 63)


ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


class BenchError(Exception):
    """A failure that leaves no result to print (bad tree, failed build)."""


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if target.is_absolute() or ".." in target.parts:
        target = Path(".bench_build")
    return ROOT / target


def build(out_dir):
    """Configures (once) and builds the driver; returns the binary path."""
    if not (ROOT / "src" / "dcc").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("no libdcc sources next to perfbench/ (src/dcc, CMakeLists.txt)")
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs,
                  "--target", "dcc_protocol_bench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=850)
            if proc.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    binary = out_dir / "dcc_protocol_bench"
    if not binary.is_file():
        raise BenchError("build produced no dcc_protocol_bench")
    return binary


def source_fingerprint():
    """git revision when the tree is a git checkout, plus a content digest
    of the library sources (the checkout a benchmark runs in may not be a
    git repository)."""
    revision = "none"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                revision = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return revision, digest.hexdigest()[:16]


def run_driver(binary, args, deadline):
    """Runs one driver process; returns its parsed JSON line or None."""
    remaining = deadline - time.monotonic()
    if remaining < 5:
        return None
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"driver timed out: {' '.join(args)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"driver exit {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("driver printed no JSON result", file=sys.stderr)
        return None


# One calibration kernel pass on the reference host (Intel Xeon VM,
# 4 vCPU, GCC 12.2, Release) while the host was quiet. Wall seconds scaled
# by CAL_REFERENCE_S / (kernel pass time measured alongside) read as
# seconds on that host when quiet: reference seconds.
CAL_REFERENCE_S = 0.049


def reference_scale(runs):
    """Factor from wall seconds to reference seconds for one invocation:
    CAL_REFERENCE_S over the median of its runs' kernel times (cal_s). The
    shared host's speed moves by up to 2x between quiet and busy spells
    lasting minutes to hours, and by tens of percent from second to second
    on each core. One run's own brackets see too little of that to correct
    the run; over the invocation the brackets and the runs see the same
    spells, so the scaled timings keep a change to the library but drop
    the host's speed."""
    return CAL_REFERENCE_S / statistics.median(r["cal_s"] for r in runs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: seconds-long variants for the self-test")
    opts = ap.parse_args()

    try:
        out_dir = build_dir()
        binary = build(out_dir)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    revision, src_digest = source_fingerprint()

    base = [f"--workload={opts.workload}", f"--size={opts.size}"]
    inputs = [input_seed(opts.seed, k) for k in range(INPUTS_PER_SEED)]
    runs = []       # (input seed, driver result or None), in order
    failures = []   # one entry per failed run
    reference = {}  # input seed -> (sim_rounds, digest) of its first run

    def run(seed, mode, extra=()):
        res = run_driver(binary, base + [f"--seed={seed}", f"--mode={mode}"]
                         + list(extra), deadline)
        label = f"{mode} run {len(runs) + 1} (input seed {seed})"
        runs.append((seed, res))
        if res is None:
            failures.append(f"{label}: no result")
            return None
        problems = []
        if not res.get("ok"):
            problems.append(res.get("error") or ", ".join(res.get("failures", [])))
        key = (res["sim_rounds"], res["digest"])
        if reference.setdefault(seed, key) != key:
            problems.append(f"deterministic result {key} differs from {reference[seed]}")
        if problems:
            failures.append(f"{label}: " + "; ".join(problems))
        return res

    traced = None
    trace_path = None
    if opts.trace == 0:
        # Every input once, then round-robin until --seconds have elapsed.
        measure_start = time.monotonic()
        for i in itertools.count():
            if i >= len(inputs) and time.monotonic() - measure_start >= opts.seconds:
                break
            if run(inputs[i % len(inputs)], "timed") is None:
                break
    else:
        run(inputs[0], "timed")
        trace_path = out_dir / "traces" / f"{opts.workload}-{opts.size}-seed{opts.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        traced = run(inputs[0], "traced", [f"--trace-out={trace_path}"])

    timed = {}
    for seed, res in runs:
        if res is not None and res["mode"] == "timed":
            timed.setdefault(seed, []).append(res)
    metrics = {}
    if opts.trace == 0 and len(timed) == len(inputs):
        every = [r for rs in timed.values() for r in rs]
        scale = reference_scale(every)
        rounds = [timed[s][0]["sim_rounds"] for s in inputs]
        wall = [statistics.median(r["run_s"] for r in timed[s]) for s in inputs]
        values = {
            "run_s": statistics.fmean(wall) * scale,
            "setup_s": statistics.median(r["setup_s"] for r in every) * scale,
            "rounds_per_s": statistics.fmean(
                n / w for n, w in zip(rounds, wall)) / scale,
            "sim_rounds": statistics.fmean(rounds),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in every),
        }
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    elif opts.trace == 1 and traced is not None and timed:
        untraced = timed[inputs[0]][0]
        values = dict(traced["metrics"])
        values["wall.run_s"] = untraced["run_s"]
        values["wall.setup_s"] = untraced["setup_s"]
        values["cal_s"] = untraced["cal_s"]
        values["obs.trace_overhead"] = \
            traced["traced_run_s"] / untraced["run_s"] - 1.0
        metrics = {name: metric(values[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}

    first = next((r for _, r in runs if r is not None), {})
    detail = {
        "workload": opts.workload,
        "seed": opts.seed,
        "size": opts.size,
        "host": dict(first.get("host", {}), git_revision=revision,
                     src_digest=src_digest),
        "inputs": [{"input_seed": s, "sim_rounds": reference[s][0],
                    "digest": reference[s][1],
                    "run_s": [r["run_s"] for r in timed.get(s, [])],
                    "cal_s": [r["cal_s"] for r in timed.get(s, [])]}
                   for s in inputs if s in reference],
        "failures": failures,
    }
    if traced is not None:
        detail["counts"] = {k: traced["metrics"][k] for k in COUNT_METRICS}
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        detail["note"] = traced["note"]
    print(json.dumps(detail))

    ok = not failures and bool(metrics)
    print(json.dumps({
        "correct": ok,
        "attempted": max(1, len(runs)),
        "failed": max(len(failures), 0 if ok else 1),
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
