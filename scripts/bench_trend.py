#!/usr/bin/env python3
"""Tracked performance trend for the repo's top-line benches.

BENCH_trend.json (at the repo root, committed) holds one entry per
recorded run: a timestamp, the host parallelism, and the key config
points of every tracked bench schema. This script maintains it:

  append   read bench JSON lines on stdin (bench_parallel_rounds,
           bench_service_load and/or bench_obs_overhead, each with
           --compare_json; concatenating the streams records one
           combined entry) and append one trend entry
  check    read bench JSON lines on stdin and compare against the last
           committed entry: exit 1 if any matching config slowed down by
           more than --threshold (default 15%); configs under --min-ms
           are skipped as noise
  delta    same comparison, but emit a markdown table (for
           $GITHUB_STEP_SUMMARY) and always exit 0

Tracked schemas and their identity/value fields:

  dcc.bench.parallel_rounds.v1   keyed on (n, regime, threads,
                                 min_shard, farfield), value ms_per_round;
                                 legacy points of removed engine knobs
                                 (pipeline on, prologue cache > 0) are
                                 skipped
  dcc.bench.service_load.v1      keyed on (workload, phase, connections),
                                 value ms_per_request
  dcc.bench.obs_overhead.v1      keyed on (n, trace), value ms_per_round;
                                 only trace=off points are tracked (the
                                 "tracing compiled in but disabled is
                                 free" invariant), under a per-schema 1%
                                 gate instead of --threshold

Points are matched on (schema, key fields). A schema may pin its own
regression threshold (the obs overhead gate above); --threshold covers
the rest. Configs present in one side only produce a warning, never a
failure — the thread ladder legitimately varies with host core count,
and a new bench's first run has no baseline. Committed points of an
untracked schema (e.g. the removed distributed-rounds bench) are skipped
without a warning.
The regression gate can be skipped for a known-slow commit with
`[bench-skip]` in the commit message (the CI job checks the tag, not this
script).
"""

import argparse
import json
import sys
import time
from pathlib import Path

SCHEMAS = {
    "dcc.bench.parallel_rounds.v1": {
        "key_fields": ("n", "regime", "threads", "min_shard", "farfield"),
        "value_field": "ms_per_round",
        # The acceptance-relevant configs a trend entry records; everything
        # else in the bench output is transient diagnostics. sparse_wide
        # tracks the pyramid-vs-flat far-field win; tdma a periodic
        # schedule. Committed points recorded with the since-removed round
        # pipeline or prologue cache have no counterpart in new runs; the
        # rest carry pipeline=false / cache=0 and key like new points.
        "keep": lambda obj: (obj.get("regime") in {"dense", "sparse",
                                                   "dynamic", "sparse_wide",
                                                   "tdma"}
                             and not obj.get("pipeline")
                             and not obj.get("cache")),
    },
    "dcc.bench.service_load.v1": {
        "key_fields": ("workload", "phase", "connections"),
        "value_field": "ms_per_request",
        "keep": lambda obj: True,
    },
    "dcc.bench.obs_overhead.v1": {
        "key_fields": ("n", "trace"),
        "value_field": "ms_per_round",
        # trace=on lines are diagnostics (recording is allowed to cost);
        # the tracked invariant is that the DISABLED instrumentation adds
        # nothing to the round path, so only trace=off enters the trend —
        # under a deliberately tight gate.
        "keep": lambda obj: obj.get("trace") == "off",
        "threshold": 1.0,
    },
}


def point_key(obj):
    """(schema, field values...) for a bench point, or None if untracked."""
    cfg = SCHEMAS.get(obj.get("schema"))
    if cfg is None or not cfg["keep"](obj):
        return None
    return (obj["schema"],) + tuple(obj.get(f) for f in cfg["key_fields"])


def point_value(obj):
    return obj[SCHEMAS[obj["schema"]]["value_field"]]


def read_points(stream):
    """Parses bench JSON lines into {key_tuple: point_dict}."""
    points = {}
    for line in stream:
        line = line.strip()
        if not line or not line.startswith("{"):
            continue
        obj = json.loads(line)
        key = point_key(obj)
        if key is not None:
            points[key] = obj
    return points


def load_trend(path):
    if not path.exists():
        return []
    with path.open() as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise SystemExit(f"bench_trend: {path} is not a JSON list")
    return data


def fmt_key(key):
    schema = key[0]
    if schema == "dcc.bench.parallel_rounds.v1":
        n, regime, threads, min_shard, farfield = key[1:]
        return f"n={n} {regime} t={threads} grain={min_shard} ff={farfield}"
    if schema == "dcc.bench.service_load.v1":
        workload, phase, connections = key[1:]
        return f"service {workload} {phase} c={connections}"
    if schema == "dcc.bench.obs_overhead.v1":
        n, trace = key[1:]
        return f"n={n} obs trace={trace}"
    return " ".join(str(k) for k in key)


def cmd_append(args, points):
    path = Path(args.trend_file)
    trend = load_trend(path)
    entry = {
        "schema": "dcc.bench_trend.v1",
        "recorded_unix": int(time.time()),
        "host_parallelism": args.host_parallelism,
        "label": args.label,
        "points": [points[k] for k in sorted(points, key=str)],
    }
    trend.append(entry)
    with path.open("w") as f:
        json.dump(trend, f, indent=1)
        f.write("\n")
    print(f"bench_trend: appended entry #{len(trend)} "
          f"({len(points)} points) to {path}")
    return 0


def compare(args, points):
    """Returns (rows, regressions): per-config comparison vs the last
    committed entry. Rows are (key, base_ms, new_ms, ratio_or_None)."""
    trend = load_trend(Path(args.trend_file))
    if not trend:
        print("bench_trend: no committed trend entry yet — nothing to "
              "compare against", file=sys.stderr)
        return [], []
    base = {}
    for p in trend[-1]["points"]:
        key = point_key(p)
        if key is not None:
            base[key] = p
    rows, regressions = [], []
    for key in sorted(set(base) | set(points), key=str):
        b, p = base.get(key), points.get(key)
        if b is None or p is None:
            side = "baseline" if p is None else "new run"
            print(f"bench_trend: warning: {fmt_key(key)} only in {side}",
                  file=sys.stderr)
            continue
        base_ms, new_ms = point_value(b), point_value(p)
        if base_ms < args.min_ms or new_ms < args.min_ms:
            rows.append((key, base_ms, new_ms, None))  # noise floor
            continue
        ratio = new_ms / base_ms
        rows.append((key, base_ms, new_ms, ratio))
        threshold = SCHEMAS[key[0]].get("threshold", args.threshold)
        if ratio > 1.0 + threshold / 100.0:
            regressions.append((key, base_ms, new_ms, ratio, threshold))
    return rows, regressions


def cmd_check(args, points):
    rows, regressions = compare(args, points)
    if not rows:
        return 0
    for key, base_ms, new_ms, ratio, threshold in regressions:
        print(f"bench_trend: REGRESSION {fmt_key(key)}: "
              f"{base_ms:.3f} -> {new_ms:.3f} ms "
              f"({(ratio - 1) * 100:+.1f}%, gate {threshold:g}%)",
              file=sys.stderr)
    if regressions:
        print(f"bench_trend: {len(regressions)} config(s) regressed past "
              f"their gate vs the last committed trend point "
              f"(commit with [bench-skip] to override)", file=sys.stderr)
        return 1
    print(f"bench_trend: {len(rows)} configs within their gates "
          f"(default {args.threshold}%) of the last committed trend point")
    return 0


def cmd_delta(args, points):
    rows, regressions = compare(args, points)
    print("| config | committed ms | this run ms | delta |")
    print("|---|---|---|---|")
    for key, base_ms, new_ms, ratio in rows:
        delta = ("(under noise floor)" if ratio is None
                 else f"{(ratio - 1) * 100:+.1f}%")
        print(f"| {fmt_key(key)} | {base_ms:.3f} | {new_ms:.3f} | {delta} |")
    if regressions:
        print(f"\n**{len(regressions)} config(s) over their regression "
              f"threshold.**")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("command", choices=["append", "check", "delta"])
    ap.add_argument("--trend-file", default="BENCH_trend.json")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="regression gate, percent (default 15)")
    ap.add_argument("--min-ms", type=float, default=1.0,
                    help="skip configs faster than this (noise floor)")
    ap.add_argument("--host-parallelism", type=int, default=0,
                    help="recorded with `append` (pool parallelism)")
    ap.add_argument("--label", default="",
                    help="free-form tag recorded with `append`")
    args = ap.parse_args()

    points = read_points(sys.stdin)
    if not points and args.command != "delta":
        print("bench_trend: no tracked bench JSON lines on stdin",
              file=sys.stderr)
        return 2
    return {"append": cmd_append, "check": cmd_check,
            "delta": cmd_delta}[args.command](args, points)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
