"""Benchmark of the motzkinperm library: the gf, verify and maps workloads.

Each round runs one workload in a fresh interpreter (worker.py); a run
repeats rounds until --seconds have passed, and at least MIN_ROUNDS times,
and reports medians over the rounds, with times scaled to a reference
machine speed (see REFERENCE_SPEED_S and README.md).  With --trace 1 it
alternates untraced and traced rounds, reports the per-layer metrics of
the traced ones and the tracing overhead, and keeps the spans of the last
traced round.

    python3 perfbench/run.py --workload gf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Result and span files go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("gf", "verify", "maps")
MIN_ROUNDS = 3
#: Longest a single round may take before it is stopped.
ROUND_TIMEOUT_S = 150

#: Median time of worker.speed_sample on the reference machine (2 CPUs,
#: Python 3.11.7).  Each operation's time is reported at this speed: scaled
#: by REFERENCE_SPEED_S over the median of the speed samples taken within
#: SPEED_WINDOW_S of it, which takes out the drift of a shared host.
REFERENCE_SPEED_S = 0.004
SPEED_WINDOW_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_op_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: bool, spans: Path | None) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace))]
    if spans is not None:
        command += ["--spans", str(spans)]
    # A fixed hash seed keeps set and dict orders, and so the work, the same
    # from one round to the next.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundError(f"{workload} round exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_near(r: dict, start: float, end: float) -> float:
    """Median of the round's speed samples within SPEED_WINDOW_S of the
    interval, always counting the sample just before and just after it."""
    times = [t for t, _ in r["speed"]]
    lo = min(bisect.bisect_left(times, start - SPEED_WINDOW_S), bisect.bisect_right(times, start) - 1)
    hi = max(bisect.bisect_right(times, end + SPEED_WINDOW_S), bisect.bisect_left(times, end) + 1)
    return statistics.median(s for _, s in r["speed"][max(lo, 0):hi])


def scaled_ops(r: dict) -> dict[str, float]:
    """Operation times of a round at the reference speed."""
    return {name: s * REFERENCE_SPEED_S / speed_near(r, t, t + s) for name, t, s in r["ops"]}


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of a run: medians over its rounds, times at
    the reference speed, failed operations left out of the latencies."""
    walls, setups, op_seconds = [], [], {}
    for r in rounds:
        scaled = scaled_ops(r)
        walls.append(sum(scaled.values()))
        setups.append(r["setup_s"] * REFERENCE_SPEED_S / speed_near(r, 0.0, 0.0))
        for op, s in scaled.items():
            if op not in r["failed_ops"]:
                op_seconds.setdefault(op, []).append(s)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "slowest_op_s": max(statistics.median(s) for s in op_seconds.values()),
        "op_p50_ms": statistics.median(s for times in op_seconds.values() for s in times) * 1000,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
    }


def layer_units() -> dict[str, str]:
    import tracing

    units = {}
    for name in tracing.layer_metric_names():
        last = name.rpartition(".")[2]
        units[name] = (
            "s" if last in ("s", "self_s", "first_call_s", "overhead_s")
            else "1/s" if last.endswith("per_s")
            else "share" if last.endswith("share")
            else "bytes" if last.endswith("bytes")
            else "count"
        )
    return units


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds until ``seconds`` have passed; medians over the rounds."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans.json.gz" if trace else None
    plain, traced = [], []
    min_rounds = 1 if trace else MIN_ROUNDS
    started = time.perf_counter()
    while len(plain) < min_rounds or time.perf_counter() - started < seconds:
        plain.append(run_round(workload, seed, False, None))
        if trace:
            traced.append(run_round(workload, seed, True, spans))
            if time.perf_counter() - started >= seconds:
                break
    rounds = plain + traced
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if trace:
        units = layer_units()
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in units
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = end_to_end(traced)["wall_s"] - end_to_end(plain)["wall_s"]
    else:
        units = END_TO_END
        metrics = end_to_end(plain)
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
        **result,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    for r in rounds:
        for message in r["messages"]:
            print(f"FAILED {workload}: {message}", file=sys.stderr)
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}, medians over {len(plain)} plain and {len(traced)} traced rounds")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "motzkinperm" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'motzkinperm'}", file=sys.stderr)
        return 2

    print(f"python {platform.python_version()}, {os.cpu_count()} CPUs, seed {args.seed}, "
          f"{args.seconds:g} s per workload, trace {args.trace}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
