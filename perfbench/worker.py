"""One round of one workload, in a fresh interpreter.

Imports the package from ``src/``, builds the seeded job, times every
operation, then checks every output and prints one JSON line.  With
``--trace 1`` it installs the span wrappers after set-up, derives the
per-layer metrics from the spans, and writes the spans to ``--spans``.

    python3 perfbench/worker.py --workload gf --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MAX_MESSAGES = 5
#: Iterations of the speed loop and the least time between two samples.
SPEED_LOOP = 20000
SPEED_EVERY_S = 0.25


def speed_sample() -> float:
    """Seconds for a fixed piece of interpreter work (int and dict
    arithmetic, nothing from the package); sampled between operations, it
    tracks how fast the machine runs Python at that moment."""
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(SPEED_LOOP):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return perf_counter() - start


def run(workload: str, seed: int, trace: bool, spans: str | None) -> dict:
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    job = workloads.WORKLOADS[workload](seed)
    setup_s = perf_counter() - t0

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    values, errors, starts, seconds = [], [], [], []
    job_start = perf_counter()
    speed = [(0.0, speed_sample())]  # (start, seconds) of each speed sample
    for op in job.ops:
        start = perf_counter()
        try:
            value, error = op.call(), None
        except (Exception, SystemExit) as exc:
            value, error = None, exc
        seconds.append(perf_counter() - start)
        starts.append(start - job_start)
        values.append(value)
        errors.append(error)
        if perf_counter() - job_start - speed[-1][0] >= SPEED_EVERY_S:
            speed.append((perf_counter() - job_start, speed_sample()))
    speed.append((perf_counter() - job_start, speed_sample()))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, job.output_bytes)
        if spans:
            tracer.write(spans)

    failed = [False] * len(job.ops)
    correct = True
    messages: list[str] = []

    def fail(i: int, message: str, wrong: bool = True) -> None:
        nonlocal correct
        failed[i] = True
        correct = correct and not wrong
        if wrong and len(messages) < MAX_MESSAGES:
            messages.append(f"{job.ops[i].name}: {message}")

    for i, op in enumerate(job.ops):
        if errors[i] is not None:
            refused = op.may_refuse and job.is_refusal(errors[i])
            fail(i, f"{type(errors[i]).__name__}: {errors[i]}", wrong=not refused)
            continue
        try:
            message = op.check(values[i])
        except Exception as exc:
            message = f"output could not be read: {type(exc).__name__}: {exc}"
        if message:
            fail(i, message)
    index = {op.name: i for i, op in enumerate(job.ops)}
    for names, check in job.joint_checks:
        message = check()
        if message:
            for name in names:
                fail(index[name], message)

    return {
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "ops": [(op.name, t, s) for op, t, s in zip(job.ops, starts, seconds)],
        "speed": speed,
        "failed_ops": [op.name for op, f in zip(job.ops, failed) if f],
        "attempted": len(job.ops),
        "failed": sum(failed),
        "correct": correct,
        "messages": messages,
        "layers": layers,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file for the spans of a traced round")
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, bool(args.trace), args.spans)))


if __name__ == "__main__":
    main()
