#!/usr/bin/env python3
"""immwind benchmark: one workload per run, one JSON result line at the end.

    python3 bench/run.py --workload long-above --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the same checkout.  With ``--trace 0`` the end-to-end metrics are
measured with tracing off; with ``--trace 1`` the workload's rounds
alternate between untraced and traced, the per-layer metrics of the
traced rounds are printed instead, and the spans are written to
``bench/out/trace-<workload>.npz``.  The run exits non-zero, without a
result line, if the program cannot be imported, and exits non-zero
after a result line with ``"correct": false`` if a check fails.
"""

import os
import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since the kernel started this process (10 ms resolution)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


_AGE0 = _process_age()

from common import SPEED  # noqa: E402  (imports numpy, which the gauge runs on)

SPEED.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

class SetupClock:
    """Marks the end of set-up: from process start to the first timed operation."""

    setup_s = None

    def setup_done(self) -> None:
        if self.setup_s is None:
            self.setup_s = SPEED.interval(_T0 - _AGE0, time.perf_counter())


def _import_program():
    """Import ``immwind`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import immwind

    if src.resolve() not in Path(immwind.__file__).resolve().parents:
        raise ImportError(f"immwind resolved to {immwind.__file__}, not to {src}")
    return immwind


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["long-above", "seed-sweep", "imm-generic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.trace:
        SPEED.stop()  # the traced run reports self times as measured

    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 1
    import closed_loop
    import generic
    import tracing
    from common import OUT, CheckFailed

    workload = {
        "long-above": closed_loop.long_above,
        "seed-sweep": closed_loop.seed_sweep,
        "imm-generic": generic.imm_generic,
    }[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    clock = SetupClock()
    correct, note = True, ""
    try:
        outcome = workload(args.seed, args.seconds, tracer, clock)
        if tracer is not None:
            layers = tracing.per_layer(tracer, outcome)
    except CheckFailed as exc:
        correct, note = False, str(exc)
        outcome = None
    SPEED.stop()

    if outcome is None:
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    else:
        if tracer is None:
            values = dict(outcome.e2e, setup_s=clock.setup_s,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        else:
            values = layers
            untraced = statistics.median(outcome.wall_untraced)
            traced = statistics.median(outcome.wall_traced)
            overhead = {"wall_untraced_s": untraced, "wall_traced_s": traced,
                        "overhead_pct": 100.0 * (traced / untraced - 1.0)}
            tracer.save(OUT / f"trace-{args.workload}.npz", overhead)
            print(f"trace: {len(tracer.start)} spans; traced wall_s {traced:.4f} s against "
                  f"{untraced:.4f} s untraced ({overhead['overhead_pct']:+.1f}%)")
            if tracer.unresolved:
                print(f"trace: not found in the program: {', '.join(tracer.unresolved)}")
        # the metric names and units are the ones BENCHMARK.json declares
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared["end_to_end" if tracer is None else "per_layer"]
        }
        result = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
                  "metrics": metrics}

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not correct:
        print(f"CHECK FAILED: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        SPEED.stop()
    sys.exit(status)
