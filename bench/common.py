"""Helpers shared by the workloads: run budget, speed gauge, checks, results."""

from __future__ import annotations

import math
import signal
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"  # run outputs and traces (git-ignored)


class CheckFailed(AssertionError):
    """A program output disagreed with an independent computation or invariant."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rounds(seconds: float, min_rounds: int):
    """Yield round indices for about ``seconds`` of measurement.

    The first ``min_rounds`` rounds always run.  Another starts only
    while the elapsed time plus the last round's duration stays within
    the budget, so a run ends close to its budget and every round is
    whole.
    """
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        yield r
        r += 1
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds and r >= min_rounds:
            return


# Other tenants of a shared machine slow this process, and the slowdown
# shows in CPU time too: a cycle runs at one of two speeds about 1.8x
# apart, switching every millisecond or so, and the share of time spent
# slow drifts between about 0 and 1 over seconds to minutes.  So every
# timing is read against a gauge: a fixed piece of the benchmark's own
# work (a textbook 2-state Kalman filter, the same mix of interpreter
# and small numpy calls as the program's cycles) timed alongside it.
# A change to the program does not move the gauge.
#
# A span of a second or more (wall_s, setup_s) mixes both speeds.  The
# gauge runs from SIGALRM every GAUGE_PERIOD_S, twice, and the second,
# warm run is the sample (a cold gauge also times the refilling of its
# caches).  The mean sample inside the span estimates how much slower
# than the reference the host ran during it.  The span is reported in
# seconds at the reference speed: measured time, less the time spent in
# the gauge inside it, times GAUGE_REF_S over the mean sample inside it.
#
# A single call (tens to hundreds of microseconds) sees one speed or the
# other.  It is timed REPEATS times on the same input, a pass over all
# calls apart, each timing between two gauge timings; its latency is
# its fastest timing times GAUGE_REF_S over the mean of the two gauge
# timings around that one, which saw the same speed.  The fastest of
# five is a fast one while the fast speed is there at all, and the
# ratio holds while it is not.
GAUGE_PERIOD_S = 0.02
GAUGE_REF_S = 56e-6  # a warm gauge run's time at the reference host's fast speed
GAUGE_STEPS = 4
REPEATS = 5
_GA = np.array([[0.9, 0.3], [0.0, 0.97]])
_GC = np.array([0.0, 0.3])
_GQ = np.diag([1e-2, 1e-3])
_GR = np.array([[9e-4]])
_GH = np.array([[1.0, 0.0]])
_GY = (10.0 + 0.1 * np.sin(np.arange(GAUGE_STEPS))).tolist()


def _gauge_work() -> None:
    x, P = np.array([7.0, 10.0]), np.diag([0.25, 0.25])
    for y in _GY:
        x = _GA @ x + _GC
        P = _GA @ P @ _GA.T + _GQ
        S = _GH @ P @ _GH.T + _GR
        K = P @ _GH.T / S[0, 0]
        x = x + K[:, 0] * (y - x[0])
        P = P - K @ _GH @ P
        P = 0.5 * (P + P.T)


class SpeedGauge:
    """Samples the host's speed from a timer signal while the run measures."""

    def __init__(self) -> None:
        self.at = array("d")  # start of each sample (perf_counter)
        self.took = array("d")  # the warm run's duration
        self.spent = array("d")  # the whole sample's duration
        self.running = False

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _gauge_work()
        t1 = time.perf_counter()
        _gauge_work()
        t2 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t2 - t1)
        self.spent.append(t2 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.running = False

    def interval(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed spent from t0 to t1.

        Unscaled while the gauge is off (traced runs, which report no
        end-to-end timing).
        """
        if not self.running:
            return t1 - t0
        # copies: a sample may land meanwhile, and an array that exports
        # its buffer cannot grow
        spent = np.array(self.spent, dtype=np.float64)
        took = np.array(self.took, dtype=np.float64)[: spent.size]
        at = np.array(self.at, dtype=np.float64)[: spent.size]
        inside = (at >= t0) & (at < t1)
        n = int(inside.sum())
        require(n >= 10, f"speed gauge: {n} samples in {t1 - t0:.3f} s")
        return (t1 - t0 - float(spent[inside].sum())) * GAUGE_REF_S / float(took[inside].mean())


def call_latencies(calls) -> np.ndarray:
    """Per-call latency (s) at the reference speed of each of ``calls``.

    ``calls`` are zero-argument callables that do the same work every
    time (pure functions on recorded inputs).
    """
    n = len(calls)
    best = [math.inf] * n
    gauge = [math.inf] * n
    pc = time.perf_counter
    for _ in range(REPEATS):
        t0 = pc()
        _gauge_work()
        before = pc() - t0
        for i, call in enumerate(calls):
            t0 = pc()
            call()
            t1 = pc()
            _gauge_work()
            after = pc() - t1
            if t1 - t0 < best[i]:
                best[i] = t1 - t0
                gauge[i] = 0.5 * (before + after)
            before = after
    return np.array(best) * GAUGE_REF_S / np.array(gauge)


SPEED = SpeedGauge()


@dataclass
class Outcome:
    """What a workload hands back to the runner.

    ``e2e`` maps end-to-end metric names to values.  The ``traced_*``
    fields are the denominators of the per-layer metrics: operations
    (seeds or cycles) and estimator steps run with tracing on, the
    ``imm_step`` count the workload's configuration implies for them,
    and the bytes their outputs took on disk.
    """

    attempted: int = 0
    failed: int = 0
    e2e: dict[str, float] = field(default_factory=dict)
    wall_untraced: list[float] = field(default_factory=list)
    wall_traced: list[float] = field(default_factory=list)
    traced_ops: int = 0
    traced_steps: int = 0
    traced_imm_steps_expected: int = 0
    traced_write_bytes: int = 0

    def add_round(self, wall: float, traced: bool, ops: int, steps: int,
                  imm_steps: int, write_bytes: int = 0) -> None:
        self.attempted += ops
        if not traced:
            self.wall_untraced.append(wall)
            return
        self.wall_traced.append(wall)
        self.traced_ops += ops
        self.traced_steps += steps
        self.traced_imm_steps_expected += imm_steps
        self.traced_write_bytes += write_bytes
