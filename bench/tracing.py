"""Traced run: spans around the program's layers, recorded from outside.

While ``Tracer.recording()`` is active, the functions and methods in
TARGETS are replaced, in every ``immwind`` module and class that binds
them, by wrappers that record a span (name, start, end, parent).  The
program's source is not touched, and leaving the block restores every
original.  Spans stay in memory (four flat arrays) until ``save``.

Per-layer metrics are derived from the spans: self time is a span's
duration minus the time its child spans cover, and counts are exact
numbers of spans.  Wrapper cost lands partly in the parent's self time;
the runner reports the overall overhead as traced against untraced
``wall_s``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from immwind import imm

from common import Outcome, require

SOLUTION = "bench.solution"  # root span of one timed operation
STAGES = "bench.stages"  # root span of the IMM stage calls on recorded banks

# (span name, module, attribute path); a missing attribute is skipped,
# so a layer the program no longer has reads as zero calls
TARGETS = (
    ("cp.evaluate", "immwind.cp", "CpSurface.evaluate"),
    ("cp.eval_with_partials", "immwind.cp", "CpSurface.eval_with_partials"),
    ("turbine.f", "immwind.turbine", "TurbineModel.f"),
    ("turbine.jac_f", "immwind.turbine", "TurbineModel.jac_f"),
    ("ekf.predict", "immwind.ekf", "predict"),
    ("ekf.update", "immwind.ekf", "update"),
    ("ekf.EstimatorState", "immwind.ekf", "EstimatorState.__post_init__"),
    ("imm.imm_step", "immwind.imm", "imm_step"),
    ("imm.likelihood", "immwind.imm", "likelihood"),
    ("imm.update_mode_probs", "immwind.imm", "update_mode_probs"),
    ("imm.predict_mode_probs", "immwind.imm", "predict_mode_probs"),
    ("imm.mixing_weights", "immwind.imm", "mixing_weights"),
    ("imm.combine", "immwind.imm", "combine"),
    ("imm.mix", "immwind.imm", "mix"),
    ("imm.estimate_cp", "immwind.imm", "estimate_cp"),
    ("imm.ModeBank", "immwind.imm", "ModeBank.__post_init__"),
    ("plant.generate_wind", "immwind.plant", "generate_wind"),
    ("plant.generate_cp_schedule", "immwind.plant", "generate_cp_schedule"),
    ("plant.simulate_plant", "immwind.plant", "simulate_plant"),
    ("plant.controller_step", "immwind.plant", "BaselineController.step"),
    ("harness.run_experiment", "immwind.harness", "run_experiment"),
    ("harness.run_estimators", "immwind.harness", "_run_estimators"),
    ("harness.low_pass", "immwind.harness", "low_pass"),
    ("harness.write_outputs", "immwind.harness", "write_outputs"),
    ("config.surface", "immwind.config", "ExperimentConfig.surface"),
    ("config.load_config", "immwind.config", "load_config"),
)

def _bindings(module_name: str, path: str):
    """Every (owner, attribute) that binds the target, or [] if it is gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None:
            return []
        classes, found = [cls], []
        while classes:
            c = classes.pop()
            if attr in vars(c):
                found.append((c, attr))
            classes.extend(c.__subclasses__())
        return found
    original = getattr(module, path, None)
    if original is None:
        return []
    return [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "immwind" or mod_name.startswith("immwind."))
        for name, value in list(vars(mod).items())
        if value is original
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.unresolved: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    @contextlib.contextmanager
    def recording(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for span_name, module_name, path in TARGETS:
                owners = _bindings(module_name, path)
                if not owners and span_name not in self.unresolved:
                    self.unresolved.append(span_name)
                for owner, attr in owners:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(span_name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path, overhead: dict[str, float]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays(),
                 **{k: np.float64(v) for k, v in overhead.items()})


@contextlib.contextmanager
def timed(tracer: Tracer | None):
    """Around one timed operation: traced under a SOLUTION root, or bare."""
    if tracer is None:
        yield
    else:
        with tracer.recording(), tracer.span(SOLUTION):
            yield


def per_layer(tracer: Tracer, outcome: Outcome) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced rounds.

    Counts and times come from spans under SOLUTION roots, except the
    combination and mixing stages, which ``imm_step`` runs through
    private helpers and the workloads time through the public
    ``combine``/``mix`` on recorded banks, under STAGES roots.
    """
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    n = dur.size
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    root = np.arange(n)
    while True:
        up = parent[root]
        if not np.any(up >= 0):
            break
        root = np.where(up >= 0, up, root)
    ids = {s: i for i, s in enumerate(tracer.names)}

    def select(span: str, under: str = SOLUTION) -> np.ndarray:
        if span not in ids or under not in ids:
            return np.zeros(n, dtype=bool)
        return (name == ids[span]) & (name[root] == ids[under])

    def count(span: str, under: str = SOLUTION) -> int:
        return int(select(span, under).sum())

    def total(span: str, times: np.ndarray = self_time) -> float:
        return float(times[select(span)].sum())

    def median_us(span: str, under: str = SOLUTION) -> float:
        sel = select(span, under)
        return float(np.median(self_time[sel])) * 1e6 if sel.any() else 0.0

    ops = max(outcome.traced_ops, 1)
    steps = max(outcome.traced_steps, 1)
    lookups = select("cp.evaluate") | select("cp.eval_with_partials")
    lookup_ids = [ids[s] for s in ("cp.evaluate", "cp.eval_with_partials") if s in ids]
    nested = lookups & has_parent & np.isin(name[np.maximum(parent, 0)], lookup_ids)
    top = lookups & ~nested

    imm_steps = count("imm.imm_step")
    if outcome.traced_ops and not outcome.failed:
        require(imm_steps == outcome.traced_imm_steps_expected,
                f"trace: {imm_steps} imm_step spans, configuration implies "
                f"{outcome.traced_imm_steps_expected}")

    return {
        "cp.lookups_per_step": int(top.sum()) / steps,
        "cp.lookup_us": float(np.median(self_time[top])) * 1e6 if top.any() else 0.0,
        "turbine.f_us": median_us("turbine.f"),
        "turbine.jac_f_us": median_us("turbine.jac_f"),
        "ekf.predict_us": median_us("ekf.predict"),
        "ekf.update_us": median_us("ekf.update"),
        "ekf.self_s": (total("ekf.predict") + total("ekf.update")) / ops,
        "ekf.states_per_step": count("ekf.EstimatorState") / steps,
        "imm.step_self_s": total("imm.imm_step") / ops,
        "imm.likelihood_us": median_us("imm.likelihood"),
        "imm.update_mode_probs_us": median_us("imm.update_mode_probs"),
        "imm.combine_us": median_us("imm.combine", STAGES),
        "imm.mix_us": median_us("imm.mixing_weights") + median_us("imm.mix", STAGES),
        "imm.estimate_cp_us": median_us("imm.estimate_cp"),
        "imm.bank_validations_per_step": count("imm.ModeBank") / steps,
        "plant.wind_s": total("plant.generate_wind") / ops,
        "plant.schedule_s": total("plant.generate_cp_schedule") / ops,
        "plant.simulate_s": total("plant.simulate_plant") / ops,
        "plant.controller_us": median_us("plant.controller_step"),
        "harness.loop_self_s": total("harness.run_estimators") / ops,
        "harness.score_s": (total("harness.run_experiment", dur)
                            - total("harness.run_estimators", dur)) / ops,
        "harness.low_pass_calls": count("harness.low_pass") / ops,
        "harness.write_s": total("harness.write_outputs") / ops,
        "harness.write_bytes": outcome.traced_write_bytes / ops,
        "config.surface_builds": count("config.surface") / ops,
        "config.surface_s": total("config.surface") / ops,
        "config.load_s": total("config.load_config") / ops,
    }


def stage_calls(tracer: Tracer, samples) -> None:
    """Time the public combination and mixing stages on recorded banks.

    Each sample is (bank entering a cycle, posterior mu, prior mu for the
    next cycle); the calls run on the bank's states, so their shapes and
    magnitudes are those of the run.
    """
    with tracer.recording(), tracer.span(STAGES):
        for bank, mu_post, mu_prior in samples:
            imm.combine(bank.states, mu_post)
            imm.mix(bank.states, imm.mixing_weights(bank.transition, mu_post, mu_prior))
