"""Span recorder for the traced benchmark run.

The benchmark wraps public qest functions from the outside: every qest
module namespace that holds one of the functions below gets a wrapper in its
place while a traced task runs, and the original back afterwards. So a call
``run_chain(...)`` inside ``qest.scenarios`` records a span without any change
to the package. Spans (name, start, end, parent span, task id, counts) stay
in memory and are written out when the run ends. A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

MODULES = ("cli", "scenarios", "sampler", "numerics", "circuit", "estimation", "synth")


def _chain_counts(run):
    return {"steps": run.n_proposed, "accepted": run.n_accepted}


# (module, function, counter over the return value). Counts come from return
# values only: ChainRun bookkeeping, the sample list, the gate list and the
# walk operator's dimension.
TRACED = (
    ("cli", "main", None),
    ("scenarios", "run_scenario_mean", None),
    ("scenarios", "run_scenario_partition", None),
    ("scenarios", "signed_partition", None),
    ("sampler", "run_chain", _chain_counts),
    ("sampler", "build_metropolis_matrix", None),
    ("sampler", "spectral_gap", None),
    ("sampler", "szegedy_walk_operator", lambda walk: {"edge_dim": walk.dim}),
    ("sampler", "phase_gap", None),
    ("numerics", "eigendecompose", None),
    ("numerics", "exact_diag_element", None),
    ("circuit", "run_tomography_circuit", None),
    ("circuit", "prepare_initial_state", None),
    ("circuit", "apply_controlled_evolution", None),
    ("circuit", "apply_inverse_dft", None),
    ("circuit", "apply_tomography_multiplexor", None),
    ("circuit", "expand_multiplexor", lambda seq: {"gates": len(seq)}),
    ("circuit", "compose_gate_unitary", None),
    ("estimation", "sample_measurements", lambda samples: {"shots": len(samples)}),
    ("estimation", "empirical_distribution", None),
    ("synth", "random_reversible_chain", None),
)

# Per-layer metrics beyond calls and self time: (name, unit).
COUNTERS = (
    ("sampler.chain_steps", "count"),
    ("sampler.steps_per_s", "1/s"),
    ("sampler.acceptance", "ratio"),
    ("sampler.walk_edge_dim", "count"),
    ("estimation.shots", "count"),
    ("estimation.shots_per_s", "1/s"),
    ("circuit.gates", "count"),
    ("trace.tasks", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def metric_specs():
    """Every per-layer metric the traced run prints, as (name, unit)."""
    specs = []
    for module, func, _ in TRACED:
        specs.append((f"{module}.{func}.calls", "count"))
        specs.append((f"{module}.{func}.self_s", "s"))
    specs += [(f"layer.{module}.self_s", "s") for module in MODULES]
    return specs + list(COUNTERS)


class Recorder:
    """Spans in memory, nested by a stack (the benchmark is single-threaded)."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent, task, counts
        self._stack = []
        self.task = None

    def call(self, name, fn, counter, args, kwargs):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "task": self.task, "counts": None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span["counts"] = counter(result)
        return result

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    def summary(self, n_tasks: int) -> dict:
        """Per-task calls and self time per function, layer totals, counters."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        calls, self_s, counts = {}, {}, {}
        for span, child in zip(self.spans, covered):
            name = span["name"]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + span["end"] - span["start"] - child
            for key, value in (span["counts"] or {}).items():
                counts[key] = counts.get(key, 0) + value

        out = {}
        for module, func, _ in TRACED:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = calls.get(name, 0) / n_tasks
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / n_tasks
        for module in MODULES:
            out[f"layer.{module}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(module + ".")
            ) / n_tasks

        def rate(count, name):
            busy = self_s.get(name, 0.0)
            return counts.get(count, 0) / busy if busy else 0.0

        steps = counts.get("steps", 0)
        walks = calls.get("sampler.szegedy_walk_operator", 0)
        out["sampler.chain_steps"] = steps / n_tasks
        out["sampler.steps_per_s"] = rate("steps", "sampler.run_chain")
        out["sampler.acceptance"] = counts.get("accepted", 0) / steps if steps else 0.0
        out["sampler.walk_edge_dim"] = counts.get("edge_dim", 0) / walks if walks else 0.0
        out["estimation.shots"] = counts.get("shots", 0) / n_tasks
        out["estimation.shots_per_s"] = rate("shots", "estimation.sample_measurements")
        out["circuit.gates"] = counts.get("gates", 0) / n_tasks
        return out


class Tracer:
    """Swaps wrappers for the TRACED functions in every qest namespace."""

    def __init__(self, recorder: Recorder):
        namespaces = [importlib.import_module("qest")]
        namespaces += [importlib.import_module(f"qest.{m}") for m in MODULES]
        self._patches = []
        for module, func, counter in TRACED:
            original = getattr(importlib.import_module(f"qest.{module}"), func)
            wrapper = _wrap(recorder, f"{module}.{func}", original, counter)
            for ns in namespaces:
                for attr, value in vars(ns).items():
                    if value is original:
                        self._patches.append((ns, attr, original, wrapper))

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)


def _wrap(recorder, name, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, counter, args, kwargs)

    return wrapper
