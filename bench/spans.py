"""In-memory span recorder for the traced benchmark run.

``SpanRecorder`` wraps a fixed list of public ``quantstab`` functions. A
function imported with ``from .x import f`` is a separate binding in every
importing module, so ``install`` replaces each binding that refers to the
original object, in every loaded ``quantstab`` module, and ``uninstall``
puts the originals back. Each call records one span: its function, its
parent span, the request it belongs to, its start and end
(``perf_counter_ns``) and, for stability tests, whether the verdict was
"stable". Spans live in flat ``array`` buffers until the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (module, function) at each layer boundary the benchmark traces
TARGETS = (
    ("cli", "main"),
    ("cli", "load_config"),
    ("rates", "search_periodic_schedule"),
    ("rates", "periodic_sufficient_test"),
    ("rates", "sufficient_test"),
    ("rates", "min_sufficient_N"),
    ("rates", "spectral_radius"),
    ("quantizer", "quantizer_for"),
    ("quantizer", "expansion_profile"),
    ("quantizer", "encode"),
    ("quantizer", "decode"),
    ("loop", "run_closed_loop"),
    ("loop", "predict"),
    ("intervals", "interval_product"),
    ("intervals", "minkowski_sum"),
    ("plant", "step"),
    ("plant", "sample_instance"),
    ("oracle", "grid_optimal_boundaries"),
    ("oracle", "verify_equalization"),
    ("oracle", "verify_relaxation_kkt"),
    ("oracle", "exhaustive_encode_decode"),
)

# functions whose result carries a verdict: outcome 1 when it is "stable"
OUTCOMES = {"rates.periodic_sufficient_test": lambda res: res.stable}


class SpanRecorder:
    """Build after ``quantstab`` is imported; install around traced calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outcome = array("b")
        self.current_request = -1
        self._stack = [-1]
        # (module, attribute, original, wrapper) for every binding
        self._bindings: list[tuple[object, str, object, object]] = []
        mods = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "quantstab" or name.startswith("quantstab.")
        ]
        for mod_name, fn_name in TARGETS:
            orig = getattr(sys.modules[f"quantstab.{mod_name}"], fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in mods:
                for attr, val in vars(mod).items():
                    if val is orig:
                        self._bindings.append((mod, attr, orig, traced))

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        outcome_of = OUTCOMES.get(qualname)
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end, outcome, stack = self.start, self.end, self.outcome, self._stack
        recorder = self

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(recorder.current_request)
            outcome.append(-1)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                res = fn(*args, **kwargs)
                if outcome_of is not None:
                    outcome[i] = 1 if outcome_of(res) else 0
                return res
            finally:
                end[i] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, attr, _, traced in self._bindings:
            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._bindings:
            setattr(mod, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "outcome": np.frombuffer(self.outcome, dtype=np.int8).copy(),
        }

    def write(self, path) -> None:
        """Every span, as flat arrays, plus the function names."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds, self seconds, stable count.

        Self time is a span's duration minus the durations of its direct
        child spans; children of one span never overlap, because every call
        runs on the one benchmark thread. No traced function calls itself,
        so summing inclusive times does not count any interval twice.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        k = len(self.names)
        ids = a["name_id"]
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_total = np.bincount(ids, weights=self_time, minlength=k)
        stable = np.bincount(ids, weights=(a["outcome"] == 1), minlength=k)
        return {
            name: {
                "calls": int(calls[j]),
                "s": float(total[j]),
                "self_s": float(self_total[j]),
                "stable": int(stable[j]),
            }
            for j, name in enumerate(self.names)
        }
