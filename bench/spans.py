"""Span tracing from outside the program.

``Tracer`` replaces every public function of the ``gapseries`` modules, in
every module namespace that binds it (``cli``, ``constructions`` and
``criteria`` import names directly, so patching the defining module alone
would miss their calls), with a wrapper that records a span: name, start,
end, parent span and job id.  Spans live in flat arrays until the run ends.
Uninstalling restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

from metrics import LAYERS

#: the seven criterion_* functions, summed into the criteria.criterion.* metrics
_CRITERIA = (
    "criterion_gap",
    "criterion_inverse_shifted",
    "criterion_scaled_inverse_shifted",
    "criterion_scaled_inverse",
    "criterion_power_growth",
    "criterion_exp_inverse",
    "criterion_plain_inverse",
)
CRITERION_SPANS = tuple(f"criteria.{name}" for name in _CRITERIA)


class Tracer:
    """Context manager that wraps the public functions of ``gapseries``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.counts: Counter[str] = Counter()
        self.job_id = -1
        self._stack: list[int] = []
        self._active: Counter[int] = Counter()
        self._last_exc: BaseException | None = None
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"gapseries.{layer}"]
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gapseries" and not mod_name.startswith("gapseries."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        layer, short = name.split(".", 1)
        post = self._count_criterion if short in _CRITERIA else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.outer.append(tracer._active[name_id] == 0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._active[name_id] += 1
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = time.perf_counter()
                tracer._raised(layer, exc)
                raise
            else:
                tracer.end[idx] = time.perf_counter()
            finally:
                tracer._stack.pop()
                tracer._active[name_id] -= 1
            if post is not None:
                post(result)
            return result

        return wrapper

    def _raised(self, layer: str, exc: BaseException) -> None:
        # count each exception once, in the innermost traced span it left
        if exc is not self._last_exc:
            self._last_exc = exc
            self.counts[f"{layer}.raised.{type(exc).__name__}"] += 1

    def _count_criterion(self, report) -> None:
        self.counts["criteria.criterion.terms"] += int(report.terms.size)
        self.counts["criteria.nonfinite_terms"] += int(np.count_nonzero(~np.isfinite(report.terms)))

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (plus the name table)."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8),
        }


def summarize(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds (outermost spans only) and self
    seconds (duration minus the time covered by direct children)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child_time = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    out = {}
    for name_id, name in enumerate(spans["names"]):
        mine = spans["name"] == name_id
        out[str(name)] = {
            "calls": float(np.count_nonzero(mine)),
            "busy_s": float(dur[mine & (spans["outer"] == 1)].sum()),
            "self_s": float(self_time[mine].sum()),
        }
    return out
