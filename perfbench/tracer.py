"""Span tracing of collapse_sim from outside the package.

A :class:`Tracer` replaces the public functions of the package's modules
with wrappers that record one span per call: the function's name, its
start and end (``time.perf_counter_ns``) and the index of the span that
was open when it started.  Spans stay in flat in-memory arrays until
:meth:`Tracer.table` reduces them after the run.

Every module that binds a wrapped function gets the wrapper, because
``stats`` and ``bloch`` import ``euler_step``, ``noise_sampler`` and
``derive_stream`` by name; wrapping only the defining module would miss
those calls.  Three wrappers do more than time their call:

* ``core.noise_sampler`` wraps the sampler it returns, so each noise draw
  is a ``core.draw`` span.
* ``sde.increment`` checks, from its inputs and output, whether the raw
  state ``state + increment`` leaves [0, 2], the condition under which
  ``_repair_simplex`` clamps.  The check runs in a ``trace.clamp_check``
  span of its own, so its cost is not charged to ``sde.euler_step``.
* ``cli`` exposes only ``main``; the ``cmd_*`` dispatch targets stay part
  of its self time, which is config resolution and file writing.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("core", "sde", "stats", "bloch", "bayes", "cli")
CLAMP_CHECK = "trace.clamp_check"


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if module.__name__.endswith(".cli"):
        names = ["main"]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records spans for the public functions of ``collapse_sim``.

    Use as a context manager: entering installs the wrappers in every
    loaded ``collapse_sim`` module, leaving restores the originals.
    """

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.clamped = 0
        self._stack: list[int] = []
        self._clamp_check = None
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` wrapped to record a span called ``name``.

        ``after(result, args)`` runs once the span has closed, inside the
        same parent span.
        """
        name_id = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _install(self):
        layers = {short: importlib.import_module(f"collapse_sim.{short}") for short in MODULES}
        loaded = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None
            and (key == "collapse_sim" or key.startswith("collapse_sim."))
        ]
        self._clamp_check = self.wrap(_leaves_box, CLAMP_CHECK)
        replacements = {}
        for short, module in layers.items():
            for fname, fn in _public_functions(module):
                label = f"{short}.{fname}"
                if label == "core.noise_sampler":
                    wrapper = self._wrap_noise_sampler(fn)
                elif label == "sde.increment":
                    wrapper = self.wrap(fn, label, self._count_clamp)
                else:
                    wrapper = self.wrap(fn, label)
                replacements[id(fn)] = wrapper
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_noise_sampler(self, fn):
        timed = self.wrap(fn, "core.noise_sampler")

        def noise_sampler(kind):
            return self.wrap(timed(kind), "core.draw")

        noise_sampler.__wrapped__ = fn
        return noise_sampler

    def _count_clamp(self, inc, args):
        # Same arithmetic as sde.euler_step: raw = state + increment(state, dw).
        if self._clamp_check(args[0], inc):
            self.clamped += 1

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    def table(self) -> dict:
        """Per-function calls, total and self time, from the recorded spans.

        A span's self time is its duration minus the durations of the
        spans it directly caused.
        """
        n_spans = len(self.start)
        names = np.array(self.name, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)).astype(float)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n_spans)
        self_ns = dur - child
        k = len(self.span_names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_total = np.bincount(names, weights=self_ns, minlength=k)
        rows = {}
        for i, label in enumerate(self.span_names):
            c = int(calls[i])
            rows[label] = {
                "calls": c,
                "total_s": total[i] * 1e-9,
                "self_s": self_total[i] * 1e-9,
                "us_per_call": total[i] * 1e-3 / c if c else 0.0,
                "self_us_per_call": self_total[i] * 1e-3 / c if c else 0.0,
            }
        # Euler steps taken inside run_trajectory, for its per-step loop cost.
        steps_in_trajectories = 0
        if "sde.euler_step" in self._name_ids and "sde.run_trajectory" in self._name_ids:
            step_parents = parents[names == self._name_ids["sde.euler_step"]]
            parent_names = names[step_parents[step_parents >= 0]]
            steps_in_trajectories = int(
                np.count_nonzero(parent_names == self._name_ids["sde.run_trajectory"])
            )
        increments = rows.get("sde.increment", {}).get("calls", 0)
        return {
            "spans": n_spans,
            "functions": rows,
            "trajectory_steps": steps_in_trajectories,
            "clamped_steps": self.clamped,
            "clamp_rate": self.clamped / increments if increments else 0.0,
        }


def _leaves_box(state, inc) -> bool:
    raw = np.asarray(state, dtype=float) + inc
    return bool(((raw < 0.0) | (raw > 2.0)).any())
