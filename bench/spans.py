"""In-memory span tracing of the etvbf package, installed from outside it.

`Tracer.installed()` replaces every public function named in the `__all__`
of the traced modules, plus the query methods of `SpdFactor`, with a
wrapper that records one span per call: (name, start, end, parent span,
trial id). A wrapper is bound under every name, in every `etvbf.*` module,
that held the original object, because callers resolve their callees
through their own module globals (`etvbf_step` finds `update_mixture` in
`etvbf.filter`, `run_trial` finds `simulate_truth` in `etvbf.harness`).
Every original binding is restored when the context exits.

Spans are kept in flat arrays while tracing and reduced afterwards: a
span's self time is its duration minus the durations of its direct
children. Calls nest strictly because the traced code runs on one thread
at a time (the harness pool has a single worker), so one shared stack
tracks the open spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("numerics", "distributions", "model", "trigger", "filter", "baselines", "harness")
SPD_FACTOR_METHODS = ("solve", "inverse", "log_det")
# A call of this function starts a new trial in the harness.
TRIAL_FUNCTION = "harness.run_trial"


class Tracer:
    """Records spans of the traced package functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.trial_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def begin_trial(self) -> None:
        """Mark the start of a trial driven from outside the harness."""
        self.trial_id += 1

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, trials, starts, ends = self.name, self.parent, self.trial, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter_ns, self
        starts_trial = name == TRIAL_FUNCTION

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_trial:
                tracer.trial_id += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            trials.append(tracer.trial_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Trace the package inside the block; restore every binding on exit."""
        package = [m for n, m in list(sys.modules.items()) if n == "etvbf" or n.startswith("etvbf.")]
        try:
            for short in TRACED_MODULES:
                module = importlib.import_module(f"etvbf.{short}")
                for attr in module.__all__:
                    original = getattr(module, attr)
                    if isinstance(original, type) or not callable(original):
                        continue
                    if getattr(original, "__module__", None) != module.__name__:
                        continue
                    wrapper = self._wrap(f"{short}.{attr}", original)
                    for holder in package:
                        for held, value in list(vars(holder).items()):
                            if value is original:
                                self._rebind(holder, held, wrapper)
            spd_factor = importlib.import_module("etvbf.numerics").SpdFactor
            for method in SPD_FACTOR_METHODS:
                original = spd_factor.__dict__[method]
                self._rebind(spd_factor, method, self._wrap(f"numerics.SpdFactor.{method}", original))
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy columns, one row per span."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def profile(self) -> "Profile":
        return Profile(self.names, self.arrays())


class Profile:
    """Per-name call counts and self times reduced from recorded spans."""

    def __init__(self, names: list[str], cols: dict[str, np.ndarray]):
        self.names = names
        name, parent = cols["name"], cols["parent"]
        dur = (cols["end_ns"] - cols["start_ns"]).astype(float)
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child_ns
        size = len(names)
        self._calls = np.bincount(name, minlength=size)
        self._self_ns = np.bincount(name, weights=self_ns, minlength=size)
        self._name = name
        self._parent = parent

    def _id(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls(self, name: str) -> int:
        nid = self._id(name)
        return 0 if nid is None else int(self._calls[nid])

    def self_ns(self, name: str) -> float:
        nid = self._id(name)
        return 0.0 if nid is None else float(self._self_ns[nid])

    def self_us_per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_ns(name) / calls / 1e3 if calls else 0.0

    def module_self_ns(self, module: str) -> float:
        prefix = module + "."
        return float(sum(self._self_ns[i] for i, n in enumerate(self.names) if n.startswith(prefix)))

    def children_per_parent(self, parent_name: str, child_name: str) -> np.ndarray:
        """Number of `child_name` spans directly under each `parent_name` span."""
        pid, cid = self._id(parent_name), self._id(child_name)
        if pid is None:
            return np.zeros(0, dtype=int)
        if cid is None:
            return np.zeros(int(self._calls[pid]), dtype=int)
        is_child = self._name == cid
        counts = np.bincount(self._parent[is_child], minlength=self._name.size)
        return counts[self._name == pid]
