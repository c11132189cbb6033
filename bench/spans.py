"""Span tracing of the ``mflow`` layers from outside the package.

A :class:`Tracer` replaces the public functions of each ``mflow`` module with
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  Functions are replaced on every binding the callers
use: ``dynamics`` calls ``kt_apply_flat`` through its own module global, the
package namespace re-exports ``solve``, and so on, so each loaded ``mflow``
module is scanned for the original object.  Methods (``resolvent`` of every
operator class, ``LinearMap.apply``/``adjoint``, ``Trajectory.write_csv``,
``VectorField.__call__``) are replaced on their class.  :meth:`Tracer.installed`
restores every original on exit.

Spans stay in memory (flat arrays, so a million spans cost about 28 MB)
and are summarised by :func:`layer_metrics` or written out with
:meth:`Tracer.save` when the run ends.
"""

import contextlib
import functools
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

NO_PARENT = -1

# Counts kept beside the spans: the active case of each two-cut projection,
# bytes of matrix read by the linear map (calls times matrix.nbytes, computed
# rather than measured), bytes of CSV written, and cap samples accepted and
# membership-tested inside sample_cap.
COUNTERS = (
    "geometry.case_i",
    "geometry.case_ii",
    "geometry.case_iii",
    "operators.linear_map.bytes",
    "dynamics.write_csv.bytes",
    "diagnostics.sample_cap.accepted",
    "diagnostics.sample_cap.tested",
)

# (module, attribute, span name): module-level functions, patched on every
# binding of the same object inside the mflow package.
FUNCTION_TARGETS = (
    ("space", "as_vector", "space.as_vector"),
    ("splitting", "kt_apply_flat", "splitting.kt_apply_flat"),
    ("splitting", "kt_operator", "splitting.kt_operator"),
    ("geometry", "haugazeau_projection", "geometry.haugazeau_projection"),
    ("geometry", "project_onto_halfspaces", "geometry.project_onto_halfspaces"),
    ("geometry", "cap_membership", "geometry.cap_membership"),
    ("dynamics", "solve", "dynamics.solve"),
    ("diagnostics", "sample_cap", "diagnostics.sample_cap"),
    ("diagnostics", "check_unique_zero", "diagnostics.checks"),
    ("diagnostics", "check_cap_invariance", "diagnostics.checks"),
    ("diagnostics", "check_outward_drift", "diagnostics.checks"),
    ("diagnostics", "check_projection_conditions", "diagnostics.checks"),
    ("problems", "get_instance", "problems.get_instance"),
    ("config", "resolve_instance", "config.resolve_instance"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name): patched on the class itself.
METHOD_TARGETS = (
    ("operators", "LinearMap", "apply", "operators.linear_map"),
    ("operators", "LinearMap", "adjoint", "operators.linear_map"),
    ("dynamics", "Trajectory", "write_csv", "dynamics.write_csv"),
    ("dynamics", "VectorField", "__call__", "dynamics.field"),
)


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the part its children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or ``NO_PARENT``.
    Child intervals are clipped to the parent's interval and merged before
    subtracting, so overlapping children are not counted twice.
    """
    children = {}
    for i, parent in enumerate(parents):
        if parent != NO_PARENT:
            children.setdefault(parent, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        reach = lo
        for k in sorted(kids, key=lambda k: starts[k]):
            a = max(starts[k], reach)
            b = min(ends[k], hi)
            if b > a:
                covered += b - a
                reach = b
        out[parent] -= covered
    return out


class Tracer:
    """Records spans around the ``mflow`` layer boundaries while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters = Counter()
        self._stack = [NO_PARENT]
        self._patches = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)`` counts."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1])
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def _wrap_projection(self, fn):
        """Span around the two-cut projection that also counts the active case."""
        inner = self.wrap("geometry.haugazeau_projection", fn)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(w, b, c, return_case=False, **kwargs):
            point, case = inner(w, b, c, return_case=True, **kwargs)
            counters[f"geometry.case_{case}"] += 1
            return (point, case) if return_case else point

        wrapper.bench_span = "geometry.haugazeau_projection"
        return wrapper

    # -- installation ----------------------------------------------------

    def _count(self, key, amount):
        self.counters[key] += amount

    def _after_hooks(self):
        return {
            "operators.linear_map": lambda args, _: self._count(
                "operators.linear_map.bytes", args[0].matrix.nbytes
            ),
            "dynamics.write_csv": lambda args, _: self._count(
                "dynamics.write_csv.bytes", os.path.getsize(args[1])
            ),
            "diagnostics.sample_cap": lambda _, result: self._count(
                "diagnostics.sample_cap.accepted", len(result)
            ),
        }

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Replace every traced function and method of the mflow package."""
        modules = _mflow_modules()
        hooks = self._after_hooks()
        for mod_name, attr, span in FUNCTION_TARGETS:
            original = getattr(sys.modules[f"mflow.{mod_name}"], attr)
            if span == "geometry.haugazeau_projection":
                wrapper = self._wrap_projection(original)
            else:
                wrapper = self.wrap(span, original, hooks.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for mod_name, cls_name, method, span in METHOD_TARGETS:
            cls = getattr(sys.modules[f"mflow.{mod_name}"], cls_name)
            wrapper = self.wrap(span, cls.__dict__[method], hooks.get(span))
            self._set(cls, method, wrapper)
        for cls in _operator_classes():
            wrapper = self.wrap("operators.resolvent", cls.__dict__["resolvent"])
            self._set(cls, "resolvent", wrapper)

    def uninstall(self):
        """Put back every original binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------

    def save(self, path):
        """Write the spans and counters as a NumPy archive."""
        import numpy as np

        keys = sorted(self.counters)
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            counter_keys=np.array(keys),
            counter_values=np.array([self.counters[k] for k in keys]),
        )


def _mflow_modules():
    import mflow.cli  # noqa: F401  (loads every submodule)

    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mflow"]


def _operator_classes():
    """Every operator class that defines its own resolvent."""
    from mflow.operators import MonotoneOperator

    found, todo = [], [MonotoneOperator]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not MonotoneOperator and "resolvent" in cls.__dict__:
            found.append(cls)
    return found


def installed_wrappers():
    """Wrappers still bound anywhere in the mflow package (empty after uninstall)."""
    owners = _mflow_modules()
    owners += [
        value for mod in list(owners) for value in vars(mod).values() if isinstance(value, type)
    ]
    return sorted(
        {
            f"{getattr(owner, '__name__', owner)}.{key}"
            for owner in owners
            for key, value in vars(owner).items()
            if hasattr(value, "bench_span")
        }
    )


def layer_metrics(tracer):
    """Per-layer counts and times from the recorded spans.

    For every span name the tracer wraps (called or not): ``<name>.calls``,
    ``<name>.self_s`` (self time) and ``<name>.s`` (inclusive time), plus
    the counters in :data:`COUNTERS`.
    """
    out = {key: 0 for key in COUNTERS}
    for name in tracer.names:
        out.update({f"{name}.calls": 0, f"{name}.self_s": 0.0, f"{name}.s": 0.0})
    names = [tracer.names[i] for i in tracer.name_ids]
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    for i, name in enumerate(names):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[i]
        out[f"{name}.s"] += tracer.ends[i] - tracer.starts[i]
        parent = tracer.parents[i]
        if name == "geometry.cap_membership" and parent != NO_PARENT:
            if names[parent] == "diagnostics.sample_cap":
                out["diagnostics.sample_cap.tested"] += 1
    out.update(tracer.counters)
    out["tracing.spans"] = len(names)
    return out
