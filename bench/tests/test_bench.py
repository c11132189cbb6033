"""Tests of the benchmark's own code: span arithmetic, seeded inputs, tracer hygiene.

    python -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import mflow  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    NO_PARENT,
    Tracer,
    installed_wrappers,
    layer_metrics,
    self_times,
)


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children [1, 4] and [5, 9], plus [8, 11], which overlaps
    # its sibling and runs past the root; [1, 4] has one child [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 11.0]
    parents = [NO_PARENT, 0, 1, 0, 0]
    assert self_times(starts, ends, parents) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_layer_metrics_sums_per_name():
    tracer = Tracer()
    for name in ("a", "b"):
        tracer._name_id(name)
    # a [0, 4] -> b [1, 2], b [2.5, 3]; then a second root a [5, 6]
    for nid, start, end, parent in [(0, 0, 4, NO_PARENT), (1, 1, 2, 0), (1, 2.5, 3, 0),
                                    (0, 5, 6, NO_PARENT)]:
        tracer.name_ids.append(nid)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
    out = layer_metrics(tracer)
    assert out["a.calls"] == 2 and out["b.calls"] == 2
    assert out["a.self_s"] == pytest.approx(2.5 + 1.0)
    assert out["a.s"] == pytest.approx(5.0)
    assert out["b.self_s"] == pytest.approx(1.5)
    assert out["tracing.spans"] == 4
    assert all(out[key] == 0 for key in spans.COUNTERS)


def test_same_seed_gives_identical_inputs():
    dims = {tag: mflow.get_instance(tag).instance.dim for tag in workloads.BUILTINS}
    first, again, other = (workloads.builtin_shifts(s, dims) for s in (3, 3, 4))
    for tag in workloads.BUILTINS:
        assert first[tag].tobytes() == again[tag].tobytes()
        assert first[tag].tobytes() != other[tag].tobytes()

    for (a, b) in zip(workloads.wide_data(3), workloads.wide_data(3)):
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    assert workloads.wide_data(3)[0][0].tobytes() != workloads.wide_data(4)[0][0].tobytes()

    named = mflow.get_instance(workloads.CLI_BASE)
    docs = [json.dumps(workloads.cli_documents(s, named)) for s in (3, 3, 4)]
    assert docs[0] == docs[1] != docs[2]


def _bindings():
    """Identity of every attribute of the mflow modules and their classes."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "mflow"]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {
        (id(owner), key): id(value) for owner in owners for key, value in vars(owner).items()
    }


def test_traced_run_removes_every_wrapper_and_keeps_outputs(tmp_path):
    inst = mflow.get_instance("quadratic3x2").instance
    plain = mflow.solve(inst, max_iter=200, tol_residual=1e-300, tol_step=1e-300)
    before = _bindings()

    tracer = Tracer()
    with tracer.installed():
        assert "space.as_vector" in str(installed_wrappers())
        traced = mflow.solve(inst, max_iter=200, tol_residual=1e-300, tol_step=1e-300)
        code = mflow.cli.main(["check", "--instance", "lasso3x2", "--samples", "16",
                               "--out", str(tmp_path)])

    assert installed_wrappers() == []
    assert _bindings() == before
    assert code == 0
    assert traced.points.tobytes() == plain.points.tobytes()

    out = layer_metrics(tracer)
    assert out["dynamics.solve.calls"] == 1 and out["cli.main.calls"] == 1
    assert out["splitting.kt_operator.calls"] > 0 and out["operators.resolvent.calls"] > 0
    cases = sum(out[f"geometry.case_{c}"] for c in ("i", "ii", "iii"))
    assert cases == out["geometry.haugazeau_projection.calls"] > 200
    assert out["diagnostics.sample_cap.accepted"] == 16
    assert out["diagnostics.sample_cap.tested"] >= 16

    calls_after = len(tracer.starts)
    mflow.solve(inst, max_iter=5)
    assert len(tracer.starts) == calls_after


def test_projection_wrapper_honours_return_case():
    tracer = Tracer()
    with tracer.installed():
        point, case = mflow.haugazeau_projection([0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                                 return_case=True)
        alone = mflow.haugazeau_projection([0.0, 0.0], [1.0, 0.0], [1.0, 1.0])
    assert case in ("i", "ii", "iii")
    assert np.array_equal(point, alone)
    assert tracer.counters[f"geometry.case_{case}"] == 2
