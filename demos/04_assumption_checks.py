"""Sampled verification of the flow's standing assumptions on two planar fixtures.

The horizontal drift on the lens-shaped cap violates segment invariance
near the south pole (no trajectory from there stays in the region), while
the contraction on the notched box satisfies everything.  The same checks
run on a projection-built field, where they hold by construction.
"""

import numpy as np

from mflow import (
    build_field,
    check_cap_invariance,
    check_outward_drift,
    check_unique_zero,
    get_instance,
    sample_cap,
)


def run_checks(label, field, cap, n_samples=512):
    samples = sample_cap(cap, n_samples=n_samples, seed=0)
    # the field runs once, on z stacked on the samples; each check scores those values
    values = field(np.vstack([cap.z, samples]))
    reports = [
        check_unique_zero(values, cap, samples),
        check_cap_invariance(values, cap, samples),
        check_outward_drift(values, cap, samples),
    ]
    print(f"== {label} ==")
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name:<16} {status}  worst violation {rep.worst_violation:+.3e}")
        if not rep.passed:
            print(f"{'':<16} witness {np.round(rep.witness, 4)}")
    print()
    return reports


lens = get_instance("lens-drift")
reports = run_checks("lens-drift", lens.field, lens.cap)
south = np.array([0.0, -1.0])
bad = [v for v in reports[1].violations if np.linalg.norm(v["point"] - south) < 0.1]
print(f"invariance violations within 0.1 of the south pole: {len(bad)}")
print()

box = get_instance("box-flow")
run_checks("box-flow", box.field, box.cap)

named = get_instance("quadratic3x2")
run_checks(
    "quadratic3x2 (projection-built field)",
    build_field(named.instance, cap=named.cap),
    named.cap,
    n_samples=256,
)
