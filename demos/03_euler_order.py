"""First-order convergence of the explicit Euler trajectories.

The horizontal drift fixture has the closed-form solution
x(t) = (1 - e^{-t}, -1) from (0, -1) once the field is extended to the
plane.  Halving the step size should roughly halve the sup-error of the
piecewise-affine trajectory, and the interpolation defect shrinks the same
way.
"""

import math

import numpy as np

from mflow import euler_eval, get_instance, integrate_field

named = get_instance("lens-drift")
F = named.extended_field
ref = named.references[0][1]
x0 = np.array([0.0, -1.0])
tgrid = np.linspace(0.0, 1.0, 2001)


def defect(nodes, lam, t):
    """Slope of the trajectory's segment at time t minus the field there."""
    k = math.floor(t / lam)
    return (nodes[k + 1] - nodes[k]) / lam - F(euler_eval(nodes, lam, t))


print("lambda   sup_error    ratio    sup_defect")
prev = None
for lam in (0.2, 0.1, 0.05, 0.025):
    nodes = integrate_field(F, x0, lam, 1.0).points
    sup_err = max(
        np.linalg.norm(euler_eval(nodes, lam, t) - ref(t)) for t in tgrid
    )
    interior = [t for t in tgrid if 0 < t < 1 and abs(t / lam - round(t / lam)) > 1e-9]
    sup_defect = max(np.linalg.norm(defect(nodes, lam, t)) for t in interior)
    ratio = "" if prev is None else f"{sup_err / prev:.3f}"
    print(f"{lam:6.3f}   {sup_err:.3e}   {ratio:>5}    {sup_defect:.3e}")
    prev = sup_err
