"""Best-approximation iteration on the coupled quadratic test problems.

Each instance carries an independently computed solution (a dense linear
solve), so the run can be scored exactly.  Also shown: the two structural
invariants of the iteration, the nondecreasing distance to the anchor and
the nonnegative slack of the spanned-ball inequality.  Together they keep
every later iterate within ``sqrt(||w - z||^2 - ||x_n - w||^2)`` of the
solution, so a run's own records certify its tail.
"""

import numpy as np

from mflow import get_instance, solve

for tag in ("quadratic1d", "quadratic3x2"):
    named = get_instance(tag)
    traj = solve(named.instance, max_iter=10_000, tol_residual=1e-12, z=named.z)
    errs = np.linalg.norm(traj.points - named.z, axis=1)
    print(f"== {tag} ==")
    print(f"solution (oracle): {np.round(named.z, 6)}")
    print(f"termination: {traj.termination} after {traj.iterations} iterations")
    print(f"best error along the run: {errs.min():.3e} at iterate {errs.argmin()}")
    print(f"distance to anchor is monotone: {np.all(np.diff(traj.norm_to_w) >= -1e-10)}")
    print(f"worst spanned-ball slack: {traj.fejer_slack.min():+.3e}")
    print()
