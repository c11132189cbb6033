"""The monotone operator catalog: resolvents, their companion maps, and a contract check.

Every operator is exposed through its resolvent alone.  The companion map
(x - J(x)) / gamma is computed inline from it, and pairs with J(x) as a
point of the operator's graph; every resolvent is firmly nonexpansive.
"""

import numpy as np

from mflow import (
    BallNormalCone,
    BoxNormalCone,
    L1,
    LinearMonotone,
    Quadratic,
    Zero,
)

ops = {
    "quadratic (shift to b)": Quadratic([1.0, 1.0]),
    "l1 subdifferential": L1(),
    "box normal cone": BoxNormalCone([0.0, 0.0], [1.0, 1.0]),
    "ball normal cone": BallNormalCone([0.0, 0.0], 1.0),
    "zero operator": Zero(),
    "linear monotone": LinearMonotone([[2.0, 0.5], [0.1, 1.0]]),
}

x = np.array([2.0, -3.0])
gamma = 0.5
print(f"resolvents at x = {x}, gamma = {gamma}")
for label, op in ops.items():
    j = op.resolvent(gamma, x)
    y = (x - j) / gamma
    print(f"{label:<24} J(x) = {np.round(j, 4)}   (x - J(x)) / gamma = {np.round(y, 4)}")

rng = np.random.default_rng(0)
print("\nfirm nonexpansiveness spot check (500 random pairs per operator):")
for label, op in ops.items():
    worst = -np.inf
    for _ in range(500):
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        ja, jb = op.resolvent(gamma, a), op.resolvent(gamma, b)
        slack = (
            np.sum((a - b) ** 2)
            - np.sum((ja - jb) ** 2)
            - np.sum(((a - ja) - (b - jb)) ** 2)
        )
        worst = max(worst, -slack)
    print(f"{label:<24} worst violation {worst:+.2e}")
