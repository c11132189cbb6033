"""Tour of the two-cut projection: the four cases of the closed form.

The projection of an anchor w onto H(w, b) & H(b, c) has a closed form
driven by the Gram data of w - b and b - c.  This script walks through the
case analysis on small planar examples.
"""

import numpy as np

from mflow import EmptyIntersectionError, haugazeau_projection

examples = [
    ("collinear cuts, second dominates", [0, 0], [1, 0], [2, 0]),
    ("orthogonal cuts, corner solution", [0, 0], [1, 0], [1, 1]),
    ("nearly collinear, one active cut", [0, 0], [1, 0], [2, 0.1]),
    ("degenerate first cut (b = w)", [0, 0], [0, 0], [1, 1]),
]

for label, w, b, c in examples:
    w, b, c = (np.array(v, dtype=float) for v in (w, b, c))
    point, case = haugazeau_projection(w, b, c, return_case=True)
    # H(z1, z2) = {x : <x, z1 - z2> <= <z2, z1 - z2>}; a feasible point has both values <= 0
    cut1 = point @ (w - b) - b @ (w - b)
    cut2 = point @ (b - c) - c @ (b - c)
    print(f"{label}: case ({case}) -> {np.round(point, 6)}")
    print(f"   feasibility: cut1 {cut1:+.2e}, cut2 {cut2:+.2e}")

print()
print("opposing collinear cuts have empty intersection:")
try:
    haugazeau_projection([0, 0], [1, 0], [0.5, 0])
except EmptyIntersectionError as exc:
    print(f"   raised as expected: {exc}")
