"""
The retraction onto the MV points
=================================

Every point of the dual space sits over a unique prime MV point: k(x) is
the largest MV ideal J whose sum with the point's ideal stays inside it.
The fibers of k slice X into chains, and k supplies interpolants between
comparable points.
"""

import numpy as np

from mvspectra import build_dual_space, interpolate, lukasiewicz_chain, product
from mvspectra.spectrum import k_via_filter_difference, k_via_ideal_scan

space = build_dual_space(product(lukasiewicz_chain(3), lukasiewicz_chain(3)))

# Three independent routes to the same map: the quantifier formula used to
# build the table, a brute-force scan over all MV ideals, and a filter
# difference computed in the ideal arithmetic.
for x in range(len(space.member)):
    a = space.k_map(x)
    assert a == k_via_ideal_scan(space, x) == k_via_filter_difference(space, x)
print("k:", {f"x{x}": f"x{int(space.k[x])}" for x in range(len(space.member))})

# k fixes exactly the MV points, and each fiber is the chain of points
# retracting onto that MV point, a boolean row over the points.
for y in space.y_points:
    print(f"fiber over x{y}:", [f"x{v}" for v in np.flatnonzero(space.fiber(y))])

# Between comparable points x <= x', the element x + k(x') interpolates:
# it stays between them and its own retraction dominates both retractions.
leq = space.order.leq
x, xp = next(
    (a, b)
    for a in range(len(space.member))
    for b in range(len(space.member))
    if a != b and leq[a, b]
)
w = interpolate(space, x, xp)
print(f"x{x} <= x{w} <= x{xp}, with k(x{w}) above both retractions")
