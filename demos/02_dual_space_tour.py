"""
The dual space of a finite MV-algebra
=====================================

The prime lattice ideals of the reduct form a poset X that remembers much
more than the lattice: an order-reversing involution dual to negation, a
partial addition dual to the ideal sum, and the two distinguished subsets
Y (prime MV points) and Z (maximal MV points).
"""

from mvspectra import build_dual_space, lukasiewicz_chain, product

alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
space = build_dual_space(alg)

# Each point is a boolean row of space.member: the elements of its ideal.
# Y and Z are boolean rows over the points, space.in_y and space.in_z.
print("points:", len(space.member))
for x in range(len(space.member)):
    tags = []
    if space.in_y[x]:
        tags.append("Y")
    if space.in_z[x]:
        tags.append("Z")
    print(f"  x{x}: generator {space.point_label(x)}", " ".join(tags))

# The involution pairs each point with the complement of its filter under
# negation; it flips each chain of the poset end for end.
print("involution:", {f"x{x}": f"x{int(v)}" for x, v in enumerate(space.involution)})

# Addition is partial: x + y exists exactly when y lies below the involute
# of x.  The table stores -1 for undefined.
defined = int((space.plus >= 0).sum())
print(f"defined sums: {defined} of {space.plus.size}")

# Where defined, the sum is again a point: the ideal sum of the two ideals.
x, y = 1, 0
print(f"x1 + x0 = x{int(space.plus[x, y])}")

# DOT output marks Y with double circles and Z filled, ready for graphviz.
print()
print(space.to_dot())
