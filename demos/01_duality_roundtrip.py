"""
Birkhoff duality on a lattice reduct
====================================

Every finite MV-algebra carries a bounded distributive lattice under its
definable join and meet.  That lattice is determined by its poset of prime
ideals, and the poset is determined by the lattice; this script walks the
round trip once by hand.
"""

from mvspectra import (
    duality_roundtrip,
    enumerate_prime_ideals,
    lukasiewicz_chain,
    product,
    stone_map,
)

# The 12-element product of the 3-chain and the 4-chain.
alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
lat = alg.lattice_reduct()
print("carrier:", lat.n, "elements")

# The dual poset: one point per prime lattice ideal, each a boolean row
# saying which elements the ideal holds.  For a product of two chains this
# is two disjoint chains, one per factor.
member = enumerate_prime_ideals(lat)
print("prime ideals:", len(member))
for row in member:
    print("  ", sorted(lat.labels[i] for i in row.nonzero()[0]))

# The Stone map sends an element to the set of points whose ideal omits it,
# a boolean row over the points.  It is injective, and its image is exactly
# the downsets of the dual poset.
top_image = stone_map(lat, lat.n - 1)
print("top maps to all", int(top_image.sum()), "points")

# duality_roundtrip re-builds the lattice from the dual poset and checks
# the canonical isomorphism both ways; it raises if anything is off.
witness = duality_roundtrip(lat)
print("round trip ok:", witness is not None)
