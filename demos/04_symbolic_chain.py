"""
The two-tier chain, symbolically
================================

The chain of finite elements 0, c, 2c, ... below co-finite elements
1-2c, 1-c, 1 is the smallest standard example whose spectrum has a prime
MV point that is not maximal.  Its carrier is infinite, so the package
works with a four-family taxonomy of ideals instead of tables, checking
any window of indices on demand.
"""

from mvspectra import ChangAlgebra, ChangSpace
from mvspectra.chang import cofin, fin

alg = ChangAlgebra()

# Arithmetic in the two tiers: finite parts add, co-finite parts absorb.
print("fin(2) + fin(3) =", alg.oplus(fin(2), fin(3)))
print("fin(3) + cofin(5) =", alg.oplus(fin(3), cofin(5)))
print("neg fin(4) =", alg.neg(fin(4)))

# Axioms cannot be scanned exhaustively; a bounded scan over all triples
# with indices up to N stands in, here N = 16.
print("bounded axiom scan:", alg.first_violation(16) is None)

# The dual space is a chain: the truncation ideals, then the radical, then
# the co-finite ideals.  Only the first truncation ideal and the radical
# are MV points, and only the radical is maximal: the doubleton spectrum.
space = ChangSpace()
window = space.points_bounded(3)
print("window:", [p.label() for p in window])
print("Y:", [p.label() for p in space.y_points])
print("Z:", [p.label() for p in space.z_points])

# k collapses the whole chain onto the doubleton: truncation and co-finite
# ideals all fall to the bottom, only the radical holds its place.
for p in window:
    print(f"k({p.label()}) = {space.k_map(p).label()}")
