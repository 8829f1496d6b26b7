"""
Recovering the maximal spectrum from the order alone
====================================================

The zig-zag relation W identifies points that share a common lower bound
through intermediate points; its classes need no MV data at all, yet they
land in bijection with the maximal MV ideals.  Two algebras with
isomorphic lattice reducts therefore have homeomorphic maximal spectra.
The reduct of a finite MV-algebra is a product of chains, so the
comparison reads off each reduct its chain factors, the sorted lengths of
the chains that make up its join-irreducibles, and compares those.
"""

import numpy as np

from mvspectra import (
    ChangAlgebra,
    build_dual_space,
    kaplansky_check,
    lukasiewicz_chain,
    product,
    w_quotient,
)
from mvspectra.spectrum import lattice_only_component_count

l2, l3 = lukasiewicz_chain(2), lukasiewicz_chain(3)
alg = product(l2, l3)
space = build_dual_space(alg)

# Each W class, a boolean row over the points, contains exactly one maximal
# point; verify's zigzag-quotient-lawful certifies the homeomorphism:
# classes are order-isolated and Z is an antichain.
quot = w_quotient(space)
print("W classes:", [np.flatnonzero(c).tolist() for c in quot.classes])
print("matched maximal points:", [f"x{z}" for z in quot.z_of_class])

# Counting components of the bare order gives the same number with no
# algebra in sight.
print("lattice-only count:", lattice_only_component_count(space.lattice))

# The comparison verdicts: products in either factor order have the same
# chain factors, [2, 3], while the chains L2 and L3 have [2] and [3]; the
# symbolic chain is not comparable to a finite table.
print(kaplansky_check(alg, product(l3, l2)))
print(kaplansky_check(l2, l3))
print(kaplansky_check(ChangAlgebra(), lukasiewicz_chain(5)))
