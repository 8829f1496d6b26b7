"""
Sections, patching, and remainder solving
=========================================

Over the MV points the algebra decomposes into stalks: the stalk over a
point is the lattice quotient by the congruence of its fiber under k, which
is the quotient by the point's ideal.  The algebra is recovered as the
global sections of the resulting bundle.  Patching local data back together is a Chinese
remainder problem, and on this base it is even solvable by a term.
"""

import numpy as np

from mvspectra import (
    build_dual_space,
    build_etale,
    check_property_p,
    crt_solve,
    crt_term,
    eta_check,
    lukasiewicz_chain,
    product,
)
from mvspectra.sheaf import BASE_MAXIMAL, BASE_PRIME

alg = product(lukasiewicz_chain(2), lukasiewicz_chain(3))
space = build_dual_space(alg)

# The prime-base bundle has one stalk per MV point; here they are the two
# chain factors themselves.
inst = build_etale(space, BASE_PRIME)
print("stalk sizes:", [st.size for st in inst.stalks])

# eta sends an element to its tuple of stalk classes; the report certifies
# it is injective, onto the locally representable sections, and a
# homomorphism.  The same holds over the maximal base.
for base in (BASE_PRIME, BASE_MAXIMAL):
    rep = eta_check(build_etale(space, base))
    print(base, "isomorphism:", rep["isomorphism"], "sections:", rep["sections"])

# Patching: describe (2,3) on each patch by a local stand-in, (2,0) on the
# first and (0,3) on the second; the patched set is the hat of (2,3).  The
# cover and the patches are boolean rows over the points: each cover set
# is one MV point, a row of the identity.
y1, y2 = space.y_points
cover = np.eye(len(space.member), dtype=bool)[[y1, y2]]
res = check_property_p(space, BASE_PRIME, cover, np.array([space.hat(8), space.hat(3)]))
print("patched element:", alg.labels[res.element])

# The same reconstruction as remainder solving: congruent to (2,0) mod the
# first kernel and to (0,3) mod the second.
# Each kernel is a boolean row over the twelve elements (i, j) = 4 i + j.
i, j = np.divmod(np.arange(alg.n), 4)
kernels = np.array([i == 0, j == 0])  # {0} x 4-chain, 3-chain x {0}
b = crt_solve(alg, kernels, [8, 3])
print("solved:", alg.labels[b])

# And term-definably: subtract each unit t times, then join.  For these
# targets no subtraction is needed at all.
t, b2 = crt_term(alg, [3, 8], [8, 3], space=space)
print(f"term solution with t = {t}:", alg.labels[b2])
