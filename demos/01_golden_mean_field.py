"""
Certifying a Pisot dilation and computing in its number field
=============================================================

The golden mean alpha = (1+sqrt 5)/2 is the root of X^2 - X - 1 with the
smallest degree among Pisot numbers.  This script certifies it, looks at
its conjugate, and walks the exact trace recurrence that makes |alpha^j|
crowd the integers.
"""

from fractions import Fraction

import pvrefine as pv

# make_field takes the low-order coefficients of the monic polynomial:
# X^2 - X - 1  <->  (-1, -1)
golden = pv.make_field((-1, -1))
print("polynomial      X^2 - X - 1")
print("pv_status       %s" % golden.pv_status)
print("alpha           %.15f" % golden.alpha)
print("conjugate       %.15f" % min(r.real for r in golden.roots))

# the conjugate beta = -1/alpha has modulus < 1; the certification shows it
# with a root disk that lies inside the unit circle (root radii are certified
# error bounds)
beta = min(golden.roots, key=abs)
print("|beta|          %.15f" % abs(beta))

# traces of alpha^j satisfy the integer recurrence L_j = L_{j-1} + L_{j-2}:
# the Lucas numbers.  trace_power_sequence computes them exactly.
seq = pv.trace_power_sequence(golden, pv.fe_rational(golden, 1), 12)
print("\ntraces of alpha^j (Lucas numbers):")
print("  " + ", ".join(str(v) for v in seq))

# alpha^j = L_j - beta^j, so the distance from alpha^j to the nearest
# integer decays like |beta|^j: the defining Pisot property
print("\n||alpha^j|| (distance to nearest integer):")
a = 1.0
for j in range(0, 31, 5):
    x = golden.alpha**j
    print("  j=%2d   %.3e   (|beta|^j = %.3e)" % (j, abs(x - round(x)), abs(beta) ** j))

# membership in the Pisot set Lambda_alpha is an exact integer-trace test:
# lambda = 1 and lambda = alpha qualify, lambda = 1/2 does not
one = pv.fe_rational(golden, 1)
half = pv.fe_rational(golden, Fraction(1, 2))
al = pv.fe(golden, (0, 1))
for name, lam in (("1", one), ("alpha", al), ("1/2", half)):
    print("pisot_set_test(%5s) = %s" % (name, pv.pisot_set_test(golden, lam)))

# a non-example: X^2 - 2 has conjugates +-sqrt2, both of modulus > 1
sqrt2 = pv.make_field((-2, 0))
print("\nX^2 - 2 pv_status: %s (conjugate modulus %.4f)" % (sqrt2.pv_status, abs(sqrt2.roots[1])))
