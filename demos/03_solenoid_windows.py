"""
Solenoid windows: homoclinic decay, the factored symbol, lattice density
=========================================================================

theta(y) records the fractional parts frac(y alpha^j) over a window of
exponents j.  For Pisot-set points these decay in both directions, the
symbol factors as ahat = A o theta, and the associated point set Y(L) has
a computable density gamma.
"""

import numpy as np

import pvrefine as pv
from pvrefine import refinement as rf
from pvrefine import solenoid as so

golden = pv.make_field((-1, -1))

# a Pisot-set point: the fractional parts die off exponentially both ways
g = so.theta(golden, 1.0, -12, 12)
print("theta(1) over j in [-12, 12] (distance to nearest integer):")
for j in range(-12, 13, 3):
    v = g.value(j)
    print("  j=%+3d   %.3e" % (j, min(v, 1.0 - v)))

# a generic real does not: deep positive exponents stay noisy
h = so.theta(golden, float(np.pi), -2, 25)
deep = max(min(h.value(j), 1 - h.value(j)) for j in range(20, 26))
print("theta(pi): max distance to Z over j in [20,25] = %.3f (no decay)" % deep)

# the symbol evaluated through the window equals the direct evaluation
dy = rf.builtin_mask("dyadic")
y = 7.125
lifted = so.eval_A(dy, so.theta(dy.field, y, -40, 0))
direct = rf.eval_symbol(dy, y, 1e-14).value
print("\nahat(%.3f) via window: residual |A(theta) - ahat| = %.2e" % (y, abs(lifted - direct)))

# membership of the cylinder neighborhood U is an exact lattice question;
# Lucas number L_30 lands inside a very tight neighborhood of 0
u = so.UNeighborhood(0, (1e-4,))
inside, s = so.in_U(golden, 1860498.0, u)
print("\nin_U(L_30 = 1860498, eps=1e-4): %s, conjugate coordinate %.3e" % (inside, s[0]))

# Y(L) = the xi-image of the lattice points in the cylinder W(L): a point
# set of density gamma = |det V| prod(2 eps) along the line
L = 10**4
cyl = so.LatticeCylinder(L, 0, (0.1,))
gamma = so.gamma_density(golden, cyl)
ys = np.asarray(so.enumerate_Y(golden, cyl))
print("\nY(%d): %d points, density %.6f, gamma %.6f" % (L, len(ys), len(ys) / (2 * L), gamma))
for t in (10**2, 10**3, 10**4):
    cnt = int(np.searchsorted(ys, t, "right") - np.searchsorted(ys, -t, "left"))
    print("  L=%6d  count %5d  rel err %.2e" % (t, cnt, abs(cnt / (2 * t) - gamma) / gamma))

# consecutive gaps take finitely many values (a quasilattice signature)
gaps = np.round(np.diff(ys), 9)
uniq = sorted(set(gaps.tolist()))[:6]
print("\ndistinct consecutive gaps (first few): %s" % ", ".join("%.4f" % u for u in uniq))

# fractional parts y alpha^0 for y drawn uniformly equidistribute; the
# star discrepancy drops with the sample count
rng = np.random.default_rng(1)
for N in (10**3, 10**4):
    d = so.equidistribution_check(golden, rng.uniform(0, 1e3, N), 1)
    print("discrepancy of frac(y), N=%5d: %.4f" % (N, d))
