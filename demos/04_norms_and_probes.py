"""
Norm forms, value counting, and non-vanishing probes
====================================================

The dual-basis coordinates of a lattice point give an algebraic number
mu_1 whose field norm is a homogeneous integer form over a fixed
denominator.  Counting its values explains how sparse Y(L)-indexed data
can be; a vanishing probe checks whether phihat dies along dilation
orbits.
"""

import numpy as np

import pvrefine as pv
from pvrefine import refinement as rf
from pvrefine import zero_density as zd

golden = pv.make_field((-1, -1))

# the golden-mean norm form: N(mu_1) = (n1^2 + n1 n2 - n2^2)/5
nf = zd.norm_form(golden)
terms = " + ".join("%d*n1^%d*n2^%d" % (c, e1, e2) for (e1, e2), c in nf.numerator_form)
print("golden norm form: (%s) / %d" % (terms, nf.denominator))
print("  N at (1,0) = %s,  (2,1) = %s,  (3,-1) = %s" % (
    nf.evaluate((1, 0)), nf.evaluate((2, 1)), nf.evaluate((3, -1))))

# distinct |values| up to L grow polynomially; the fitted exponent for a
# binary quadratic form sits near 1 (values fill a positive proportion
# up to log factors)
for L in (10**3, 10**4, 10**5):
    cnt, expn = zd.count_norm_values(golden, L, 450)
    print("  L=%6d  distinct values %5d  fitted exponent %.3f" % (L, cnt, expn))

# for a cubic field the same count is visibly sparser (exponent ~ 2/3 on
# the two-variable restriction)
cubic = pv.make_field((-1, -1, 0))  # X^3 - X - 1, the plastic number
cnt, expn = zd.count_norm_values(cubic, 10**5, 134)
print("plastic cubic: %d distinct values up to 1e5, exponent %.3f" % (cnt, expn))

# near-zero scan: the boxcar transform vanishes exactly at the nonzero
# integers, and the refined minima find them to 1e-10; f takes the whole grid
# as one array, then each refinement round as one more
bx = rf.builtin_mask("boxcar")
z = zd.scan_near_zeros(lambda ys: rf.phihat_grid(bx, ys, 1e-12)[0], 8.0, 0.01, 1e-3)
print("\nboxcar |phihat| near-zeros on [0,8]: %s" % ", ".join("%.6f" % p for p in z.positions()))

# the dyadic mask has no near-zeros at all on [0,128]
dy = rf.builtin_mask("dyadic")
z2 = zd.scan_near_zeros(lambda ys: rf.eval_symbol_grid(dy, ys)[0], 128.0, 0.05, 1e-3)
print("dyadic |ahat| near-zeros on [0,128]: %d found" % len(z2.points))

# vanishing probe along orbits lam * alpha^J: for the golden-mean
# Bernoulli convolution the tail level stays bounded away from zero
bern = rf.builtin_mask("bernoulli", golden)
lams = [pv.fe_rational(golden, q) for q in (1, 2)]
for rec in zd.vanishing_probe(bern, lams, 40):
    print("bernoulli probe lambda=%g: %s (tail %.3e, slope %.1e)" % (
        rec.lam_value, rec.verdict, rec.tail_mean, rec.slope))

# the boxcar, by contrast, is annihilated along its own orbit
rec = zd.vanishing_probe(bx, [pv.fe_rational(bx.field, 1)], 12)[0]
print("boxcar probe lambda=1: %s (tail %.1e)" % (rec.verdict, rec.tail_mean))
