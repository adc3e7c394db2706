"""
Fourier symbols and infinite products for refinable functions
=============================================================

A mask (alpha, a, tau) defines phi through phi(x) = sum a(k) phi(alpha x -
tau(k)); on the Fourier side phihat(y) is an infinite product of symbol
values ahat(y alpha^-j).  This script evaluates the worked examples and
follows one dilation orbit to its nonzero limit.
"""

from fractions import Fraction

import numpy as np

import pvrefine as pv
from pvrefine import refinement as rf

# Example: the boxcar chi_[0,1] with alpha = 2, a = (1,1), tau = (0,1).
# Its symbol and transform have closed forms, so errors are measurable.
bx = rf.builtin_mask("boxcar")
print("boxcar  ahat(0.5) = %.3e (exact zero)" % abs(rf.eval_symbol(bx, 0.5).value))
got = rf.eval_phihat(bx, 0.5, 1e-12).value
print("boxcar  phihat(0.5) = %.6f%+.6fi (closed form -2i/pi = %.6f)" % (
    got.real, got.imag, -2 / np.pi))

# Example: the dyadic mask a(k) = tau(k) = 2^(1-k), an infinite mask given
# by a generator with exponential decay; truncation error is tracked.
dy = rf.builtin_mask("dyadic")
sv = rf.eval_symbol(dy, 0.74)
print("\ndyadic  |ahat(0.74)| = %.6f  (truncation error %.1e)" % (abs(sv.value), sv.truncation_error))

# the modulus of ahat never reaches zero on [0, 128]; scan the grid
ys = 0.01 * np.arange(12801)
vals, _ = rf.eval_symbol_grid(dy, ys, 1e-14)
i = int(np.argmin(np.abs(vals)))
print("dyadic  min |ahat| on [0,128] = %.6f at y = %.2f" % (abs(vals[i]), ys[i]))

# along the orbit y = 2^J the products phihat(2^J) converge to a nonzero
# constant: dilation does not flatten this transform
orbit = rf.phihat_orbit(dy, 1.0, range(0, 41))
print("\ndyadic  phihat(2^J) along the orbit:")
for J, sv in orbit[::8]:
    print("  J=%2d   %.15f%+.15fi" % (J, sv.value.real, sv.value.imag))
tail = orbit[-1][1].value
print("  limit modulus %.9f" % abs(tail))

# lambda is exact: the golden Bernoulli orbit of lambda = 1/3 (not a float) to
# J = 400, where lambda alpha^J is near 2^276; the phases past 2^20 come from
# the exact traces of lambda alpha^J and its conjugate residue
golden = pv.make_field((-1, -1))
(_, sv), = rf.phihat_orbit(rf.builtin_mask("bernoulli", golden), Fraction(1, 3), [400])
print("\ngolden Bernoulli  |phihat(alpha^400 / 3)| = %.6e" % abs(sv.value))

# Example: the golden-mean vector mask; its 2x2 symbol is never singular,
# which a smallest-singular-value scan confirms
gv = rf.builtin_mask("golden_vector")
smin = min(
    np.linalg.svd(rf.eval_symbol(gv, float(y)).value, compute_uv=False)[-1]
    for y in np.linspace(0, 10, 2001)
)
print("\ngolden vector  min singular value of ahat on [0,10]: %.6f" % smin)

# two-scale consistency: phihat(alpha y) = ahat(y) phihat(y), all masks
rng = np.random.default_rng(0)
worst = 0.0
for mask in (bx, dy, gv):
    for y in rng.uniform(-10, 10, size=25):
        lhs = np.atleast_1d(rf.eval_phihat(mask, mask.alpha * y, 1e-12).value)
        a = rf.eval_symbol(mask, y).value
        rhs = np.atleast_2d(a) @ np.atleast_1d(rf.eval_phihat(mask, y, 1e-12).value)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
print("\ntwo-scale identity worst residual over 75 random y: %.2e" % worst)
