"""Finite-window solenoid machinery for PV dilations.

The bi-infinite torus sequences behind the dilation dynamics are never
materialized.  Every statement is reduced to a finite window of coordinates
g(j) in [0,1) plus exact lattice arithmetic in the dilation field: the lifted
symbol A with ahat = A on theta fibers, membership in the cylinder
neighborhoods U(m, eps), the lattice section Y(L) enumerated through the
Vandermonde transform, its density gamma, and a star-discrepancy estimate for
window equidistribution.

Windows produced by theta(field, y, j_min, j_max) hold frac(y alpha^j).  A float
y is an exact dyadic rational, so the fractional parts come exactly from
algebraic_core.orbit_fractions (integer traces mod den plus the conjugate
residue), however large y alpha^j grows.

Lattice membership runs through the exact Lagrange dual basis e_0..e_{d-1}
(rows of V^{-1} are its conjugate embeddings): an integer vector n corresponds
to the field element mu = alpha^m sum_i n_i e_i, and [y, s_2..s_d] are the
conjugate embeddings of mu.  One enumerator, _lattice_points, serves both
in_U and enumerate_Y: Fincke-Pohst (Math. Comp. 44, 1985) on a basis reduced
exactly by LLL (Lenstra, Lenstra and Lovasz, Math. Ann. 261, 1982), whose
weights put the cylinder in the unit ball.  Its last level is cut by each
constraint itself, so the rows it yields are the points; only rows within the
float margin of a bound go through the float filter, and the filter's band rows
are re-decided exactly.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .algebraic_core import (
    FieldElement,
    NumberField,
    _check_fraction_bits,
    _int_det,
    _require_pv,
    discriminant,
    fe_add,
    fe_alpha,
    fe_embed,
    fe_mul,
    fe_pow,
    fe_rational,
    fe_scale,
    first_lagrange_row,
    orbit_fractions,
    precision_bits,
)
from .errors import (
    EmptyWindowError,
    PrecisionError,
    SizeError,
    WindowTooSmallError,
)
from .refinement import RefinementMask, _symbol_sum, check_orbit_points, mask_terms

__all__ = [
    "SolenoidWindow",
    "UNeighborhood",
    "LatticeCylinder",
    "theta",
    "shift",
    "eval_A",
    "in_U",
    "enumerate_Y",
    "gamma_density",
    "equidistribution_check",
]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SolenoidWindow:
    """Coordinates g(j) in [0,1) for j_min <= j <= j_max."""

    j_min: int
    j_max: int
    vals: tuple

    def __post_init__(self):
        if self.j_max < self.j_min:
            raise EmptyWindowError("window [%d, %d] is empty" % (self.j_min, self.j_max))
        if len(self.vals) != self.j_max - self.j_min + 1:
            raise ValueError("vals length does not match window extent")
        if any(not (0.0 <= v < 1.0) for v in self.vals):
            raise ValueError("window values must lie in [0, 1)")

    def value(self, j: int) -> float:
        if not self.j_min <= j <= self.j_max:
            raise WindowTooSmallError("coordinate %d outside window [%d, %d]" % (j, self.j_min, self.j_max))
        return self.vals[j - self.j_min]

    def items(self):
        return [(self.j_min + i, v) for i, v in enumerate(self.vals)]


@dataclass(frozen=True)
class UNeighborhood:
    """Cylinder neighborhood data: shift exponent m and radii (eps_2..eps_d)."""

    m: int
    eps: tuple

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        if not self.eps or any(e <= 0 for e in self.eps):
            raise ValueError("eps entries must be positive")


@dataclass(frozen=True)
class LatticeCylinder:
    """W(L) parameters: half-length L, shift exponent m, radii."""

    L: float
    m: int
    eps: tuple

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        if self.L <= 0:
            raise ValueError("L must be positive")
        if not self.eps or any(e <= 0 for e in self.eps):
            raise ValueError("eps entries must be positive")


# ---------------------------------------------------------------------------
# shared helpers


def _check_eps(field: NumberField, eps) -> tuple:
    """Validate (eps_2..eps_d): length d-1, positive, equal on conjugate pairs."""
    eps = tuple(float(e) for e in eps)
    d = field.degree
    if len(eps) != d - 1:
        raise ValueError("eps needs %d entries for degree %d" % (d - 1, d))
    if any(e <= 0 for e in eps):
        raise ValueError("eps entries must be positive")
    for k, pair in _conjugate_slots(field):
        if pair and (k + 1 >= d or eps[k - 1] != eps[k]):
            raise ValueError("eps must match on the conjugate pair at positions %d,%d" % (k, k + 1))
    return eps


def _conjugate_slots(field: NumberField):
    """(k, pair) for each real conjugate k >= 1 and each complex pair (k, k+1)."""
    k = 1
    while k < field.degree:
        pair = field.roots[k].imag != 0.0
        yield k, pair
        k += 2 if pair else 1


def _mu_from_integer_vector(field: NumberField, n, m: int) -> FieldElement:
    """Exact mu = alpha^m sum_i n_i e_i for integer coordinates n."""
    row = first_lagrange_row(field)
    acc = fe_rational(field, 0)
    for ni, ei in zip(n, row):
        if ni:
            acc = fe_add(acc, fe_scale(ei, ni))
    if m:
        acc = fe_mul(field, fe_pow(field, fe_alpha(field), m), acc)
    return acc


def _embeddings(field: NumberField, elem: FieldElement, prec=None):
    """All conjugate embeddings sigma_k(elem) as mpmath complex numbers."""
    if prec is None:
        prec = precision_bits()
    return [fe_embed(field, elem, k, prec) for k in range(field.degree)]


# ---------------------------------------------------------------------------
# theta and shifts


def theta(field: NumberField, y: float, j_min: int, j_max: int) -> SolenoidWindow:
    """Window of fractional parts frac(y alpha^j), j_min <= j <= j_max, from
    orbit_fractions on the exact rational y; a window of over MAX_ORBIT_POINTS
    coordinates raises SizeError, a non-finite y PrecisionError."""
    if j_min > j_max:
        raise EmptyWindowError("window [%d, %d] is empty" % (j_min, j_max))
    check_orbit_points("theta", j_min, j_max)
    if not math.isfinite(y):  # the budget's own refusal: no fractional bit of y survives
        _check_fraction_bits("|y alpha^j| at j_max=%d" % j_max, y, 0.0, precision_bits(),
                             "shrink the window or raise --precision-bits")
    vals = orbit_fractions(field, fe_rational(field, Fraction(y)), j_min, j_max)
    return SolenoidWindow(j_min, j_max, tuple(v if v < 1.0 else 0.0 for v in vals))  # 1.0: the torus seam


def shift(g: SolenoidWindow, k: int) -> SolenoidWindow:
    """Apply sigma^k, (sigma g)(j) = g(j+1), keeping the original index frame.

    The data slides by k, so |k| coordinates fall off one end and the window
    shrinks; shifting past the window extent raises EmptyWindowError.
    """
    if k == 0:
        return g
    if k > 0:
        new_min, new_max = g.j_min, g.j_max - k
    else:
        new_min, new_max = g.j_min - k, g.j_max
    if new_max < new_min:
        raise EmptyWindowError("shift by %d empties window [%d, %d]" % (k, g.j_min, g.j_max))
    vals = tuple(g.value(j + k) for j in range(new_min, new_max + 1))
    return SolenoidWindow(new_min, new_max, vals)


# ---------------------------------------------------------------------------
# lifted symbol


def eval_A(mask: RefinementMask, g: SolenoidWindow):
    """A(g) = |alpha|^{-1} sum_k a(k) exp(-2 pi i sum_j tau_k(j) g(j)).

    The window must cover the translate supports; infinite masks are truncated
    to the terms whose supports fit inside the window, so widening the window
    tightens the result (neglected tail below the mask envelope's remainder).
    """
    def inside(j):
        return g.j_min <= j <= g.j_max

    if mask.infinite:
        terms = list(itertools.takewhile(lambda at: all(map(inside, at[1].support)),
                                         map(mask.generator, itertools.count(1))))
        if not terms:
            raise WindowTooSmallError(
                "window [%d, %d] covers no translate support" % (g.j_min, g.j_max)
            )
    else:
        terms, _ = mask_terms(mask, 0.0)
        outside = [j for _, t in terms for j in t.support if not inside(j)]
        if outside:
            raise WindowTooSmallError(
                "translate support at %d outside window [%d, %d]" % (outside[0], g.j_min, g.j_max)
            )
    phases = np.array([[sum(c * g.value(j) for j, c in t.items)] for _, t in terms])
    value = _symbol_sum(np.array([a for a, _ in terms], dtype=complex), mask.alpha, phases)[0]
    return value.item() if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# cylinder membership and lattice enumeration

_MAX_ROWS = 10**7  # bounds the forecast |Y(L)| and the nodes of every enumeration level
_BLOCK = 2**14  # nodes expanded, or leaf rows filtered, at once at every level
_MAX_EXACT = 10**5  # bounds the band rows re-decided one by one in exact arithmetic
_INT64_SAFE = 2.0**62  # bound on every integer coordinate and partial sum of the enumeration
_UNIT = 2.0**-53  # unit roundoff of float64


def in_U(field: NumberField, y: float, u: UNeighborhood):
    """Membership of theta(y) in U(m, eps).

    True iff some s = (s_2..s_d) with |s_k| < eps_k makes V D^{-m} [y, s]^T
    integral, i.e. some lattice point mu = alpha^m sum n_i e_i has
    sigma_1(mu) in the open window (y - 1e-6, y + 1e-6) and every conjugate
    |sigma_k(mu)| < eps_k; the points come from _lattice_points, as for
    enumerate_Y.  Returns (flag, witness s or None), s taken from the exact
    embeddings of the hit with the smallest sigma_1 (equal sigma_1 in float:
    the lexicographically least row n).  From |y| = 2^34 (about 1.7e10) on,
    y +- 1e-6 rounds to y in float64 and the window is refused with SizeError.
    """
    _require_pv(field, "in_U")
    eps = _check_eps(field, u.eps)
    y = float(y)
    if not math.isfinite(y):
        raise ValueError("in_U needs a finite y, got %r" % y)
    if not y - 1e-6 < y < y + 1e-6:
        raise SizeError("in_U: |y| = %.3g is too large, y +- 1e-6 rounds to y in float64" % abs(y))
    rows, ys = _lattice_points(field, u.m, eps, y - 1e-6, y + 1e-6)
    if not len(rows):
        return False, None
    hits = np.flatnonzero(ys == ys.min())
    first = hits[np.lexsort(rows[hits].T[::-1])[0]]
    emb = _embeddings(field, _mu_from_integer_vector(field, rows[first].tolist(), u.m))
    s = (complex(x) for x in emb[1:])
    return True, tuple(sk if field.roots[k].imag != 0.0 else sk.real for k, sk in enumerate(s, 1))


def _column_sum(cols, w):
    """sum_i n_i w_i for every row, added in index order: no complex cast, no BLAS."""
    return functools.reduce(np.add, map(np.multiply, cols, w))


def _int64_refusal(bound: float, m: int) -> SizeError:
    return SizeError("lattice enumeration: coordinates up to %.3g pass int64 at m = %d" % (bound, m))


def _lll(cols):
    """Integer rows H, |det H| = 1, and the vectors b_j = sum_i H[j][i] cols[i],
    LLL-reduced with delta = 99/100: the integral algorithm of Cohen (A
    Course in Computational Algebraic Number Theory, Alg. 2.6.7), in which
    every division is exact, run in Python ints."""
    n = len(cols)
    b = [list(v) for v in cols]
    H = [[int(i == j) for j in range(n)] for i in range(n)]
    D = [1, sum(x * x for x in b[0])] + [0] * (n - 1)  # D[i + 1]: Gram determinant of b_0..b_i
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > D[l + 1]:
            q = (2 * lam[k][l] + D[l + 1]) // (2 * D[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            H[k] = [x - q * y for x, y in zip(H[k], H[l])]
            lam[k][l] -= q * D[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                g = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    g = (D[i + 1] * g - lam[k][i] * lam[j][i]) // D[i]
                if j < k:
                    lam[k][j] = g
                elif g:
                    D[k + 1] = g
                else:
                    raise ValueError("_lll needs independent vectors")
        reduce(k, k - 1)
        if 100 * D[k + 1] * D[k - 1] < 99 * D[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            b[k - 1], b[k], H[k - 1], H[k] = b[k], b[k - 1], H[k], H[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            g = lam[k][k - 1]
            B = (D[k - 1] * D[k + 1] + g * g) // D[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (D[k + 1] * lam[i][k - 1] - g * t) // D[k]
                lam[i][k - 1] = (B * t + g * lam[i][k]) // D[k + 1]
            D[k] = B
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return H, b


def _reduced_basis(field: NumberField, basis, spec, log2s: float, m: int):
    """Unimodular H and the weighted real rows (k, Re/Im, weight) of the
    LLL-reduced basis b'_j = sum_i H_ji basis_i, as columns.

    The basis is scaled to integers by 2^64 / det^(1/d) and reduced exactly, and
    the round is repeated on the exact reduced elements until it moves nothing:
    a basis skewed by alpha^m or by far-apart radii loses its next 100-odd bits
    each round, and the last one rounds an already reduced basis.  A round
    whose rounded vectors are dependent (a row under the unit) runs at a unit
    up to 2^448 finer; past that, or with a reduced vector under 2^40 units,
    the lattice is refused with SizeError."""
    d = len(basis)
    refusal = SizeError("lattice enumeration: the radii are too far apart to reduce the lattice exactly")
    H = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(64):
        # the embeddings cancel the coordinates' bits: carry them on top of 192
        prec = max(precision_bits(), 192) + max(max(map(abs, b.nums)).bit_length() - b.den.bit_length() for b in basis)
        if prec > 4 * precision_bits():  # past the certified roots
            raise PrecisionError("lattice enumeration: the basis at m = %d needs %d bits; raise --precision-bits"
                                 % (m, prec))
        with mp.workprec(prec):
            rows = [[(mp.im if part else mp.re)(fe_embed(field, b, k, prec)) * t for b in basis] for k, part, t in spec]
            for finer in range(0, 512, 64):
                scale = mp.mpf(2) ** (64 + finer - log2s)
                try:
                    step, red = _lll([[int(mp.nint(r[i] * scale)) for r in rows] for i in range(d)])
                    break
                except ValueError:  # dependent after rounding
                    continue
            else:
                raise refusal
        if not finer and all(step[i][j] == (i == j) for i in range(d) for j in range(d)):
            break
        basis = [functools.reduce(fe_add, (fe_scale(b, q) for b, q in zip(basis, row) if q)) for row in step]
        H = [[sum(q * h[i] for q, h in zip(row, H)) for i in range(d)] for row in step]
    else:
        raise PrecisionError("lattice enumeration: the basis at m = %d stays unreduced; raise --precision-bits" % m)
    if min(sum(x * x for x in v) for v in red) < 2**80:
        raise refusal
    if abs(_int_det(H)) != 1:
        raise RuntimeError("the reduced lattice basis is not unimodular")
    return H, np.array(red, dtype=float).T * 2.0 ** (log2s - 64)


def _float_filter(cols, ys, c, h, big, eps, w, wabs, slots):
    """Float verdict and band flag of rows n (columns cols, float ys): a row is
    in the band when one of its values lies within 1e-9 (relative for y) or
    within its sums' rounding, 4 d ulp sum_i |n_i| |w_k,i|, of its bound."""
    ulps = 4 * len(cols) * np.finfo(float).eps
    abscols = [np.abs(col) for col in cols]
    dist = np.abs(ys - c)
    ok = dist < h
    band = np.abs(dist - h) < 1e-9 * max(1.0, big) + ulps * _column_sum(abscols, wabs[0])
    for k, _ in slots:  # the second of a pair has the same modulus and eps
        sk = np.abs(_column_sum(cols, w[k].real) + 1j * _column_sum(cols, w[k].imag))
        ok &= sk < eps[k - 1]
        band |= np.abs(sk - eps[k - 1]) < 1e-9 + ulps * _column_sum(abscols, wabs[k])
    return ok, band


def _lattice_points(field: NumberField, m: int, eps: tuple, y_lo: float, y_hi: float):
    """Integer rows n and y = sigma_1(mu), in enumeration order, of every
    lattice point mu = alpha^m sum n_i e_i with y_lo < y < y_hi and
    |sigma_k(mu)| < eps_k.

    The real embedding rows, weighted by 1/h, 1/eps_k and sqrt(d_g/d) (d_g = 1
    for y and a real conjugate, 2 for a pair), map the cylinder into the unit
    ball.  That basis is LLL-reduced exactly, n = U z, and z is enumerated
    depth first by the Fincke-Pohst intervals of the ball, around the Babai
    point of the window's centre, in blocks of _BLOCK nodes.  At the last
    level every constraint cuts each parent's interval itself: y and a real
    conjugate linearly, a pair by its disk.  Each cut has an outer and an inner
    interval, apart by the float margin (1e-9, relative for y, plus 4 d ulp
    sum_i |n_i| |w_k,i| and the rounding of the cut); inner rows are points,
    rows outside the outer one are not, and only the rows between go through
    the float filter.  y is the real column sum of n_i w_0,i in index order,
    w_k,i = sigma_k(alpha^m e_i) rounded once.  Band rows of the filter are
    re-decided one by one from the exact embeddings (over 1e5 raise
    SizeError).  Each level may hold 1e7 nodes, alpha^(i-m) must stay inside
    float64 and every coordinate inside 2^62.
    """
    d = field.degree
    c, h = (y_lo + y_hi) / 2, (y_hi - y_lo) / 2
    big = max(abs(y_lo), abs(y_hi))
    mods = [abs(r) for r in field.roots]
    try:  # |n_i| = |Tr(alpha^(i-m) mu)| <= |y| alpha^(i-m) + sum_k eps_k |alpha_k|^(i-m)
        nmax = max(big * mods[0] ** (i - m) + sum(e * a ** (i - m) for e, a in zip(eps, mods[1:])) for i in range(d))
    except OverflowError:
        raise SizeError("lattice enumeration: alpha^(i - m) overflows float64 at m = %d" % m) from None
    if not nmax < _INT64_SAFE:
        raise _int64_refusal(nmax, m)
    slots = list(_conjugate_slots(field))
    # (conjugate, pair, bound) per constraint; its real rows (k, Re/Im, weight)
    groups = [(0, False, h)] + [(k, pair, eps[k - 1]) for k, pair in slots]
    spec = [(k, part, math.sqrt((1 + pair) / d) / bound) for k, pair, bound in groups for part in range(1 + pair)]
    wt = np.array([s[2] for s in spec])
    # w[k, i] = sigma_k(alpha^m e_i), e_0..e_{d-1} the Lagrange dual basis (rows of V^{-1})
    basis = [_mu_from_integer_vector(field, unit, m) for unit in np.eye(d, dtype=int).tolist()]
    w = np.zeros((d, d), dtype=complex)
    for k, _, _ in groups:
        w[k] = [complex(fe_embed(field, b, k)) for b in basis]
    if not np.isfinite(w).all():
        raise SizeError("lattice enumeration: alpha^(i - m) overflows float64 at m = %d" % m)
    wabs = np.abs(w)

    # log2 det^(1/d) of the weighted basis, from |disc P| = det(V)^2 and |N(alpha^m)| = |c_0|^m
    log2s = (m * math.log2(abs(field.coeffs[0])) - 0.5 * math.log2(abs(discriminant(field.coeffs)))
             - len(groups) + len(spec) + float(np.sum(np.log2(wt)))) / d
    H, gp = _reduced_basis(field, basis, spec, log2s, m)
    wp = gp / wt[:, None]
    Q, R = np.linalg.qr(gp)
    sign = np.where(np.diag(R) < 0, -1.0, 1.0)
    Q, R = Q * sign, R * sign[:, None]

    # root: the Babai point z_c of the centre (c, 0, .., 0); g0 = values at z_c minus the centre
    zc = [int(v) for v in np.rint(np.linalg.solve(gp, wt * np.eye(d)[0] * c))]
    nc = [sum(row[i] * z for row, z in zip(H, zc)) for i in range(d)]
    g0 = np.array([-c] + [0.0] * (d - 1))
    if any(zc):
        mu = _mu_from_integer_vector(field, nc, m)
        at = max(precision_bits(), 192) + max(map(abs, nc)).bit_length()
        with mp.workprec(at):
            g0 = np.array([float((mp.im if part else mp.re)(fe_embed(field, mu, k, at)) + g)
                           for (k, part, _), g in zip(spec, g0)])
    # |z_j| on the ball of radius rho about the root, and |n_i| from it
    rho2 = 1.0 + 2.0**-20
    inv = np.linalg.inv(gp)
    reach = np.abs(inv @ (wt * g0)) + math.sqrt(rho2) * np.linalg.norm(inv, axis=1)
    zbox = np.floor(reach + 2.0**-30 * (1.0 + reach))
    nbox = [abs(nc[i]) + sum(abs(row[i]) * float(z) for row, z in zip(H, zbox)) for i in range(d)]
    if not max(nbox) < _INT64_SAFE:
        raise _int64_refusal(max(nbox), m)
    U = np.array([row if z else [0] * d for row, z in zip(H, zbox)], dtype=np.int64).T  # z_j = 0 where zbox_j = 0

    # per cut: its rows, bound, margin and the leaf coefficient; the margin covers the
    # filter's band (1e-9 + 4 d ulp sum |n_i| |w_k,i|) and its rounding, and the cut's own
    # rounding: of the sums over z, of g0, and of the reduced basis (2^(log2s - 65) an entry)
    ulps = 4 * d * np.finfo(float).eps
    slop = float((2 * (d + 2) * _UNIT * np.linalg.norm(gp, axis=0) + 2.0 ** (log2s - 64)) @ zbox)
    cuts, r = [], 0
    for k, pair, bound in groups:
        rs = [r, r + 1] if pair else [r]
        r += len(rs)
        margin = (2 * (1e-9 * (max(1.0, big) if k == 0 else 1.0) + ulps * float(np.dot(nbox, wabs[k])))
                  + sum(slop / wt[q] for q in rs)
                  + 8 * _UNIT * (bound + sum(abs(g0[q]) for q in rs) + (abs(c) if k == 0 else 0.0)))
        cuts.append((rs, bound, margin, complex(wp[rs[0], 0], wp[rs[1], 0] if pair else 0.0)))

    def ball(part, rho, r_jj):
        mid = -part / r_jj
        half = np.sqrt(np.maximum(rho2 - rho, 0.0)) / r_jj
        slack = 2.0**-40 * (1.0 + np.abs(mid) + half)
        return np.ceil(mid - half - slack), np.floor(mid + half + slack)

    def leaf_cuts(gpre, lo, hi):
        # outer [lo, hi] and inner [ilo, ihi] of every cut, intersected (inner empty: ilo = inf)
        ilo, ihi = lo, hi
        empty = np.zeros(len(lo), dtype=bool)
        for rs, bound, margin, coef in cuts:
            a = gpre[:, rs[0]] + 1j * gpre[:, rs[1]] if len(rs) == 2 else gpre[:, rs[0]].astype(complex)
            t = a * coef.conjugate()
            mid, off = -t.real / abs(coef) ** 2, np.abs(t.imag) / abs(coef)  # |a + coef z|^2 = |coef|^2 (z - mid)^2 + off^2
            for radius, inner in ((bound + margin, False), (bound - margin, True)):
                half = np.sqrt(np.maximum(radius * radius - off * off, 0.0)) / abs(coef)
                slack = 2.0**-40 * (1.0 + np.abs(mid) + half)
                if inner:
                    ilo = np.where(off < radius, np.maximum(ilo, np.ceil(mid - half + slack)), np.inf)
                    ihi = np.minimum(ihi, np.floor(mid + half - slack))
                else:
                    empty |= off >= radius
                    lo, hi = np.maximum(lo, np.ceil(mid - half - slack)), np.minimum(hi, np.floor(mid + half + slack))
        hi = np.where(empty, lo - 1, hi)
        between = np.maximum(np.minimum(ihi, hi) - np.maximum(ilo, lo) + 1, 0) < hi - lo + 1
        return lo, hi, (ilo, ihi, between)

    totals = [0] * d

    def expand(j, part, rho, npre, gpre):
        # blocks of the children of these nodes, depth first: z_j from the ball, at the last
        # level from the cuts, with the mask of the rows between the inner and outer intervals
        lo, hi = ball(part[:, j], rho, R[j, j])
        if j == 0:
            lo, hi, (ilo, ihi, between) = leaf_cuts(gpre, lo, hi)
        counts = np.maximum(hi - lo + 1, 0).astype(np.int64)
        totals[j] += int(counts.sum())
        if totals[j] > _MAX_ROWS:
            raise SizeError("lattice enumeration: %d nodes at level %d of %d exceed 1e7" % (totals[j], d - j, d))
        cum = np.concatenate([[0], np.cumsum(counts)])
        shift = lo.astype(np.int64) - cum[:-1]
        for done in range(0, int(cum[-1]), _BLOCK):
            stop = min(done + _BLOCK, int(cum[-1]))
            p0, p1 = np.searchsorted(cum, [done, stop - 1], side="right") - [1, 0]  # the parents of this block
            n_of = np.diff(np.clip(cum[p0:p1 + 1], done, stop))

            def rep(a):
                return np.repeat(a[p0:p1], n_of, axis=0)

            z = rep(shift) + np.arange(done, stop)
            if j:
                res = rep(part[:, j]) + R[j, j] * z
                yield from expand(j - 1, rep(part[:, :j]) + z[:, None] * R[:j, j], rep(rho) + res * res,
                                  [rep(col) + U[i, j] * z for i, col in enumerate(npre)],
                                  rep(gpre) + z[:, None] * wp[:, j])
            else:
                yield ([rep(col) + U[i, 0] * z for i, col in enumerate(npre)],
                       (z < rep(ilo)) | (z > rep(ihi)) if between[p0:p1].any() else None)

    kept = [(np.zeros((0, d), dtype=np.int64), np.zeros(0))]
    redo, size = [], 0
    root = ((Q.T @ (wt * g0))[None, :], np.zeros(1), [np.array([v], dtype=np.int64) for v in nc], g0[None, :])
    for cols, between in expand(d - 1, *root):
        ys = _column_sum(cols, w[0].real)
        if between is not None:
            sel = np.flatnonzero(between)
            ok, band = _float_filter([col[sel] for col in cols], ys[sel], c, h, big, eps, w, wabs, slots)
            keep, flags = np.ones(len(ys), dtype=bool), np.zeros(len(ys), dtype=bool)
            keep[sel], flags[sel] = ok | band, band
            cols, ys, flags = [col[keep] for col in cols], ys[keep], flags[keep]
            redo.extend((size + np.flatnonzero(flags)).tolist())
        kept.append((np.column_stack(cols), ys))
        size += len(ys)
    rows, ys = (np.concatenate(part) for part in zip(*kept))
    if len(redo) > _MAX_EXACT:
        raise SizeError("lattice enumeration: %d band rows to re-decide exactly exceed 1e5" % len(redo))
    accept = np.ones(len(ys), dtype=bool)
    for j in redo:
        emb = _embeddings(field, _mu_from_integer_vector(field, rows[j].tolist(), m))
        with mp.workprec(precision_bits()):  # abs() rounds to the context's precision
            accept[j] = y_lo < mp.re(emb[0]) < y_hi and all(abs(emb[k]) < eps[k - 1] for k in range(1, d))
        ys[j] = float(mp.re(emb[0]))
    return rows[accept], ys[accept]


def enumerate_Y(field: NumberField, cyl: LatticeCylinder):
    """Sorted Y(L) = xi(W(L) cap Z^d) for the cylinder's (L, m, eps).

    The points are _lattice_points on the window (-L, L), after the forecast
    2 L gamma is checked against 1e7; only their ys are sorted.  The map xi is
    injective, so two equal rows behind one float y are an internal error.
    """
    _require_pv(field, "enumerate_Y")
    eps = _check_eps(field, cyl.eps)
    L, m = float(cyl.L), int(cyl.m)
    gamma = gamma_density(field, cyl)
    if 2 * L * gamma > _MAX_ROWS:
        raise SizeError("forecast |Y(L)| = 2 L gamma = %.3g exceeds 1e7" % (2 * L * gamma))
    rows, ys = _lattice_points(field, m, eps, -L, L)
    out = np.sort(ys)
    for y in out[1:][out[1:] == out[:-1]]:  # distinct points may still share a float y
        mus = [_mu_from_integer_vector(field, r.tolist(), m) for r in rows[ys == y]]
        if len(set(mus)) < len(mus):
            raise RuntimeError("xi produced a duplicate; enumeration is inconsistent")
    return out.tolist()


def gamma_density(field: NumberField, cyl) -> float:
    """gamma = |det V| |c_0|^{-m} prod(2 eps_real) prod(2 pi eps_pair^2).

    Equals vol W(L) / (2L): the base box contributes 2L along the expanding
    direction and an interval of length 2 eps per real contracting conjugate.
    A complex-conjugate pair contributes the disk area pi eps^2 times a
    Jacobian factor 2 from the (s, conj s) -> (Re s, Im s) change of
    variables; the integer-point density of the enumerated cylinders
    confirms the factor (see the plastic-field regression).
    """
    _require_pv(field, "gamma_density")
    eps = _check_eps(field, cyl.eps)
    with mp.workprec(precision_bits()):  # |det V| = sqrt|disc P|
        out = float(mp.sqrt(abs(discriminant(field.coeffs))))
    try:
        out *= float(abs(field.coeffs[0])) ** (-cyl.m)
    except OverflowError:  # |c_0|^{-m} past float64: enumerate_Y's forecast refuses it
        out = math.inf
    for k, pair in _conjugate_slots(field):
        try:
            out *= 2.0 * math.pi * eps[k - 1] ** 2 if pair else 2.0 * eps[k - 1]
        except OverflowError:  # eps^2 past float64: enumerate_Y's forecast refuses it
            out = math.inf
    return out


# ---------------------------------------------------------------------------
# equidistribution

_MAX_CORNER_BOXES = 10**5  # n >= 2 counts every sample into one histogram of q^n boxes


def equidistribution_check(field: NumberField, y_samples, n: int) -> float:
    """Star-discrepancy estimate of {(frac(y), .., frac(y alpha^{n-1}))}.

    n = 1 uses the exact sorted-sample formula; higher n takes the maximum
    over a grid of q^n corner boxes, all counted from one histogram of the
    samples.  Uniformity is only expected for n <= degree (powers
    1..alpha^{n-1} stay rationally independent there); larger n is allowed
    and exhibits the rational-dependence failure mode.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ys = np.asarray(list(y_samples), dtype=float)
    if ys.size == 0:
        raise ValueError("need at least one sample")
    if n == 1:  # nothing is multiplied, so frac(y) is exact at any size
        x, N = np.sort(ys - np.floor(ys)), len(ys)
        i = np.arange(1, N + 1)
        return float(max(np.max(i / N - x), np.max(x - (i - 1) / N)))
    # q = 2 from n = 9 on; the cap keeps 1.0 / n from overflowing for n past 1e308
    q = max(2, int(round(2048 ** (1.0 / min(n, 64)))))
    # forecast in exact logs: a huge n must neither build q^n, print its digits nor overflow a float
    digits = n * Fraction(math.log10(q))
    if digits > math.log10(_MAX_CORNER_BOXES):
        raise SizeError("%d^%d (about 1e%d) corner boxes exceed %d; lower n" % (q, n, digits, _MAX_CORNER_BOXES))
    # each coordinate keeps 32 fractional bits of float64's 53-bit mantissa
    _check_fraction_bits("|y alpha^%d|" % (n - 1), float(max(ys.max(), -ys.min())),
                         (n - 1) * math.log2(abs(field.alpha)), 53, "lower n or the sample range")
    pts = np.outer(ys, field.alpha ** np.arange(n))
    pts -= np.floor(pts)
    # x has bin b = #{k : k/q <= x}, so x < k/q exactly when b < k; b = q (x
    # rounded to 1.0) lies in no box.  Cumulative sums give every corner count.
    axis = np.arange(1, q + 1) / q
    bins = np.searchsorted(axis, pts, side="right")
    bins = bins[bins.max(axis=1) < q]
    counts = np.bincount(np.ravel_multi_index(tuple(bins.T), (q,) * n), minlength=q**n).reshape((q,) * n)
    for i in range(n):
        counts = np.cumsum(counts, axis=i)
    vol = functools.reduce(np.multiply.outer, [axis] * n)  # products in np.prod's left-to-right order
    return float(np.max(np.abs(counts / len(ys) - vol)))
