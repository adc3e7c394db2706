"""Finite-window solenoid machinery for PV dilations.

The bi-infinite torus sequences behind the dilation dynamics are never
materialized.  Every statement is reduced to a finite window of coordinates
g(j) in [0,1) plus exact lattice arithmetic in the dilation field: the lifted
symbol A with ahat = A on theta fibers, membership in the cylinder
neighborhoods U(m, eps), the lattice section Y(L) enumerated through the
Vandermonde transform, its density gamma, the kernel-window predicate, and a
star-discrepancy estimate for window equidistribution.

Windows produced by theta(field, y, j_min, j_max) hold frac(y alpha^j).  A float
y is an exact dyadic rational, so the fractional parts come exactly from
algebraic_core.orbit_fractions (integer traces mod den plus the conjugate
residue), however large y alpha^j grows.

Lattice membership runs through the exact Lagrange dual basis e_0..e_{d-1}
(rows of V^{-1} are its conjugate embeddings): an integer vector n corresponds
to the field element mu = alpha^m sum_i n_i e_i, and [y, s_2..s_d] are the
conjugate embeddings of mu.  One enumerator, _lattice_points, serves both
in_U and enumerate_Y: blocks of candidates are generated and filtered in float
(embeddings as real column sums), and only the rows within 1e-9 of a boundary,
or within the float rounding of their embeddings, are re-decided exactly.
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
    _require_pv,
    discriminant,
    dist_to_int,
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
    "kernel_window_test",
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

_MAX_ROWS = 10**7  # bounds the forecast |Y(L)| and the candidate rows of every enumeration level
_BLOCK = 2**14  # first-level candidates carried through the later levels and the filters at once
_MAX_EXACT = 10**5  # bounds the band rows re-decided one by one in exact arithmetic


def in_U(field: NumberField, y: float, u: UNeighborhood):
    """Membership of theta(y) in U(m, eps).

    True iff some s = (s_2..s_d) with |s_k| < eps_k makes V D^{-m} [y, s]^T
    integral, i.e. some lattice point mu = alpha^m sum n_i e_i has
    sigma_1(mu) in the open window (y - 1e-6, y + 1e-6) and every conjugate
    |sigma_k(mu)| < eps_k; the points come from _lattice_points, as for
    enumerate_Y.  Returns (flag, witness s or None), s taken from the exact
    embeddings of the hit with the smallest sigma_1.  From |y| = 2^34 (about
    1.7e10) on, y +- 1e-6 rounds to y in float64 and the window is refused
    with SizeError.
    """
    _require_pv(field, "in_U")
    eps = _check_eps(field, u.eps)
    y = float(y)
    if not math.isfinite(y):
        raise ValueError("in_U needs a finite y, got %r" % y)
    if not y - 1e-6 < y < y + 1e-6:
        raise SizeError("in_U: |y| = %.3g is too large, y +- 1e-6 rounds to y in float64" % abs(y))
    rows, _ = _lattice_points(field, u.m, eps, y - 1e-6, y + 1e-6)
    if not len(rows):
        return False, None
    emb = _embeddings(field, _mu_from_integer_vector(field, rows[0].tolist(), u.m))
    s = (complex(x) for x in emb[1:])
    return True, tuple(sk if field.roots[k].imag != 0.0 else sk.real for k, sk in enumerate(s, 1))


def _interval_scale(lo, hi, c: float):
    """Elementwise image of [lo, hi] (lo <= hi) under multiplication by the scalar c."""
    return (lo * c, hi * c) if c >= 0 else (hi * c, lo * c)


def _expand_rows(cols, ylo, yhi, lo, counts, r_i, back, fudge):
    """One level on column-stored rows: append row j's candidates lo_j, .., lo_j + counts_j - 1."""
    # row j's candidates occupy positions starts_j, starts_j + 1, ..
    n_i = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    # tighten the y interval with the new coordinate (back = alpha^{m-i})
    tlo, thi = _interval_scale(n_i - r_i - fudge, n_i + r_i + fudge, back)
    ylo = np.maximum(np.repeat(ylo, counts), tlo)
    yhi = np.minimum(np.repeat(yhi, counts), thi)
    keep = ylo <= yhi
    return [np.repeat(col, counts)[keep] for col in cols] + [n_i[keep]], ylo[keep], yhi[keep]


def _column_sum(cols, w):
    """sum_i n_i w_i for every row, added in index order: no complex cast, no BLAS."""
    return functools.reduce(np.add, map(np.multiply, cols, w))


def _level_refusal(total: float, cap: str) -> SizeError:
    """The refusal of a level of `total` candidate rows: exact below 1e15, else 3 digits."""
    return SizeError("lattice enumeration: %s candidate rows at one level exceed %s"
                     % ("%d" % total if total < 1e15 else "%.3g" % total, cap))


def _lattice_points(field: NumberField, m: int, eps: tuple, y_lo: float, y_hi: float):
    """Integer rows n and y = sigma_1(mu), sorted by y, of every lattice point
    mu = alpha^m sum n_i e_i with y_lo < y < y_hi and |sigma_k(mu)| < eps_k.

    Level i appends the integer candidates n_i and narrows each row's y
    interval (interval nesting along the rows of V D^{-m}).  The first level is
    one integer range; blocks of _BLOCK of its candidates pass through the
    later levels and the float filter one at a time and keep only their
    accepted and band rows.  y and sigma_k are real column sums of n_i Re w_k,i
    and n_i Im w_k,i in index order, w_k,i = sigma_k(alpha^m e_i) rounded once,
    one modulus per conjugate pair.  Band rows lie within 1e-9 of a boundary
    (relative for y) or within the sums' rounding, 4 d ulp sum_i |n_i| |w_k,i|;
    over 1e5 of them raise SizeError, the rest are re-decided one by one from
    the exact embeddings.  The candidate slack grows with |y|, so large windows
    keep the points that float rounding would push out.  The first level may
    hold 5e7 candidates, each later level 1e7 summed over the blocks (the
    lowest level over its cap is refused with its total), and alpha^(i-m) must
    stay inside float64.
    """
    d = field.degree
    al = field.alpha
    big = max(abs(y_lo), abs(y_hi))
    mods = [abs(field.roots[k]) for k in range(1, d)]
    try:
        # (r_i, slack 1e-9 (1 + |c|) with c = y alpha^{i-m} at its largest, alpha^{i-m}, alpha^{m-i})
        levels = [(sum(e * mod ** (i - m) for e, mod in zip(eps, mods)), 1e-9 * (1.0 + big * abs(al) ** (i - m)),
                   al ** (i - m), al ** (m - i)) for i in range(d)]
        r, fudge, scale, back = levels[0]
        clo, chi = _interval_scale(y_lo, y_hi, scale)
        lo, hi = math.ceil(clo - r - fudge), math.floor(chi + r + fudge)
    except OverflowError:
        raise SizeError("lattice enumeration: alpha^(i - m) overflows float64 at m = %d" % m) from None
    totals = [max(float(hi) - float(lo) + 1, 0.0)] + [0.0] * (d - 1)  # exact below 2^53
    if totals[0] > 5 * _MAX_ROWS:
        raise _level_refusal(totals[0], "5e7")
    # w[k, i] = sigma_k(alpha^m e_i), e_0..e_{d-1} the Lagrange dual basis (rows of V^{-1})
    basis = [_mu_from_integer_vector(field, unit, m) for unit in np.eye(d, dtype=int).tolist()]
    w = np.array([[complex(fe_embed(field, b, k)) for b in basis] for k in range(d)])
    wabs = np.abs(w)
    ulps = 4 * d * np.finfo(float).eps
    c, h = (y_lo + y_hi) / 2, (y_hi - y_lo) / 2
    kept, breach = [(np.zeros((0, d), dtype=np.int64), np.zeros(0), np.zeros(0, dtype=bool))], d
    for start in range(lo, hi + 1, _BLOCK):
        cols, ylo, yhi = _expand_rows([], np.array([float(y_lo)]), np.array([float(y_hi)]), np.array([start]),
                                      np.array([min(_BLOCK, hi + 1 - start)]), r, back, fudge)
        for i, (r_i, fudge_i, scale_i, back_i) in enumerate(levels[1:], 1):
            clo, chi = _interval_scale(ylo, yhi, scale_i)
            lo_i = np.ceil(clo - r_i - fudge_i)
            counts = np.maximum(np.floor(chi + r_i + fudge_i) - lo_i + 1, 0)  # in float: may pass int64
            totals[i] += counts.sum()
            if not totals[i] <= _MAX_ROWS:  # within the cap, every bound fits int64
                breach = i  # lowest so far: a level over its cap stops every later block there
                break
            cols, ylo, yhi = _expand_rows(cols, ylo, yhi, lo_i.astype(np.int64), counts.astype(np.int64),
                                          r_i, back_i, fudge_i)
        else:
            ys = _column_sum(cols, w[0].real)
            abscols = [np.abs(col) for col in cols]
            dist = np.abs(ys - c)
            ok = dist < h
            band = np.abs(dist - h) < 1e-9 * max(1.0, big) + ulps * _column_sum(abscols, wabs[0])
            for k, _ in _conjugate_slots(field):  # the second of a pair has the same modulus and eps
                sk = np.abs(_column_sum(cols, w[k].real) + 1j * _column_sum(cols, w[k].imag))
                ok &= sk < eps[k - 1]
                band |= np.abs(sk - eps[k - 1]) < 1e-9 + ulps * _column_sum(abscols, wabs[k])
            idx = np.flatnonzero(ok | band)
            kept.append((np.column_stack([col[idx] for col in cols]), ys[idx], band[idx]))
    if breach < d:
        raise _level_refusal(totals[breach], "1e7")
    rows, ys, band = (np.concatenate(part) for part in zip(*kept))
    accept = np.ones(len(ys), dtype=bool)
    redo = np.flatnonzero(band)
    if len(redo) > _MAX_EXACT:
        raise SizeError("lattice enumeration: %d band rows to re-decide exactly exceed 1e5" % len(redo))
    for j in redo:
        emb = _embeddings(field, _mu_from_integer_vector(field, rows[j].tolist(), m))
        with mp.workprec(precision_bits()):  # abs() rounds to the context's precision
            accept[j] = y_lo < mp.re(emb[0]) < y_hi and all(abs(emb[k]) < eps[k - 1] for k in range(1, d))
        ys[j] = float(mp.re(emb[0]))
    rows, ys = rows[accept], ys[accept]
    order = np.argsort(ys, kind="stable")  # ties keep the candidate order
    return rows[order], ys[order]


def enumerate_Y(field: NumberField, cyl: LatticeCylinder):
    """Sorted Y(L) = xi(W(L) cap Z^d) for the cylinder's (L, m, eps).

    The points are _lattice_points on the window (-L, L), after the forecast
    2 L gamma is checked against 1e7.  The map xi is injective, so an exact
    duplicate output is an internal error.
    """
    _require_pv(field, "enumerate_Y")
    eps = _check_eps(field, cyl.eps)
    L, m = float(cyl.L), int(cyl.m)
    gamma = gamma_density(field, cyl)
    if 2 * L * gamma > _MAX_ROWS:
        raise SizeError("forecast |Y(L)| = 2 L gamma = %.3g exceeds 1e7" % (2 * L * gamma))
    rows, ys = _lattice_points(field, m, eps, -L, L)
    for j in np.flatnonzero(ys[1:] == ys[:-1]):
        m1, m2 = (_mu_from_integer_vector(field, r.tolist(), m) for r in rows[j:j + 2])
        if m1 == m2:
            raise RuntimeError("xi produced a duplicate; enumeration is inconsistent")
    return ys.tolist()


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
        out *= 2.0 * math.pi * eps[k - 1] ** 2 if pair else 2.0 * eps[k - 1]
    return out


def kernel_window_test(field: NumberField, g: SolenoidWindow) -> bool:
    """Window predicate for the adjoint kernel: g(k) = 0 for k >= 0 and
    c_0^{-k} g(k) integral for k < 0.

    Each coordinate is screened at 1e-9 and confirmed against the exact
    rational p / |c_0|^{-k} it would have to equal.
    """
    if g.j_min >= 0 or g.j_max < 0:
        raise ValueError("window must contain coordinates on both sides of 0")
    c0 = abs(field.coeffs[0])
    for j, v in g.items():
        if j >= 0:
            if min(v, 1.0 - v) > 1e-9:
                return False
        else:
            q = c0 ** (-j)
            t = v * q
            p = round(t)
            if dist_to_int(t) > 1e-9 * q or not 0 <= p < q:
                return False
            if abs(v - p / q) > 1e-9:
                return False
    return True


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
    q = max(2, int(round(2048 ** (1.0 / n))))
    # forecast in logs: a huge n must neither build q^n nor print its digits
    if n * math.log10(q) > math.log10(_MAX_CORNER_BOXES):
        raise SizeError("%d^%d (about 1e%d) corner boxes exceed %d; lower n"
                        % (q, n, n * math.log10(q), _MAX_CORNER_BOXES))
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
