"""Finite-window solenoid machinery for PV dilations.

The bi-infinite torus sequences behind the dilation dynamics are never
materialized.  Every statement is reduced to a finite window of coordinates
g(j) in [0,1) plus exact lattice arithmetic in the dilation field: the lifted
symbol A with ahat = A on theta fibers, membership in the cylinder
neighborhoods U(m, eps), the lattice section Y(L) enumerated through the
Vandermonde transform, its density gamma, the kernel-window predicate, and a
star-discrepancy estimate for window equidistribution.

Windows produced by theta(field, y, j_min, j_max) hold frac(y alpha^j).  The
fractional parts are taken at extended precision because y alpha^j grows; the
precondition log2(|y| |alpha|^{j_max}) <= precision_bits() - 32 keeps at least
32 fractional bits in every coordinate.

Lattice membership runs through the exact Lagrange dual basis e_0..e_{d-1}
(rows of V^{-1} are its conjugate embeddings): an integer vector n corresponds
to the field element mu = alpha^m sum_i n_i e_i, and [y, s_2..s_d] are the
conjugate embeddings of mu.  Floating-point candidate generation is always
confirmed by exact arithmetic before a lattice hit is reported.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .algebraic_core import (
    FieldElement,
    NumberField,
    dist_to_int,
    fe_add,
    fe_alpha,
    fe_embed,
    fe_mul,
    fe_pow,
    fe_rational,
    fe_scale,
    field_matrices,
    first_lagrange_row,
    precision_bits,
)
from .errors import (
    EmptyWindowError,
    NotPisotError,
    PrecisionError,
    SizeError,
    WindowTooSmallError,
)
from .refinement import RefinementMask, _symbol_sum, mask_terms

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
    """W(L) parameters: half-length L, shift exponent m, radii, cached gamma."""

    L: float
    m: int
    eps: tuple
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        if self.L <= 0:
            raise ValueError("L must be positive")
        if not self.eps or any(e <= 0 for e in self.eps):
            raise ValueError("eps entries must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


# ---------------------------------------------------------------------------
# shared helpers


@functools.lru_cache(maxsize=32)
def _matrices_at(field: NumberField, prec: int):
    return field_matrices(field)


def _matrices(field: NumberField):
    return _matrices_at(field, precision_bits())


def _check_eps(field: NumberField, eps) -> tuple:
    """Validate (eps_2..eps_d): length d-1, positive, equal on conjugate pairs."""
    eps = tuple(float(e) for e in eps)
    d = field.degree
    if len(eps) != d - 1:
        raise ValueError("eps needs %d entries for degree %d" % (d - 1, d))
    if any(e <= 0 for e in eps):
        raise ValueError("eps entries must be positive")
    k = 1
    while k < d:
        if field.roots[k].imag != 0.0:
            if k + 1 >= d or eps[k - 1] != eps[k]:
                raise ValueError("eps must match on the conjugate pair at positions %d,%d" % (k, k + 1))
            k += 2
        else:
            k += 1
    return eps


def _require_pv(field: NumberField):
    if field.pv_status != "PV":
        raise NotPisotError("operation requires a PV dilation, got %s" % field.pv_status)


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
    """Window of fractional parts frac(y alpha^j), j_min <= j <= j_max."""
    if j_min > j_max:
        raise EmptyWindowError("window [%d, %d] is empty" % (j_min, j_max))
    prec = precision_bits()
    absalpha = abs(field.alpha)
    mag = abs(y) * absalpha ** max(j_max, 0)
    if mag > 0 and math.log2(mag) > prec - 32:
        j_ok = int((prec - 32 - math.log2(abs(y))) / math.log2(absalpha)) if abs(y) >= 1 else j_max
        raise PrecisionError(
            "y alpha^j exceeds the precision budget at j_max=%d; shrink the window "
            "(j_max <= %d works at %d bits) or raise PISOT_PRECISION_BITS" % (j_max, j_ok, prec)
        )
    vals = []
    with mp.workprec(prec):
        al = mp.mpf(field.roots_mp[0].real)
        x = mp.mpf(y) * al**j_min
        for _ in range(j_min, j_max + 1):
            f = x - mp.floor(x)
            v = float(f)
            if v >= 1.0:  # rounding at the torus seam
                v = 0.0
            vals.append(v)
            x = x * al
    return SolenoidWindow(j_min, j_max, tuple(vals))


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

_INT_TOL = 1e-6  # float integrality tolerance before exact confirmation
_CANDIDATE_CAP = 10**6


def in_U(field: NumberField, y: float, u: UNeighborhood):
    """Membership of theta(y) in U(m, eps).

    True iff some s = (s_2..s_d) with |s_k| < eps_k makes V D^{-m} [y, s]^T
    integral.  Candidate integer vectors n_i in y alpha^{i-m} +- r_i are
    enumerated, each is mapped back to the exact field element
    mu = alpha^m sum n_i e_i, and the hit is confirmed when sigma_1(mu)
    matches y to 1e-6 with every conjugate |sigma_k(mu)| < eps_k.
    Returns (flag, witness s or None).
    """
    _require_pv(field)
    eps = _check_eps(field, u.eps)
    d = field.degree
    m = u.m
    prec = precision_bits()
    with mp.workprec(prec):
        al = mp.mpf(field.roots_mp[0].real)
        mods = [abs(field.roots[k]) for k in range(1, d)]
        ranges = []
        for i in range(d):
            c = float(mp.mpf(y) * al ** (i - m))
            r = sum(e * mod ** (i - m) for e, mod in zip(eps, mods))
            slack = _INT_TOL * (1.0 + abs(field.alpha) ** (i - m)) + 1e-9 * (1.0 + abs(c))
            lo = math.ceil(c - r - slack)
            hi = math.floor(c + r + slack)
            if hi < lo:
                return False, None
            if hi - lo > 10**3:
                raise SizeError("candidate row %d spans %d integers" % (i, hi - lo + 1))
            ranges.append(range(lo, hi + 1))
    total = 1
    for rg in ranges:
        total *= len(rg)
        if total > _CANDIDATE_CAP:
            raise SizeError("candidate box exceeds %d integer vectors" % _CANDIDATE_CAP)
    for n in itertools.product(*ranges):
        mu = _mu_from_integer_vector(field, n, m)
        emb = _embeddings(field, mu)
        if abs(float(mp.re(emb[0])) - y) > _INT_TOL:
            continue
        s = []
        ok = True
        for k in range(1, d):
            sk = complex(emb[k])
            if abs(sk) >= eps[k - 1]:
                ok = False
                break
            s.append(sk if field.roots[k].imag != 0.0 else sk.real)
        if ok:
            return True, tuple(s)
    return False, None


def _interval_scale(lo, hi, c: float):
    """Elementwise image of [lo, hi] under multiplication by c."""
    a, b = lo * c, hi * c
    return np.minimum(a, b), np.maximum(a, b)


def _expand_rows(rows, ylo, yhi, r_i, scale, back, fudge):
    """One enumeration level: integer candidates n_i for each partial row."""
    clo, chi = _interval_scale(ylo, yhi, scale)
    lo = np.ceil(clo - r_i - fudge).astype(np.int64)
    hi = np.floor(chi + r_i + fudge).astype(np.int64)
    counts = np.maximum(hi - lo + 1, 0)
    keep = counts > 0
    rows, lo, counts = rows[keep], lo[keep], counts[keep]
    ylo, yhi = ylo[keep], yhi[keep]
    idx = np.repeat(np.arange(len(counts)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offs = np.arange(counts.sum(), dtype=np.int64) - np.repeat(starts, counts)
    n_i = lo[idx] + offs
    rows = np.column_stack([rows[idx], n_i])
    ylo, yhi = ylo[idx], yhi[idx]
    # tighten the y interval with the new coordinate (back = alpha^{m-i})
    tlo, thi = _interval_scale(n_i - r_i - fudge, n_i + r_i + fudge, back)
    ylo = np.maximum(ylo, tlo)
    yhi = np.minimum(yhi, thi)
    keep = ylo <= yhi
    return rows[keep], ylo[keep], yhi[keep]


def enumerate_Y(field: NumberField, cyl: LatticeCylinder):
    """Sorted Y(L) = xi(W(L) cap Z^d) for the cylinder's (L, m, eps).

    Integer vectors are generated by interval nesting along the rows of
    V D^{-m} and filtered in floating point, all as array passes; only the
    boundary-grazing candidates are re-decided, one by one, from the exact
    field element's extended-precision embeddings.  The map xi is injective,
    so an exact duplicate output is an internal error.
    """
    _require_pv(field)
    eps = _check_eps(field, cyl.eps)
    L, m = float(cyl.L), int(cyl.m)
    d = field.degree
    gamma = gamma_density(field, cyl)
    if 2 * L * gamma > 1e7:
        raise SizeError("forecast |Y(L)| = 2 L gamma = %.3g exceeds 1e7" % (2 * L * gamma))
    mods = [abs(field.roots[k]) for k in range(1, d)]
    r = [sum(e * mod ** (i - m) for e, mod in zip(eps, mods)) for i in range(d)]
    al = field.alpha
    fudge = 1e-9
    # scan the first row: n_0 in alpha^{-m} (-L, L) +- r_0
    c_lo, c_hi = _interval_scale(np.float64(-L), np.float64(L), al ** (0 - m))
    n0_lo = math.ceil(float(c_lo) - r[0] - fudge)
    n0_hi = math.floor(float(c_hi) + r[0] + fudge)
    if n0_hi - n0_lo > 5e7:
        raise SizeError("first-row scan spans %d integers" % (n0_hi - n0_lo + 1))
    n0 = np.arange(n0_lo, n0_hi + 1, dtype=np.int64)
    tlo, thi = _interval_scale(n0 - r[0] - fudge, n0 + r[0] + fudge, al**m)
    ylo, yhi = np.maximum(tlo, -L), np.minimum(thi, L)
    keep = ylo <= yhi
    rows, ylo, yhi = n0[keep].reshape(-1, 1), ylo[keep], yhi[keep]
    for i in range(1, d):
        rows, ylo, yhi = _expand_rows(rows, ylo, yhi, r[i], al ** (i - m), al ** (m - i), fudge)
        if not len(rows):
            return []
    fm = _matrices(field)
    w = np.array([field.roots[k] ** m * fm.V_inv[k] for k in range(d)])
    ys = (rows @ w[0]).real
    ok = np.abs(ys) < L
    band = np.abs(np.abs(ys) - L) < 1e-9 * max(1.0, L)
    for k in range(1, d):
        sk = np.abs(rows @ w[k])
        ok &= sk < eps[k - 1]
        band |= np.abs(sk - eps[k - 1]) < 1e-9
    idx = np.flatnonzero(ok | band)
    ys, accept = ys[idx], np.ones(len(idx), dtype=bool)
    for j in np.flatnonzero(band[idx]):
        emb = _embeddings(field, _mu_from_integer_vector(field, rows[idx[j]].tolist(), m))
        with mp.workprec(precision_bits()):  # abs() rounds to the context's precision
            accept[j] = abs(mp.re(emb[0])) < L and all(abs(emb[k]) < eps[k - 1] for k in range(1, d))
        ys[j] = float(mp.re(emb[0]))
    idx, ys = idx[accept], ys[accept]
    order = np.lexsort((idx, ys))
    idx, ys = idx[order], ys[order]
    for j in np.flatnonzero(ys[1:] == ys[:-1]):
        m1, m2 = (_mu_from_integer_vector(field, rows[i].tolist(), m) for i in idx[j:j + 2])
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
    _require_pv(field)
    eps = _check_eps(field, cyl.eps)
    fm = _matrices(field)
    out = fm.det_V_abs * float(abs(field.coeffs[0])) ** (-cyl.m)
    k = 1
    while k < field.degree:
        if field.roots[k].imag != 0.0:
            out *= 2.0 * math.pi * eps[k - 1] ** 2
            k += 2
        else:
            out *= 2.0 * eps[k - 1]
            k += 1
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
    # as in theta: y alpha^(n-1) must leave 32 of float64's 53 bits below the binary point
    mag = float(max(ys.max(), -ys.min())) * abs(field.alpha) ** (n - 1)
    if mag > 0 and math.log2(mag) > 53 - 32:
        raise PrecisionError("|y alpha^%d| reaches %.3g, leaving under 32 fractional bits "
                             "in float64; lower n or the sample range" % (n - 1, mag))
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
