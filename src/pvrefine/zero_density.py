"""Near-zero scanning, zero-set density proxies, vanishing probes, norm forms.

A "zero" of a complex-valued function along the real line is operationalized
as a refined local minimum of |f| below a threshold delta (default 1e-8 for
finite masks, 1e-6 for truncated infinite ones): generic complex functions
have no exact zeros on a line, and the density statements only need a robust
proxy.  Density estimates report min/max of count-per-length over nested
windows as finite-scale stand-ins for the lower/upper asymptotic density.

Norm forms: with e_0..e_{d-1} the exact Lagrange dual basis (rows of V^{-1}
are its conjugate embeddings) written as integer numerators over their common
denominator den, N(mu_1) for mu_1 = sum n_i e_i is det(sum_i n_i M_i) / den^d,
M_i the integer multiplication matrix of the i-th numerator.  That determinant
is a degree-d integer form in n, interpolated from exact determinants on a
unisolvent point set, checked against exact determinants at two points off
that set, and reduced to lowest terms.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebraic_core import (
    FieldElement,
    NumberField,
    _int_det,
    _power_combination,
    fe_embed,
    first_lagrange_row,
)
from .errors import PrecisionError, SizeError
from .refinement import RefinementMask, _orbit_moduli, phihat_orbit

__all__ = [
    "NearZeroSet",
    "NormForm",
    "ProbeRecord",
    "scan_near_zeros",
    "check_grid_points",
    "density_estimate",
    "vanishing_probe",
    "norm_form",
    "count_norm_values",
]

_REFINE_XTOL = 1e-10
_GOLDEN = (math.sqrt(5) - 1) / 2

# grids beyond this raise SizeError before anything is allocated; the largest
# grid the tests and the benchmark scan has 25,601 points
MAX_GRID_POINTS = 10**6


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class NearZeroSet:
    """Refined minima of |f| below threshold on [0, L]."""

    threshold: float
    points: tuple  # sorted ((y, |f(y)|), ...)
    interval: tuple

    def __post_init__(self):
        ys = [y for y, _ in self.points]
        if ys != sorted(ys):
            raise ValueError("points must be sorted by position")
        if any(v >= self.threshold for _, v in self.points):
            raise ValueError("residual at or above threshold")

    def positions(self):
        return [y for y, _ in self.points]


@dataclass(frozen=True)
class NormForm:
    """Homogeneous integer form of degree d in d variables, over a denominator.

    form(n)/denominator equals the exact field norm of mu_1 = sum n_i e_i.
    numerator_form is a sorted tuple of (exponent_tuple, coefficient).
    """

    numerator_form: tuple
    denominator: int

    @property
    def degree(self) -> int:
        return sum(self.numerator_form[0][0])

    def evaluate_numerator(self, n):
        """form(n) for one integer vector n, in Python ints."""
        n = [int(ni) for ni in n]
        return sum(c * math.prod(ni**e for ni, e in zip(n, exps)) for exps, c in self.numerator_form)

    def evaluate(self, n) -> Fraction:
        return Fraction(self.evaluate_numerator(n), self.denominator)


@dataclass(frozen=True)
class ProbeRecord:
    """One lambda's dilation-orbit magnitudes and its verdict."""

    lam: FieldElement
    lam_value: float
    values: tuple  # |phihat(lam alpha^J)|, J = 0..J_max
    tail_mean: float
    slope: float
    verdict: str


# ---------------------------------------------------------------------------
# near-zero scanning


def check_grid_points(points: float) -> None:
    """SizeError unless a forecast grid of `points` points fits MAX_GRID_POINTS."""
    if not points <= MAX_GRID_POINTS:
        raise SizeError("grid of %.3g points exceeds the %d-point limit" % (points, MAX_GRID_POINTS))


def scan_near_zeros(f, L: float, grid_step: float, delta: float) -> NearZeroSet:
    """Grid scan of |f| on [0, L] with local refinement of candidate minima.

    f maps a float array to an array of values, one per point.  Grid local
    minima below 10*delta are refined by golden-section search on the grid
    cell either side, to resolution 1e-10 or one float spacing of the
    bracket's right end, whichever is larger; refined minima with |f| < delta
    are kept.  The 10*delta prefilter keeps refinement from chasing shallow
    ripples while never dropping a true sub-delta minimum whose grid
    neighborhood dips below 10*delta.  One call of f evaluates the grid, two
    more the opening probes x1 and x2 of every bracket, and one more per round
    the next probe of every bracket still open, so no call holds more than
    one point per bracket; each bracket's probes are those of its own search.
    """
    if grid_step <= 0 or delta <= 0:
        raise ValueError("grid_step and delta must be positive")
    check_grid_points((L + grid_step / 2) / grid_step + 1)
    ys = np.arange(0.0, L + grid_step / 2, grid_step)
    mags = np.abs(f(ys))
    left_ok, right_ok = np.r_[True, mags[1:] <= mags[:-1]], np.r_[mags[:-1] <= mags[1:], True]
    i = np.flatnonzero(~(mags >= 10 * delta) & left_ok & right_ok)
    found = []
    if i.size:
        a, b = ys[np.maximum(i - 1, 0)], ys[np.minimum(i + 1, ys.size - 1)]
        x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        f1, f2 = np.abs(f(x1)), np.abs(f(x2))
        live = np.arange(i.size)
        while (live := live[b[live] - a[live] > np.maximum(_REFINE_XTOL, np.spacing(b[live]))]).size:
            left = f1[live] <= f2[live]  # the minimum lies in [a, x2]: x2 becomes b
            l, r = live[left], live[~left]
            b[l], x2[l], f2[l] = x2[l], x1[l], f1[l]
            a[r], x1[r], f1[r] = x1[r], x2[r], f2[r]
            x1[l] = b[l] - _GOLDEN * (b[l] - a[l])
            x2[r] = a[r] + _GOLDEN * (b[r] - a[r])
            fx = np.abs(f(np.where(left, x1[live], x2[live])))
            f1[l], f2[r] = fx[left], fx[~left]
        first = f1 <= f2
        y_star, v_star = np.where(first, x1, x2), np.where(first, f1, f2)
        found = sorted(zip(y_star[v_star < delta].tolist(), v_star[v_star < delta].tolist()))
    merged = []
    for y, v in found:
        if merged and y - merged[-1][0] <= 10 * _REFINE_XTOL:
            if v < merged[-1][1]:
                merged[-1] = (y, v)
        else:
            merged.append((y, v))
    return NearZeroSet(threshold=delta, points=tuple(merged), interval=(0.0, float(L)))


def density_estimate(z: NearZeroSet):
    """(lower, upper) count-per-length over windows [0, t], t = L/10 .. L."""
    L = z.interval[1]
    if L < 10:
        raise ValueError("interval spans fewer than 10 unit subintervals")
    ys = z.positions()
    dens = []
    for k in range(1, 11):
        t = k * L / 10.0
        count = sum(1 for y in ys if y <= t)
        dens.append(count / t)
    return min(dens), max(dens)


# ---------------------------------------------------------------------------
# vanishing probes


def _reduces_to_laurent_ring(field: NumberField, lam: FieldElement) -> bool:
    """True iff lam lies in Z[alpha, alpha^{-1}]: denominator primes divide c_0."""
    den = lam.den
    c0 = abs(field.coeffs[0])
    if den == 1:
        return True
    if c0 == 1:
        return False
    g = math.gcd(den, c0)
    while g > 1:
        while den % g == 0:
            den //= g
        g = math.gcd(den, c0)
    return den == 1


def vanishing_probe(mask: RefinementMask, lambdas, J_max: int, delta: float = None, tol: float = None):
    """|phihat(lam alpha^J)| along dilation orbits with a tail verdict.

    Verdict rule over the last third of the J range: level at or below delta
    means the orbit has already hit the zero proxy (tends-to-zero); otherwise
    the least-squares slope of log|phihat| decides: |slope| < 1e-3 at a level
    above 10*delta is bounded-away, slope < -0.05 is tends-to-zero, anything
    else is inconclusive, as is a tail of one point (J_max = 2), whose slope is nan.
    """
    if J_max < 2:
        raise ValueError("J_max must be at least 2 so the tail fit has points")
    if delta is None:
        delta = 1e-6 if mask.infinite else 1e-8
    if tol is None:
        tol = 1e-10 if mask.infinite else 1e-12
    records = []
    for lam in lambdas:
        if not _reduces_to_laurent_ring(mask.field, lam):
            raise ValueError("lambda does not reduce to Z[alpha, alpha^{-1}]")
        lam_val = complex(fe_embed(mask.field, lam)).real
        if lam.is_zero():
            raise ValueError("lambda must be nonzero")
        orbit = phihat_orbit(mask, lam, range(0, J_max + 1), tol)
        vals = tuple(_orbit_moduli(mask, orbit))
        tail_start = (2 * (J_max + 1)) // 3
        tail = vals[tail_start:]
        level = float(np.mean(tail))
        if all(v <= delta for v in tail):
            records.append(ProbeRecord(lam, lam_val, vals, level, float("-inf"), "tends-to-zero"))
            continue
        slope = float("nan")  # a one-point tail (J_max = 2) has no fit
        if len(tail) >= 2:
            xs = np.arange(tail_start, J_max + 1, dtype=float)
            logs = np.log(np.maximum(tail, 1e-300))
            slope = float(np.polyfit(xs, logs, 1)[0])
        if abs(slope) < 1e-3 and level > 10 * delta:
            verdict = "bounded-away"
        elif slope < -0.05:
            verdict = "tends-to-zero"
        else:
            verdict = "inconclusive"
        records.append(ProbeRecord(lam, lam_val, vals, level, slope, verdict))
    return records


# ---------------------------------------------------------------------------
# norm forms


def _newton(values):
    """Forward differences Delta^k v(0) / k! of the values v(0), v(1), ...: the coefficients of v
    in the basis binom(x, k).  An integer polynomial's are integers, so each division is exact."""
    out = []
    for k in range(len(values)):
        out.append(values[0] // math.factorial(k))
        values = [b - a for a, b in zip(values, values[1:])]
    return out


@functools.lru_cache(maxsize=None)
def _stirling_rows(n):
    """The signed Stirling numbers of the first kind s(k, j), k < n, as rows, from s(k+1, j) =
    s(k, j-1) - k s(k, j); built once per line length."""
    rows = [(1,)]
    for k in range(n - 1):
        rows.append(tuple(a - k * b for a, b in zip((0,) + rows[k], rows[k] + (0,))))
    return tuple(rows)


def _from_falling(coeffs):
    """sum_k c_k (x)_k in powers of x: (x)_k = sum_j s(k, j) x^j, s the signed Stirling numbers of
    the first kind."""
    rows = _stirling_rows(len(coeffs))
    return [sum(rows[k][j] * c for k, c in enumerate(coeffs[j:], j)) for j in range(len(coeffs))]


def _interpolated_form(mats):
    """det(sum_i n_i mats[i]) as {exponent tuple: nonzero coefficient}, from C(2d-1, d) determinants.

    The determinant is homogeneous of degree d, so with n_d = 1 it is a polynomial of total degree
    <= d in the other d-1 variables, and the principal lattice n = (x, 1), x >= 0, |x| <= d, is
    unisolvent for those: the values there fix every coefficient.  A point is keyed by the exponent
    of the monomial it stands for, x and n_d's remaining d - |x|; a step along axis i moves one unit
    from that last exponent to the i-th.  Forward differences along every axis (each divided by
    k_i!) give the coefficients in the basis prod_i binom(x_i, k_i); then the Stirling numbers turn
    every axis's falling factorials into powers.  Neither pass leaves the lattice."""
    d = len(mats)
    exps = [tuple(c.count(i) for i in range(d)) for c in itertools.combinations_with_replacement(range(d), d)]
    points = np.array([e[:-1] + (1,) for e in exps], dtype=object)
    form = dict(zip(exps, _int_det(np.tensordot(points, np.array(mats, dtype=object), 1)).tolist()))
    for along in (_newton, _from_falling):
        for i in range(d - 1):
            for e in [e for e in form if e[i] == 0]:
                line = [e[:i] + (t,) + e[i + 1:-1] + (e[-1] - t,) for t in range(e[-1] + 1)]
                form.update(zip(line, along([form[p] for p in line])))
    return {e: c for e, c in form.items() if c}


def norm_form(field: NumberField) -> NormForm:
    """Exact integer norm form in lowest terms over the Lagrange dual basis.

    With e_i = nums_i/den over their common denominator, N(sum n_i e_i) =
    det(sum_i n_i M(nums_i))/den^d, the form interpolated from exact
    determinants on the principal lattice (`_interpolated_form`).  As a fault
    check its value at two points off the lattice, every entry nonzero and
    n_d not 0 or 1, must equal the exact determinant there; a mismatch raises
    PrecisionError naming the point.  Any one wrong coefficient, or a stray
    monomial, changes the value at such a point.
    """
    d = field.degree
    row = first_lagrange_row(field)
    den = math.lcm(*(e.den for e in row))
    mats = [_power_combination(field, [q * (den // e.den) for q in e.nums]) for e in row]
    form = _interpolated_form(mats)
    checks = [tuple((-1) ** i * (i + 2) for i in range(d)), tuple(range(d + 1, 1, -1))]
    dets = _int_det(np.tensordot(np.array(checks, dtype=object), np.array(mats, dtype=object), 1)).tolist()
    full = NormForm(tuple(sorted(form.items())), den**d)
    for n, det in zip(checks, dets):
        if det != full.evaluate_numerator(n):
            raise PrecisionError("norm form disagrees with det(sum n_i M_i) at n = %s" % (n,))
    g = math.gcd(full.denominator, *form.values())
    return NormForm(tuple((e, c // g) for e, c in full.numerator_form), full.denominator // g)


def _binary_restriction(nf: NormForm, d: int):
    """Coefficients of the form with all variables beyond the first two set to 0."""
    out = {}
    for exps, c in nf.numerator_form:
        if any(e for e in exps[2:]):
            continue
        out[(exps[0], exps[1] if d > 1 else 0)] = c
    return out


def count_norm_values(field: NumberField, L: int, box: int, checkpoints: bool = False):
    """Distinct |numerator| values in [1, L] over the restricted integer box.

    Enumerates n over [-box, box]^2 (two active variables; the remaining
    coordinates are pinned to 0 for degree >= 3, the binary-form reduction),
    counts distinct |form| values up to L, and fits log count against log L
    over dyadic checkpoints.  Returns (count, fitted_exponent), plus the
    (t, count) checkpoint list when checkpoints is true.
    """
    if L < 1 or box < 1:
        raise ValueError("L and box must be positive")
    if (2 * box + 1) ** 2 > 10**8:
        raise SizeError("enumeration of %d form evaluations exceeds 1e8" % (2 * box + 1) ** 2)
    nf = norm_form(field)
    coeffs = _binary_restriction(nf, field.degree)
    deg = nf.degree
    bound = sum(abs(c) for c in coeffs.values()) * (box + 1) ** deg
    if bound >= 2**62:
        raise SizeError("form values overflow 64-bit integers at box %d" % box)
    # blocks of at most 2^20 box values, each cut to 1 <= |v| <= L: memory follows what is kept
    ns = np.arange(-box, box + 1, dtype=np.int64)
    rows = max(1, 2**20 // ns.size)
    kept = []
    for lo in range(0, ns.size, rows):
        n1 = ns[lo:lo + rows, None]
        vals = np.zeros((n1.size, ns.size), dtype=np.int64)
        for (e1, e2), c in sorted(coeffs.items()):
            vals += c * n1**e1 * ns**e2
        np.abs(vals, out=vals)
        kept.append(vals[(vals >= 1) & (vals <= L)])
    # the distinct values by a sort and an adjacent-difference mask (all are >= 1, so 0 leads)
    uniq = np.sort(np.concatenate(kept))
    uniq = uniq[np.diff(uniq, prepend=0) != 0]
    count = uniq.size
    marks = []
    t = int(L)
    while t >= 10:
        marks.append(t)
        t //= 2
    marks.reverse()
    pts = [(c, int(np.searchsorted(uniq, c, side="right"))) for c in marks]
    pts = [(c, k) for c, k in pts if k > 0]
    exponent = float("nan")
    if len(pts) >= 2:
        xs, ks = np.log(np.array(pts, dtype=float)).T  # float: an L past 2^64 is no int64
        exponent = float(np.polyfit(xs, ks, 1)[0])
    if checkpoints:
        return count, exponent, pts
    return count, exponent
