"""Exact and certified arithmetic for the number field Q[alpha].

Field elements are integer numerators over one positive denominator, in
lowest terms, in the power basis 1, alpha, ..., alpha^(d-1), and all exact
work runs on integers: products and inverses (by the adjugate) go through
the cached integer companion powers C^0..C^{d-1}, norms and the discriminant
are fraction-free Bareiss determinants, and traces follow the integer trace
recurrence.  Fraction is only the input and output type at the public edge.
Complex embeddings come from certified roots: simultaneous iteration at
extended precision with Weierstrass a-posteriori inclusion disks.  The PV
verdict is exact, "PV" or "not-PV": the precision doubles until the disks
clear the unit circle, which they do for every irreducible P that is not
reciprocal, and a reciprocal P is decided from its degree and discriminant.

A PV (Pisot-Vijayaraghavan) number here: a real algebraic integer of degree
>= 2 with |alpha| > 1 whose remaining conjugates lie strictly inside the
unit circle.
"""

import contextvars
import functools
import itertools
import math
import os
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import mpmath as mp

from .errors import (
    DegenerateError,
    NotPisotError,
    PrecisionError,
    ReducibleError,
)

# radii below this are reported as the floor itself (still a valid bound)
_RADIUS_FLOOR = 1e-290

_MAX_DEGREE = 8  # factor search is exhaustive; keeps it desk-scale


# the working precision of the current context; None defers to the environment
working_precision = contextvars.ContextVar("working_precision", default=None)


def precision_bits() -> int:
    """Working mantissa bits for extended-precision steps: the context's
    working_precision when set, else PISOT_PRECISION_BITS, else 128."""
    return working_precision.get() or int(os.environ.get("PISOT_PRECISION_BITS", "128"))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class NumberField:
    """Monic integer polynomial with certified roots and PV status.

    coeffs = (c_0, ..., c_{d-1}) encodes P(X) = X^d + c_{d-1} X^{d-1} + ... + c_0.
    roots are sorted by descending modulus (ties broken by real then imaginary
    part, descending); roots[0] is the dilation alpha.  radii[i] is a certified
    inclusion radius: the true root lies within radii[i] of roots_mp[i].
    """

    coeffs: tuple
    degree: int
    roots: tuple          # complex, double precision, modulus-descending
    radii: tuple          # per-root certified inclusion radii
    pv_status: str        # "PV" | "not-PV", decided exactly
    real_count: int       # real conjugates among roots[1:]
    complex_pair_count: int
    roots_mp: tuple = dc_field(default=(), repr=False, compare=False)

    @property
    def alpha(self) -> float:
        return self.roots[0].real


@dataclass(frozen=True)
class FieldElement:
    """Element sum_i nums_i alpha^i / den of Q[alpha]: integer numerators over one
    denominator den > 0, in lowest terms (gcd(den, *nums) == 1), so equal elements
    compare equal.  Build elements with fe and the fe_* operations."""

    nums: tuple
    den: int = 1

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def denominator_lcm(self) -> int:
        """lcm of coordinate denominators (1 iff the element lies in Z[alpha])."""
        return self.den

    def is_zero(self) -> bool:
        return not any(self.nums)


@dataclass(frozen=True)
class LaurentTranslate:
    """Finitely supported integer map j -> coefficient, encoding sum_j c_j alpha^j."""

    items: tuple  # sorted ((j, c), ...) with c != 0

    @property
    def support(self) -> dict:
        return dict(self.items)


@dataclass(frozen=True)
class FieldMatrices:
    """Vandermonde V, its inverse, companion C, and diagonal D for one field.

    Row k of V_inv holds the coefficients of the Lagrange polynomial
    Q_k(X) = P(X) / ((X - alpha_k) P'(alpha_k)).
    """

    V: object
    V_inv: object
    C: object
    D: object
    det_V_abs: float
    disc: int


# ---------------------------------------------------------------------------
# constructors


def laurent(support) -> LaurentTranslate:
    """Build a LaurentTranslate from a {power: coefficient} map."""
    items = tuple(sorted((int(j), int(c)) for j, c in dict(support).items() if int(c) != 0))
    return LaurentTranslate(items)


def laurent_int(n: int) -> LaurentTranslate:
    """Integer translate n = n * alpha^0."""
    return laurent({0: n})


def laurent_add(t1: LaurentTranslate, t2: LaurentTranslate) -> LaurentTranslate:
    acc = dict(t1.items)
    for j, c in t2.items:
        acc[j] = acc.get(j, 0) + c
    return laurent(acc)


def _reduced(nums, den) -> FieldElement:
    """nums/den (den != 0) in lowest terms with a positive denominator."""
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return FieldElement(tuple(n // g for n in nums), den // g)


def fe(field: NumberField, coords) -> FieldElement:
    v = [Fraction(q) for q in coords]
    if len(v) != field.degree:
        raise ValueError("coordinate length %d != field degree %d" % (len(v), field.degree))
    # over the lcm of the reduced denominators the numerators are already in lowest terms
    den = math.lcm(*(q.denominator for q in v))
    return FieldElement(tuple(q.numerator * (den // q.denominator) for q in v), den)


def fe_rational(field: NumberField, q) -> FieldElement:
    return fe(field, (q,) + (0,) * (field.degree - 1))


def fe_alpha(field: NumberField) -> FieldElement:
    """The generator alpha as a field element."""
    if field.degree == 1:
        return FieldElement((-field.coeffs[0],))  # P = X - n
    return FieldElement((0, 1) + (0,) * (field.degree - 2))


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _times_alpha(coeffs, v):
    """C v: the numerators of alpha x from those of x.  Each power moves up one place,
    and alpha^d = -(c_0 + c_1 alpha + ... + c_{d-1} alpha^{d-1}) folds the top one back."""
    return [(v[i - 1] if i else 0) - c * v[-1] for i, c in enumerate(coeffs)]


@functools.lru_cache(maxsize=None)
def _companion_powers(coeffs):
    """Integer matrices C^0..C^{d-1} of x -> alpha^i x in the power basis, as row tuples."""
    d = len(coeffs)
    cols = [[int(i == j) for i in range(d)] for j in range(d)]  # the columns of C^0
    pows = [tuple(zip(*cols))]
    for _ in range(d - 1):
        cols = [_times_alpha(coeffs, v) for v in cols]
        pows.append(tuple(zip(*cols)))
    return tuple(pows)


def _power_combination(field, nums):
    """sum_i nums_i C^i: the matrix of x -> (sum_i nums_i alpha^i) x."""
    pows = _companion_powers(field.coeffs)
    d = field.degree
    return [[sum(q * p[i][j] for q, p in zip(nums, pows)) for j in range(d)] for i in range(d)]


def _int_det(rows):
    """Determinant of an integer matrix by fraction-free Bareiss elimination (Bareiss 1968):
    every division is exact, and a zero pivot swaps in a lower row.  The 0x0
    determinant is 1."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def fe_add(a: FieldElement, b: FieldElement) -> FieldElement:
    den = math.lcm(a.den, b.den)
    return _reduced([x * (den // a.den) + y * (den // b.den) for x, y in zip(a.nums, b.nums)], den)


def fe_scale(a: FieldElement, q) -> FieldElement:
    q = Fraction(q)
    return _reduced([q.numerator * x for x in a.nums], q.denominator * a.den)


def fe_mul(field: NumberField, a: FieldElement, b: FieldElement) -> FieldElement:
    """a*b: the integer matrix of x -> a.nums x applied to b.nums, over a.den*b.den."""
    m = _power_combination(field, a.nums)
    return _reduced([sum(x * y for x, y in zip(row, b.nums)) for row in m], a.den * b.den)


def fe_pow(field: NumberField, a: FieldElement, n: int) -> FieldElement:
    if n < 0:
        return fe_pow(field, fe_inv(field, a), -n)
    out = fe_rational(field, 1)
    base = a
    while n:
        if n & 1:
            out = fe_mul(field, out, base)
        base = fe_mul(field, base, base)
        n >>= 1
    return out


def fe_inv(field: NumberField, a: FieldElement) -> FieldElement:
    """1/a = den adj(M) e_0 / det M for the integer matrix M of x -> a.nums x: column 0
    of the adjugate holds the row-0 cofactors, and det M is their Laplace sum."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero field element")
    m = _power_combination(field, a.nums)
    cof = [(-1) ** i * _int_det([r[:i] + r[i + 1:] for r in m[1:]]) for i in range(field.degree)]
    det = sum(x * c for x, c in zip(m[0], cof))
    return _reduced([a.den * c for c in cof], det)


def fe_embed(field: NumberField, a: FieldElement, k: int = 0, prec: int = None):
    """Complex embedding sigma_k(a) = sum q_i alpha_k^i at extended precision."""
    if prec is None:
        prec = precision_bits()
    with mp.workprec(prec):
        z = field.roots_mp[k]
        acc = mp.mpc(0)
        for n in reversed(a.nums):
            g = math.gcd(n, a.den)  # each coordinate q_i enters in its own lowest terms
            acc = acc * z + mp.mpf(n // g) / (a.den // g)
        return acc


# ---------------------------------------------------------------------------
# exact polynomial utilities (integer coefficient lists, ascending)


def _poly_derivative(p):
    return [i * p[i] for i in range(1, len(p))]


def _monic_poly(field_coeffs):
    """(c_0..c_{d-1}) -> ascending list [c_0, ..., c_{d-1}, 1]."""
    return list(field_coeffs) + [1]


def discriminant(coeffs) -> int:
    """disc(P) via the Sylvester resultant of P and P', exact integer."""
    p = _monic_poly(coeffs)
    dp = _poly_derivative(p)
    n, m = len(p) - 1, len(dp) - 1
    size = n + m
    rows = []
    for poly, copies in ((p, m), (dp, n)):  # shifted copies of P, then of P'
        for i in range(copies):
            row = [0] * size
            for j, c in enumerate(reversed(poly)):
                row[i + j] = c
            rows.append(row)
    return (-1) ** (n * (n - 1) // 2) * _int_det(rows)  # leading coefficient is 1


def _int_poly_divides(field_coeffs, factor_coeffs) -> bool:
    """Does monic integer factor (b_0..b_{e-1}, 1 implicit) divide P exactly?  The
    leading 1 keeps every step of the remainder loop in the integers."""
    r = _monic_poly(field_coeffs)
    g = list(factor_coeffs)
    e = len(g)
    while len(r) > e:
        top = r.pop()
        for i, b in enumerate(g):
            r[len(r) - e + i] -= top * b
    return not any(r)


# ---------------------------------------------------------------------------
# root certification


def _certified_roots(coeffs, prec):
    """Simultaneous-iteration roots plus Weierstrass inclusion radii, sorted by
    descending modulus (ties broken by real then imaginary part, descending).

    The union of disks |z - z_i| <= d * |P(z_i)| / prod_{j != i} |z_i - z_j|
    contains every root; pairwise disjoint disks certify one root each.  None
    when the iteration does not converge, or the disks overlap or reach 1e-9.
    Call inside mp.workprec(prec).
    """
    d = len(coeffs)
    desc = [mp.mpf(1)] + [mp.mpf(c) for c in reversed(coeffs)]
    try:
        roots = mp.polyroots(desc, maxsteps=200, extraprec=prec // 2, cleanup=True)
    except mp.mp.NoConvergence:
        return None
    roots = [mp.mpc(z) for z in roots]
    radii = []
    for i, z in enumerate(roots):
        gap = mp.mpf(1)
        for j, u in enumerate(roots):
            if j != i:
                gap *= abs(z - u)
        radii.append(d * abs(mp.polyval(desc, z)) / gap)
    disjoint = all(
        abs(roots[i] - roots[j]) > radii[i] + radii[j]
        for i in range(d)
        for j in range(i + 1, d)
    )
    if not (disjoint and all(r < 1e-9 for r in radii)):
        return None
    order = sorted(range(d), key=lambda i: (-abs(roots[i]), -mp.re(roots[i]), -mp.im(roots[i])))
    return [roots[i] for i in order], [radii[i] for i in order]


def _rule_out_factors(coeffs, roots):
    """Raise ReducibleError if P has a monic integer factor of degree <= d/2.  Exact:
    every such factor is a product over a subset of the certified roots, and the
    integer division decides each candidate."""
    d = len(coeffs)
    for e in range(1, d // 2 + 1):
        for sub in itertools.combinations(range(d), e):
            # expand prod_{i in sub} (X - roots[i]), ascending coefficients
            cand = [mp.mpc(1)]
            for i in sub:
                nxt = [mp.mpc(0)] * (len(cand) + 1)
                for t, c in enumerate(cand):
                    nxt[t + 1] += c
                    nxt[t] -= roots[i] * c
                cand = nxt
            ints = [int(mp.nint(mp.re(c))) for c in cand[:-1]]  # drop the monic leading 1
            if all(abs(c - n) <= 0.25 for c, n in zip(cand, ints)) and _int_poly_divides(coeffs, ints):
                raise ReducibleError(
                    "monic factor with ascending coefficients %s divides %s" % (tuple(ints) + (1,), coeffs)
                )


def _build_field(coeffs):
    coeffs = tuple(int(c) for c in coeffs)
    d = len(coeffs)
    if d == 0:
        raise ValueError("empty coefficient list")
    if d > _MAX_DEGREE:
        raise ValueError("degree %d beyond supported bound %d" % (d, _MAX_DEGREE))
    if coeffs[0] == 0:
        raise ValueError("c_0 must be nonzero (alpha must be invertible)")
    disc = discriminant(coeffs)
    if disc == 0:
        raise DegenerateError("polynomial is not squarefree: %s" % (coeffs,))
    p = _monic_poly(coeffs)
    reciprocal = p[::-1] == [p[0] * c for c in p]  # X^d P(1/X) = +-P

    # Double the precision until the disks are certified, P is known irreducible,
    # and, unless P is reciprocal, no disk meets |z| = 1.  An irreducible integer
    # polynomial with a root on |z| = 1 is reciprocal (1/z = conj z is a root too;
    # Salem 1963), so every other input leaves the circle at a finite precision.
    for prec in [4 * precision_bits() << k for k in range(4)]:
        with mp.workprec(prec):
            cert = _certified_roots(coeffs, prec)
            if cert is not None:
                roots, radii = cert
                _rule_out_factors(coeffs, roots)
                if reciprocal or all(abs(abs(z) - 1) > r for z, r in zip(roots, radii)):
                    break
    else:
        raise PrecisionError("roots not certified (disjoint disks below 1e-9, off |z| = 1) by %d bits" % prec)

    with mp.workprec(prec):
        if d == 1:
            pv = "not-PV"
        elif reciprocal:
            # the roots pair as z, 1/z: PV only for a real pair alpha, 1/alpha
            pv = "PV" if d == 2 and disc > 0 else "not-PV"
        else:
            z1, r1 = roots[0], radii[0]
            outside = abs(mp.im(z1)) <= r1 and abs(z1) - r1 > 1
            inside = all(abs(z) + r < 1 for z, r in zip(roots[1:], radii[1:]))
            pv = "PV" if outside and inside else "not-PV"
        # snap certified-real roots (conjugate pairs keep their imaginary parts)
        cleaned = [mp.mpc(mp.re(z)) if abs(mp.im(z)) <= r else z for z, r in zip(roots, radii)]
        a = sum(1 for z in cleaned[1:] if mp.im(z) == 0)
        b = (d - 1 - a) // 2

    return NumberField(
        coeffs=coeffs,
        degree=d,
        roots=tuple(complex(z) for z in cleaned),
        radii=tuple(float(max(r, _RADIUS_FLOOR)) for r in radii),
        pv_status=pv,
        real_count=a,
        complex_pair_count=b,
        roots_mp=tuple(cleaned),
    )


def make_field(coeffs) -> NumberField:
    """Certify a monic integer polynomial (c_0, ..., c_{d-1}), d >= 2.

    Raises ReducibleError / DegenerateError / PrecisionError as applicable.
    pv_status is exact, "PV" or "not-PV": a reciprocal P is PV only when d = 2
    and disc(P) > 0; any other P is PV when alpha's certified disk is real and
    outside the unit circle and every other disk lies inside it.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) == 1:
        raise ValueError("degree must be >= 2 (got 1)")
    return _build_field(coeffs)


def integer_dilation_field(n: int) -> NumberField:
    """Degree-1 field for an integer dilation |n| >= 2 (never PV by definition)."""
    n = int(n)
    if abs(n) < 2:
        raise ValueError("integer dilation must satisfy |n| >= 2")
    return _build_field((-n,))


def parse_poly(text: str):
    """Parse 'c0,c1,...' into an integer coefficient tuple (monic leading 1 implicit)."""
    parts = [p.strip() for p in str(text).split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("empty polynomial spec")
    return tuple(int(p) for p in parts)


# ---------------------------------------------------------------------------
# spec operations


def _int_trace(field: NumberField, nums) -> int:
    """T(sum_i nums_i alpha^i) for integer nums: sum_i nums_i tr(C^i) over the companion powers."""
    pows = _companion_powers(field.coeffs)
    return sum(q * sum(p[i][i] for i in range(field.degree)) for q, p in zip(nums, pows))


def trace(elem: FieldElement, field: NumberField) -> Fraction:
    """T(elem) = sum of conjugates, exactly: the integer trace of the numerators over den."""
    return Fraction(_int_trace(field, elem.nums), elem.den)


def int_norm(field: NumberField, nums) -> int:
    """N(sum_i nums_i alpha^i) for integer nums: the Bareiss determinant of sum_i nums_i C^i."""
    return _int_det(_power_combination(field, nums))


def norm(elem: FieldElement, field: NumberField) -> Fraction:
    """N(elem) = product of conjugates, exactly: int_norm(nums)/den^d."""
    return Fraction(int_norm(field, elem.nums), elem.den**field.degree)


def trace_power_sequence(field: NumberField, mu: FieldElement, j_max: int):
    """s(j) = T(mu * alpha^j) for j = 0..j_max, exact.

    First d values from explicit traces, then the integer-coefficient
    recurrence s(j) = -c_{d-1} s(j-1) - ... - c_0 s(j-d), both on the integer
    traces of the numerators over mu.den.
    """
    d = field.degree
    if j_max < d - 1:
        raise ValueError("j_max must be >= degree-1")
    c = field.coeffs
    seq = []
    nums = mu.nums
    for _ in range(d):
        seq.append(_int_trace(field, nums))
        nums = _times_alpha(c, nums)
    for j in range(d, j_max + 1):
        seq.append(-sum(c[i] * seq[j - d + i] for i in range(d)))
    return [Fraction(s, mu.den) for s in seq]


def pisot_set_test(field: NumberField, mu: FieldElement) -> bool:
    """Integer-trace test: T(mu alpha^j) in Z for j = 0..d-1.

    Characterizes membership of mu in the Pisot set of alpha up to powers of
    alpha; requires a certified PV field.
    """
    if field.pv_status != "PV":
        raise NotPisotError("field is %s, need certified PV" % field.pv_status)
    if mu.is_zero():
        raise ValueError("mu must be nonzero")
    return all(s.denominator == 1 for s in trace_power_sequence(field, mu, field.degree - 1))


def dist_to_int(x):
    """Distance from x to the nearest integer, in [0, 1/2]."""
    if isinstance(x, mp.mpf):
        f = x - mp.floor(x)
        return min(f, 1 - f)
    f = x - math.floor(x)
    return min(f, 1 - f)


def homoclinic_profile(field: NumberField, lam: FieldElement, j_range):
    """Tabulate ||lam * alpha^j|| with the exact-trace residue trick.

    lam * alpha^j = s(j) - sum_{k>=2} sigma_k(lam) alpha_k^j with s(j) the exact
    rational trace, so the distance is computed from small residues only; large
    powers never enter floating arithmetic.  Returns (points, fitted_slope)
    where points = [(j, dist), ...] and the slope is the least-squares fit of
    log dist over the last half of the range (zero distances excluded).

    Also verifies the certified bound dist <= sum_{k>=2} |sigma_k(lam)| |alpha_k|^j
    pointwise at every j with integer s(j); a violation raises PrecisionError.
    """
    if field.pv_status != "PV":
        raise NotPisotError("field is %s, need certified PV" % field.pv_status)
    js = sorted(int(j) for j in j_range)
    if not js:
        raise ValueError("empty j_range")
    # membership (up to a power shift): some alpha^m * lam must pass the trace test
    al = fe_alpha(field)
    shifted = lam
    for _ in range(64):
        if pisot_set_test(field, shifted):
            break
        shifted = fe_mul(field, shifted, al)
    else:
        raise ValueError("lam does not reach the Pisot set within 64 power shifts")

    prec = precision_bits()
    seq = trace_power_sequence(field, lam, max(js[-1], field.degree - 1))
    pts = []
    with mp.workprec(prec):
        conj = [fe_embed(field, lam, k, prec) for k in range(1, field.degree)]
        mods = [abs(c) for c in conj]
        rk = [abs(field.roots_mp[k]) for k in range(1, field.degree)]
        for j in js:
            if j >= 0:
                s_j = seq[j]
            else:
                s_j = trace(fe_mul(field, lam, fe_pow(field, al, j)), field)
            res = -sum(c * field.roots_mp[k + 1] ** j for k, c in enumerate(conj))
            x = mp.mpf(s_j.numerator % s_j.denominator) / s_j.denominator + mp.re(res)
            dist = float(dist_to_int(x))
            if s_j.denominator == 1:
                bound = float(sum(m * (r ** j) for m, r in zip(mods, rk)))
                if dist > bound + 1e-12 * (1 + bound):
                    raise PrecisionError("homoclinic bound violated at j=%d" % j)
            pts.append((j, dist))
    tail = [(j, d) for j, d in pts[len(pts) // 2 :] if d > 0]
    slope = float("nan")
    if len(tail) >= 2:
        xs = [j for j, _ in tail]
        ys = [math.log(d) for _, d in tail]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        denom = sum((x - mx) ** 2 for x in xs)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
    return pts, slope


@functools.lru_cache(maxsize=32)
def first_lagrange_row(field: NumberField):
    """Row 1 of V^{-1} as exact field elements, cached per field.

    Entry i is the coefficient of X^i in P(X)/((X - alpha) P'(alpha)), an
    element of Q[alpha]; rows k >= 2 are its conjugates.
    """
    d = field.degree
    al = fe_alpha(field)
    # quotient of P by (X - alpha): q_{d-1}=1, q_{i} = c_{i+1} + alpha*q_{i+1}
    q = [None] * d
    q[d - 1] = fe_rational(field, 1)
    for i in range(d - 2, -1, -1):
        q[i] = fe_add(fe_rational(field, field.coeffs[i + 1]), fe_mul(field, al, q[i + 1]))
    # P'(alpha): P' has exactly d coefficients, so they are its coordinates
    inv = fe_inv(field, fe(field, _poly_derivative(_monic_poly(field.coeffs))))
    return tuple(fe_mul(field, qi, inv) for qi in q)


def field_matrices(field: NumberField) -> FieldMatrices:
    """Build V (Vandermonde of roots), V^{-1} (Lagrange rows), companion C, diagonal D."""
    import numpy as np

    d = field.degree
    prec = precision_bits()
    with mp.workprec(prec):
        V = np.array(
            [[complex(field.roots_mp[k] ** i) for k in range(d)] for i in range(d)],
            dtype=complex,
        )
        row1 = first_lagrange_row(field)
        V_inv = np.array(
            [[complex(fe_embed(field, row1[i], k, prec)) for i in range(d)] for k in range(d)],
            dtype=complex,
        )
        det = mp.mpc(1)
        for i in range(d):
            for j in range(i + 1, d):
                det *= field.roots_mp[j] - field.roots_mp[i]
        det_abs = float(abs(det))
    C = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        C[i, i + 1] = 1.0
    C[d - 1, :] = [-c for c in field.coeffs]
    D = np.diag(np.array(field.roots, dtype=complex))
    err = np.max(np.abs(C @ V - V @ D))
    if err > 1e-8:
        raise PrecisionError("companion/Vandermonde consistency error %.3e" % err)
    return FieldMatrices(V=V, V_inv=V_inv, C=C, D=D, det_V_abs=det_abs, disc=discriminant(field.coeffs))


def laurent_embed(field: NumberField, t: LaurentTranslate):
    """Exact reduction of sum_j c_j alpha^j to a FieldElement plus its real embedding.

    Negative powers clear through the exact inverse
    alpha^{-1} = -(alpha^{d-1} + c_{d-1} alpha^{d-2} + ... + c_1)/c_0.
    """
    al = fe_alpha(field)
    acc = fe_rational(field, 0)
    for j, c in t.items:
        acc = fe_add(acc, fe_scale(fe_pow(field, al, j), c))
    return acc, float(mp.re(fe_embed(field, acc, 0)))
