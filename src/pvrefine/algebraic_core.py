"""Exact and certified arithmetic for the number field Q[alpha].

Field elements are integer numerators over one positive denominator, in
lowest terms, in the power basis 1, alpha, ..., alpha^(d-1), and all exact
work runs on integers: products and inverses (by the adjugate) go through
the cached integer companion powers C^0..C^{d-1}, norms and the discriminant
are fraction-free Bareiss determinants, and traces follow the integer trace
recurrence.  Fraction is only the input and output type at the public edge.
Complex embeddings come from certified roots with Weierstrass a-posteriori
inclusion disks, found without LAPACK or mpc arithmetic: Aberth seeds in
Python complex, split into real and complex ones by an exact Sturm count,
refined by Newton in fixed-point Gaussian integers at doubling precision and
rounded once to the roots mp.polyroots gives; the disks are exact integer
arithmetic at those dyadic roots.  polyroots' simultaneous iteration takes
over where a coefficient or seed is not a finite double or the refined roots
do not certify.  The PV verdict is exact, "PV" or "not-PV": the precision
doubles until the disks clear the unit circle, which they do for every
irreducible P that is not reciprocal, and a reciprocal P is decided from its
degree and discriminant.

A PV (Pisot-Vijayaraghavan) number here: a real algebraic integer of degree
>= 2 with |alpha| > 1 whose remaining conjugates lie strictly inside the
unit circle.
"""

import contextvars
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import (
    DegenerateError,
    NotPisotError,
    PrecisionError,
    ReducibleError,
)

# radii below this are reported as the floor itself (still a valid bound)
_RADIUS_FLOOR = 1e-290

# the factor search tries all sum_{e <= d/2} C(d, e) root subsets, 162 at degree 8, and
# the Aberth rounds cost d^2 each; 8 keeps a field under a few milliseconds
_MAX_DEGREE = 8

# alpha_power keeps alpha^n for |n| up to this span while a power stays under this many
# bits: about 360 KB for the golden field, at most 4 MB a direction for any field
_ALPHA_TABLE_SPAN = 2048
_ALPHA_TABLE_BITS = 2**14


# the working precision of the current context, in mantissa bits
working_precision = contextvars.ContextVar("working_precision", default=128)

# the floor: at 32 bits lattice-density miscounts Y(L), and from 64 bits its bytes equal 128's;
# the ceiling keeps a run to seconds: bernoulli on the tribonacci field takes 2.3 s at
# 16,384 bits and 38 s at 65,536
_MIN_PRECISION_BITS = 64
_MAX_PRECISION_BITS = 16384


def precision_bits() -> int:
    """Working mantissa bits for extended-precision steps: the context's
    working_precision, 128 unless set.  ValueError below 64 or above 16,384 bits."""
    bits = working_precision.get()
    if bits < _MIN_PRECISION_BITS:
        raise ValueError("working precision %d is under the %d-bit floor; raise --precision-bits"
                         % (bits, _MIN_PRECISION_BITS))
    if bits > _MAX_PRECISION_BITS:
        raise ValueError("working precision %d is over the %d-bit ceiling; lower --precision-bits"
                         % (bits, _MAX_PRECISION_BITS))
    return bits


def _check_fraction_bits(what: str, y, log2_scale: float, bits: int, advice: str = "raise --precision-bits"):
    """PrecisionError unless |y| 2^log2_scale keeps 32 fractional bits in a bits-bit
    mantissa.  The magnitude is taken in logs, so a large power cannot overflow,
    and a non-finite y is refused too."""
    log2_mag = math.log2(abs(y)) + log2_scale if y else -math.inf
    if not log2_mag <= bits - 32:
        raise PrecisionError("%s = 2^%.4g overflows the %d-bit budget, leaving under 32 fractional bits; %s"
                             % (what, log2_mag, bits, advice))


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

    def is_zero(self) -> bool:
        return not any(self.nums)


@dataclass(frozen=True)
class LaurentTranslate:
    """Finitely supported integer map j -> coefficient, encoding sum_j c_j alpha^j."""

    items: tuple  # sorted ((j, c), ...) with c != 0

    @property
    def support(self) -> dict:
        return dict(self.items)


# ---------------------------------------------------------------------------
# constructors


def laurent(support) -> LaurentTranslate:
    """Build a LaurentTranslate from a {power: coefficient} map."""
    items = tuple(sorted((int(j), int(c)) for j, c in dict(support).items() if int(c) != 0))
    return LaurentTranslate(items)


def laurent_int(n: int) -> LaurentTranslate:
    """Integer translate n = n * alpha^0."""
    return laurent({0: n})


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
    """Determinant of an integer matrix by fraction-free Bareiss elimination (Bareiss 1968), or of
    each matrix of an object array (..., n, n) of Python ints, whose entries then run as arrays over
    the leading axes.  Every division is exact: a zero pivot gets the rows below added until it is
    not, and one that stays zero leaves a zero block, 1 its stand-in divisor.  0x0 gives 1."""
    stack = isinstance(rows, np.ndarray) and rows.ndim > 2
    m = [list(r) for r in (np.moveaxis(rows, (-2, -1), (0, 1)) if stack else rows)]
    n = len(m)
    if not n:
        return np.ones(rows.shape[:-2], dtype=object) if stack else 1
    prev = 1
    for k in range(n - 1):
        zero = m[k][k] == 0
        if zero.any() if stack else zero:
            for r in range(k + 1, n):
                m[k] = [a + zero * b for a, b in zip(m[k], m[r])]
                zero = m[k][k] == 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k] + zero
    return m[n - 1][n - 1]


def fe_add(a: FieldElement, b: FieldElement) -> FieldElement:
    den = math.lcm(a.den, b.den)
    return _reduced([x * (den // a.den) + y * (den // b.den) for x, y in zip(a.nums, b.nums)], den)


def fe_scale(a: FieldElement, q) -> FieldElement:
    if isinstance(q, int):
        return _reduced([q * x for x in a.nums], a.den)
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


@functools.lru_cache(maxsize=64)
def _alpha_powers(coeffs):
    """The power table of the field with these coefficients: ([alpha^0, alpha^1, ...],
    [alpha^0, alpha^-1, ...]), each list grown by alpha_power."""
    one = FieldElement((1,) + (0,) * (len(coeffs) - 1))
    return [one], [one]


def _alpha_step(coeffs, a: FieldElement, down: bool) -> FieldElement:
    """alpha a, or a / alpha if down: 1/alpha = -(c_1 + c_2 alpha + ... + alpha^{d-1}) / c_0
    moves each power down one place and folds the bottom one back."""
    if not down:
        return _reduced(_times_alpha(coeffs, a.nums), a.den)
    v0 = a.nums[0]
    return _reduced([coeffs[0] * x - v0 * c for x, c in zip(a.nums[1:] + (0,), coeffs[1:] + (1,))],
                    coeffs[0] * a.den)


def alpha_power(field: NumberField, n: int) -> FieldElement:
    """alpha^n from the field's power table, which holds alpha^0..alpha^+-m contiguously
    and grows in a loop, one step by alpha or 1/alpha per power, so a K = 1000 term mask
    needs no deep recursion.  It grows up to |n| = _ALPHA_TABLE_SPAN while its last power
    is under _ALPHA_TABLE_BITS bits; powers past that take fe_pow and are not kept."""
    seq = _alpha_powers(field.coeffs)[n < 0]
    k = abs(n)
    while len(seq) <= min(k, _ALPHA_TABLE_SPAN) and _bits(seq[-1]) < _ALPHA_TABLE_BITS:
        seq.append(_alpha_step(field.coeffs, seq[-1], n < 0))
    return seq[k] if k < len(seq) else fe_pow(field, seq[1], k)


def _bits(a: FieldElement) -> int:
    return a.den.bit_length() + sum(n.bit_length() for n in a.nums)


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
        acc = None  # Horner from the top coordinate: 0 * z + q_top is q_top exactly
        for n in reversed(a.nums):
            g = math.gcd(n, a.den)  # each coordinate q_i enters in its own lowest terms
            q = mp.mpf(n // g) / (a.den // g)
            acc = mp.mpc(q) if acc is None else acc * z + q
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


def _real_root_count(p) -> int:
    """Distinct real roots of the squarefree integer polynomial p (ascending coefficients): the sign
    changes of its Sturm chain at -inf less those at +inf (Sturm 1829).  Each remainder is a
    pseudo-remainder scaled by a positive integer, its content divided out, so the chain keeps the
    signs of the Sturm chain over Q and stays in the integers."""
    chain = [p, _poly_derivative(p)]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        scale, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
        while len(r) >= len(b):
            top, shift = sign * r[-1], len(r) - len(b)
            r = [scale * x for x in r]
            for i, c in enumerate(b):
                r[shift + i] -= top * c
            r.pop()
        while r and not r[-1]:
            r.pop()
        g = math.gcd(*r)
        chain.append([-x // g for x in r])
    at_pos = [q[-1] > 0 for q in chain]
    at_neg = [(q[-1] > 0) == (len(q) % 2 == 1) for q in chain]
    return sum(a != b for a, b in zip(at_neg, at_neg[1:])) - sum(a != b for a, b in zip(at_pos, at_pos[1:]))


def _aberth_seeds(coeffs):
    """Every root of P to double precision by the Aberth-Ehrlich iteration (Aberth 1973) in Python
    complex: from a circle of radius |c_0|^(1/d), each z_i in turn moves by w / (1 - w sum_{j != i}
    1/(z_i - z_j)), w = P(z_i)/P'(z_i), until a round moves no z_i by more than 2^-40 |z_i|.  None
    when a coefficient is not a finite double, or the iteration breaks down or has not settled
    after 100 rounds."""
    try:
        cs = [float(c) for c in reversed(coeffs)]
    except OverflowError:
        return None
    d = len(cs)
    r = abs(cs[-1]) ** (1 / d)
    zs = [complex(r * math.cos(t), r * math.sin(t)) for t in (0.4 + 2 * math.pi * k / d for k in range(d))]
    try:
        for _ in range(100):
            settled = True
            for i, z in enumerate(zs):
                v, dv = 1, 0
                for c in cs:
                    dv = dv * z + v
                    v = v * z + c
                w = v / dv
                w /= 1 - w * sum(1 / (z - u) for j, u in enumerate(zs) if j != i)
                zs[i] = z - w
                settled = settled and abs(w) <= 2 ** -40 * abs(z)
            if settled:
                return zs if all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs) else None
    except ZeroDivisionError:
        pass
    return None


def _fixed_horner(coeffs, x, y, f):
    """P(z) and P'(z) at z = (x + iy) 2^-f, as the integer parts (vx, vy, dx, dy) over 2^f, each
    product truncated to f fractional bits; at y = 0 both imaginary parts stay 0."""
    v, dv, vy, dy = 1 << f, 0, 0, 0
    for c in reversed(coeffs):
        dv, dy = ((dv * x - dy * y) >> f) + v, ((dv * y + dy * x) >> f) + vy
        v, vy = ((v * x - vy * y) >> f) + (c << f), (v * y + vy * x) >> f
    return v, vy, dv, dy


def _newton_roots(coeffs, prec):
    """The roots of the monic P with coefficients (c_0, ..., c_{d-1}) as mp.polyroots gives them,
    without LAPACK or mpc arithmetic.  The Aberth seeds split into real and complex ones by the
    exact Sturm count: the seeds nearest the real axis are the real roots, and each seed above it
    stands for a conjugate pair.  Newton refines each seed in fixed-point Gaussian integers at
    doubling precision up to polyroots' working precision prec + prec // 2, at p bits keeping p + 16
    bits relative to the seed's modulus; a real seed stays real.  Polyroots' cleanup of parts below
    eps = 2^(1 - prec) is decided exactly, and each part is rounded once to prec bits.  None when a
    coefficient or seed is not a finite double, the seeds do not split as the count does, P' vanishes
    at an iterate, or the last step, repeated at full precision, exceeds 2^(16 - prec) max(1, |z|).
    Call inside mp.workprec(prec)."""
    seeds = _aberth_seeds(coeffs)
    if seeds is None:
        return None
    real = _real_root_count(_monic_poly(coeffs))
    seeds.sort(key=lambda s: abs(s.imag))
    upper = [s for s in seeds[real:] if s.imag > 0]
    if 2 * len(upper) != len(seeds) - real:
        return None
    top = prec + prec // 2
    precs = [top, top]
    while precs[0] > 128:
        precs.insert(0, precs[0] // 2)
    roots = []
    for s in [complex(s.real) for s in seeds[:real]] + upper:
        e = math.frexp(abs(s))[1]  # |s| < 2^e
        f = max(precs[0] - e + 16, 0)
        x, y = int(math.ldexp(s.real, f)), int(math.ldexp(s.imag, f))
        for p in precs:
            shift = max(p - e + 16, 0) - f
            x, y, f = x << shift, y << shift, f + shift
            vx, vy, dx, dy = _fixed_horner(coeffs, x, y, f)
            n2 = dx * dx + dy * dy
            if not n2:
                return None
            sx, sy = ((vx * dx + vy * dy) << f) // n2, ((vy * dx - vx * dy) << f) // n2
            x, y = x - sx, y - sy
        if (sx * sx + sy * sy) << 2 * (prec - 16) > max(1 << 2 * f, x * x + y * y):
            return None
        tol2 = 1 << max(2 * (1 - prec + f), 0)  # eps^2 in units of 2^-2f, or 1 below one unit
        if x * x + y * y < tol2:
            x = y = 0
        elif y * y < tol2:
            y = 0
        elif x * x < tol2:
            x = 0
        z = mp.mpc(mp.mpf((x, -f)), mp.mpf((y, -f)))
        roots += [z, mp.conj(z)] if s.imag else [z]
    return roots


def _certified_roots(coeffs, prec):
    """The certified roots as (s, roots, ws, bounds), sorted by descending modulus (ties
    broken by real then imaginary part, descending): root i is the mpc roots[i] =
    ws[i] 2^-s for a Gaussian integer ws[i] = (x, y), inside the disk of radius below
    q 2^-t, bounds[i] = (q, t), that holds one root of P.

    The roots are _newton_roots', or mp.polyroots' (simultaneous iteration) when
    a coefficient or seed is not a finite double, Newton does not settle, or its
    roots fail to certify.  The union of disks |z - z_i| <= d * |P(z_i)| /
    prod_{j != i} |z_i - z_j| contains every root; pairwise disjoint disks certify
    one root each, and _inclusion_disks decides both exactly.  None when polyroots
    does not converge, or the disks overlap or reach 1e-9.  Call inside
    mp.workprec(prec).
    """
    roots = _newton_roots(coeffs, prec)
    cert = None if roots is None else _inclusion_disks(coeffs, roots, prec)
    if cert is None:
        desc = [mp.mpf(1)] + [mp.mpf(c) for c in reversed(coeffs)]
        try:
            roots = mp.polyroots(desc, maxsteps=200, extraprec=prec // 2, cleanup=True)
        except mp.mp.NoConvergence:
            return None
        cert = _inclusion_disks(coeffs, [mp.mpc(z) for z in roots], prec)
    return cert


def _inclusion_disks(coeffs, roots, prec):
    """(s, roots, ws, bounds) sorted as _certified_roots returns them, or None unless no
    root is 0 and the Weierstrass disks are pairwise disjoint and below 1e-9.  Exact:
    each mpc root is w_i 2^-s for a Gaussian integer w_i, so Q_i = 2^(sd) P(z_i) is a
    Gaussian integer and the radius is d |Q_i| / (2^s sqrt(G_i)), G_i = prod_{j != i}
    |w_i - w_j|^2.  It is rounded up to q 2^-t with a 53-bit q, whose exponent has no
    floor (the 10^400 field's radius is 2e-400), and disjointness compares the exact
    squared gaps with the squared sums of those bounds.  The order is that of the exact
    moduli; where two roots that are not reflections of each other agree to about prec
    bits, mp's moduli rounded to prec bits decide it, as they always have."""
    d = len(roots)
    parts = [p._mpf_ for z in roots for p in (z.real, z.imag)]
    s = max([0] + [-e for _, m, e, _ in parts if m])
    ints = [(-m if sign else m) << (e + s) for sign, m, e, _ in parts]
    ws = list(zip(ints[::2], ints[1::2]))
    if (0, 0) in ws:  # P(0) = c_0 is not 0: polyroots' cleanup took every bit of a root below eps
        return None
    gaps = {}
    for i, j in itertools.combinations(range(d), 2):
        gaps[i, j] = gaps[j, i] = (ws[i][0] - ws[j][0]) ** 2 + (ws[i][1] - ws[j][1]) ** 2
    bounds = []
    for i, (x, y) in enumerate(ws):
        qx, qy, scale = 1, 0, 1
        for c in reversed(coeffs):
            scale <<= s
            qx, qy = qx * x - qy * y + c * scale, qx * y + qy * x
        num, den = d * d * (qx * qx + qy * qy), math.prod(gaps[i, j] for j in range(d) if j != i) << 2 * s
        if not den or num >= den:  # a repeated root, or a radius of 1 or more
            return None
        # r < q 2^-t with q below 2^53 (num < den makes t at least 51), or r = 0 at an exact root
        t = 52 - (num.bit_length() - den.bit_length() + 2) // 2
        bounds.append((math.isqrt((num << 2 * t) // den) + 1, t) if num else (0, 0))
    for (i, (qi, ti)), (j, (qj, tj)) in itertools.combinations(enumerate(bounds), 2):
        top = max(ti, tj)
        a = (qi << top - ti) + (qj << top - tj)  # r_i + r_j < a 2^-top
        if gaps[i, j] << 2 * top <= a * a << 2 * s:
            return None
    if not all(math.ldexp(q, -t) < 1e-9 for q, t in bounds):  # exact: q 2^-t is a normal double near 1e-9
        return None
    mods = [x * x + y * y for x, y in ws]
    shapes = [sorted(map(abs, w)) for w in ws]
    if any(shapes[i] != shapes[j] and abs(mods[i] - mods[j]) << prec - 3 <= max(mods[i], mods[j])
           for i, j in itertools.combinations(range(d), 2)):
        mods = [abs(z) for z in roots]
    order = sorted(range(d), key=lambda i: (-mods[i], -ws[i][0], -ws[i][1]))
    return (s,) + tuple([seq[i] for i in order] for seq in (roots, ws, bounds))


def _disk_side(w, s, bound):
    """1 if the disk |z - w 2^-s| < q 2^-t, bound = (q, t), lies outside the unit circle,
    -1 if inside, 0 if it meets it; exact."""
    (x, y), (q, t) = w, bound
    mod2, one = (x * x + y * y) << 2 * t, 1 << t
    if mod2 > (one + q) ** 2 << 2 * s:
        return 1
    return -1 if q < one and mod2 < (one - q) ** 2 << 2 * s else 0


def _rule_out_factors(coeffs, roots):
    """Raise ReducibleError if P has a monic integer factor of degree <= d/2.  Exact:
    every such factor is a product over a subset of the certified roots, and the
    integer division decides each candidate.  The products are expanded in Python
    complex from the roots rounded to doubles.  With u = 2^-53 and M = prod_i (1 + |z_i|),
    a coefficient of a product of e roots is then within bound = 8 e u M of the exact
    one: rounding a root perturbs its linear factor by a relative u, and each
    multiply-add by at most (sqrt 5 + 1) u of the coefficient of prod (X + |z_i|), which
    M bounds.  Only a candidate within 0.25 + bound of integers goes to the division,
    and its constant coefficient, a running product over the subset, is tested before
    the rest is expanded.  Where the bound is not below 1/8 (roots past about 10^13),
    the products are taken in mpc at the working precision instead."""
    d = len(coeffs)
    zs = [complex(z) for z in roots]
    bound = 8 * (d // 2) * 2.0 ** -53 * math.prod(1 + abs(z) for z in zs)
    if bound < 0.125:
        tol, nearest = 0.25 + bound, lambda c: round(c.real)
    else:  # also when a root or M overflows
        zs, tol, nearest = roots, 0.25, lambda c: int(mp.nint(c.real))
    lows = {(): 1}
    for e in range(1, d // 2 + 1):
        lows = {sub: -lows[sub[:-1]] * zs[sub[-1]] for sub in itertools.combinations(range(d), e)}
        for sub, low in lows.items():
            if abs(low - nearest(low)) > tol:
                continue
            cand = [1]  # ascending coefficients of prod_{i in sub} (X - z_i)
            for i in sub:
                cand = [a - zs[i] * b for a, b in zip([0] + cand, cand + [0])]
            ints = [nearest(c) for c in cand[:-1]]  # drop the leading 1
            if all(abs(c - n) <= tol for c, n in zip(cand, ints)) and _int_poly_divides(coeffs, ints):
                raise ReducibleError(
                    "monic factor with ascending coefficients %s divides %s" % (tuple(ints) + (1,), coeffs)
                )


def make_field(coeffs) -> NumberField:
    """Certify a monic integer polynomial (c_0, ..., c_{d-1}), d >= 2.

    The roots are certified at 4 precision_bits() bits, doubled up to three times:
    Aberth seeds and integer Newton (_newton_roots) or mp.polyroots give roots rounded
    to that precision, and _inclusion_disks proves exactly that each lies within its
    radius of one root of P.  The factor search then rules out every monic integer
    factor of degree <= d/2.  Raises ReducibleError / DegenerateError / PrecisionError
    as applicable.  pv_status is exact, "PV" or "not-PV": a reciprocal P is PV only
    when d = 2 and disc(P) > 0; any other P is PV when alpha's certified disk is real
    and outside the unit circle and every other disk lies inside it.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) == 1:
        raise ValueError("degree must be >= 2 (got 1)")
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
                s, roots, ws, bounds = cert
                _rule_out_factors(coeffs, roots)
                sides = [_disk_side(w, s, b) for w, b in zip(ws, bounds)]
                if reciprocal or all(sides):
                    break
    else:
        raise PrecisionError("roots not certified (disjoint disks below 1e-9, off |z| = 1) by %d bits" % prec)

    with mp.workprec(prec):
        real, cleaned, radii = _field_roots(s, roots, ws, bounds)
    if reciprocal:
        # the roots pair as z, 1/z: PV only for a real pair alpha, 1/alpha
        pv = "PV" if d == 2 and disc > 0 else "not-PV"
    else:
        pv = "PV" if real[0] and sides[0] == 1 and all(side == -1 for side in sides[1:]) else "not-PV"
    a = sum(real[1:])

    return NumberField(
        coeffs=coeffs,
        degree=d,
        roots=tuple(complex(z) for z in cleaned),
        radii=radii,
        pv_status=pv,
        real_count=a,
        complex_pair_count=(d - 1 - a) // 2,
        roots_mp=cleaned,
    )


def _field_roots(s, roots, ws, bounds):
    """(real, roots_mp, radii) of a _certified_roots result: a disk that meets the real axis
    holds a real root (conjugate pairs keep their imaginary parts), whose mpc drops its
    imaginary part; the radii as floats, at least _RADIUS_FLOOR.  Call inside mp.workprec(prec)."""
    real = [abs(y) << t <= q << s for (_, y), (q, t) in zip(ws, bounds)]
    cleaned = tuple(mp.mpc(z.real) if r and z.imag else z for z, r in zip(roots, real))
    return real, cleaned, tuple(max(math.ldexp(q, -t), _RADIUS_FLOOR) for q, t in bounds)


@functools.lru_cache(maxsize=32)
def _recertified(field: NumberField, prec: int) -> NumberField:
    """field with its roots_mp and radii certified again at prec bits, or field itself
    where they do not certify there."""
    with mp.workprec(prec):
        cert = _certified_roots(field.coeffs, prec)
        if cert is None:
            return field
        _, roots_mp, radii = _field_roots(*cert)
    return dataclasses.replace(field, roots_mp=roots_mp, radii=radii)


def integer_dilation_field(n: int) -> NumberField:
    """Degree-1 field for an integer dilation |n| >= 2 (never PV by definition), built
    directly: P = X - n has the root n itself, exact at any precision, so its radius is
    _RADIUS_FLOOR and there is nothing to search or refine."""
    n = int(n)
    if abs(n) < 2:
        raise ValueError("integer dilation must satisfy |n| >= 2")
    with mp.workprec(max(4 * precision_bits(), n.bit_length())):
        root = mp.mpc(n)
    return NumberField(coeffs=(-n,), degree=1, roots=(complex(root),), radii=(_RADIUS_FLOOR,), pv_status="not-PV",
                       real_count=0, complex_pair_count=0, roots_mp=(root,))


def parse_poly(text: str):
    """Parse 'c0,c1,...' into an integer coefficient tuple (monic leading 1 implicit).
    ValueError on a blank coefficient, as in '', '1,,2' or '-1,'."""
    parts = str(text).split(",")
    if not all(p.strip() for p in parts):
        raise ValueError("blank coefficient in polynomial spec %r" % text)
    return tuple(int(p) for p in parts)


def read_key_values(path: str) -> dict:
    """{key: value} of a file of key = value lines, as --config and mask files are
    written: '#' starts a comment, blank lines are skipped, a repeated key keeps its
    last value.  ValueError naming path:lineno on any other line."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError("%s:%d: expected key=value, got %r" % (path, lineno, raw.strip()))
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# spec operations


def _int_trace(field: NumberField, nums) -> int:
    """T(sum_i nums_i alpha^i) for integer nums: sum_i nums_i tr(C^i) over the companion powers."""
    pows = _companion_powers(field.coeffs)
    return sum(q * sum(p[i][i] for i in range(field.degree)) for q, p in zip(nums, pows))


def trace(elem: FieldElement, field: NumberField) -> Fraction:
    """T(elem) = sum of conjugates, exactly: the integer trace of the numerators over den."""
    return Fraction(_int_trace(field, elem.nums), elem.den)


def norm(elem: FieldElement, field: NumberField) -> Fraction:
    """N(elem) = product of conjugates, exactly: the Bareiss determinant of sum_i nums_i C^i over den^d."""
    return Fraction(_int_det(_power_combination(field, elem.nums)), elem.den**field.degree)


def _traces(field: NumberField, nums, count: int, m: int = 0):
    """T(x alpha^j), j < count, for x with integer numerators nums (mod m unless m is 0): the
    first d from the companion traces, then s(j) = -c_{d-1} s(j-1) - ... - c_0 s(j-d)."""
    seq = []
    for j in range(count):
        if j < field.degree:
            t, nums = _int_trace(field, nums), _times_alpha(field.coeffs, nums)
        else:
            t = -sum(c * x for c, x in zip(field.coeffs, seq[j - field.degree:]))
        seq.append(t % m if m else t)
    return seq


def trace_power_sequence(field: NumberField, mu: FieldElement, j_max: int):
    """s(j) = T(mu * alpha^j) for j = 0..j_max, exact: _traces of the numerators over mu.den."""
    if j_max < field.degree - 1:
        raise ValueError("j_max must be >= degree-1")
    return [Fraction(s, mu.den) for s in _traces(field, mu.nums, j_max + 1)]


def _require_pv(field: NumberField, what: str):
    """NotPisotError, naming `what`, unless the field is certified PV."""
    if field.pv_status != "PV":
        raise NotPisotError("%s needs a certified PV dilation, got %s" % (what, field.pv_status))


def pisot_set_test(field: NumberField, mu: FieldElement) -> bool:
    """Integer-trace test: T(mu alpha^j) in Z for j = 0..d-1.

    Characterizes membership of mu in the Pisot set of alpha up to powers of
    alpha; requires a certified PV field.
    """
    _require_pv(field, "pisot_set_test")
    if mu.is_zero():
        raise ValueError("mu must be nonzero")
    return all(s.denominator == 1 for s in trace_power_sequence(field, mu, field.degree - 1))


def orbit_phases(field: NumberField, mu: FieldElement, n_lo: int, n_hi: int, mod: int = 1):
    """(den, traces, residues, bounds) with sigma_1(mu alpha^n) = traces[i] / den - residues[i]
    (mod `mod`) at n = n_lo + i <= n_hi: den is that of mu alpha^n_lo, traces[i] = den
    T(mu alpha^n) mod (mod den), so no number grows with n, residues[i] = sum_{k>=2}
    sigma_k(mu alpha^n) (mpf) and bounds[i] >= the sum of their moduli (float, b_n).  The
    conjugates step by alpha_k from sigma_k(mu) alpha_k^n_lo at precision_bits() plus the bits
    of the largest at n_lo; the one budget keeps 32 fractional bits of the largest over the
    range, there and in the root radii.  Where the field's radii leave the largest fewer
    than precision_bits() fractional bits, the roots are certified again at the bits needed,
    which _RADIUS_FLOOR caps: a PV field trips the budget only from about 2^920 at n_lo,
    where no precision lifts it and the PrecisionError says so."""
    nu = fe_mul(field, mu, alpha_power(field, n_lo))
    n = max(n_hi - n_lo + 1, 0)
    traces, ks = _traces(field, nu.nums, n, mod * nu.den), range(1, field.degree)
    if mu.is_zero() or not ks:
        return nu.den, traces, [mp.mpf(0)] * n, [0.0] * n
    top = max(map(abs, mu.nums)).bit_length()
    # (log2 |alpha_k|, log2 of sum_i |mu_i| |alpha_k|^i / den, a bound on |sigma_k(mu)|)
    logs = [(math.log2(abs(z)), top - math.log2(mu.den) + math.log2(
        sum(abs(q) / (1 << top) * abs(z) ** i for i, q in enumerate(mu.nums)))) for z in field.roots[1:]]
    lg_lo, lg_hi = (max(s + e * lr for lr, s in logs) for e in (n_lo, n_hi))
    lg, wp = max(lg_lo, lg_hi), precision_bits() + max(0, math.ceil(lg_lo))
    span = math.log2(1 + abs(n_lo) + n)

    def root_bits(radii):
        # each step multiplies in a root's relative error, its radius over its modulus
        return -max(math.log2(radii[k] / abs(field.roots[k])) for k in ks) - span

    # the most any precision gives: every radius at the floor
    reachable = lg + 32 < root_bits([_RADIUS_FLOOR] * field.degree)
    if root_bits(field.radii) < lg + precision_bits() and reachable:
        # the roots keep the working precision's fractional bits, as the conjugates do, where
        # the radius floor lets them; a certification at prec bits gives radii near 2^-prec
        field = _recertified(field, 64 * math.ceil((lg + precision_bits() + span) / 64) + 64)
    _check_fraction_bits("conjugate part of mu alpha^n at n=%d" % (n_lo if lg_lo >= lg_hi else n_hi), 1.0,
                         lg, int(min(wp, root_bits(field.radii))), "raise --precision-bits" if reachable else
                         "no --precision-bits reaches this orbit, as the root radii stop at %g" % _RADIUS_FLOOR)
    with mp.workprec(wp):
        zs = [fe_embed(field, mu, k, wp) * field.roots_mp[k] ** n_lo for k in ks]
        lg_z = [float(mp.log(abs(z), 2)) for z in zs]
        residues = []
        for _ in range(n):
            residues.append(mp.re(sum(zs)))
            zs = [z * field.roots_mp[k] for z, k in zip(zs, ks)]
    return nu.den, traces, residues, [sum(2.0 ** (g + i * lr) for g, (lr, _) in zip(lg_z, logs)) for i in range(n)]


def orbit_fractions(field: NumberField, mu: FieldElement, n_lo: int, n_hi: int):
    """frac(sigma_1(mu alpha^n)), n = n_lo..n_hi, from orbit_phases as floats in [0, 1]:
    t / den - r exactly in Python ints, for the residue r = +-m 2^e of any size, then
    rounded once by int true division."""
    den, traces, residues, _ = orbit_phases(field, mu, n_lo, n_hi)
    out = []
    for t, r in zip(traces, residues):
        sign, m, e, _ = r._mpf_
        k = max(0, -e)  # t / den - r = ((t << k) - r 2^k den) / (den << k), an exact quotient
        num, d = (t << k) - ((-m if sign else m) * den << (e + k)), den << k
        out.append(num % d / d)
    return out


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


def laurent_embed(field: NumberField, t: LaurentTranslate):
    """Exact reduction of sum_j c_j alpha^j to a FieldElement plus its real embedding,
    each power alpha^j read from alpha_power's table."""
    terms = [fe_scale(alpha_power(field, j), c) for j, c in t.items]
    acc = functools.reduce(fe_add, terms) if terms else FieldElement((0,) * field.degree)
    return acc, float(mp.re(fe_embed(field, acc, 0)))
