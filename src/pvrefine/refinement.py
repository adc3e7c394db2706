"""Refinement masks and their Fourier machinery.

A mask is the data (alpha, a, tau) of the two-scale relation
phi(x) = sum_k a(k) phi(alpha x - tau(k)); its symbol is the series
ahat(y) = |alpha|^{-1} sum_k a(k) e^{-2 pi i tau(k) y} and the transform of
phi is the one-sided infinite product phihat(y) = (prod_{j<=-1}
ahat(y alpha^j)) phihat(0), factors ordered with decreasing j to the right.

One kernel evaluates the symbol: the terms' phases go through a single sum,
|alpha|^{-1} sum_k a(k) e^{-2 pi i phase_k}, added in term order.  The kernel
takes floats or ints.  The phase of term k is tau(k) y in float64, except for
|y| > 2^20, where frac(tau(k) y) comes first from the exact product of the
prec-bit translate and y, rounded once: in float for a translate 0 or +-2^e and a
double y, else in Python ints; without that the phase is garbage long before
tau*y overflows a double mantissa.  eval_symbol is a 0-d eval_symbol_grid call,
and the lifted symbol A of the solenoid layer calls the kernel too.
Along a dilation orbit lam alpha^n, phihat_orbit takes the points with
|lam alpha^n| <= 1 from phihat_grid and every later factor's phases exactly
from one orbit_numerators orbit of lam per block, summed by the same kernel.

One kernel takes the product: phihat_grid, of which eval_phihat is a 0-d
call.  Each chunk of points up to 2^20 runs one loop over its deepest depth,
and a point past 2^20 is the start of a phihat_orbit.
"""

import ast
import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .algebraic_core import (
    FieldElement,
    NumberField,
    LaurentTranslate,
    _check_fraction_bits,
    _require_pv,
    fe_add,
    fe_alpha,
    fe_embed,
    fe_inv,
    fe_rational,
    integer_dilation_field,
    laurent,
    laurent_embed,
    laurent_int,
    make_field,
    orbit_numerators,
    orbit_phases,
    parse_poly,
    precision_bits,
    read_key_values,
)
from .errors import (
    EigenError,
    NonconvergenceError,
    NormalizationError,
    SizeError,
    UnknownExampleError,
)

_PRODUCT_FACTOR_BUDGET = 10**6

# the orbits (phihat_orbit, bernoulli_orbit, solenoid.theta) refuse more points before
# building any (seconds at the limit)
MAX_ORBIT_POINTS = 10**5

# above this magnitude a float64 argument has too few fractional bits left
# for phase reduction; the phases switch to exact products (_extended_phases)
_MP_ARG_CUTOFF = 2.0**20
# phihat_grid refuses more points past 2^20 before evaluating any: each is a phihat_orbit
# whose factors take exact phases, and a zeros-scan probes near most of them
MAX_EXTENDED_POINTS = 100
_SUM_BLOCK = 4096  # (term, point) coefficients per block of the symbol sum: temporaries near 64 KB
_ORBIT_BLOCK = 1024  # orbit factors whose phases phihat_orbit holds at once


@dataclass(frozen=True, eq=False)
class RefinementMask:
    """Dilation field + coefficients + translates (+ decay envelope if infinite).

    Finite masks store coeffs/translates directly.  Infinite masks store a
    generator k -> (a_k, LaurentTranslate) with an envelope |a(k)| <= C rho^k
    that converts tolerance into a concrete truncation index.
    """

    field: NumberField
    coeffs: tuple          # scalars, or rank x rank numpy arrays; () if generated
    translates: tuple      # LaurentTranslate per coefficient; () if generated
    rank: int
    phihat0: tuple         # complex vector of length rank
    generator: object = None
    envelope: tuple = None  # (C, rho)
    name: str = ""

    @property
    def infinite(self) -> bool:
        return self.generator is not None

    @property
    def alpha(self) -> float:
        return self.field.alpha


@dataclass(frozen=True, eq=False)
class SymbolValue:
    """A symbol/product evaluation plus an upper bound on the dropped tail."""

    value: object            # complex scalar, vector, or rank x rank matrix
    truncation_error: float


# ---------------------------------------------------------------------------
# construction


def make_mask(field: NumberField, coeffs, translates, rank: int = 1, phihat0=None) -> RefinementMask:
    """Validate a finite mask; for rank > 1 derive phihat0 from ahat(0) if omitted.

    Scalar masks must satisfy sum a(k) = |alpha| (to 1e-12); matrix masks need
    eigenvalue 1 of ahat(0) simple, and the eigenvector is normalized so its
    largest-modulus entry equals 1.
    """
    if len(coeffs) != len(translates):
        raise ValueError("coeffs and translates lengths differ")
    translates = tuple(
        t if isinstance(t, LaurentTranslate) else laurent_int(t) for t in translates
    )
    absalpha = abs(field.alpha)
    if rank == 1:
        coeffs = tuple(complex(c) for c in coeffs)
        total = sum(coeffs)
        if abs(total - absalpha) > 1e-12:
            raise NormalizationError(
                "scalar coefficients sum to %r, need |alpha| = %r" % (total, absalpha)
            )
        ph0 = (1.0 + 0j,) if phihat0 is None else tuple(complex(v) for v in phihat0)
    else:
        coeffs = tuple(np.array(c, dtype=complex) for c in coeffs)
        for c in coeffs:
            if c.shape != (rank, rank):
                raise ValueError("matrix coefficient shape %s != rank %d" % (c.shape, rank))
        a0 = sum(coeffs) / absalpha
        if phihat0 is None:
            w, vecs = np.linalg.eig(a0)
            hits = [i for i in range(rank) if abs(w[i] - 1) < 1e-9]
            if len(hits) != 1:
                raise EigenError("ahat(0) eigenvalue 1 absent or not simple: %s" % w)
            v = vecs[:, hits[0]]
            v = v / v[int(np.argmax(np.abs(v)))]
            ph0 = tuple(complex(x) for x in v)
        else:
            ph0 = tuple(complex(v) for v in phihat0)
            res = a0 @ np.array(ph0) - np.array(ph0)
            if np.max(np.abs(res)) > 1e-9 or not any(abs(v) > 0 for v in ph0):
                raise EigenError("phihat0 is not a fixed vector of ahat(0)")
    return RefinementMask(
        field=field, coeffs=coeffs, translates=translates, rank=int(rank), phihat0=ph0
    )


def _dyadic_generator(k: int):
    return 2.0 ** (1 - k), laurent({1 - k: 1})


def builtin_mask(name: str, field: NumberField = None) -> RefinementMask:
    """The worked examples: boxcar, dyadic, bernoulli (PV field), golden_vector."""
    if name == "boxcar":
        f = integer_dilation_field(2)
        m = make_mask(f, (1.0, 1.0), (laurent_int(0), laurent_int(1)))
        return dataclasses.replace(m, name="boxcar")
    if name == "dyadic":
        f = integer_dilation_field(2)
        # a(k) = tau(k) = 2^{1-k}: envelope |a(k)| = 2 * (1/2)^k
        return RefinementMask(
            field=f,
            coeffs=(),
            translates=(),
            rank=1,
            phihat0=(1.0 + 0j,),
            generator=_dyadic_generator,
            envelope=(2.0, 0.5),
            name="dyadic",
        )
    if name == "bernoulli":
        if field is None:
            raise ValueError("bernoulli mask needs a dilation field")
        _require_pv(field, "bernoulli mask")
        h = abs(field.alpha) / 2.0
        m = make_mask(field, (h, h), (laurent_int(0), laurent_int(1)))
        return dataclasses.replace(m, name="bernoulli")
    if name == "golden_vector":
        f = make_field((-1, -1))
        a1 = ((0, 1), (0, 1))
        a2 = ((0, 0), (1, 0))
        m = make_mask(f, (a1, a2), (laurent_int(0), laurent_int(1)), rank=2)
        return dataclasses.replace(m, name="golden_vector")
    raise UnknownExampleError("no builtin mask named %r" % name)


# ---------------------------------------------------------------------------
# term access and the symbol kernel (shared by eval_symbol, eval_A, scans)


@functools.lru_cache(maxsize=256)
def _truncation(mask: RefinementMask, tol: float):
    # (K, tail) once per (mask, tol): K is the smallest index whose envelope
    # tail C rho^{K+1}/(1-rho) is below tol/2; (None, 0.0) for finite masks.
    # Masks hash by identity (frozen, eq=False), so this memoizes per mask object
    if not mask.infinite:
        return None, 0.0
    c, rho = mask.envelope
    k = 1
    while c * rho ** (k + 1) / (1 - rho) >= tol / 2:
        k += 1
        if k > 10**7:
            raise NonconvergenceError("envelope never reaches tol %g" % tol)
    return k, c * rho ** (k + 1) / (1 - rho)


@functools.lru_cache(maxsize=256)
def _terms(mask: RefinementMask, K):
    if K is None:
        return tuple(zip(mask.coeffs, mask.translates))
    return tuple(mask.generator(k) for k in range(1, K + 1))


def mask_terms(mask: RefinementMask, tol: float = 1e-14):
    """(a_k, LaurentTranslate) terms, truncated for infinite masks; plus tail bound."""
    K, tail = _truncation(mask, tol)
    return list(_terms(mask, K)), tail


@functools.lru_cache(maxsize=256)
def _kernel_terms(mask: RefinementMask, K, prec: int = None):
    # the first K terms (all of a finite mask) as a (K,) or (K, r, r) complex
    # coefficient array, plus the translates tau_k: their embeddings as a float
    # array and the exact field elements, or the embeddings as mpf at prec bits,
    # since a float64 embedding times a huge argument would lose the entire
    # fractional part of the phase
    terms = _terms(mask, K)
    coeffs = np.array([a for a, _ in terms], dtype=complex)
    taus = [laurent_embed(mask.field, t) for _, t in terms]
    if prec is None:
        return coeffs, np.array([x for _, x in taus]), tuple(e for e, _ in taus)
    with mp.workprec(prec):
        return coeffs, tuple(mp.re(fe_embed(mask.field, e, 0, prec)) for e, _ in taus)


def _extended_phases(mask: RefinementMask, K, ys):
    """frac(tau_k y) of the prec-bit translates: a (K, len(ys)) float array.  One
    check, at the largest |y| (NaN if any y is), refuses ys past the precision budget.
    For double ys, a term whose translate is 0 or +-2^e at prec bits and in float takes
    frac(tau_k y) of the exact float product, rounded once; the rest take _frac_products."""
    prec = precision_bits()
    _check_fraction_bits("argument |y|", float(np.abs(ys.astype(float)).max()), 0.0, prec)
    floats, taus = _kernel_terms(mask, K)[1], _kernel_terms(mask, K, prec)[1]
    out = np.multiply.outer(floats, ys.astype(float)) % 1.0
    exact = [k for k, (t, f) in enumerate(zip(taus, floats)) if ys.dtype.kind != "f" or t._mpf_[1] > 1 or t != f]
    if exact:
        out[exact] = _frac_products([taus[k] for k in exact], ys)
    return out


def _mantissa(y):
    """(m, e) with signed int m and m 2^e exactly y for an int, else exactly the double
    float(y): an mpf is rounded to a double first."""
    if isinstance(y, (int, np.integer)):
        return int(y), 0
    n, d = float(y).as_integer_ratio()
    return n, 1 - d.bit_length()


def _frac(m: int, e: int) -> float:
    """frac(m 2^e) for ints m and e, rounded once: the floor-mod of m 2^(e+k) by 2^k,
    k = max(0, -e), over 2^k by int true division, which rounds to nearest."""
    k = max(0, -e)
    return (m << (e + k)) % (1 << k) / (1 << k)


def _frac_products(taus, ys):
    """frac(tau_k y) for mpf taus and float or int ys as a (len(taus), len(ys)) float array:
    the exact product of tau_k and y, reduced mod 1 in Python ints and rounded once to a float."""
    ms = [_mantissa(y) for y in ys]
    out = np.empty((len(taus), len(ms)))
    for row, tau in zip(out, taus):
        sign, mt, et, _ = tau._mpf_
        mt = -mt if sign else mt
        row[:] = [_frac(mt * my, et + ey) for my, ey in ms]
    return out


def _symbol_sum(coeffs, alpha: float, phases):
    """|alpha|^{-1} sum_k a(k) e^{-2 pi i phase_k} at n points: shape (n,), plus
    (r, r) for rank r.  coeffs is the (K,) or (K, r, r) coefficient array and
    phases a (K, n) float array, reduced mod 1 here; one exponential call
    covers the block, and the terms are added in term order."""
    e = np.exp(-2j * np.pi * (phases - np.floor(phases)))[(...,) + (None,) * (coeffs.ndim - 1)]
    sums = np.zeros((len(coeffs) + 1,) + e.shape[1:2] + coeffs.shape[1:], dtype=complex)
    np.multiply(coeffs[:, None], e, out=sums[1:])
    np.add.accumulate(sums, axis=0, out=sums)  # running sums from 0, in term order
    return sums[-1] / abs(alpha)


def _magnitudes(vals, lead: int = 1):
    # |value| over the `lead` leading axes: the modulus of a scalar, else the
    # smallest singular value (of a matrix, or of a vector: its 2-norm); none
    # squares an entry, so a value far below 1e-154 keeps its size
    v = np.asarray(vals)
    if v.ndim == lead:
        return np.abs(v)
    return np.linalg.svd(v[..., None, :] if v.ndim == lead + 1 else v, compute_uv=False)[..., -1]


def lipschitz_bound(mask: RefinementMask, tol: float = 1e-14) -> float:
    """Bound on ||ahat(h) - ahat(0)|| / |h|: 2 pi |alpha|^{-1} sum |a(k)| |tau(k)|.

    For infinite masks the dropped tail contributes at most tail_a * max|tau|
    of the last computed terms (translate embeddings are nonincreasing for the
    generated masks shipped here).
    """
    K, tail = _truncation(mask, tol)
    coeffs, taus, _ = _kernel_terms(mask, K)
    norms = np.abs(coeffs) if mask.rank == 1 else np.linalg.norm(coeffs, 2, axis=(1, 2))
    s = sum(norms * np.abs(taus))  # a Python sum, in term order
    if tail:
        s += tail * np.abs(taus).max()
    return 2 * math.pi * float(s) / abs(mask.alpha)


# ---------------------------------------------------------------------------
# evaluation


def eval_symbol(mask: RefinementMask, y, tol: float = 1e-14) -> SymbolValue:
    """ahat(y) = |alpha|^{-1} sum a(k) e^{-2 pi i tau(k) y}, tail below tol.

    A 0-d eval_symbol_grid call at a float or int y (an mpf is rounded to a
    double): arguments beyond float64's fractional resolution, |y| > 2^20, are
    phase-reduced at extended precision.
    """
    values, tail = eval_symbol_grid(mask, y, tol)
    return SymbolValue(values.item() if values.ndim == 0 else values, tail)


def eval_symbol_grid(mask: RefinementMask, ys, tol: float = 1e-14):
    """Vectorized ahat over floats or ints: (values, tail bound).

    values has shape ys.shape, plus (r, r) for rank-r matrix masks.  The
    phase of term k is tau_k y in float64, except where |y| > 2^20: there
    frac(tau_k y) is reduced at extended precision first, from the exact y (an
    int, or the double an mpf rounds to), in float where that product is exact
    (_extended_phases).  Every point then takes the same sum, in term order.
    """
    K, tail = _truncation(mask, tol)
    coeffs, taus, _ = _kernel_terms(mask, K)
    ys = np.asarray(ys)
    src = ys.reshape(-1)
    yf = src.astype(float)
    ext = np.abs(yf) > _MP_ARG_CUTOFF
    acc = np.empty(yf.shape + coeffs.shape[1:], dtype=complex)
    step = max(1, _SUM_BLOCK // coeffs.size)
    for lo in range(0, yf.size, step):
        phases = np.multiply.outer(taus, yf[lo:lo + step])
        idx = np.flatnonzero(ext[lo:lo + step])
        if idx.size:
            phases[:, idx] = _extended_phases(mask, K, src[lo + idx])
        acc[lo:lo + step] = _symbol_sum(coeffs, mask.alpha, phases)
    return acc.reshape(ys.shape + coeffs.shape[1:]), tail


def _product_depths(mask: RefinementMask, ys, tol: float):
    """First depth j0 >= 1 with lip * |y| * sum_{j <= -j0} |alpha|^j below tol, for each
    entry of the float array ys.  The bound falls with j, so j0 - 1 counts the depths at
    which it is not yet below tol: a logarithm estimates that count, and the bound itself,
    from a table of |alpha|^-j, moves each estimate to the exact first depth."""
    lip = _product_lipschitz(mask, tol)
    absalpha = abs(mask.alpha)
    geo = 1.0 / (absalpha - 1.0)
    c = lip * np.abs(ys)
    est = np.floor((np.log(np.fmax(c, 1e-300)) + math.log(geo * absalpha / tol)) / math.log(absalpha))
    top = est.max(initial=0.0) + 2
    if not top <= _PRODUCT_FACTOR_BUDGET:
        raise NonconvergenceError("product tail bound not reached within budget")
    powers = _inverse_powers(absalpha, 1 << (int(top) + 1).bit_length())
    depths = 1 + np.maximum(est, 0).astype(int)
    while True:
        up = c * powers[depths] * geo * absalpha >= tol
        down = ~up & (depths > 1) & (c * powers[depths - 1] * geo * absalpha < tol)
        if not (up.any() or down.any()):
            return depths
        depths += up
        depths -= down


@functools.lru_cache(maxsize=256)
def _product_lipschitz(mask: RefinementMask, tol: float) -> float:
    # the depth rule's Lipschitz bound, once per (mask, tol): a scan asks for it each round
    return lipschitz_bound(mask, min(tol, 1e-14))


@functools.lru_cache(maxsize=4)
def _inverse_powers(absalpha: float, n: int):
    """|alpha|^-j for j < n as a read-only array; n is a power of two, so the rounds of
    one scan share a table."""
    powers = np.array([absalpha ** (-j) for j in range(n)])
    powers.flags.writeable = False
    return powers


@functools.lru_cache(maxsize=1024)
def _product_plan(mask: RefinementMask, j0: int, tol: float):
    """(symbol tol, error bound) at depth j0: the bound sums the j0 symbol tails."""
    sym_tol = min(tol / j0, 1e-14)
    tail, err = _truncation(mask, sym_tol)[1], 0.0
    for _ in range(j0):
        err += tail
    return sym_tol, err + tol


def eval_phihat(mask: RefinementMask, y, tol: float = 1e-12) -> SymbolValue:
    """phihat(y) = (prod_{j<=-1} ahat(y alpha^j)) phihat(0), truncated to tol.

    A 0-d phihat_grid call at the float y: a complex for scalar masks, an (r,)
    vector for rank r.
    """
    values, err = phihat_grid(mask, float(y), tol)
    return SymbolValue(values.item() if mask.rank == 1 else values, err)


def phihat_grid(mask: RefinementMask, ys, tol: float = 1e-12):
    """phihat over a float array: (values, error bound).

    values has shape ys.shape, plus (r,) for rank r.  Each point with |y| <= 2^20
    keeps its own product depth j0: its factors ahat(y alpha^j), j = -j0..-1,
    apply with the most negative j first to phihat(0), scalar factors in Python's
    complex product rounding.  These points are taken in order of depth, in
    chunks whose depth x chunk symbol arrays stay near 1 MB and whose depths
    truncate the symbol alike, and a chunk's product runs over its deepest
    point's depth, shallower points padded in front by exact identity factors.
    A point past 2^20 is the start of a dilation orbit: its value and bound are
    phihat_orbit(mask, Fraction(y), [0], tol)'s, whose factors past
    |y alpha^n| = 1 take exact phases.  The bound is the largest over the
    points.  More than MAX_EXTENDED_POINTS points past 2^20 raise SizeError.
    """
    ys = np.asarray(ys, dtype=float)
    flat = ys.reshape(-1)
    big = np.abs(flat) > _MP_ARG_CUTOFF
    far, near = np.flatnonzero(big), np.flatnonzero(~big)
    if far.size > MAX_EXTENDED_POINTS:
        raise SizeError("phihat_grid: %d points past 2^20 exceed the %d-point limit of the extended-precision path"
                        % (far.size, MAX_EXTENDED_POINTS))
    depths = _product_depths(mask, flat[near], tol)
    plans = {j0: _product_plan(mask, j0, tol) for j0 in np.flatnonzero(np.bincount(depths)).tolist()}
    # a chunk keeps to one symbol truncation K, which can only grow with the depth
    key = np.zeros(max(plans, default=0) + 1, dtype=int)
    for j0, (sym_tol, _) in plans.items():
        key[j0] = _truncation(mask, sym_tol)[0] or 0
    key = key[depths]
    order = np.lexsort((depths, key))
    out = np.empty(flat.shape + (mask.rank,), dtype=complex)
    for run in np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if order.size else []:
        step = max(1, 2**16 // (int(depths[run[-1]]) * mask.rank**2))
        for lo in range(0, run.size, step):
            part = run[lo:lo + step]
            out[near[part]] = _phihat_chunk(mask, flat[near[part]], depths[part], plans)
    errs = [e for _, e in plans.values()]
    for i, y in zip(far.tolist(), flat[far].tolist()):
        (_, sv), = phihat_orbit(mask, Fraction(y), [0], tol)
        out[i] = sv.value
        errs.append(sv.truncation_error)
    return out.reshape(ys.shape if mask.rank == 1 else ys.shape + (mask.rank,)), max(errs, default=0.0)


def _phihat_chunk(mask: RefinementMask, ys, depths, plans):
    """phihat at the points ys, whose depths ascend: an (n, r) complex array."""
    top, n = int(depths[-1]), depths.size
    pad = np.arange(top)[:, None] < top - depths  # the rows before a point's own factors
    al = mask.alpha
    args = np.multiply.outer([al**j for j in range(-top, 0)], ys)
    args[pad] = 0.0
    factors, _ = eval_symbol_grid(mask, args, plans[top][0])
    factors[pad] = 1.0 if mask.rank == 1 else np.eye(mask.rank)
    if mask.rank > 1:
        v = np.array(mask.phihat0, dtype=complex)
        for a in factors:
            v = (a @ v[..., None])[..., 0]
        return v
    # v = (re, im); a * v as Python rounds a complex product: re(a) v - im(a) (im, -re)
    v, t = np.empty((2, n)), np.empty((2, n))
    v[0], v[1] = mask.phihat0[0].real, mask.phihat0[0].imag
    (re0, im0), (t0, t1), swapped = v, t, v[::-1]
    for re, im in zip(factors.real, factors.imag):
        np.multiply(im, swapped, out=t)
        v *= re
        re0 -= t0
        im0 += t1
    out = np.empty((n, 1), dtype=complex)
    out.real[:, 0], out.imag[:, 0] = v
    return out


def check_orbit_points(name: str, first: int, last: int) -> None:
    """SizeError, naming `name`, when the orbit j = first..last exceeds MAX_ORBIT_POINTS."""
    if last - first + 1 > MAX_ORBIT_POINTS:
        raise SizeError("%s: %d orbit points (j = %d..%d) exceed the %d-point limit"
                        % (name, last - first + 1, first, last, MAX_ORBIT_POINTS))


def phihat_orbit(mask: RefinementMask, lam, J_range, tol: float = 1e-12):
    """[(J, phihat(lam alpha^J))] along the dilation orbit, J in increasing order.

    lam is exact: a FieldElement, or an int, Fraction or float taken as a Fraction.
    n_s is the last n <= J_max with |lam alpha^n| <= 1 (J_max itself for lam = 0).
    The entries at n_s and below come from one phihat_grid call at the floats
    lam alpha^n and carry its bound.  From n_s on, phihat(alpha y) = ahat(y) phihat(y)
    extends the orbit one factor at a time, each adding a symbol tail to the bound;
    the factors come in blocks of _ORBIT_BLOCK, each with one _symbol_sum and one
    orbit of lam, from which _term_phases takes every term's phases.
    """
    js = J_range if isinstance(J_range, range) else sorted(int(j) for j in J_range)
    if not js:
        return []
    check_orbit_points("phihat_orbit", *sorted((js[0], js[-1])))  # a range is read from its ends
    js = sorted(js)
    field, top = mask.field, js[-1]
    if not isinstance(lam, FieldElement):
        lam = fe_rational(field, Fraction(lam))
    with mp.workprec(precision_bits()):
        al, s1 = mp.re(field.roots_mp[0]), mp.re(fe_embed(field, lam, 0))
        # a start at or above n_s from the logarithms, then down to the first |lam alpha^n| <= 1
        n_s = min(top, math.floor(-float(mp.log(abs(s1), 2)) / math.log2(abs(mask.alpha))) + 1) if s1 else top
        while top - n_s < MAX_ORBIT_POINTS and abs(s1 * al**n_s) > 1:
            n_s -= 1
        check_orbit_points("phihat_orbit", min(n_s, js[0]), top)
        direct = [n for n in js if n < n_s] + [n_s]
        xs = [float(s1 * al**n) for n in direct]
    values, err = phihat_grid(mask, xs, tol)
    out = {n: SymbolValue(v, err) for n, v in zip(direct, values.tolist() if mask.rank == 1 else values)}
    K, tail = _truncation(mask, min(tol, 1e-14))
    coeffs, items = _kernel_terms(mask, K)[0], [t.items for _, t in _terms(mask, K)]
    shifts = sorted(i for its in items for i, _ in its) or [0]
    cur = out[n_s]
    for lo in range(n_s, top, _ORBIT_BLOCK):
        hi = min(lo + _ORBIT_BLOCK, top) - 1
        rows = orbit_numerators(field, lam, lo + shifts[0], hi + shifts[-1]) if any(items) else []
        sums = _symbol_sum(coeffs, mask.alpha, _term_phases(rows, items, hi - lo + 1, shifts[0]))
        for n, a in zip(range(lo + 1, hi + 2), sums.tolist() if mask.rank == 1 else sums):
            cur = out[n] = SymbolValue(a * cur.value if mask.rank == 1 else a @ cur.value,
                                       cur.truncation_error + tail)
    return [(j, out[j]) for j in js]


def _term_phases(rows, items, m: int, i0: int):
    """frac(sum_i c rows[n + i - i0]), n < m, per term's translate items ((i, c), ...), rows being orbit_numerators'
    for lam alpha^(n + i0) on: a single alpha^i reads its row's fraction, any other sum is exact and rounded once."""
    fracs, at = np.array([num % d / d for num, d in rows]), np.arange(m) - i0
    return np.array([fracs[at + its[0][0]] if len(its) == 1 and its[0][1] == 1 else
                     [float(sum(Fraction(c * rows[n + i][0], rows[n + i][1]) for i, c in its) % 1) for n in at.tolist()]
                     for its in items])


def _orbit_moduli(mask: RefinementMask, orbit) -> list:
    """|phihat| at each point of a phihat_orbit list, as phihat-orbit and vanishing-probe
    print it: Python's abs of a complex, or _magnitudes' 2-norm of a vector."""
    vals = [sv.value for _, sv in orbit]
    return [abs(z) for z in vals] if mask.rank == 1 else _magnitudes(vals).tolist()


def bernoulli_orbit(field: NumberField, J_max: int, j_min: int):
    """([phihat(alpha^J) for J = 0..J_max], bound) for the Bernoulli mask, in one pass.

    phihat(alpha^J) = e^{-pi i alpha^J/(alpha-1)} prod_{j_min<=j<J} cos(pi alpha^j), both
    parts from orbit_phases mod 2: cos(pi alpha^j) = (-1)^{T(alpha^j)} cos(pi r_j) with
    r_j = sum_{k>=2} alpha_k^j, and the phase T(mu) - r(mu) for mu = alpha^J/(alpha-1).
    The product takes the factors in increasing j, so each value is the one the product
    for that J alone gives.  The dropped factors below j_min satisfy
    |1 - prod| <= (pi^2/2) alpha^{2 j_min} / (alpha^2 - 1), reported as bound; ValueError
    unless it is below 1, since the dropped factors could then hold the whole product.
    """
    _require_pv(field, "bernoulli product")
    if J_max < 0:
        raise ValueError("J_max must be >= 0")
    check_orbit_points("bernoulli_orbit", min(j_min, 0), J_max)
    with mp.workprec(precision_bits()):
        alpha = field.roots_mp[0].real
        bound = float(mp.pi**2 / 2 * alpha ** (2 * j_min) / (alpha**2 - 1))
    if not bound < 1:
        raise ValueError("the factors below j_min = %d can move the product by up to %.3g, not below 1; "
                         "lower --jmin" % (j_min, bound))
    _, parity, cos_res, _ = orbit_phases(field, fe_rational(field, 1), 0, J_max - 1, 2)
    mu = fe_inv(field, fe_add(fe_alpha(field), fe_rational(field, -1)))
    den, phase_t, phase_r, _ = orbit_phases(field, mu, 0, J_max, 2)
    values = []
    with mp.workprec(precision_bits()):
        prod = mp.mpf(1)
        sign = 1
        for j in range(j_min, 0):
            prod *= mp.cos(mp.pi * alpha**j)
        for J in range(J_max + 1):
            j = J - 1  # the factor that joins the product at this J
            if j >= max(j_min, 0):
                prod *= mp.cos(mp.pi * cos_res[j])
                if parity[j]:
                    sign = -sign
            # phase: T(mu) mod 2 minus the residue, its integer part a sign, so a tiny
            # fraction minus the residue keeps its relative precision
            t = phase_t[J]
            phase = mp.e ** (-1j * mp.pi * (mp.mpf(t % den) / den - phase_r[J]))
            values.append(complex((-sign if t // den else sign) * prod * phase))
    return values, bound


# ---------------------------------------------------------------------------
# mask description files


def mask_from_file(path: str) -> RefinementMask:
    """Parse a structured-text mask description.

    Lines of key = value, as read_key_values reads them, with keys
    dilation-poly (c0,c1,... of the monic minimal polynomial; a single
    coefficient c0 means the degree-1 integer dilation -c0), rank, coeffs
    (';'-separated scalars or matrix literals, or generator:dyadic),
    translates (';'-separated: integer n, or j:c comma maps), phihat0
    (optional ','-separated complex entries).
    """
    fields = read_key_values(path)
    if "dilation-poly" not in fields:
        raise ValueError("mask file needs dilation-poly")
    coeffs_poly = parse_poly(fields["dilation-poly"])
    if len(coeffs_poly) == 1:
        field = integer_dilation_field(-coeffs_poly[0])
    else:
        field = make_field(coeffs_poly)
    rank = int(fields.get("rank", "1"))
    raw_coeffs = fields.get("coeffs", "")
    if raw_coeffs.startswith("generator:"):
        gen_name = raw_coeffs.split(":", 1)[1].strip()
        if gen_name != "dyadic":
            raise ValueError("unknown generator %r" % gen_name)
        base = builtin_mask("dyadic")
        if field.degree != 1 or field.alpha != 2.0:
            raise ValueError("dyadic generator requires dilation 2")
        return base
    coeffs = []
    for part in raw_coeffs.split(";"):
        part = part.strip()
        if rank == 1:
            coeffs.append(complex(part))
        else:
            coeffs.append(ast.literal_eval(part))
    translates = [_parse_translate(p) for p in fields.get("translates", "").split(";")]
    ph0 = None
    if "phihat0" in fields:
        ph0 = tuple(complex(v.strip()) for v in fields["phihat0"].split(","))
    return make_mask(field, tuple(coeffs), tuple(translates), rank=rank, phihat0=ph0)


def _parse_translate(text: str) -> LaurentTranslate:
    text = text.strip()
    if ":" not in text:
        return laurent_int(int(text))
    support = {}
    for pair in text.split(","):
        j, c = pair.split(":")
        support[int(j)] = int(c)
    return laurent(support)
