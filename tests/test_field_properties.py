"""Properties of the exact field arithmetic over five PV fields of degree 2 to 5.

fe_inv inverts, the norm is multiplicative, the trace is Q-linear, norm and
trace equal the product and sum of the 200-bit embeddings, and the Bareiss
determinant agrees with the Leibniz formula on small integer matrices, one
at a time and stacked; a stacked norm-form evaluation agrees with the one
vector at a time, and the interpolant of det(sum n_i M_i) from the principal
lattice agrees with its Leibniz expansion coefficient by coefficient.  The PV
verdict of small monic polynomials matches a classification of their 300-bit
mpmath roots.  The certified roots of degree 2 to 8 are polyroots' to the last
bit, inside radii that reach the 2000-bit roots, and a product of two monic
factors is refused with a true factor named.
"""

import ast
import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import pvrefine as pv
from pvrefine import algebraic_core as ac
from pvrefine.algebraic_core import _int_det, fe_add, fe_embed, fe_inv, fe_mul, fe_scale
from pvrefine.zero_density import _interpolated_form

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

FIELDS = ((-1, -1), (-1, -1, 0), (-1, -1, -1), (-1, 0, 0, -2), (-1, -1, -1, -1, -1))
# deterministic examples, and no example database written next to the tests
field_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-240, 240), st.integers(1, 12))
coordinates = st.lists(rationals, min_size=10, max_size=10)  # two elements of degree <= 5


@functools.lru_cache(maxsize=None)
def field(coeffs):
    return pv.make_field(coeffs)


def pair(coeffs, coords):
    f = field(coeffs)
    return f, pv.fe(f, coords[: f.degree]), pv.fe(f, coords[5 : 5 + f.degree])


@field_property
@given(st.sampled_from(FIELDS), coordinates)
def test_inverse_round_trip(coeffs, coords):
    f, a, _ = pair(coeffs, coords)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            fe_inv(f, a)
        return
    assert fe_mul(f, a, fe_inv(f, a)) == pv.fe_rational(f, 1)
    assert fe_inv(f, fe_inv(f, a)) == a


@field_property
@given(st.sampled_from(FIELDS), coordinates)
def test_norm_is_multiplicative(coeffs, coords):
    f, a, b = pair(coeffs, coords)
    assert pv.norm(fe_mul(f, a, b), f) == pv.norm(a, f) * pv.norm(b, f)


@field_property
@given(st.sampled_from(FIELDS), coordinates, rationals, rationals)
def test_trace_is_linear(coeffs, coords, p, q):
    f, a, b = pair(coeffs, coords)
    combo = fe_add(fe_scale(a, p), fe_scale(b, q))
    assert pv.trace(combo, f) == p * pv.trace(a, f) + q * pv.trace(b, f)


@field_property
@given(st.sampled_from(FIELDS), coordinates)
def test_norm_and_trace_match_the_embeddings(coeffs, coords):
    f, a, _ = pair(coeffs, coords)
    with mp.workprec(200):
        conj = [fe_embed(f, a, k, 200) for k in range(f.degree)]
        scale = 1 + mp.fprod(abs(z) for z in conj) + mp.fsum(abs(z) for z in conj)
        for exact, approx in ((pv.norm(a, f), mp.fprod(conj)), (pv.trace(a, f), mp.fsum(conj))):
            assert abs(approx - mp.mpf(exact.numerator) / exact.denominator) <= mp.mpf(2) ** -150 * scale


def signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        yield (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)), perm


def leibniz_det(m):
    return sum(sign * math.prod(m[i][perm[i]] for i in range(len(m))) for sign, perm in signed_permutations(len(m)))


def leibniz_form(mats):
    """det(sum_i n_i mats[i]) as {exponent tuple: nonzero coefficient}: for each permutation, the
    product over rows r of the linear forms sum_i n_i mats[i][r][perm[r]], multiplied out."""
    d = len(mats)
    total = {}
    for sign, perm in signed_permutations(d):
        term = {(0,) * d: sign}
        for r, col in enumerate(perm):
            nxt = {}
            for e, c in term.items():
                for i, m in enumerate(mats):
                    if m[r][col]:
                        key = e[:i] + (e[i] + 1,) + e[i + 1:]
                        nxt[key] = nxt.get(key, 0) + c * m[r][col]
            term = nxt
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


# small entries make zero pivots, and so row swaps, common
entries = st.one_of(st.integers(-2, 2), st.integers(-10**12, 10**12))
matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@field_property
@given(matrices)
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
def test_int_det_matches_leibniz(m):
    assert _int_det(m) == leibniz_det(m)


square_stacks = st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n), min_size=1, max_size=6)))


@field_property
@given(square_stacks)
@example((2, [[[0, 1], [1, 0]], [[1, 2], [2, 4]], [[0, 0], [0, 0]], [[3, 1], [4, 1]]]))
@example((3, [[[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[1, 2, 3], [2, 4, 6], [0, 0, 1]], [[0, 0, 1], [0, 0, 2], [1, 1, 1]]]))
@example((0, [[], [], []]))
def test_stacked_int_det_matches_each_matrix(stack):
    # zero pivots, singular matrices and 0x0 in one stack, under one and two leading axes
    n, mats = stack
    want = [_int_det(m) for m in mats]
    assert want == [leibniz_det(m) for m in mats]
    arr = np.array(mats, dtype=object).reshape(len(mats), n, n)
    for shape in ((len(mats),), (1, len(mats))):
        dets = _int_det(arr.reshape(shape + (n, n)))
        assert dets.shape == shape and dets.ravel().tolist() == want
        assert all(type(x) is int for x in dets.ravel())


digit_rows = lambda d: st.lists(st.integers(-9, 9), min_size=d, max_size=d)  # noqa: E731
matrix_tuples = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.lists(digit_rows(d), min_size=d, max_size=d), min_size=d, max_size=d)
)


@field_property
@given(matrix_tuples)
@example([[[0]]])
@example([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])                               # det = 0 everywhere
@example([[[1, 2], [2, 4]], [[3, 6], [1, 2]]])                               # singular for every n
@example([[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]])
def test_interpolated_form_matches_leibniz(mats):
    # the C(2d-1, d) lattice determinants recover det(sum n_i mats[i]) coefficient by coefficient
    assert _interpolated_form(mats) == leibniz_form(mats)


def direct_verdict(coeffs):
    """PV when the largest root is real of modulus > 1 and the others have modulus < 1,
    from 300-bit roots; a modulus within 10^-50 of 1 counts as on the circle."""
    with mp.workprec(300):
        roots = sorted(mp.polyroots([1] + list(reversed(coeffs)), maxsteps=400, extraprec=300), key=abs)
        tol = mp.mpf(10) ** -50
        alpha = mp.mpc(roots[-1])
        pv = abs(alpha.imag) < tol and abs(alpha) > 1 + tol and all(abs(z) < 1 - tol for z in roots[:-1])
    return "PV" if pv else "not-PV"


monic = st.integers(2, 4).flatmap(lambda d: st.tuples(*[st.integers(-3, 3)] * d))


@field_property
@given(monic)
@example((-1, -1))             # golden mean
@example((1, -3))              # reciprocal, PV
@example((1, 1))               # X^2 + X + 1: roots on |z| = 1
@example((1, -1, -1, -1))      # Salem
@example((1, 0, 0, 0))         # X^4 + 1
def test_pv_verdict_matches_direct_roots(coeffs):
    assume(coeffs[0] != 0)
    try:
        f = pv.make_field(coeffs)
    except (pv.ReducibleError, pv.DegenerateError):
        assume(False)
    assert f.pv_status in ("PV", "not-PV")
    assert f.pv_status == direct_verdict(coeffs)


monic_2_to_8 = st.integers(2, 8).flatmap(lambda d: st.tuples(*[st.integers(-4, 4)] * d))


def certified_field(coeffs):
    """make_field, or a rejected example when P is reducible or not squarefree."""
    assume(coeffs[0] != 0)
    try:
        return pv.make_field(coeffs)
    except (pv.ReducibleError, pv.DegenerateError):
        assume(False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(monic_2_to_8)
@example((-1,) * 8)
@example((1, -1, -1, -1))      # Salem: two roots on |z| = 1
@example((-2, 0, 0))           # X^3 - 2: three roots of one modulus
def test_certified_roots_are_polyroots_roots_inside_their_radii(coeffs):
    # the integer Newton roots are the ones mp.polyroots rounds to 512 bits, to the last bit,
    # and each radius reaches the root it certifies, taken at 2000 bits
    f = certified_field(coeffs)
    desc = [1] + list(reversed(coeffs))
    with mp.workprec(512):
        want = mp.polyroots(desc, maxsteps=400, extraprec=256, cleanup=True)
        assert sorted(z._mpc_ for z in f.roots_mp) == sorted(mp.mpc(z)._mpc_ for z in want)
    with mp.workprec(2000):
        exact = mp.polyroots(desc, maxsteps=400, extraprec=2000)
        for z, r in zip(f.roots_mp, f.radii):
            assert min(abs(z - w) for w in exact) <= r


def monic_factor(degree):
    """Ascending coefficients of a monic integer polynomial of the given degree with c_0 != 0."""
    rest = st.tuples(*[st.integers(-3, 3)] * (degree - 1))
    return st.tuples(st.integers(-3, 3).filter(bool), rest).map(lambda t: (t[0],) + t[1] + (1,))


factor_pairs = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda ds: st.tuples(monic_factor(ds[0]), monic_factor(ds[1])))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@field_property
@given(factor_pairs)
@example(((-1, 1), (1, 1)))               # X^2 - 1
@example(((-1, -1, 1), (1, 0, 1)))        # golden times X^2 + 1: roots on the axes
@example(((2, 0, 0, 0, 1), (-3, 0, 0, 0, 1)))  # two quartics: the only factors have degree d/2
def test_product_of_two_factors_names_a_factor(pair):
    # the factor search refuses every product, naming a proper monic factor that divides it
    p = poly_mul(*pair)
    try:
        pv.make_field(tuple(p[:-1]))
    except pv.DegenerateError:
        assume(False)  # a repeated root, e.g. two equal factors
    except pv.ReducibleError as exc:
        named = ast.literal_eval(str(exc).split("coefficients ")[1].split(" divides")[0])
        assert 2 <= len(named) <= len(p) - 1 and named[-1] == 1
        assert ac._int_poly_divides(tuple(p[:-1]), named[:-1])
    else:
        raise AssertionError("no factor found for %s" % (p,))
