"""Properties of the exact field arithmetic over five PV fields of degree 2 to 5.

fe_inv inverts, the norm is multiplicative, the trace is Q-linear, norm and
trace equal the product and sum of the 200-bit embeddings, and the Bareiss
determinant agrees with the Leibniz formula on small integer matrices.
"""

import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import pytest

import pvrefine as pv
from pvrefine.algebraic_core import _int_det, fe_add, fe_embed, fe_inv, fe_mul, fe_scale

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

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


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


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
