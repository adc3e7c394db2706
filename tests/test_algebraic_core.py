"""Field arithmetic, PV certification, and dual-basis checks.

Oracle values are frozen from independent derivations: exact golden-mean
roots (1 +- sqrt5)/2, Newton power sums for X^3 - X - 1, and hand-expanded
Lagrange rows.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import pvrefine as pv
from pvrefine import algebraic_core as ac
from pvrefine.algebraic_core import fe_add, fe_inv, fe_mul, fe_pow, fe_scale, discriminant

GOLDEN = (-1, -1)  # X^2 - X - 1


def test_poly_encoding_sanity():
    # X^3 - X - 1 has (c0, c1, c2) = (-1, -1, 0)
    f = pv.make_field((-1, -1, 0))
    z = f.roots[0]
    assert abs(z**3 - z - 1) < 1e-12


@pytest.fixture(scope="module")
def golden():
    return pv.make_field(GOLDEN)


@pytest.fixture(scope="module")
def plastic():
    return pv.make_field((-1, -1, 0))


def test_make_field_golden(golden):
    assert golden.degree == 2
    assert golden.pv_status == "PV"
    assert abs(golden.roots[0] - (1 + math.sqrt(5)) / 2) < 1e-12
    assert abs(golden.roots[1] - (1 - math.sqrt(5)) / 2) < 1e-12
    assert golden.real_count == 1 and golden.complex_pair_count == 0


def test_make_field_verdicts(plastic):
    assert plastic.pv_status == "PV"
    assert abs(abs(plastic.roots[1]) - 0.8688369618) < 1e-9
    assert pv.make_field((-2, 0)).pv_status == "not-PV"
    assert pv.make_field((-8, -2, -1)).pv_status == "not-PV"


def test_make_field_rejections():
    with pytest.raises(pv.ReducibleError):
        pv.make_field((-1, 0))      # X^2 - 1
    with pytest.raises(pv.DegenerateError):
        pv.make_field((1, -2))      # (X-1)^2
    with pytest.raises(ValueError):
        pv.make_field((5,))         # degree 1 not allowed here
    with pytest.raises(ValueError):
        pv.make_field((0, 3))       # c_0 = 0


def test_root_certificates(golden, plastic):
    for f in (golden, plastic):
        assert all(r < 1e-9 for r in f.radii)
        for z in f.roots:
            val = z ** f.degree + sum(c * z**i for i, c in enumerate(f.coeffs))
            assert abs(val) < 1e-10
        for i in range(f.degree):
            for j in range(i + 1, f.degree):
                assert abs(f.roots[i] - f.roots[j]) > f.radii[i] + f.radii[j]


@pytest.mark.parametrize("poly", [(-1, -1), (-1, -1, 0), (-1, -1, -1), (1, -3), (-1, -2),
                                  (-1, -1, -1, -1, -1), (10**10, -(10**10 + 2)),
                                  (10**24 - 2, -2 * 10**12), (10**400, -(10**400 + 2))],
                         ids=["golden", "plastic", "tribonacci", "1,-3", "-1,-2", "pentanacci", "10^10",
                              "10^12+-sqrt2", "10^400"])
def test_root_radii_bound_the_root_error(poly):
    # each radius covers the distance from roots_mp[i] to the nearest root at 2000 bits,
    # also where |P(z_i)| rounds to zero in the certifying precision
    f = pv.make_field(poly)
    with mp.workprec(2000):
        exact = mp.polyroots([1] + list(reversed(poly)), maxsteps=500, extraprec=2000)
        for z, r in zip(f.roots_mp, f.radii):
            assert min(abs(z - w) for w in exact) <= r


@pytest.mark.parametrize("poly, verdict", [((10**24 - 2, -2 * 10**12), "not-PV"), ((10**400, -(10**400 + 2)), "PV")],
                         ids=["10^12+-sqrt2", "10^400"])
def test_newton_declines_to_polyroots(poly, verdict):
    # roots 10^12 +- sqrt 2 are too close for float64 seeds to separate, and 10^400 is no
    # finite double: Newton gives up and mp.polyroots supplies the roots that certify
    with mp.workprec(512):
        assert ac._newton_roots(poly, 512) is None
    assert pv.make_field(poly).pv_status == verdict


def test_newton_roots_are_polyroots_roots():
    # refined past the precision and rounded, Newton's roots are polyroots' to the last bit
    for poly in [(-1, -1), (-1, -1, -1, -1, -1), (1, -1, -1, -1), (2, 0), (1, 0, 1), (-1,) * 8]:
        with mp.workprec(512):
            desc = [mp.mpf(1)] + [mp.mpf(c) for c in reversed(poly)]
            want = mp.polyroots(desc, maxsteps=200, extraprec=256, cleanup=True)
            got = ac._newton_roots(poly, 512)
            assert sorted(z._mpc_ for z in got) == sorted(mp.mpc(z)._mpc_ for z in want), poly


def test_no_root_is_cleaned_to_zero():
    # the exact radius of the large root -2^600 would certify X^2 + 2^600 X + 1 at 512 bits, where
    # polyroots' cleanup takes the small root -2^-600 to 0; it certifies at 1024 bits instead
    f = pv.make_field((1, 2**600))
    assert f.roots == (-(2.0**600) + 0j, -(2.0**-600) + 0j)
    assert all(z != 0 for z in f.roots_mp)


def test_make_field_needs_neither_lapack_nor_polyroots(monkeypatch):
    # PV fields of degree 2 to 8 certify from Aberth seeds, integer Newton and exact disks;
    # the inputs whose seeds are no finite doubles, or too close to separate, still reach polyroots
    polyroots = mp.polyroots
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("make_field called LAPACK or polyroots")

    monkeypatch.setattr(np, "roots", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(mp, "polyroots", refuse)
    for d in range(2, 9):
        assert pv.make_field((-1,) * d).pv_status == "PV"
    assert pv.make_field((-1, 0, 0, 0, 0, -2)).pv_status == "PV"
    monkeypatch.setattr(mp, "polyroots", lambda *args, **kwargs: calls.append(args) or polyroots(*args, **kwargs))
    for poly in [(10**24 - 2, -2 * 10**12), (10**400, -(10**400 + 2))]:
        calls.clear()
        pv.make_field(poly)
        assert calls, poly


def test_integer_dilation_field():
    f = ac.integer_dilation_field(2)
    assert f.degree == 1 and f.pv_status == "not-PV"
    assert f.roots == (2 + 0j,)
    one = pv.fe_rational(f, 1)
    assert pv.trace(one, f) == 1 and pv.norm(one, f) == 1
    el, emb = ac.laurent_embed(f, ac.laurent({-3: 1}))
    assert el.coords == (Fraction(1, 8),) and emb == 0.125
    with pytest.raises(ValueError):
        ac.integer_dilation_field(1)


def test_trace_norm_examples(golden):
    one = pv.fe_rational(golden, 1)
    al = ac.fe_alpha(golden)
    half = pv.fe_rational(golden, Fraction(1, 2))
    assert pv.trace(one, golden) == 2 and pv.norm(one, golden) == 1
    assert pv.trace(al, golden) == 1 and pv.norm(al, golden) == -1
    assert pv.trace(half, golden) == 1 and pv.norm(half, golden) == Fraction(1, 4)


def test_trace_power_sequence_lucas(golden):
    seq = pv.trace_power_sequence(golden, pv.fe_rational(golden, 1), 30)
    assert seq[:7] == [2, 1, 3, 4, 7, 11, 18]
    assert all(s.denominator == 1 for s in seq)
    # direct exact traces agree with the recurrence everywhere
    al = ac.fe_alpha(golden)
    assert seq[30] == pv.trace(fe_pow(golden, al, 30), golden)


def test_trace_power_sequence_zero_and_plastic(golden, plastic):
    zeros = pv.trace_power_sequence(golden, pv.fe_rational(golden, 0), 10)
    assert all(s == 0 for s in zeros)
    ps = pv.trace_power_sequence(plastic, pv.fe_rational(plastic, 1), 4)
    assert ps == [3, 0, 2, 3, 2]


def test_trace_sequence_matches_float_conjugates(golden, plastic):
    rng = np.random.default_rng(7)
    for f in (golden, plastic):
        for _ in range(5):
            coords = [int(c) for c in rng.integers(-3, 4, size=f.degree)]
            mu = pv.fe(f, coords)
            seq = pv.trace_power_sequence(f, mu, 30)
            assert all(s.denominator == 1 for s in seq)
            conj = [sum(coords[i] * z**i for i in range(f.degree)) for z in f.roots]
            for j in range(31):
                approx = sum(c * z**j for c, z in zip(conj, f.roots))
                assert abs(float(seq[j]) - approx.real) < 1e-6
                assert abs(approx.imag) < 1e-6


def test_pisot_set_test(golden, plastic):
    one = pv.fe_rational(golden, 1)
    assert pv.pisot_set_test(golden, one)
    assert not pv.pisot_set_test(golden, pv.fe_rational(golden, Fraction(1, 2)))
    rng = np.random.default_rng(3)
    for f in (golden, plastic):
        for _ in range(5):
            coords = [int(c) for c in rng.integers(-5, 6, size=f.degree)]
            if all(c == 0 for c in coords):
                coords[0] = 1
            assert pv.pisot_set_test(f, pv.fe(f, coords))
    with pytest.raises(pv.NotPisotError):
        pv.pisot_set_test(pv.make_field((-2, 0)), one)


def _vandermonde(f):
    # V[i, k] = alpha_k^i from the certified roots, independently of the Lagrange row
    return np.array([[z**i for z in f.roots] for i in range(f.degree)])


def _lagrange_embeddings(f):
    # row k: sigma_k of the exact dual basis e_0..e_{d-1}
    row = pv.first_lagrange_row(f)
    return np.array([[complex(pv.algebraic_core.fe_embed(f, e, k)) for e in row] for k in range(f.degree)])


def test_dual_basis_inverts_vandermonde(golden, plastic):
    for f, disc in ((golden, 5), (plastic, -23)):
        assert np.max(np.abs(_lagrange_embeddings(f) @ _vandermonde(f) - np.eye(f.degree))) < 1e-12
        assert discriminant(f.coeffs) == disc
        # at eps = 1/2, gamma = |det V| times 2 pi eps^2 per complex pair, and |det V|^2 = |disc|
        g = pv.gamma_density(f, pv.LatticeCylinder(1, 0, (0.5,) * (f.degree - 1)))
        assert abs((g / (math.pi / 2) ** f.complex_pair_count) ** 2 - abs(disc)) < 1e-8


def test_lagrange_row_reconstructs_inverse(golden):
    row = pv.first_lagrange_row(golden)
    assert row[0].coords == (Fraction(3, 5), Fraction(-1, 5))
    assert row[1].coords == (Fraction(-1, 5), Fraction(2, 5))
    # numeric check at both embeddings: the conjugated rows invert V
    assert np.allclose(_lagrange_embeddings(golden), np.linalg.inv(_vandermonde(golden)), rtol=0, atol=1e-12)


def test_laurent_embed(golden):
    el, emb = ac.laurent_embed(golden, ac.laurent({-1: 1}))
    assert el.coords == (Fraction(-1), Fraction(1))
    assert abs(emb - 0.6180339887498949) < 1e-12
    el0, emb0 = ac.laurent_embed(golden, ac.laurent_int(1))
    assert el0.coords == (Fraction(1), Fraction(0)) and emb0 == 1.0
    el2, _ = ac.laurent_embed(golden, ac.laurent({2: 1}))
    assert el2.coords == (Fraction(1), Fraction(1))


def test_laurent_embed_additive(golden):
    rng = np.random.default_rng(5)
    for _ in range(10):
        s1 = {int(j): int(c) for j, c in zip(rng.integers(-4, 5, 3), rng.integers(-9, 10, 3))}
        s2 = {int(j): int(c) for j, c in zip(rng.integers(-4, 5, 3), rng.integers(-9, 10, 3))}
        t1, t2 = ac.laurent(s1), ac.laurent(s2)
        e1, _ = ac.laurent_embed(golden, t1)
        e2, _ = ac.laurent_embed(golden, t2)
        summed = {j: s1.get(j, 0) + s2.get(j, 0) for j in s1.keys() | s2.keys()}
        esum, _ = ac.laurent_embed(golden, ac.laurent(summed))
        assert fe_add(e1, e2).coords == esum.coords


@pytest.mark.parametrize("field", [GOLDEN, (-1, -1, -1), 2], ids=["golden", "tribonacci", "Q(2)"])
def test_alpha_power_table_is_fe_pow(field):
    f = ac.integer_dilation_field(field) if field == 2 else pv.make_field(field)
    al = ac.fe_alpha(f)
    for n in range(-60, 61):
        assert ac.alpha_power(f, n) == fe_pow(f, al, n), n
    # past the span the power comes from fe_pow and the table stops growing
    n = ac._ALPHA_TABLE_SPAN + 5
    assert ac.alpha_power(f, -n) == fe_pow(f, al, -n)
    assert all(len(seq) <= ac._ALPHA_TABLE_SPAN + 1 for seq in ac._alpha_powers(f.coeffs))


def test_fe_embed_is_horner_from_zero():
    # the embedding starts from the top coordinate, bit for bit the Horner sum from mpc(0)
    rng = np.random.default_rng(3)
    for f in (pv.make_field(GOLDEN), pv.make_field((-1, -1, -1)), pv.make_field((-1, 0, 0, 0, 0, -2)),
              ac.integer_dilation_field(2)):
        for _ in range(20):
            a = ac.fe(f, [Fraction(int(n), int(d)) for n, d in zip(rng.integers(-10**6, 10**6, f.degree),
                                                                   rng.integers(1, 10**4, f.degree))])
            for k in range(f.degree):
                with mp.workprec(128):
                    want = mp.mpc(0)
                    for n in reversed(a.nums):
                        g = math.gcd(n, a.den)
                        want = want * f.roots_mp[k] + mp.mpf(n // g) / (a.den // g)
                got = ac.fe_embed(f, a, k, 128)
                assert (got.real, got.imag) == (want.real, want.imag)


def test_field_element_algebra(golden):
    rng = np.random.default_rng(9)
    one = pv.fe_rational(golden, 1)
    for _ in range(10):
        coords = [Fraction(int(a), int(b)) for a, b in
                  zip(rng.integers(-9, 10, 2), rng.integers(1, 7, 2))]
        x = pv.fe(golden, coords)
        if x.is_zero():
            continue
        assert fe_mul(golden, x, fe_inv(golden, x)).coords == one.coords
    assert pv.fe(golden, (Fraction(1, 6), 1)).den == 6
    assert fe_scale(one, Fraction(2, 3)).coords == (Fraction(2, 3), Fraction(0))


def _canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1


def test_field_element_canonical_form(golden, plastic):
    # every constructor and operation returns integer numerators over a positive
    # denominator in lowest terms, so equal elements are equal tuples
    rng = np.random.default_rng(31)
    for f in (golden, plastic):
        for _ in range(20):
            a = pv.fe(f, [Fraction(int(p), int(q)) for p, q in
                          zip(rng.integers(-9, 10, f.degree), rng.integers(1, 9, f.degree))])
            b = pv.fe(f, [Fraction(int(p), int(q)) for p, q in
                          zip(rng.integers(-9, 10, f.degree), rng.integers(-8, 0, f.degree))])
            results = [a, b, fe_add(a, b), fe_add(a, fe_scale(a, -1)), fe_scale(a, Fraction(-4, 6)),
                       fe_scale(b, 0), fe_mul(f, a, b)]
            results += [fe_inv(f, x) for x in (a, b) if not x.is_zero()]
            assert all(_canonical(x) for x in results)
            assert all(isinstance(n, int) for x in results for n in x.nums + (x.den,))
    half = fe_add(pv.fe_rational(golden, Fraction(1, 2)), pv.fe_rational(golden, Fraction(1, 2)))
    assert (half.nums, half.den) == ((1, 0), 1)
    # degree 1: the adjugate of a 1x1 matrix is the 0x0 cofactor, 1
    f2 = ac.integer_dilation_field(2)
    for q in (Fraction(3), Fraction(-3, 4), Fraction(6, 9)):
        inv = fe_inv(f2, pv.fe_rational(f2, q))
        assert _canonical(inv) and inv.coords == (1 / q,)


def test_norm_is_multiplicative(golden, plastic):
    rng = np.random.default_rng(13)
    for f in (golden, plastic):
        for _ in range(5):
            a = pv.fe(f, [int(c) for c in rng.integers(-4, 5, f.degree)])
            b = pv.fe(f, [int(c) for c in rng.integers(-4, 5, f.degree)])
            assert pv.norm(fe_mul(f, a, b), f) == pv.norm(a, f) * pv.norm(b, f)


def test_discriminant_values():
    assert discriminant((-1, -1)) == 5
    assert discriminant((-1, -1, 0)) == -23
    assert discriminant((-2, 0)) == 8


def test_precision_context():
    # the context variable is the only setting: 128 bits unless set, none under 64 and none over 16,384
    from pvrefine.algebraic_core import working_precision

    for bits, want in ((192, 192), (64, 64), (63, "under the 64-bit floor"), (16384, 16384),
                       (16385, "over the 16384-bit ceiling"), (10**400, "over the 16384-bit ceiling")):
        token = working_precision.set(bits)
        try:
            if isinstance(want, str):
                with pytest.raises(ValueError, match=want):
                    pv.precision_bits()
            else:
                assert pv.precision_bits() == want
        finally:
            working_precision.reset(token)
    assert pv.precision_bits() == 128


def test_parse_poly():
    assert pv.parse_poly("-1,-1") == (-1, -1)
    assert pv.parse_poly(" 0 , -1 , 0 ") == (0, -1, 0)
    # a blank coefficient is refused, never skipped
    for text in ("", " ", "1,,2", "-1,-1,", ",-1"):
        with pytest.raises(ValueError, match="blank coefficient"):
            pv.parse_poly(text)
