"""Near-zero scans, density proxies, vanishing probes, norm-form counting."""

import math
import random
import re
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import pvrefine as pv
from pvrefine import refinement as rf
from pvrefine import zero_density as zd
from pvrefine.algebraic_core import discriminant


@pytest.fixture(scope="module")
def golden():
    return pv.make_field((-1, -1))


@pytest.fixture(scope="module")
def boxcar():
    return rf.builtin_mask("boxcar")


@pytest.fixture(scope="module")
def dyadic():
    return rf.builtin_mask("dyadic")


def _phihat_fn(mask, tol=1e-12):
    def f(y):
        if abs(y) < 1e-13:
            return 1.0
        return rf.eval_phihat(mask, y, tol).value

    return f


# ---------------------------------------------------------------------------
# scanning


def test_boxcar_phihat_zeros(boxcar):
    z = zd.scan_near_zeros(_phihat_fn(boxcar), 8.0, 0.01, 1e-8)
    assert len(z.points) == 8
    for got, want in zip(z.positions(), range(1, 9)):
        assert abs(got - want) < 1e-9
    for _, v in z.points:
        assert v < 1e-8


def test_boxcar_symbol_zeros(boxcar):
    f = lambda y: rf.eval_symbol(boxcar, y).value
    z = zd.scan_near_zeros(f, 4.0, 0.01, 1e-8)
    assert [round(y, 9) for y in z.positions()] == [0.5, 1.5, 2.5, 3.5]


def test_dyadic_symbol_never_near_zero(dyadic):
    f = lambda y: rf.eval_symbol(dyadic, y, 1e-8).value
    z = zd.scan_near_zeros(f, 128.0, 0.01, 1e-3)
    assert z.points == ()


def test_scan_monotone_in_delta(boxcar):
    f = lambda y: rf.eval_symbol(boxcar, y).value
    z_small = zd.scan_near_zeros(f, 6.0, 0.01, 1e-10)
    z_big = zd.scan_near_zeros(f, 6.0, 0.01, 1e-6)
    small = set(z_small.positions())
    big = set(z_big.positions())
    assert small <= big


def test_scan_validation(boxcar):
    f = lambda y: rf.eval_symbol(boxcar, y).value
    with pytest.raises(ValueError):
        zd.scan_near_zeros(f, 4.0, 0.0, 1e-8)
    with pytest.raises(ValueError):
        zd.scan_near_zeros(f, 4.0, 0.01, -1e-8)


def test_scan_grid_prefilter_same_zero_set(boxcar):
    calls = []

    def f_grid(ys):
        calls.append(len(ys))
        return np.abs(rf.phihat_grid(boxcar, ys)[0])

    plain = zd.scan_near_zeros(_phihat_fn(boxcar), 16.0, 0.01, 1e-8)
    fast = zd.scan_near_zeros(zd.tabulate_on_grid(_phihat_fn(boxcar), f_grid, 16.0, 0.01), 16.0, 0.01, 1e-8)
    assert fast == plain
    assert len(plain.points) == 16
    assert calls == [len(zd.scan_grid(16.0, 0.01))]


def test_golden_section_stops_at_float_spacing():
    # near 1e6 adjacent floats are 1.16e-10 apart, more than the 1e-10 resolution
    calls = []

    def f(t):
        calls.append(t)
        assert len(calls) < 500, "golden section does not terminate"
        return abs(t - 1e6 - 0.3)

    y, v = zd._golden_section_min(f, 999999.0, 1000001.0)
    assert abs(y - 1e6 - 0.3) < 1e-9 and v < 1e-9


def test_scan_size_guard_before_evaluation():
    def f(y):
        raise AssertionError("evaluated a grid point")

    assert zd.MAX_GRID_POINTS >= 10 * 25601
    with pytest.raises(pv.SizeError):
        zd.scan_near_zeros(f, 1e9, 1e-3, 1e-8)
    with pytest.raises(pv.SizeError):
        zd.tabulate_on_grid(f, f, 1e9, 1e-3)


def test_zero_set_recursion_boxcar(boxcar):
    # near-zeros of phihat on [0, L] = alpha * (near-zeros of ahat on [0, L/2])
    #                                union alpha * (near-zeros of phihat on [0, L/2])
    al = boxcar.alpha
    zp = zd.scan_near_zeros(_phihat_fn(boxcar), 8.0, 0.01, 1e-8)
    za = zd.scan_near_zeros(lambda y: rf.eval_symbol(boxcar, y).value, 4.0, 0.01, 1e-8)
    zh = zd.scan_near_zeros(_phihat_fn(boxcar), 4.0, 0.01, 1e-8)
    scaled = sorted([al * y for y in za.positions()] + [al * y for y in zh.positions()])
    for y in zp.positions():
        assert any(abs(y - s) < 1e-6 for s in scaled)


# ---------------------------------------------------------------------------
# density


def test_density_boxcar_unit(boxcar):
    z = zd.scan_near_zeros(_phihat_fn(boxcar), 100.0, 0.05, 1e-8)
    lo, hi = zd.density_estimate(z)
    assert 0.9 < lo <= hi < 1.1


def test_density_ratio_matches_dilation_identity(boxcar):
    # density(S(ahat)) = (|alpha| - 1) density(S(phihat)) with |alpha| = 2
    za = zd.scan_near_zeros(lambda y: rf.eval_symbol(boxcar, y).value, 100.0, 0.05, 1e-8)
    zp = zd.scan_near_zeros(_phihat_fn(boxcar), 100.0, 0.05, 1e-8)
    da = sum(zd.density_estimate(za)) / 2
    dp = sum(zd.density_estimate(zp)) / 2
    assert abs(da / dp - 1.0) < 0.05


def test_density_empty_and_short():
    z = zd.NearZeroSet(1e-8, (), (0.0, 100.0))
    assert zd.density_estimate(z) == (0.0, 0.0)
    with pytest.raises(ValueError):
        zd.density_estimate(zd.NearZeroSet(1e-8, (), (0.0, 5.0)))


# ---------------------------------------------------------------------------
# vanishing probes


def test_probe_bernoulli_golden(golden):
    bern = rf.builtin_mask("bernoulli", golden)
    (rec,) = zd.vanishing_probe(bern, [pv.fe_rational(golden, 1)], 40)
    assert rec.verdict == "bounded-away"
    assert rec.tail_mean > 1e-3
    assert abs(rec.slope) < 1e-3
    assert len(rec.values) == 41


def test_probe_boxcar_exact_zero(boxcar):
    (rec,) = zd.vanishing_probe(boxcar, [pv.fe_rational(boxcar.field, 1)], 20)
    assert rec.verdict == "tends-to-zero"
    assert max(rec.values[1:]) < 1e-11


def test_probe_dyadic_true_tail(dyadic):
    (rec,) = zd.vanishing_probe(dyadic, [pv.fe_rational(dyadic.field, 1)], 40)
    assert rec.verdict == "bounded-away"
    # tail settles at |phihat limit| = |0.0257640158 + 0.0692221794 i|
    assert abs(rec.tail_mean - 0.0738613) < 1e-4


def test_probe_stability(golden, boxcar):
    bern = rf.builtin_mask("bernoulli", golden)
    one_g = pv.fe_rational(golden, 1)
    one_b = pv.fe_rational(boxcar.field, 1)
    base = zd.vanishing_probe(bern, [one_g], 40)[0].verdict
    assert zd.vanishing_probe(bern, [one_g], 80)[0].verdict == base
    assert zd.vanishing_probe(bern, [one_g], 40, tol=5e-13)[0].verdict == base
    assert zd.vanishing_probe(boxcar, [one_b], 40)[0].verdict == "tends-to-zero"


def test_probe_lambda_validation(golden, boxcar):
    with pytest.raises(ValueError):
        zd.vanishing_probe(boxcar, [pv.fe_rational(boxcar.field, Fraction(1, 3))], 10)
    half_g = pv.fe_rational(golden, Fraction(1, 2))
    bern = rf.builtin_mask("bernoulli", golden)
    with pytest.raises(ValueError):
        zd.vanishing_probe(bern, [half_g], 10)  # |c_0| = 1 admits no denominators
    f22 = pv.make_field((-2, -2))
    bern22 = rf.builtin_mask("bernoulli", f22)
    (rec,) = zd.vanishing_probe(bern22, [pv.fe_rational(f22, Fraction(1, 2))], 12)
    assert rec.lam_value == 0.5
    with pytest.raises(ValueError):
        zd.vanishing_probe(bern, [pv.fe_rational(golden, 0)], 10)


# ---------------------------------------------------------------------------
# norm forms


def test_norm_form_golden(golden):
    nf = zd.norm_form(golden)
    assert nf.denominator == 5
    assert dict(nf.numerator_form) == {(2, 0): 1, (1, 1): 1, (0, 2): -1}
    assert nf.evaluate((1, 0)) == Fraction(1, 5)
    assert nf.evaluate_numerator((1, 0)) == 1


def test_norm_form_sqrt2():
    f = pv.make_field((-2, 0))  # X^2 - 2, not PV; norm form still defined
    nf = zd.norm_form(f)
    assert nf.denominator == 8
    assert dict(nf.numerator_form) == {(2, 0): 2, (0, 2): -1}


def test_norm_form_exactness_random(golden):
    nf = zd.norm_form(golden)
    row = pv.first_lagrange_row(golden)
    rng = np.random.default_rng(23)
    for n in rng.integers(-200, 201, size=(100, 2)):
        mu = pv.fe(golden, (0, 0))
        from pvrefine.algebraic_core import fe_add, fe_scale

        mu = fe_add(fe_scale(row[0], int(n[0])), fe_scale(row[1], int(n[1])))
        assert nf.evaluate([int(v) for v in n]) == pv.norm(mu, golden)


def test_norm_form_denominator_divides_disc():
    for coeffs in ((-1, -1), (-1, -1, 0), (-2, -2)):
        f = pv.make_field(coeffs)
        nf = zd.norm_form(f)
        disc = abs(discriminant(f.coeffs))
        assert disc % nf.denominator == 0


@pytest.mark.parametrize("coeffs", [(-1, -1, -1, -1), (-1, 0, 0, -2), (-1, -1, -1, -1, -1),
                                    (-1, -1, -1, -1, -1, -1), (-1, 0, 0, 0, 0, -2)])
def test_norm_form_matches_embedding_product(coeffs):
    # PV fields of degree 4-6: the exact form against the product over all 300-bit
    # embeddings of mu = sum n_i e_i, built from the Lagrange row with exact arithmetic
    from pvrefine.algebraic_core import fe_add, fe_embed, fe_scale

    f = pv.make_field(coeffs)
    assert f.pv_status == "PV"
    nf = zd.norm_form(f)
    assert nf.degree == f.degree
    row = pv.first_lagrange_row(f)
    rng = np.random.default_rng(41)
    for n in [[1] + [0] * (f.degree - 1), [1] * f.degree] + rng.integers(-9, 10, size=(4, f.degree)).tolist():
        mu = pv.fe_rational(f, 0)
        for ni, e in zip(n, row):
            mu = fe_add(mu, fe_scale(e, ni))
        with mp.workprec(300):
            prod = mp.mpc(1)
            for k in range(f.degree):
                prod *= fe_embed(f, mu, k, 300)
            want = nf.evaluate(n)
            assert abs(prod - mp.mpf(want.numerator) / want.denominator) <= mp.mpf(10) ** -60 * (1 + abs(prod))


@pytest.mark.parametrize("coeffs", [(-1, -1), (-1, -1, -1)])
def test_norm_form_names_the_first_failing_vector(coeffs, monkeypatch):
    # a form off by n_0^d fails at the first of the 10^3 random.Random(17) vectors with n_0 != 0
    f = pv.make_field(coeffs)
    d = f.degree
    exact = zd._det_form
    top = (d,) + (0,) * (d - 1)

    def corrupted(mats):
        form = exact(mats)
        return {**form, top: form.get(top, 0) + 1}

    monkeypatch.setattr(zd, "_det_form", corrupted)
    rng = random.Random(17)
    ns = [[rng.randint(-50, 50) for _ in range(d)] for _ in range(10**3)]
    first = next(n for n in ns if n[0] != 0)
    with pytest.raises(pv.PrecisionError, match=re.escape("at %s" % (tuple(first),)) + "$"):
        zd.norm_form(f)


def dyadic_marks(L):
    marks, t = [], L
    while t >= 10:
        marks.append(t)
        t //= 2
    return marks[::-1]


@pytest.mark.parametrize("coeffs", [(-1, -1), (-2, 0), (-1, -1, -1), (-1, 0, 0, -1)])
def test_count_values_match_a_python_set(coeffs):
    # every value of the form on the box with the other coordinates at 0, counted in a set
    f = pv.make_field(coeffs)
    nf = zd.norm_form(f)
    pad = (0,) * (f.degree - 2)
    for box in (1, 2, 7, 12):
        values = {abs(nf.evaluate_numerator((a, b) + pad)) for a in range(-box, box + 1) for b in range(-box, box + 1)}
        for L in (1, 10, 97, 5000):
            cnt, _, pts = zd.count_norm_values(f, L, box, checkpoints=True)
            assert cnt == len({v for v in values if 1 <= v <= L})
            want = [(t, len({v for v in values if 1 <= v <= t})) for t in dyadic_marks(L)]
            assert pts == [(t, k) for t, k in want if k]


@pytest.mark.parametrize("coeffs, count, exponent", [((-1, -1), 1828, 0.8945), ((-1, -1, -1), 862, 0.7475),
                                                     ((-1, -1, -1, -1, -1), 65, 0.4767)])
def test_count_values_pinned(coeffs, count, exponent):
    # the counts and fitted exponents the benchmark's norms-count fields printed at L = 10^4, box 200
    cnt, expn = zd.count_norm_values(pv.make_field(coeffs), 10**4, 200)
    assert (cnt, "%.4f" % expn) == (count, "%.4f" % exponent)


def test_count_values_memory_stays_off_box_squared(golden):
    # box 1500 is 3001^2 = 9.0e6 values, 72 MB as one int64 array; the blocks stay far below
    zd.norm_form(golden)  # warm the field's caches outside the measurement
    tracemalloc.start()
    try:
        cnt, _ = zd.count_norm_values(golden, 10**4, 1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cnt >= 1828  # the box-200 count: a larger box only adds values
    assert peak < 40 * 2**20


def test_count_values_small(golden):
    cnt, _ = zd.count_norm_values(golden, 1, 5)
    assert cnt >= 1


def test_count_values_monotone(golden):
    c1, _ = zd.count_norm_values(golden, 10**3, 80)
    c2, _ = zd.count_norm_values(golden, 10**4, 80)
    assert c2 >= c1
    c3, _ = zd.count_norm_values(golden, 10**4, 230)
    assert c3 >= c1
    b1, _ = zd.count_norm_values(golden, 10**4, 120)
    b2, _ = zd.count_norm_values(golden, 10**4, 240)
    assert b2 >= b1


def test_count_values_stable_ratio_band(golden):
    ratios = []
    for L in (10**3, 10**4, 10**5):
        box = int(math.ceil((L * 5) ** 0.5)) + 2
        cnt, _ = zd.count_norm_values(golden, L, box)
        ratios.append(cnt / (L / math.log(L)))
    assert all(1.2 < r < 2.2 for r in ratios)
    assert max(ratios) / min(ratios) < 1.35


def test_count_values_cubic_exponent():
    f = pv.make_field((-1, -1, 0))
    box = int(math.ceil((10**5 * 23) ** (1 / 3))) + 2
    cnt, expn = zd.count_norm_values(f, 10**5, box)
    assert expn >= 2 / 3 - 0.05
    assert cnt > 10**3


def test_count_values_size_guard(golden):
    with pytest.raises(pv.SizeError):
        zd.count_norm_values(golden, 10, 6000)
