"""Near-zero scans, density proxies, vanishing probes, norm-form counting."""

import hashlib
import math
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
    return lambda ys: rf.phihat_grid(mask, ys, tol)[0]


def _symbol_fn(mask, tol=1e-14):
    return lambda ys: rf.eval_symbol_grid(mask, ys, tol)[0]


def _magnitude_fn(mask, target):
    # |values| as zeros-scan takes them; f also takes a scalar y, so a scan that
    # probes one point per call finds the same minima
    kernel = rf.phihat_grid if target == "phihat" else rf.eval_symbol_grid
    return lambda ys: rf._magnitudes(kernel(mask, ys)[0], np.ndim(ys))


# refined minima (y, |f(y)|) of three zeros-scan runs, as exact floats, keyed by
# (mask, target, L, step, delta)
PINNED_MINIMA = {
    ("boxcar", "phihat", 16.0, 0.01, 1e-8): (
        (0.9999999999833077, 1.669229674024671e-11), (1.999999999983308, 8.346097181919937e-12),
        (2.999999999983308, 5.564004674696423e-12), (4.000000000016692, 4.17313147631608e-12),
        (5.000000000016692, 3.3384720268923077e-12), (6.000000000016692, 2.7820535254587523e-12),
        (7.000000000016692, 2.3846228763539234e-12), (7.9999999999833085, 2.0864828527627455e-12),
        (8.99999999998331, 1.8545268669060833e-12), (9.99999999998331, 1.6690780783869981e-12),
        (10.99999999998331, 1.5173401638317391e-12), (11.99999999998331, 1.3908813359441924e-12),
        (12.99999999998331, 1.283903215549634e-12), (13.99999999998331, 1.192198627418717e-12),
        (14.99999999998331, 1.1127161201428252e-12), (15.99999999997299, 1.6881360486561672e-12),
    ),
    ("golden_vector", "phihat", 40.0, 0.01, 1e-2): (
        (8.025006868999453, 0.005894136899827231), (12.984673509405624, 0.0022544435681924623),
        (16.049265234176115, 0.005854870028552121), (17.946183612316364, 0.005840785456750061),
        (21.00952415170388, 0.0008615758503947577), (22.913668932918746, 0.0077052385974988175),
        (24.071805792612953, 0.005788704301387773), (25.96952178244418, 0.0022486813424894203),
        (27.108860827712995, 0.009089841705982586), (27.896788714476887, 0.008642910244892495),
        (29.034228663930847, 0.0022468069971302075), (30.932449859101908, 0.004294183666195627),
        (32.09110152382429, 0.005694046699259858), (32.91719484711634, 0.008886188833139868),
        (33.994120866699014, 0.0003291584991206148), (35.10118233205729, 0.00796169249117656),
        (35.903991825276435, 0.005634055018237811), (37.05789134477444, 0.0030084512270618694),
        (37.98964260968513, 0.008364883737674246), (38.95473793509511, 0.002239040735930702),
        (39.99999999997299, 0.006109828458802949),
    ),
    ("boxcar", "symbol", 100.0, 0.05, 1e-8): (
        (0.5000000000046512, 1.4612028083961578e-11), (1.5000000000046512, 1.4612028083961578e-11),
        (2.500000000004651, 1.4611361950146803e-11), (3.500000000004651, 1.4611361950146803e-11),
        (4.500000000004651, 1.4612694217776353e-11), (5.500000000004651, 1.4612694217776353e-11),
        (6.500000000004651, 1.4612694217776353e-11), (7.500000000004651, 1.4612694217776353e-11),
        (8.50000000000465, 1.4610029682517253e-11), (9.50000000000465, 1.4610029682517253e-11),
        (10.50000000000465, 1.4610029682517253e-11), (11.50000000000465, 1.4610029682517253e-11),
        (12.50000000000465, 1.4610029682517253e-11), (13.50000000000465, 1.4610029682517253e-11),
        (14.50000000000465, 1.4610029682517253e-11), (15.50000000000465, 1.4610029682517253e-11),
        (16.50000000000465, 1.4610029682517253e-11), (17.50000000000465, 1.4610029682517253e-11),
        (18.50000000000465, 1.4610029682517253e-11), (19.50000000000465, 1.4610029682517253e-11),
        (20.50000000000465, 1.4610029682517253e-11), (21.50000000000465, 1.4610029682517253e-11),
        (22.50000000000465, 1.4610029682517253e-11), (23.50000000000465, 1.4610029682517253e-11),
        (24.50000000000465, 1.4610029682517253e-11), (25.50000000000465, 1.4610029682517253e-11),
        (26.50000000000465, 1.4610029682517253e-11), (27.50000000000465, 1.4610029682517253e-11),
        (28.50000000000465, 1.4610029682517253e-11), (29.50000000000465, 1.4610029682517253e-11),
        (30.50000000000465, 1.4610029682517253e-11), (31.50000000000465, 1.4610029682517253e-11),
        (32.49999999999536, 1.4576623411853487e-11), (33.49999999999536, 1.4576623411853487e-11),
        (34.49999999999536, 1.4576623411853487e-11), (35.49999999999536, 1.4576623411853487e-11),
        (36.49999999999536, 1.4576623411853487e-11), (37.49999999999536, 1.4576623411853487e-11),
        (38.49999999999536, 1.4576623411853487e-11), (39.49999999999536, 1.4576623411853487e-11),
        (40.49999999999536, 1.4576623411853487e-11), (41.49999999999536, 1.4576623411853487e-11),
        (42.49999999999536, 1.4576623411853487e-11), (43.49999999999536, 1.4576623411853487e-11),
        (44.49999999999536, 1.4576623411853487e-11), (45.49999999999536, 1.4576623411853487e-11),
        (46.49999999999536, 1.4576623411853487e-11), (47.49999999999536, 1.4576623411853487e-11),
        (48.49999999999536, 1.4576623411853487e-11), (49.49999999999536, 1.4576623411853487e-11),
        (50.49999999999536, 1.4576623411853487e-11), (51.49999999999536, 1.4576623411853487e-11),
        (52.49999999999536, 1.4576623411853487e-11), (53.49999999999536, 1.4576623411853487e-11),
        (54.49999999999536, 1.4576623411853487e-11), (55.49999999999536, 1.4576623411853487e-11),
        (56.49999999999536, 1.4576623411853487e-11), (57.49999999999536, 1.4576623411853487e-11),
        (58.49999999999536, 1.4576623411853487e-11), (59.49999999999536, 1.4576623411853487e-11),
        (60.49999999999536, 1.4576623411853487e-11), (61.49999999999536, 1.4576623411853487e-11),
        (62.49999999999536, 1.4576623411853487e-11), (63.49999999999536, 1.4576623411853487e-11),
        (64.49999999999535, 1.459882787234599e-11), (65.49999999999535, 1.459882787234599e-11),
        (66.49999999999535, 1.459882787234599e-11), (67.49999999999535, 1.459882787234599e-11),
        (68.49999999999535, 1.459882787234599e-11), (69.49999999999535, 1.459882787234599e-11),
        (70.49999999999535, 1.459882787234599e-11), (71.49999999999535, 1.459882787234599e-11),
        (72.49999999999535, 1.459882787234599e-11), (73.49999999999535, 1.459882787234599e-11),
        (74.49999999999535, 1.459882787234599e-11), (75.49999999999535, 1.459882787234599e-11),
        (76.49999999999535, 1.459882787234599e-11), (77.49999999999535, 1.459882787234599e-11),
        (78.49999999999535, 1.459882787234599e-11), (79.49999999999535, 1.459882787234599e-11),
        (80.49999999999535, 1.459882787234599e-11), (81.49999999999535, 1.459882787234599e-11),
        (82.49999999999535, 1.459882787234599e-11), (83.49999999999535, 1.459882787234599e-11),
        (84.49999999999535, 1.459882787234599e-11), (85.49999999999535, 1.459882787234599e-11),
        (86.49999999999535, 1.459882787234599e-11), (87.49999999999535, 1.459882787234599e-11),
        (88.49999999999535, 1.459882787234599e-11), (89.49999999999535, 1.459882787234599e-11),
        (90.49999999999535, 1.459882787234599e-11), (91.49999999999535, 1.459882787234599e-11),
        (92.49999999999535, 1.459882787234599e-11), (93.49999999999535, 1.459882787234599e-11),
        (94.49999999999535, 1.459882787234599e-11), (95.49999999999535, 1.459882787234599e-11),
        (96.49999999999535, 1.459882787234599e-11), (97.49999999999535, 1.459882787234599e-11),
        (98.49999999999535, 1.459882787234599e-11), (99.49999999999535, 1.459882787234599e-11),
    ),
}


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
    f = _symbol_fn(boxcar)
    z = zd.scan_near_zeros(f, 4.0, 0.01, 1e-8)
    assert [round(y, 9) for y in z.positions()] == [0.5, 1.5, 2.5, 3.5]


def test_dyadic_symbol_never_near_zero(dyadic):
    f = _symbol_fn(dyadic, 1e-8)
    z = zd.scan_near_zeros(f, 128.0, 0.01, 1e-3)
    assert z.points == ()


def test_scan_monotone_in_delta(boxcar):
    f = _symbol_fn(boxcar)
    z_small = zd.scan_near_zeros(f, 6.0, 0.01, 1e-10)
    z_big = zd.scan_near_zeros(f, 6.0, 0.01, 1e-6)
    small = set(z_small.positions())
    big = set(z_big.positions())
    assert small <= big


def test_scan_validation(boxcar):
    f = _symbol_fn(boxcar)
    with pytest.raises(ValueError):
        zd.scan_near_zeros(f, 4.0, 0.0, 1e-8)
    with pytest.raises(ValueError):
        zd.scan_near_zeros(f, 4.0, 0.01, -1e-8)


def test_scan_grid_prefilter_same_zero_set(boxcar):
    # the grid in one phihat_grid call, or point by point through eval_phihat: one zero set
    calls = []

    def f_grid(ys):
        calls.append(len(ys))
        return rf.phihat_grid(boxcar, ys)[0]

    pointwise = zd.scan_near_zeros(lambda ys: [rf.eval_phihat(boxcar, y).value for y in ys], 16.0, 0.01, 1e-8)
    fast = zd.scan_near_zeros(f_grid, 16.0, 0.01, 1e-8)
    assert fast == pointwise
    assert len(fast.points) == 16
    assert calls[0] == len(np.arange(0.0, 16.005, 0.01))


@pytest.mark.parametrize("key", sorted(PINNED_MINIMA))
def test_refined_minima_pinned(key):
    name, target, L, step, delta = key
    z = zd.scan_near_zeros(_magnitude_fn(rf.builtin_mask(name), target), L, step, delta)
    assert z.points == PINNED_MINIMA[key]


def _golden_section_probes(f, a, b):
    """The probes of one golden-section search on [a, b], as scan_near_zeros refines
    a bracket: x1 and x2, then one per round until b - a is at most 1e-10 or one
    float spacing of b."""
    g = (math.sqrt(5) - 1) / 2
    x1, x2 = b - g * (b - a), a + g * (b - a)
    probes, f1, f2 = [x1, x2], f(x1), f(x2)
    while b - a > max(1e-10, math.ulp(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            probes.append(x1)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            probes.append(x2)
            f2 = f(x2)
    return probes


def test_scan_calls_f_once_per_round(boxcar):
    # one call for the grid, one each for the opening x1 and x2 of every bracket,
    # then one per round holding the next probe of each bracket still open, in
    # grid order: each bracket's probes are those of its own scalar search, and no
    # call holds more than one point per bracket
    calls = []

    def f(ys):
        calls.append(np.asarray(ys, dtype=float).tolist())
        return rf.phihat_grid(boxcar, ys)[0]

    zd.scan_near_zeros(f, 16.5, 0.01, 1e-8)
    grid = np.arange(0.0, 16.505, 0.01)
    assert calls[0] == grid.tolist()
    mags = np.abs(rf.phihat_grid(boxcar, grid)[0])
    minima = [i for i in range(1, grid.size - 1) if mags[i] < 1e-7 and mags[i - 1] >= mags[i] <= mags[i + 1]]
    assert len(minima) == 16
    probes = [_golden_section_probes(lambda y: abs(rf.eval_phihat(boxcar, y).value), float(grid[i - 1]),
                                     float(grid[i + 1])) for i in minima]
    assert calls[1:] == [[p[k] for p in probes if k < len(p)] for k in range(max(map(len, probes)))]
    assert all(len(c) <= len(minima) for c in calls[1:])


def test_golden_section_stops_at_float_spacing():
    # near 1e6 adjacent floats are 1.16e-10 apart, more than the 1e-10 resolution
    calls = []

    def f(ys):
        calls.append(len(ys))
        assert len(calls) < 500, "golden section does not terminate"
        return np.abs(ys - 1e6 - 0.3)

    ((y, v),) = zd.scan_near_zeros(f, 1.2e6, 2e5, 1.0).points
    assert abs(y - 1e6 - 0.3) < 1e-9 and v < 1e-9


def test_scan_size_guard_before_evaluation():
    def f(ys):
        raise AssertionError("evaluated a grid point")

    assert zd.MAX_GRID_POINTS >= 10 * 25601
    with pytest.raises(pv.SizeError):
        zd.scan_near_zeros(f, 1e9, 1e-3, 1e-8)


def test_zero_set_recursion_boxcar(boxcar):
    # near-zeros of phihat on [0, L] = alpha * (near-zeros of ahat on [0, L/2])
    #                                union alpha * (near-zeros of phihat on [0, L/2])
    al = boxcar.alpha
    zp = zd.scan_near_zeros(_phihat_fn(boxcar), 8.0, 0.01, 1e-8)
    za = zd.scan_near_zeros(_symbol_fn(boxcar), 4.0, 0.01, 1e-8)
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
    za = zd.scan_near_zeros(_symbol_fn(boxcar), 100.0, 0.05, 1e-8)
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


def test_probe_one_point_tail_is_inconclusive():
    # at J_max = 2 the tail is the one point J = 2: no slope is fitted (the pytest
    # config turns numpy's RankWarning into an error), and one point decides nothing
    plastic = pv.make_field((-1, -1, 0))
    bern = rf.builtin_mask("bernoulli", plastic)
    (rec,) = zd.vanishing_probe(bern, [pv.fe_rational(plastic, 1)], 2)
    assert math.isnan(rec.slope)
    assert rec.verdict == "inconclusive"
    assert len(rec.values) == 3 and rec.tail_mean == rec.values[2] > 1e-6
    # two tail points (J_max = 3) are fitted
    (rec3,) = zd.vanishing_probe(bern, [pv.fe_rational(plastic, 1)], 3)
    assert math.isfinite(rec3.slope)


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
def test_norm_form_names_the_check_point(coeffs, monkeypatch):
    # every +-1 error in one coefficient of the interpolant, and one extra constant monomial, is
    # caught by an exact determinant off the principal lattice and named by that point
    f = pv.make_field(coeffs)
    exact = zd._interpolated_form
    monomials = [e for e, _ in zd.norm_form(f).numerator_form]
    for exps, delta in [(e, s) for e in monomials for s in (1, -1)] + [((0,) * f.degree, 1)]:

        def corrupted(mats, exps=exps, delta=delta):
            form = exact(mats)
            return {**form, exps: form.get(exps, 0) + delta}

        monkeypatch.setattr(zd, "_interpolated_form", corrupted)
        with pytest.raises(pv.PrecisionError, match=r"at n = \([-\d, ]+\)$") as err:
            zd.norm_form(f)
        n = [int(v) for v in re.findall(r"-?\d+", str(err.value).rsplit("at n = ", 1)[1])]
        # every entry nonzero, so the wrong term is nonzero there, and n_d off the lattice's 1
        assert len(n) == f.degree and all(n) and n[-1] not in (0, 1)


# perfbench's PV_POOL, degrees 2-6, and (-2,-2,-2), whose (n1, n2) restriction has twice the content
# of its full form, so the gcd over every coefficient is pinned too; the digest was taken where a
# Laplace expansion and the interpolant agreed on every coefficient
PINNED_POLYS = ("-1,-1", "-1,-2", "1,-3", "-1,-1,0", "-1,-1,-1", "-1,1,-2", "-1,-1,-1,-1", "-1,0,0,-1",
                "-1,0,0,-2", "-1,-1,-1,-2", "-1,-1,-1,-1,-1", "-1,0,-1,-1,-1", "-1,-1,0,-1,-1",
                "-1,-1,-1,-1,-1,-1", "-1,0,0,0,0,-2", "-2,-2,-2")


def test_norm_forms_pinned():
    h = hashlib.sha256()
    for poly in PINNED_POLYS:
        nf = zd.norm_form(pv.make_field(pv.parse_poly(poly)))
        h.update(repr((nf.numerator_form, nf.denominator)).encode())
    assert h.hexdigest() == "e532c36655cca94d6adf4f0c38b485c263e44ff77ae354f8ec5e04de54981edf"


def test_norm_form_degree_7_matches_the_field_norm():
    # no other test reaches a form above degree 6: its 1,674 monomials against the exact norm
    from pvrefine.algebraic_core import fe_add, fe_scale

    f = pv.make_field((-1,) * 7)
    nf = zd.norm_form(f)
    assert nf.degree == 7
    row = pv.first_lagrange_row(f)
    for n in ([1, 0, 0, 0, 0, 0, 0], [1] * 7, [3, -1, 4, -1, 5, -9, 2], [0, 0, 0, 0, 0, 0, -7]):
        mu = pv.fe_rational(f, 0)
        for ni, e in zip(n, row):
            mu = fe_add(mu, fe_scale(e, ni))
        assert nf.evaluate(n) == pv.norm(mu, f)


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
