"""Mask construction, symbol evaluation, and infinite-product checks.

Closed-form oracles (negative-exponent transform convention):
  boxcar:  ahat(y) = e^{-pi i y} cos(pi y),  phihat(y) = e^{-pi i y} sin(pi y)/(pi y)
  golden vector mask: phihat(y a^J) componentwise
      [e^{-pi i y a^{J-1}} sin(pi y a^{J-1}), e^{-pi i y a^J} sin(pi y a^J)] / (pi y a^J)
Frozen regression anchors were computed at 200-bit precision with independent
truncation parameters.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import pvrefine as pv
from pvrefine.algebraic_core import integer_dilation_field, laurent_embed
from pvrefine import refinement as rf

# dyadic-mask limit of phihat(2^J) as J -> infinity, frozen at 200-bit precision
DYADIC_LIMIT = 0.025764015799446 + 0.069222179449402j


@pytest.fixture(scope="module")
def boxcar():
    return rf.builtin_mask("boxcar")


@pytest.fixture(scope="module")
def dyadic():
    return rf.builtin_mask("dyadic")


@pytest.fixture(scope="module")
def golden_vector():
    return rf.builtin_mask("golden_vector")


@pytest.fixture(scope="module")
def bernoulli_golden():
    return rf.builtin_mask("bernoulli", pv.make_field((-1, -1)))


def all_builtins(boxcar, dyadic, golden_vector, bernoulli_golden):
    return [boxcar, dyadic, golden_vector, bernoulli_golden]


def test_make_mask_validation(boxcar):
    assert abs(rf.eval_symbol(boxcar, 0.0).value - 1.0) < 1e-14
    f2 = integer_dilation_field(2)
    with pytest.raises(pv.NormalizationError):
        rf.make_mask(f2, (1.0, 0.5), (0, 1))
    with pytest.raises(ValueError):
        rf.make_mask(f2, (1.0,), (0, 1))


def test_golden_vector_phihat0(golden_vector):
    alpha = golden_vector.alpha
    assert abs(golden_vector.phihat0[0] - 1 / alpha) < 1e-12
    assert golden_vector.phihat0[1] == 1.0


def test_eigen_rejections():
    f2 = integer_dilation_field(2)
    eye = ((1.0, 0.0), (0.0, 1.0))
    # ahat(0) = identity: eigenvalue 1 is double
    with pytest.raises(pv.EigenError):
        rf.make_mask(f2, (eye, eye), (0, 1), rank=2)
    # explicit phihat0 that is not fixed by ahat(0)
    a1 = ((0, 1), (0, 1))
    a2 = ((0, 0), (1, 0))
    gold = pv.make_field((-1, -1))
    with pytest.raises(pv.EigenError):
        rf.make_mask(gold, (a1, a2), (0, 1), rank=2, phihat0=(1.0, -5.0))


def test_builtin_unknown():
    with pytest.raises(pv.UnknownExampleError):
        rf.builtin_mask("haar")
    with pytest.raises(ValueError):
        rf.builtin_mask("bernoulli")
    with pytest.raises(pv.NotPisotError):
        rf.builtin_mask("bernoulli", pv.make_field((-2, 0)))


def test_boxcar_symbol_closed_form(boxcar):
    assert abs(rf.eval_symbol(boxcar, 0.5).value) < 1e-14
    for y in np.linspace(-3, 3, 61):
        want = cmath.exp(-1j * math.pi * y) * math.cos(math.pi * y)
        assert abs(rf.eval_symbol(boxcar, y).value - want) < 1e-12


def test_dyadic_terms(dyadic):
    terms, tail = rf.mask_terms(dyadic, 1e-14)
    a2, t2 = terms[1]
    assert a2 == 0.5 and t2.support == {-1: 1}
    emb = laurent_embed(dyadic.field, t2)[1]
    assert emb == 0.5
    assert tail < 1e-14


def test_dyadic_kernel_terms_take_one_multiplication_per_power():
    # a fresh field and mask: each translate alpha^(1-k) is one step from alpha^(2-k),
    # so K terms cost at most K + 2 multiplications, and K = 999 (tol 1e-300) builds in a loop
    from unittest import mock

    from pvrefine import algebraic_core as ac

    for tol in (1e-14, 1e-300):
        ac._alpha_powers.cache_clear()
        mask = rf.builtin_mask("dyadic")
        K, _ = rf._truncation(mask, tol)
        with mock.patch.object(ac, "fe_mul", wraps=ac.fe_mul) as mul, \
                mock.patch.object(ac, "fe_inv", wraps=ac.fe_inv) as inv, \
                mock.patch.object(ac, "_alpha_step", wraps=ac._alpha_step) as step:
            coeffs, taus, elems = rf._kernel_terms(mask, K)
        assert mul.call_count + inv.call_count + step.call_count <= K + 2
        assert len(elems) == K == {1e-14: 49, 1e-300: 999}[tol]
        assert taus.tolist() == [2.0 ** (1 - k) for k in range(1, K + 1)]
        assert elems[-1] == pv.FieldElement((1,), 2 ** (K - 1))


def test_symbol_truncation_honesty(dyadic):
    # halving tol must not move the value by more than the reported tail bound
    for y in (0.3, 1.7, 97.123, 2.0**20 + 0.417):
        tol = 1e-8
        for _ in range(6):
            a = rf.eval_symbol(dyadic, y, tol)
            b = rf.eval_symbol(dyadic, y, tol / 2)
            assert abs(a.value - b.value) <= a.truncation_error + 1e-16
            tol /= 2


def test_dyadic_almost_periodicity_provable_bound(dyadic):
    # |ahat(y + 2^{L-1}) - ahat(y)| <= 2^{1-L}: terms k <= L shift by integers,
    # the k > L tail contributes at most 2 * sum_{k>L} 2^{-k}
    ys = np.arange(0, 32.0, 0.37)
    for L in range(1, 16):
        vals1, _ = rf.eval_symbol_grid(dyadic, ys + 2.0 ** (L - 1))
        vals0, _ = rf.eval_symbol_grid(dyadic, ys)
        assert np.max(np.abs(vals1 - vals0)) <= 2.0 ** (1 - L) + 1e-13


def test_boxcar_phihat_closed_form(boxcar):
    got = rf.eval_phihat(boxcar, 0.5, 1e-12).value
    assert abs(got - (-2j / math.pi)) < 1e-11
    assert abs(rf.eval_phihat(boxcar, 1.0, 1e-12).value) < 1e-12
    ys = np.linspace(-8, 8, 1001)
    for y in ys:
        if abs(y) < 1e-12:
            continue
        want = cmath.exp(-1j * math.pi * y) * math.sin(math.pi * y) / (math.pi * y)
        assert abs(rf.eval_phihat(boxcar, y, 1e-12).value - want) < 1e-10


def test_two_scale_identity(boxcar, dyadic, golden_vector, bernoulli_golden):
    rng = np.random.default_rng(2)
    for mask in all_builtins(boxcar, dyadic, golden_vector, bernoulli_golden):
        al = mask.alpha
        for y in rng.uniform(-10, 10, size=100):
            lhs = rf.eval_phihat(mask, al * y, 1e-11).value
            sym = rf.eval_symbol(mask, y, 1e-14).value
            rhs_base = rf.eval_phihat(mask, y, 1e-11).value
            rhs = sym * rhs_base if mask.rank == 1 else sym @ rhs_base
            assert np.max(np.abs(np.atleast_1d(lhs - rhs))) < 1e-9


def test_phihat_orbit_dyadic_limit(dyadic):
    orbit = rf.phihat_orbit(dyadic, 1.0, range(0, 41))
    assert abs(orbit[-1][1].value - DYADIC_LIMIT) < 1e-9
    # and the tail has settled: successive values within 1e-6 by J = 40
    tail = [sv.value for j, sv in orbit if j >= 35]
    assert max(abs(a - b) for a, b in zip(tail, tail[1:])) < 1e-6


def test_phihat_orbit_boxcar_zero(boxcar):
    orbit = rf.phihat_orbit(boxcar, 1.0, range(0, 12))
    for _, sv in orbit:
        assert abs(sv.value) < 1e-11


def test_phihat_orbit_consecutive_ratio(dyadic):
    orbit = rf.phihat_orbit(dyadic, 1.0, range(0, 16))
    for (j0, s0), (_, s1) in zip(orbit, orbit[1:]):
        sym = rf.eval_symbol(dyadic, 1.0 * 2.0**j0, 1e-14).value
        if abs(s0.value) > 1e-12:
            assert abs(s1.value / s0.value - sym) < 1e-9


def test_orbit_matches_fresh_evaluation(dyadic):
    orbit = rf.phihat_orbit(dyadic, 1.0, [7])
    fresh = rf.eval_phihat(dyadic, 2.0**7, 1e-12)
    assert abs(orbit[0][1].value - fresh.value) < 1e-10


def test_orbits_refuse_before_building(dyadic):
    # 10^9 orbit points: refused from the range's ends, before any point is listed;
    # lam = 0 skips the precision guard, so only the size guard stands in the way
    with pytest.raises(pv.SizeError, match="1000000000 orbit points"):
        rf.phihat_orbit(dyadic, 0.0, range(10**9))
    with pytest.raises(pv.SizeError, match="1000000000 orbit points"):
        rf.phihat_orbit(dyadic, 1.0, range(10**9 - 1, -1, -1))
    with pytest.raises(pv.SizeError, match="1000041 orbit points"):
        rf.bernoulli_orbit(pv.make_field((-1, -1)), 10**6, -40)


def test_golden_vector_multiprod(golden_vector):
    al = golden_vector.alpha

    def closed(y, J):
        t1, t2 = y * al ** (J - 1), y * al**J
        den = math.pi * y * al**J
        return np.array(
            [
                cmath.exp(-1j * math.pi * t1) * math.sin(math.pi * t1) / den,
                cmath.exp(-1j * math.pi * t2) * math.sin(math.pi * t2) / den,
            ]
        )

    for y in np.linspace(-5, 5, 201):
        if abs(y) < 1e-9:
            continue
        got = rf.eval_phihat(golden_vector, y, 1e-10).value
        assert np.max(np.abs(got - closed(y, 0))) < 1e-8


def test_golden_vector_symbol_never_zero(golden_vector):
    for y in np.linspace(0, 10, 2001):
        smin = np.linalg.svd(rf.eval_symbol(golden_vector, y).value, compute_uv=False)[-1]
        assert smin > 0.38


def test_bernoulli_phihat_regression():
    gold = pv.make_field((-1, -1))
    v1 = rf.bernoulli_orbit(gold, 1, -30)[0][-1]
    v2 = rf.bernoulli_orbit(gold, 1, -30)[0][-1]
    assert v1 == v2
    # frozen anchor, and agreement with the generic product evaluator
    assert abs(v1 - (-0.0294695528952 - 0.0757960321356j)) < 1e-10
    mask = rf.builtin_mask("bernoulli", gold)
    generic = rf.eval_phihat(mask, gold.alpha, 1e-12).value
    assert abs(v1 - generic) < 1e-10


def test_bernoulli_phihat_nonvanishing_tail():
    gold = pv.make_field((-1, -1))
    vals = [abs(v) for v in rf.bernoulli_orbit(gold, 40, -40)[0][25:]]
    assert min(vals) > 1e-3
    assert max(vals) - min(vals) < 1e-2  # settled at the desk scale


def test_bernoulli_phihat_bound_reported():
    gold = pv.make_field((-1, -1))
    (*_, v30), b30 = rf.bernoulli_orbit(gold, 2, -30)
    (*_, v60), b60 = rf.bernoulli_orbit(gold, 2, -60)
    assert b60 < b30 < 1e-10
    assert abs(v30 - v60) <= b30 + 1e-14


def test_bernoulli_orbit_refuses_a_cutoff_that_drops_large_factors():
    # j_min = 5 would drop the factors j = 0..4: the bound (pi^2/2) alpha^10/(alpha^2-1) is about 375
    gold = pv.make_field((-1, -1))
    with pytest.raises(ValueError, match="j_min = 5 can move the product by up to 375, not below 1"):
        rf.bernoulli_orbit(gold, 3, 5)
    for j_min in (-1, 0):  # bounds 1.16 and 3.05
        with pytest.raises(ValueError, match="not below 1"):
            rf.bernoulli_orbit(gold, 3, j_min)
    assert rf.bernoulli_orbit(gold, 3, -2)[1] < 0.5


@pytest.mark.parametrize("coeffs", [(-1, -1, -1), (-1, -1, -1, -1, -1)])
def test_bernoulli_orbit_matches_mpmath(coeffs):
    # reference without pvrefine, at 512 bits: alpha from mpmath's roots (the
    # others lie inside the unit disk), prod_{-20<=j<J} cos(pi alpha^j) and the
    # phase e^{-pi i alpha^J/(alpha-1)} taken straight from alpha
    f = pv.make_field(coeffs)
    values, _ = rf.bernoulli_orbit(f, 30, -20)
    assert len(values) == 31 and rf.bernoulli_orbit(f, 7, -20)[0][-1] == values[7]
    with mp.workprec(512):
        roots = mp.polyroots([1] + list(reversed(coeffs)), maxsteps=200, extraprec=512)
        alpha = max(mp.re(z) for z in roots)
        prod = mp.fprod(mp.cos(mp.pi * alpha**j) for j in range(-20, 0))
        for J, z in enumerate(values):
            assert abs(abs(z) - abs(prod)) < 1e-12
            assert abs(z / prod - mp.expj(-mp.pi * alpha**J / (alpha - 1))) < 1e-12
            prod *= mp.cos(mp.pi * alpha**J)


def test_eval_symbol_grid_matches_scalar(boxcar, dyadic):
    ys = np.linspace(0, 12, 487)
    for mask in (boxcar, dyadic):
        grid, _ = rf.eval_symbol_grid(mask, ys)
        for i in (0, 100, 250, 486):
            assert abs(grid[i] - rf.eval_symbol(mask, float(ys[i])).value) < 1e-14


def test_eval_symbol_grid_rank2_matches_scalar(golden_vector):
    ys = np.linspace(-20, 20, 240).reshape(6, 40)
    grid, tail = rf.eval_symbol_grid(golden_vector, ys)
    assert grid.shape == (6, 40, 2, 2)
    for idx in np.ndindex(ys.shape):
        sv = rf.eval_symbol(golden_vector, float(ys[idx]))
        assert np.max(np.abs(grid[idx] - sv.value)) < 1e-15
        assert tail == sv.truncation_error


def _reference_phihat(mask, y, tol):
    """(phihat(y), error bound) as one scalar product: the first depth j0 whose tail
    bound is below tol, arguments y alpha^j in float64, or past 2^20 as an extended-
    precision chain multiplied by alpha one step at a time, factors from
    eval_symbol_grid, and Python complex products with the most negative j first."""
    lip, al = rf.lipschitz_bound(mask, min(tol, 1e-14)), abs(mask.alpha)
    j0 = 1
    while lip * abs(y) * al ** (-j0) * (1.0 / (al - 1.0)) * al >= tol:
        j0 += 1
    if abs(y) > 2.0**20:
        with mp.workprec(pv.precision_bits()):
            root = mp.re(mask.field.roots_mp[0])
            args = [mp.mpf(y) / root**j0]
            for _ in range(j0 - 1):
                args.append(args[-1] * root)
    else:
        args = [y * mask.alpha**j for j in range(-j0, 0)]
    sym_tol = min(tol / j0, 1e-14)
    factors, tail = rf.eval_symbol_grid(mask, np.array(args), sym_tol)
    v = complex(mask.phihat0[0]) if mask.rank == 1 else np.array(mask.phihat0, dtype=complex)
    for a in factors.tolist() if mask.rank == 1 else factors:
        v = a * v if mask.rank == 1 else a @ v
    return v, sum([tail] * j0) + tol


def test_phihat_grid_matches_scalar(boxcar, dyadic, golden_vector, bernoulli_golden):
    # each point keeps the scalar product's depth, factor order and rounding
    ys = np.linspace(-12, 12, 301)
    for mask in all_builtins(boxcar, dyadic, golden_vector, bernoulli_golden):
        for tol in (1e-12, 1e-13):
            grid, err = rf.phihat_grid(mask, ys.reshape(7, 43), tol)
            assert grid.shape == ((7, 43) if mask.rank == 1 else (7, 43, mask.rank))
            for y, g in zip(ys, grid.reshape((301,) + grid.shape[2:])):
                want, bound = _reference_phihat(mask, float(y), tol)
                assert np.array_equal(g, want), (mask.name, tol, y)
                assert err >= bound
                assert np.array_equal(rf.eval_phihat(mask, float(y), tol).value, want)


def _laurent_mask(tmp_path):
    # an irrational translate alpha^-1 loses about 5e-10 of phase in float64 at y = 2^21
    path = tmp_path / "laurent.mask"
    path.write_text("dilation-poly = -1,-1\ncoeffs = 0.8090169943749475; 0.8090169943749475\n"
                    "translates = 0 ; -1:1\n")
    return str(path), rf.mask_from_file(str(path))


def test_phihat_grid_takes_its_constants_once():
    # a scan calls phihat_grid once a round: the Lipschitz bound, the depth plans and the
    # |alpha|^-j table are built on the first call, and the values match a cold call
    from unittest import mock

    mask = rf.builtin_mask("dyadic")
    rounds = [np.linspace(0.0, 10.0, 251), np.array([3.7, 9.99]), np.array([0.5])]
    with mock.patch.object(rf, "lipschitz_bound", wraps=rf.lipschitz_bound) as lip:
        got = [rf.phihat_grid(mask, ys) for ys in rounds]
    assert lip.call_count == 1
    for ys, (values, err) in zip(rounds, got):
        rf._product_lipschitz.cache_clear()
        rf._product_plan.cache_clear()
        rf._inverse_powers.cache_clear()
        want, want_err = rf.phihat_grid(mask, ys)
        assert np.array_equal(values, want) and err == want_err


def test_phihat_grid_refuses_many_points_past_2_20(boxcar):
    # each point past 2^20 takes the extended-precision path alone: more than the
    # limit are refused from the count, before any is evaluated
    ys = np.concatenate([np.linspace(0.0, 2.0**20, 5), np.full(rf.MAX_EXTENDED_POINTS + 1, -(2.0**21))])
    with pytest.raises(pv.SizeError, match="101 points past 2\\^20 exceed the 100-point limit"):
        rf.phihat_grid(boxcar, ys)
    assert rf.phihat_grid(boxcar, ys[:-1])[0].shape == (105,)


def test_grid_kernels_above_2_20_take_extended_precision(tmp_path, golden_vector):
    ys = np.array([1.5, 2.0**21 + 0.3, -(2.0**20) - 0.25, 2.0**20])
    for mask in (golden_vector, _laurent_mask(tmp_path)[1]):
        sym, _ = rf.eval_symbol_grid(mask, ys)
        phi, _ = rf.phihat_grid(mask, ys)
        for y, s, p in zip(ys, sym, phi):
            assert np.array_equal(s, rf.eval_symbol(mask, float(y)).value), (mask.name, y)
            assert np.array_equal(p, _reference_phihat(mask, float(y), 1e-12)[0]), (mask.name, y)


def test_extended_phases_match_an_mpmath_reference(tmp_path):
    # float64 phases of the translate alpha^-1 would miss this by up to 5e-10
    mask = _laurent_mask(tmp_path)[1]
    with mp.workprec(200):
        tau = 2 / (1 + mp.sqrt(5))
        for y in (2.0**21 + 0.3, -(2.0**20) - 0.25, 3.0e6 + 0.125):
            want = mask.coeffs[0] + mask.coeffs[1] * mp.expjpi(-2 * tau * y)
            assert abs(rf.eval_symbol(mask, y).value - complex(want) / mask.alpha) < 1e-13, y


def test_extended_phases_check_the_largest_argument(golden_vector):
    # one check for the block: it names the largest |y|, and a NaN anywhere is refused
    K = rf._truncation(golden_vector, 1e-14)[0]
    ys = np.array([mp.mpf(2.0**21), mp.mpf(2) ** 200, mp.mpf(2) ** 90], dtype=object)
    with pytest.raises(pv.PrecisionError, match=r"argument \|y\| = 2\^200 overflows the 128-bit budget"):
        rf._extended_phases(golden_vector, K, ys)
    ys[1] = mp.mpf("nan")
    with pytest.raises(pv.PrecisionError, match="nan"):
        rf._extended_phases(golden_vector, K, ys)
    assert rf._extended_phases(golden_vector, K, ys[[0, 2]]).shape == (2, 2)


def test_symbol_scan_above_2_20_keeps_extended_precision(tmp_path, golden_vector):
    from pvrefine import cli

    for name, mask in (("golden_vector", golden_vector), _laurent_mask(tmp_path)):
        out = tmp_path / "mp.csv"
        assert cli.main(["symbol-scan", "--mask", name, "--range", "2097152:2097153",
                         "--step", "0.25", "--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert len(rows) == 5
        for y, re_, im, mag, _ in rows:
            value = rf.eval_symbol(mask, float(y)).value
            if mask.rank == 1:
                assert (re_, im, mag) == tuple("%.17g" % v for v in (value.real, value.imag, abs(value)))
            else:
                assert mag == "%.17g" % np.linalg.svd(value, compute_uv=False)[-1]


def test_mask_file_roundtrip(tmp_path):
    p = tmp_path / "boxcar.mask"
    p.write_text("dilation-poly = -2\nrank = 1\ncoeffs = 1; 1\ntranslates = 0 ; 1\n")
    m = rf.mask_from_file(str(p))
    assert abs(rf.eval_symbol(m, 0.25).value - rf.eval_symbol(rf.builtin_mask("boxcar"), 0.25).value) < 1e-15

    q = tmp_path / "gv.mask"
    q.write_text(
        "dilation-poly = -1,-1\nrank = 2\n"
        "coeffs = ((0,1),(0,1)) ; ((0,0),(1,0))\n"
        "translates = 0 ; 1\n"
    )
    gv = rf.mask_from_file(str(q))
    assert gv.rank == 2
    assert abs(gv.phihat0[0] - 1 / gv.alpha) < 1e-12

    r = tmp_path / "dyadic.mask"
    r.write_text("dilation-poly = -2\ncoeffs = generator:dyadic\ntranslates =\n")
    dy = rf.mask_from_file(str(r))
    assert dy.infinite

    bad = tmp_path / "bad.mask"
    bad.write_text("rank = 1\n")
    with pytest.raises(ValueError):
        rf.mask_from_file(str(bad))
    # the key=value reader --config shares: comments stripped, a bad line named by path:lineno
    bad.write_text("dilation-poly = -2  # the integer dilation 2\n\nrank 1\n")
    with pytest.raises(ValueError, match=r"bad\.mask:3: expected key=value, got 'rank 1'"):
        rf.mask_from_file(str(bad))
    # and a blank polynomial coefficient is refused
    bad.write_text("dilation-poly = -1,-1,\ncoeffs = 1; 1\ntranslates = 0 ; 1\n")
    with pytest.raises(ValueError, match="blank coefficient"):
        rf.mask_from_file(str(bad))


def test_laurent_translate_syntax(tmp_path):
    p = tmp_path / "lau.mask"
    p.write_text(
        "dilation-poly = -2\nrank = 1\ncoeffs = 1;1\ntranslates = 0 ; -1:1,0:1\n"
    )
    m = rf.mask_from_file(str(p))
    # second translate is alpha^{-1} + 1 = 1.5 at alpha = 2
    emb = laurent_embed(m.field, m.translates[1])[1]
    assert emb == 1.5
