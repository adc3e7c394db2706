"""Window dynamics, lifted symbol, cylinder membership, lattice enumeration."""

import itertools
import math

import numpy as np
import pytest

import pvrefine as pv
from pvrefine import refinement as rf
from pvrefine import solenoid as so


@pytest.fixture(scope="module")
def golden():
    return pv.make_field((-1, -1))


@pytest.fixture(scope="module")
def plastic():
    return pv.make_field((-1, -1, 0))


# ---------------------------------------------------------------------------
# theta / shift


def test_theta_zero(golden):
    w = so.theta(golden, 0.0, -3, 3)
    assert w.vals == (0.0,) * 7


def test_theta_golden_powers(golden):
    w = so.theta(golden, 1.0, 0, 5)
    want = (0.0, 0.6180, 0.6180, 0.2360, 0.8541, 0.0902)
    assert max(abs(a - b) for a, b in zip(w.vals, want)) < 1e-4


def test_theta_shift_compatibility(golden):
    w1 = so.theta(golden, 1.7, -4, 6)
    w2 = so.theta(golden, golden.alpha * 1.7, -4, 5)
    for j in range(-4, 6):
        assert abs(so.shift(w1, 1).value(j) - w2.value(j)) < 1e-8


def test_theta_consistency_invariant(golden):
    w = so.theta(golden, 0.8317, -5, 10)
    al = golden.alpha
    lift = 0.8317 * al**-5
    for j in range(-5, 10):
        nxt = (lift * al) % 1.0
        assert abs(nxt - w.value(j + 1)) < 1e-8
        lift *= al


def test_theta_precision_budget(golden):
    with pytest.raises(pv.PrecisionError):
        so.theta(golden, 1e6, 0, 200)
    # and the suggested window indeed works
    so.theta(golden, 1e6, 0, 100)


def test_shift_frame_semantics(golden):
    w = so.theta(golden, 0.37, -2, 4)
    s = so.shift(w, 2)
    assert (s.j_min, s.j_max) == (-2, 2)
    assert s.value(0) == w.value(2)
    assert so.shift(w, 0) is w
    back = so.shift(so.shift(w, 1), -1)
    assert (back.j_min, back.j_max) == (-1, 3)
    for j in range(-1, 4):
        assert back.value(j) == w.value(j)
    with pytest.raises(pv.EmptyWindowError):
        so.shift(w, 10)


def test_window_validation():
    with pytest.raises(pv.EmptyWindowError):
        so.SolenoidWindow(2, 1, ())
    with pytest.raises(ValueError):
        so.SolenoidWindow(0, 1, (0.0, 1.5))
    w = so.SolenoidWindow(0, 1, (0.0, 0.5))
    with pytest.raises(pv.WindowTooSmallError):
        w.value(3)


# ---------------------------------------------------------------------------
# lifted symbol


def test_eval_A_trivial_examples():
    box = rf.builtin_mask("boxcar")
    zero = so.SolenoidWindow(-1, 1, (0.0, 0.0, 0.0))
    assert abs(so.eval_A(box, zero) - 1.0) < 1e-14
    half = so.SolenoidWindow(0, 0, (0.5,))
    assert abs(so.eval_A(box, half)) < 1e-14


def test_eval_A_window_too_small():
    box = rf.builtin_mask("boxcar")
    with pytest.raises(pv.WindowTooSmallError):
        so.eval_A(box, so.SolenoidWindow(1, 2, (0.1, 0.1)))
    dy = rf.builtin_mask("dyadic")
    with pytest.raises(pv.WindowTooSmallError):
        so.eval_A(dy, so.SolenoidWindow(1, 2, (0.1, 0.1)))


def test_solenoidal_representation_all_builtins(golden):
    # ahat = A o theta on random reals, every builtin mask
    rng = np.random.default_rng(4)
    masks = [
        rf.builtin_mask("boxcar"),
        rf.builtin_mask("dyadic"),
        rf.builtin_mask("bernoulli", golden),
        rf.builtin_mask("golden_vector"),
    ]
    for mk in masks:
        j_min = -40 if mk.infinite else 0
        for y in rng.uniform(-50, 50, size=150):
            g = so.theta(mk.field, float(y), j_min, 0)
            lifted = so.eval_A(mk, g)
            direct = rf.eval_symbol(mk, float(y), 1e-14).value
            assert np.max(np.abs(np.atleast_1d(lifted - direct))) < 1e-10


def test_eval_A_infinite_window_refines():
    dy = rf.builtin_mask("dyadic")
    y = 0.777
    direct = rf.eval_symbol(dy, y, 1e-15).value
    err_short = abs(so.eval_A(dy, so.theta(dy.field, y, -6, 0)) - direct)
    err_long = abs(so.eval_A(dy, so.theta(dy.field, y, -30, 0)) - direct)
    assert err_long < err_short < 2.0 ** -5


# ---------------------------------------------------------------------------
# cylinder membership


def test_in_U_zero(golden):
    ok, s = so.in_U(golden, 0.0, so.UNeighborhood(0, (0.1,)))
    assert ok and s == (0.0,)


def test_in_U_lucas_witness(golden):
    # L_30 sits within |beta|^30 of alpha^30, whose conjugate is tiny
    L30 = 1860498
    ok, s = so.in_U(golden, float(L30), so.UNeighborhood(0, (0.1,)))
    assert ok
    beta = golden.roots[1].real
    assert abs(abs(s[0]) - abs(beta) ** 30) < 1e-12


def test_in_U_rejections(golden):
    u = so.UNeighborhood(0, (0.1,))
    assert so.in_U(golden, 0.5, u) == (False, None)
    assert so.in_U(golden, 3.0, u) == (False, None)
    # integer y needs eps >= 1 to admit the constant witness
    ok, _ = so.in_U(golden, 3.0, so.UNeighborhood(0, (3.5,)))
    assert ok


def test_in_U_requires_pv():
    f = pv.make_field((-2, 0))  # X^2 - 2, not PV
    with pytest.raises(pv.NotPisotError):
        so.in_U(f, 1.0, so.UNeighborhood(0, (0.1,)))


def test_eps_validation(golden, plastic):
    with pytest.raises(ValueError):
        so.in_U(golden, 1.0, so.UNeighborhood(0, (0.1, 0.1)))
    with pytest.raises(ValueError):
        so.UNeighborhood(0, (0.0,))
    # conjugate pair must carry equal radii
    with pytest.raises(ValueError):
        so.gamma_density(plastic, so.LatticeCylinder(10, 0, (0.1, 0.2)))


# ---------------------------------------------------------------------------
# lattice enumeration and density


def test_gamma_closed_form(golden, plastic):
    g = so.gamma_density(golden, so.LatticeCylinder(10, 0, (0.1,)))
    assert abs(g - math.sqrt(5) * 0.2) < 1e-12
    # doubling eps: x2 for the totally real field, x4 across a complex pair
    g2 = so.gamma_density(golden, so.LatticeCylinder(10, 0, (0.2,)))
    assert abs(g2 / g - 2.0) < 1e-12
    p = so.gamma_density(plastic, so.LatticeCylinder(10, 0, (0.1, 0.1)))
    p2 = so.gamma_density(plastic, so.LatticeCylinder(10, 0, (0.2, 0.2)))
    assert abs(p2 / p - 4.0) < 1e-12
    # |c_0| = 1: no m dependence
    gm = so.gamma_density(golden, so.LatticeCylinder(10, 5, (0.1,)))
    assert gm == g


def test_enumerate_Y_small_window(golden):
    cyl = so.LatticeCylinder(50.0, 0, (0.1,))
    ys = so.enumerate_Y(golden, cyl)
    assert ys == sorted(ys)
    assert len(ys) == len(set(ys))
    # contains 0 and is symmetric under negation
    assert any(abs(y) < 1e-9 for y in ys)
    for y in ys:
        assert any(abs(y + z) < 1e-9 for z in ys)
    # every output passes in_U (round trip)
    u = so.UNeighborhood(0, (0.1,))
    assert all(so.in_U(golden, y, u)[0] for y in ys)
    # density already in the right ballpark at L = 50
    g = so.gamma_density(golden, cyl)
    assert abs(len(ys) / 100.0 - g) / g < 0.15


def test_enumerate_Y_density_convergence(golden):
    g = so.gamma_density(golden, so.LatticeCylinder(10, 0, (0.1,)))
    ys = so.enumerate_Y(golden, so.LatticeCylinder(2000.0, 0, (0.1,)))
    assert abs(len(ys) / 4000.0 - g) / g < 0.05


def test_enumerate_Y_plastic_pair(plastic):
    cyl = so.LatticeCylinder(2000.0, 0, (0.3, 0.3))
    g = so.gamma_density(plastic, cyl)
    ys = so.enumerate_Y(plastic, cyl)
    assert abs(len(ys) / 4000.0 - g) / g < 0.05


def test_enumerate_Y_band_redecision(golden, monkeypatch):
    # L = float(alpha^k) puts +-alpha^k (|conjugate| = alpha^-k < 0.9) on the
    # boundary |y| = L: each call re-decides exactly those 2 band rows from the
    # exact element.  At working precision alpha^k < L for every k here, so
    # +-alpha^k is kept; a re-decision rounded to 53 bits lands on L itself for
    # k <= 3 and drops them (counts 13, 21, 33).
    redecided = []
    embeddings = so._embeddings
    monkeypatch.setattr(so, "_embeddings", lambda *a: redecided.append(a) or embeddings(*a))
    for k, count, kept in ((1, 15, True), (2, 23, True), (3, 35, True), (4, 57, True), (5, 91, True)):
        redecided.clear()
        L = golden.alpha**k
        ys = so.enumerate_Y(golden, so.LatticeCylinder(L, 0, (0.9,)))
        assert len(redecided) == 2
        assert len(ys) == count and ys == sorted(ys)
        assert any(abs(abs(y) - L) < 1e-9 for y in ys) == kept


def test_enumerate_Y_sigma_invariance(golden):
    L = 300.0
    ys = so.enumerate_Y(golden, so.LatticeCylinder(L, 0, (0.1,)))
    u = so.UNeighborhood(0, (0.1,))
    al = golden.alpha
    checked = 0
    for y in ys:
        if abs(al * y) < L and checked < 20:
            ok, _ = so.in_U(golden, al * y, u)
            assert ok
            checked += 1
    assert checked == 20


def test_enumerate_Y_size_guard(golden):
    with pytest.raises(pv.SizeError):
        so.enumerate_Y(golden, so.LatticeCylinder(1e9, 0, (0.1,)))


def test_homoclinic_window_decay(golden):
    # lambda = 1 passes the Pisot-set test: theta window dies at both ends
    assert pv.pisot_set_test(golden, pv.fe_rational(golden, 1))
    w = so.theta(golden, 1.0, -25, 25)
    assert pv.dist_to_int(w.value(25)) < 1e-4
    assert pv.dist_to_int(w.value(-25)) < 1e-4
    # a generic real fails: coordinates stay away from 0 somewhere deep
    w2 = so.theta(golden, math.pi, -25, 25)
    deep = [pv.dist_to_int(w2.value(j)) for j in range(20, 26)]
    assert max(deep) > 1e-3


# ---------------------------------------------------------------------------
# kernel predicate


def test_kernel_window_golden(golden):
    zero = so.SolenoidWindow(-2, 2, (0.0,) * 5)
    assert so.kernel_window_test(golden, zero)
    half = so.SolenoidWindow(-2, 2, (0.0, 0.5, 0.0, 0.0, 0.0))
    assert not so.kernel_window_test(golden, half)


def test_kernel_window_c0_two():
    f = pv.make_field((-2, -2))  # X^2 - 2X - 2, |c_0| = 2
    assert f.pv_status == "PV"
    half = so.SolenoidWindow(-2, 2, (0.0, 0.5, 0.0, 0.0, 0.0))
    assert so.kernel_window_test(f, half)
    assert so.kernel_window_test(f, so.SolenoidWindow(-2, 2, (0.75, 0.5, 0.0, 0.0, 0.0)))
    assert not so.kernel_window_test(f, so.SolenoidWindow(-2, 2, (0.0, 0.3, 0.0, 0.0, 0.0)))
    assert not so.kernel_window_test(f, so.SolenoidWindow(-2, 2, (0.0, 0.0, 0.0, 0.5, 0.0)))
    with pytest.raises(ValueError):
        so.kernel_window_test(f, so.SolenoidWindow(0, 2, (0.0, 0.0, 0.0)))


# ---------------------------------------------------------------------------
# equidistribution


def test_equidistribution_golden(golden):
    rng = np.random.default_rng(3)
    ys = rng.uniform(0, 1e3, size=10**4)
    d_full = so.equidistribution_check(golden, ys, 1)
    d_half = so.equidistribution_check(golden, ys[:5000], 1)
    assert d_full < 0.05
    assert d_full < d_half
    assert so.equidistribution_check(golden, ys, 2) < 0.1


def test_equidistribution_rational_direction():
    f = pv.integer_dilation_field(2)
    rng = np.random.default_rng(3)
    ys = rng.uniform(0, 1e3, size=10**4)
    # (frac y, frac 2y) sits on a line: discrepancy stays bounded away from 0
    assert so.equidistribution_check(f, ys, 2) > 0.08


def test_equidistribution_matches_corner_loop(golden, plastic):
    # the histogram must reproduce the direct corner-box scan bit for bit, also
    # for samples on the thresholds k/q and for -1e-17, whose fraction rounds to 1
    rng = np.random.default_rng(11)
    for f, n in ((golden, 2), (plastic, 3)):
        q = max(2, int(round(2048 ** (1.0 / n))))
        ys = np.concatenate([rng.uniform(0, 100, size=300), np.arange(1, q + 1) / q, [-1e-17]])
        pts = np.outer(ys, f.alpha ** np.arange(n))
        pts -= np.floor(pts)
        ref = 0.0
        for corner in itertools.product(*[np.arange(1, q + 1) / q] * n):
            c = np.array(corner)
            ref = max(ref, abs(np.mean(np.all(pts < c, axis=1)) - float(np.prod(c))))
        assert so.equidistribution_check(f, ys, n) == ref


def test_equidistribution_validation(golden):
    with pytest.raises(ValueError):
        so.equidistribution_check(golden, [1.0], 0)
    with pytest.raises(ValueError):
        so.equidistribution_check(golden, [], 1)


def test_equidistribution_fractional_bits_guard(golden):
    # 2^21 alpha leaves under 32 fractional bits of float64
    with pytest.raises(pv.PrecisionError, match="under 32 fractional bits"):
        so.equidistribution_check(golden, [1.0, 2.0**21], 2)
    assert so.equidistribution_check(golden, [1.0, 2.0**20], 2) > 0
    # n = 1 multiplies nothing: frac(y) of a float is exact at any size
    assert so.equidistribution_check(golden, [0.25, 2.0**40 + 0.5], 1) == 0.5
