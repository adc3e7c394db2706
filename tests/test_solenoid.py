"""Window dynamics, lifted symbol, cylinder membership, lattice enumeration."""

import functools
import hashlib
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pvrefine as pv
from pvrefine.algebraic_core import integer_dilation_field
from pvrefine import refinement as rf
from pvrefine import solenoid as so

# golden (real conjugate), plastic and tribonacci (a complex-conjugate pair each)
LATTICE_FIELDS = ((-1, -1), (-1, -1, 0), (-1, -1, -1))


@functools.lru_cache(maxsize=None)
def lattice_field(coeffs):
    return pv.make_field(coeffs)


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


def _frac_reference(coeffs, y, j_min, j_max):
    # frac(y alpha^j) from a 1,200-bit alpha of mpmath's own roots, without pvrefine
    with mp.workprec(1200):
        alpha = max(mp.re(z) for z in mp.polyroots([1] + list(reversed(coeffs)), maxsteps=400, extraprec=1200))
        return [float(mp.frac(mp.mpf(y) * alpha**j)) for j in range(j_min, j_max + 1)]


def test_theta_precision_budget(golden):
    # |y alpha^j| reaches 2^157 at j = 200, and alpha^2000 is past a float: the fractional
    # parts come from exact traces and equal the reference.  sigma_2(alpha^-700) is near
    # 2^486, past what make_field's radii certify at 128 bits: the roots are certified again
    for y, j_min, j_max in ((1e6, 0, 200), (1e-300, 0, 2000), (1.0, -700, 0)):
        want = _frac_reference((-1, -1), y, j_min, j_max)
        got = so.theta(golden, y, j_min, j_max).vals
        assert all(min(abs(a - b), 1 - abs(a - b)) <= 2**-52 for a, b in zip(got, want)), y


def test_theta_long_window_precision_error(golden):
    # a window of 10^6 coordinates is refused for its size, before any is computed
    with pytest.raises(pv.SizeError, match="1000001 orbit points"):
        so.theta(golden, 1.0, 0, 10**6)


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
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite y, got"):
            so.in_U(golden, y, u)
    # y +- 1e-6 rounds to y; refused before any candidate row is built
    with pytest.raises(pv.SizeError, match="rounds to y"):
        so.in_U(golden, 1e12, u)
    # eps = 1e8: the window holds about 2e-6 gamma = 894 points, and the witness is
    # the one with the least y
    rows, ys = so._lattice_points(golden, 0, (1e8,), 3.0 - 1e-6, 3.0 + 1e-6)
    forecast = 2e-6 * so.gamma_density(golden, so.LatticeCylinder(1.0, 0, (1e8,)))
    assert abs(len(ys) / forecast - 1) < 0.02
    ok, s = so.in_U(golden, 3.0, so.UNeighborhood(0, (1e8,)))
    emb = so._embeddings(golden, so._mu_from_integer_vector(golden, rows[np.argmin(ys)].tolist(), 0))
    assert ok and s == (float(mp.re(emb[1])),) and abs(s[0]) < 1e8


def test_in_U_exact_near_eps_at_negative_m(golden):
    # at m = -20 the rows hold integers near 1e6 and float64 misplaces |s| by
    # far more than 1e-9; with eps one float either side of a point's exact
    # |s|, the exact embeddings decide both verdicts
    m = -20
    rows, _ = so._lattice_points(golden, m, (0.5,), 50.0, 100.0)
    emb = so._embeddings(golden, so._mu_from_integer_vector(golden, rows[-1].tolist(), m))
    with mp.workprec(pv.precision_bits()):  # abs() rounds to the context's precision
        y, a = float(mp.re(emb[0])), abs(emb[1])
    f = float(a)
    below, above = (math.nextafter(f, 0.0), f) if f > a else (f, math.nextafter(f, math.inf))
    ok, s = so.in_U(golden, y, so.UNeighborhood(m, (above,)))
    assert ok and s == (float(mp.re(emb[1])),)
    assert so.in_U(golden, y, so.UNeighborhood(m, (below,))) == (False, None)


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
    assert ys.tolist() == sorted(ys.tolist())
    assert len(ys) == len(set(ys.tolist()))
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
        assert len(ys) == count and ys.tolist() == sorted(ys.tolist())
        assert any(abs(abs(y) - L) < 1e-9 for y in ys) == kept


def test_enumerate_Y_exact_redecision_cap(golden, monkeypatch):
    # the band rows are counted before the first exact check
    monkeypatch.setattr(so, "_MAX_EXACT", 1)
    with pytest.raises(pv.SizeError, match="2 band rows"):
        so.enumerate_Y(golden, so.LatticeCylinder(golden.alpha**2, 0, (0.9,)))


def test_enumerate_Y_rebuilds_rows_of_equal_ys(golden, monkeypatch):
    # no benchmark cylinder puts two points on one float y, so the y column sums are
    # rounded to integers here (the float filter's sums are not): a second pass
    # rebuilds the rows of the tied ys alone, and every point is kept
    column_sum, lattice_points = so._column_sum, so._lattice_points

    def rounded(cols, w):
        out = column_sum(cols, w)
        return np.rint(out) if sys._getframe(1).f_code.co_name == "_lattice_points" else out

    rebuilt = []

    def spy(*args, **kwargs):
        out = lattice_points(*args, **kwargs)
        if kwargs.get("rows_where") is not None:
            rebuilt.append(out[0])
        return out

    monkeypatch.setattr(so, "_column_sum", rounded)
    monkeypatch.setattr(so, "_lattice_points", spy)
    ys = so.enumerate_Y(golden, so.LatticeCylinder(50.0, 0, (0.3,)))
    rows, want = lattice_points(golden, 0, (0.3,), -50.0, 50.0)
    tied = np.isin(want, ys[1:][ys[1:] == ys[:-1]])
    assert (len(ys), np.count_nonzero(tied)) == (133, 68)
    assert ys.tolist() == sorted(want.tolist())
    assert len(rebuilt) == 1 and sorted(map(tuple, rebuilt[0].tolist())) == sorted(map(tuple, rows[tied].tolist()))

    # an enumeration that emits the point 0 twice, in both passes, still raises
    def doubled(field, m, eps, y_lo, y_hi, rows_where=so._every):
        rows, ys = lattice_points(field, m, eps, y_lo, y_hi, rows_where)
        if rows_where is not None and rows_where(np.zeros(1))[0]:
            rows = np.concatenate([rows, np.zeros((1, field.degree), dtype=np.int64)])
        return rows, np.append(ys, 0.0)

    monkeypatch.setattr(so, "_column_sum", column_sum)
    monkeypatch.setattr(so, "_lattice_points", doubled)
    with pytest.raises(RuntimeError, match="duplicate"):
        so.enumerate_Y(golden, so.LatticeCylinder(50.0, 0, (0.1,)))


def test_in_U_reduces_each_cylinder_once(golden):
    # every window y +- 1e-6 shares one reduction
    so._reduced_cylinder.cache_clear()
    u = so.UNeighborhood(0, (0.3,))
    assert [so.in_U(golden, y, u)[0] for y in (0.0, 0.5, float(golden.alpha) ** 3)] == [True, False, True]
    info = so._reduced_cylinder.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(LATTICE_FIELDS), st.integers(-1, 1), st.floats(0.1, 0.4), st.floats(2.0, 12.0))
def test_enumerate_Y_points_pass_in_U(coeffs, m, e, L):
    # every point of Y(L) is a hit of in_U with |s_k| < eps_k, and the
    # midpoint between two neighbouring points is not
    f = lattice_field(coeffs)
    eps = (e,) * (f.degree - 1)
    ys = so.enumerate_Y(f, so.LatticeCylinder(L, m, eps))
    u = so.UNeighborhood(m, eps)
    for y in ys:
        ok, s = so.in_U(f, y, u)
        assert ok and all(abs(sk) < ek for sk, ek in zip(s, eps))
        if f.degree == 3:  # the witness is the complex pair s_3 = conj(s_2)
            assert isinstance(s[0], complex) and abs(s[1] - s[0].conjugate()) < 1e-12
    for a, b in zip(ys, ys[1:]):
        assert so.in_U(f, (a + b) / 2, u) == (False, None)


def test_lattice_points_off_centre_window():
    # a window (a, b) away from 0, its ends midway between neighbouring points
    for coeffs, e in zip(LATTICE_FIELDS, (0.3, 0.4, 0.4)):
        f = lattice_field(coeffs)
        eps = (e,) * (f.degree - 1)
        ys = np.asarray(so.enumerate_Y(f, so.LatticeCylinder(60.0, 1, eps)))
        i, j = np.searchsorted(ys, [17.0, 43.0])
        a, b = (ys[i - 1] + ys[i]) / 2, (ys[j - 1] + ys[j]) / 2
        rows, got = so._lattice_points(f, 1, eps, a, b)
        assert len(got) > 20 and np.array_equal(np.sort(got), ys[i:j])
        assert rows.shape == (len(got), f.degree)


def _off_centre_windows():
    # the windows of test_lattice_points_off_centre_window, ends midway between points
    for coeffs, e in zip(LATTICE_FIELDS, (0.3, 0.4, 0.4)):
        f = lattice_field(coeffs)
        eps = (e,) * (f.degree - 1)
        ys = np.asarray(so.enumerate_Y(f, so.LatticeCylinder(60.0, 1, eps)))
        i, j = np.searchsorted(ys, [17.0, 43.0])
        yield f, 1, eps, (ys[i - 1] + ys[i]) / 2, (ys[j - 1] + ys[j]) / 2


@pytest.mark.parametrize("block", [1, 7, 2**30])
def test_lattice_points_block_size_invariance(golden, monkeypatch, block):
    # the block size moves no row, no y bit, no in_U verdict and no refusal
    cases = [(lattice_field(c), m, (e,) * (len(c) - 1), -40.0, 40.0)
             for c, e in zip(LATTICE_FIELDS, (0.3, 0.4, 0.4)) for m in (-1, 0, 1)]
    cases += list(_off_centre_windows())
    probes = [(f, y, so.UNeighborhood(m, eps)) for f, m, eps, a, b in cases for y in (a, 1.0, float(f.alpha), b)]
    want = [so._lattice_points(*c) for c in cases]
    verdicts = [so.in_U(*p) for p in probes]
    monkeypatch.setattr(so, "_BLOCK", block)
    for c, (rows, ys) in zip(cases, want):
        got_rows, got_ys = so._lattice_points(*c)
        assert got_rows.shape == rows.shape and np.array_equal(got_rows, rows)
        assert got_ys.tobytes() == ys.tobytes()
    assert [so.in_U(*p) for p in probes] == verdicts
    if block == 1:
        # refusals: a level over 1e7 nodes, counted before a block of it is built;
        # and the band count before any exact check
        with pytest.raises(pv.SizeError, match="13097763 nodes at level 1 of 2 exceed 1e7"):
            so._lattice_points(golden, 0, (1e6,), -1e7, 1e7)
        # the degree-8 cylinder runs (at the default block size): its count meets 2 L gamma
        monkeypatch.setattr(so, "_BLOCK", 2**14)
        deg8, cyl = pv.make_field((-1,) * 8), so.LatticeCylinder(300.0, 0, (0.3,) * 7)
        assert abs(len(so.enumerate_Y(deg8, cyl)) / (600 * so.gamma_density(deg8, cyl)) - 1) < 1e-3
        monkeypatch.setattr(so, "_MAX_EXACT", 1)
        with pytest.raises(pv.SizeError, match="2 band rows"):
            so.enumerate_Y(golden, so.LatticeCylinder(golden.alpha**2, 0, (0.9,)))


def test_lattice_points_bounds_past_int64_refused(golden):
    # alpha^(i - m) leaves float64 from about |m| = 1,500 on the golden field
    for m in (2000, -2000):
        with pytest.raises(pv.SizeError, match="overflows float64 at m = %d" % m):
            so.in_U(golden, 1.0, so.UNeighborhood(m, (0.1,)))
    # at |m| = 200 the coordinates |n_i| <= |y| alpha^(i-m) + eps |beta|^(i-m) reach 6e40
    with pytest.raises(pv.SizeError, match=r"coordinates up to 6.27e\+40 pass int64 at m = 200"):
        so.in_U(golden, 1.0, so.UNeighborhood(200, (0.1,)))
    # X^2 - (10^10 + 2) X + 10^10 at y = 1e9: n_1 = Tr(alpha mu) is near 1e19
    f = pv.make_field((10**10, -(10**10 + 2)))
    with pytest.raises(pv.SizeError, match=r"coordinates up to 1e\+19 pass int64 at m = 0"):
        so.in_U(f, 1e9, so.UNeighborhood(0, (0.3,)))


# fields of degree 2-6 for the oracle, with a non-unit c_0 = -2 among them
ORACLE_FIELDS = ((-1, -1), (-2, -2), (-1, -1, 0), (-1, -1, -1), (-1, 1, -2), (-1, 0, 0, -1), (-1, -1, -1, -1),
                 (-1, -1, -1, -1, -1), (-1, 0, -1, -1, -1), (-1, 0, 0, 0, 0, -2))


def _oracle_box(f, m, eps, c, h):
    # n_i = Tr(alpha^(i-m) mu) = sum_k alpha_k^(i-m) sigma_k(mu), so every point of the
    # window (c - h, c + h) has |n_i - c alpha^(i-m)| <= h alpha^(i-m) + sum_k eps_k |alpha_k|^(i-m)
    mods = [abs(r) for r in f.roots]
    axes = []
    for i in range(f.degree):
        p = f.alpha ** (i - m)
        r = h * p + sum(e * mods[k] ** (i - m) for k, e in enumerate(eps, 1)) + 1e-6
        axes.append(np.arange(math.ceil(c * p - r), math.floor(c * p + r) + 1))
    return axes


def _oracle_points(f, m, eps, a, b):
    """Every n of the box, decided from the embeddings of alpha^m e_i at working
    precision: scaled by 2^P to integers, summed and compared exactly."""
    d, P = f.degree, pv.precision_bits()
    n = np.stack(np.meshgrid(*_oracle_box(f, m, eps, (a + b) / 2, (b - a) / 2), indexing="ij"), -1).reshape(-1, d)
    with mp.workprec(P):
        emb = [so._embeddings(f, so._mu_from_integer_vector(f, unit, m)) for unit in np.eye(d, dtype=int).tolist()]
        S = np.array([[[int(mp.nint(mp.ldexp(part(x), P))) for part in (mp.re, mp.im)] for x in e] for e in emb],
                     dtype=object)
    re, im = n.astype(object) @ S[..., 0], n.astype(object) @ S[..., 1]  # 2^P sigma_k(mu), k = 0..d-1
    # y is an integer, so y > a 2^P iff y > floor(a 2^P), and |s|^2 < e^2 2^2P iff |s|^2 < ceil(e^2 2^2P)
    ok = (re[:, 0] > math.floor(Fraction(a) * 2**P)) & (re[:, 0] < math.ceil(Fraction(b) * 2**P))
    for k, e in enumerate(eps, 1):
        ok &= re[:, k] ** 2 + im[:, k] ** 2 < math.ceil(Fraction(e) ** 2 * 2 ** (2 * P))
    return n[ok.astype(bool)], [float(Fraction(y, 2**P)) for y in re[ok.astype(bool), 0]]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(-3, 3), st.floats(-4.0, 4.0), st.floats(0.5, 4.0),
       st.floats(0.2, 0.7))
def test_lattice_points_equal_brute_force(coeffs, m, c, h, e):
    # every n of a box proven to hold the window, decided exactly, against the pruned
    # enumeration; windows off centre, radii shrunk until the box has at most 30000 rows
    f = lattice_field(coeffs)
    while math.prod(map(len, _oracle_box(f, m, (e,) * (f.degree - 1), c, h))) > 30000:
        h, e = 0.8 * h, 0.8 * e
    eps = (e,) * (f.degree - 1)
    rows, ys = so._lattice_points(f, m, eps, c - h, c + h)
    want, want_ys = _oracle_points(f, m, eps, c - h, c + h)
    assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, want.tolist()))
    got = dict(zip(map(tuple, rows.tolist()), ys.tolist()))
    assert all(abs(got[tuple(r)] - y) <= 1e-12 * max(1.0, abs(y)) for r, y in zip(want.tolist(), want_ys))


# (field, eps, L, m range): every m the interval-nesting enumerator accepted on these
# cylinders (for c_0 = -2 from m = -6 up; below, the superlattice grows by 2^|m|), with
# the point count and the sha256 of its rows and ys, both sorted by (y, n), m by m
NESTING_M_RANGES = (
    ((-1, -1), 0.1, 100.0, -25, 20, 4094, "8b092add6a3973f93435fe49baf6677e730c0c024a4dfc14c4c9dd15cf4884bd"),
    ((-1, -1, 0), 0.3, 20.0, -45, 37, 9047, "716192f4a5172f5d8ac766b3c009ad8b834c3a85efdbfa9354014863b4fbf6ba"),
    ((-1, -1, -1), 0.3, 20.0, -23, 18, 6258, "2bea661d5f9e30dad1e9e7e010b2cb13a839c9d39560b1317b392b95db9ed936"),
    ((-2, -2), 0.3, 2.0, -6, 27, 1082, "615f64363e705c52ad86757b8c54b85e2d6c94ccaf7471b13a08523ec0356aea"),
)


@pytest.mark.parametrize("coeffs, e, L, m_lo, m_hi, count, digest", NESTING_M_RANGES, ids=[str(r[0]) for r in NESTING_M_RANGES])
def test_lattice_points_match_interval_nesting_over_m(coeffs, e, L, m_lo, m_hi, count, digest):
    # the basis is skewed by alpha^(+-m); the reduction keeps every point and every y bit
    f = lattice_field(coeffs)
    h, total = hashlib.sha256(), 0
    for m in range(m_lo, m_hi + 1):
        rows, ys = so._lattice_points(f, m, (e,) * (f.degree - 1), -L, L)
        order = np.lexsort(tuple(rows.T[::-1]) + (ys,))
        h.update(rows[order].tobytes())
        h.update(ys[order].tobytes())
        total += len(ys)
    assert (total, h.hexdigest()) == (count, digest)


def test_enumerate_Y_memory_stays_per_block(golden):
    # L = 1e6: 2e6 first-level candidates; the returned array is about 7 MB and
    # the block pass adds its kept ys, not full-level temporaries
    so.enumerate_Y(golden, so.LatticeCylinder(10.0, 0, (0.1,)))  # warm the field's caches
    tracemalloc.start()
    try:
        ys = so.enumerate_Y(golden, so.LatticeCylinder(1e6, 0, (0.1,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ys) == 894425
    assert peak < 120 * 2**20


@pytest.mark.parametrize("coeffs, L, e", [((-1, -1), 2e5, 0.1), ((-1, -1, -1), 2.5e4, 0.3)])
def test_enumerate_Y_keeps_only_the_ys(coeffs, L, e):
    # no (N, d) row array: the pass holds its blocks of ys, one concatenated copy and
    # per-block temporaries, and sorts in place, so the peak stays under 4 x 8N bytes
    f = lattice_field(coeffs)
    eps = (e,) * (f.degree - 1)
    so.enumerate_Y(f, so.LatticeCylinder(10.0, 0, eps))  # warm the field's caches
    tracemalloc.start()
    try:
        ys = so.enumerate_Y(f, so.LatticeCylinder(L, 0, eps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(ys, np.ndarray) and ys.dtype == np.float64
    assert len(ys) == {2: 178883, 3: 187557}[f.degree]
    assert peak < 4 * 8 * len(ys)


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
    assert abs(w.value(25) - round(w.value(25))) < 1e-4
    assert abs(w.value(-25) - round(w.value(-25))) < 1e-4
    # a generic real fails: coordinates stay away from 0 somewhere deep
    w2 = so.theta(golden, math.pi, -25, 25)
    deep = [abs(w2.value(j) - round(w2.value(j))) for j in range(20, 26)]
    assert max(deep) > 1e-3


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
    f = integer_dilation_field(2)
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


def test_equidistribution_takes_arrays_and_iterables_alike(golden, plastic):
    # an array goes in as it is; a list, a tuple, a generator or a reversed view of the
    # same samples gives the same value
    ys = np.random.default_rng(4).uniform(0.0, 1000.0, size=2000)
    for f, n in ((golden, 1), (golden, 2), (plastic, 3)):
        want = so.equidistribution_check(f, ys, n)
        for samples in (ys.tolist(), tuple(ys.tolist()), (y for y in ys.tolist()), ys[::-1]):
            assert so.equidistribution_check(f, samples, n) == want


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
