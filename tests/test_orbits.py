"""The exact orbit route: phases of mu alpha^n from integer traces and conjugates.

orbit_phases equals a 1,200-bit frac(mu alpha^n) over the benchmark's PV pool
and three integer dilations; the orbits built on it (bernoulli_orbit,
phihat_orbit) give at 128 bits the values of a 1,024-bit run; the Bernoulli
orbits of lambda = 1/3, 1 and 2 follow a 1,200-bit product out to J = 400; and
phihat_orbit takes its entries with |lambda alpha^n| <= 1 from phihat_grid.
"""

import csv
import functools
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import pvrefine as pv
from pvrefine import cli, refinement as rf
from pvrefine.algebraic_core import integer_dilation_field, orbit_fractions, orbit_phases, working_precision

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the benchmark's PV pool (degrees 2-6), then the integer dilations 2, -2 and 3
PV_POOL = ((-1, -1), (-1, -2), (1, -3), (-1, -1, 0), (-1, -1, -1), (-1, 1, -2), (-1, -1, -1, -1),
           (-1, 0, 0, -1), (-1, 0, 0, -2), (-1, -1, -1, -2), (-1, -1, -1, -1, -1), (-1, 0, -1, -1, -1),
           (-1, -1, 0, -1, -1), (-1, -1, -1, -1, -1, -1), (-1, 0, 0, 0, 0, -2))
DILATIONS = PV_POOL + ((-2,), (2,), (-3,))
orbit_property = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@functools.lru_cache(maxsize=None)
def field(coeffs):
    return integer_dilation_field(-coeffs[0]) if len(coeffs) == 1 else pv.make_field(coeffs)


@functools.lru_cache(maxsize=None)
def alpha_1200(coeffs):
    # the dilation from mpmath's own roots at 1,200 bits, without pvrefine
    with mp.workprec(1200):
        roots = mp.polyroots([1] + list(reversed(coeffs)), maxsteps=400, extraprec=1200)
        return max((z for z in roots if abs(mp.im(z)) < mp.mpf(2) ** -1000), key=lambda z: abs(z)).real


def at_bits(bits, fn):
    token = working_precision.set(bits)
    try:
        return fn()
    finally:
        working_precision.reset(token)


@orbit_property
@given(st.sampled_from(DILATIONS), st.data(), st.integers(-30, 380), st.integers(0, 20), st.sampled_from((1, 2)))
def test_property_orbit_phases_match_1200_bits(coeffs, data, n_lo, length, mod):
    f = field(coeffs)
    coords = data.draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
                                min_size=f.degree, max_size=f.degree))
    mu = pv.fe(f, coords)
    den, traces, residues, bounds = orbit_phases(f, mu, n_lo, n_lo + length, mod)
    assert len(traces) == len(residues) == len(bounds) == length + 1
    with mp.workprec(1200):
        al = alpha_1200(coeffs)
        s1 = sum(mp.mpf(q.numerator) / q.denominator * al**i for i, q in enumerate(mu.coords))
        for i, (t, r, b) in enumerate(zip(traces, residues, bounds)):
            assert 0 <= t < mod * den and abs(r) <= b * (1 + 1e-12) + 1e-300
            # sigma_1(mu alpha^n) = t / den - r (mod `mod`), to the residue's working precision
            gap = (mp.mpf(t) / den - r - s1 * al ** (n_lo + i)) / mod
            assert abs(gap - mp.nint(gap)) < mp.mpf(2) ** -100, (coeffs, coords, n_lo + i)
    fracs = orbit_fractions(f, mu, n_lo, n_lo + length)
    with mp.workprec(1200):
        want = [float(mp.frac(s1 * al**n)) for n in range(n_lo, n_lo + length + 1)]
    assert all(min(abs(a - b), 1 - abs(a - b)) <= 2**-52 for a, b in zip(fracs, want)), (coeffs, coords)


@pytest.mark.parametrize("coeffs", [(-1, -2), (1, -3)])
def test_bernoulli_orbit_at_128_bits_is_the_1024_bit_orbit(coeffs):
    # fe_embed of alpha^J/(alpha-1)'s grown numerators at 128 bits is off by a relative
    # 4e-11 at J = 38 (-1,-2) and 1.9e-7 at J = 40 (1,-3); the residues are not
    def run():
        return rf.bernoulli_orbit(pv.make_field(coeffs), 40, -40)[0]

    assert at_bits(128, run) == at_bits(1024, run)


@pytest.mark.parametrize("coeffs", [(-1, -1), (-1, -1, -1)])
def test_phihat_orbit_at_128_bits_is_the_1024_bit_orbit(coeffs):
    def run():
        mask = rf.builtin_mask("bernoulli", pv.make_field(coeffs))
        return [[sv.value for _, sv in rf.phihat_orbit(mask, lam, range(0, 71))] for lam in (1, 2, 3)]

    assert at_bits(128, run) == at_bits(1024, run)


def _bernoulli_phihat_1200(coeffs, lam, J):
    # phihat(y) = e^{-pi i y/(alpha-1)} prod_{j>=1} cos(pi y alpha^-j) at y = lam alpha^J
    with mp.workprec(1200):
        al = alpha_1200(coeffs)
        y = mp.mpf(lam.numerator) / lam.denominator * al**J
        val, x = mp.expj(-mp.pi * y / (al - 1)), y / al
        while abs(x) > mp.mpf(2) ** -700:
            val *= mp.cos(mp.pi * x)
            x /= al
        return complex(val)


# golden, tribonacci and plastic at lambda = 1/3, 1 and 2; the lambda = 1/3 cases keep
# their ids coeffs0..coeffs2
@pytest.mark.parametrize("coeffs, lam", [
    pytest.param(coeffs, lam, id="coeffs%d%s" % (i, "-lam%s" % lam if lam != Fraction(1, 3) else ""))
    for i, coeffs in enumerate([(-1, -1), (-1, -1, -1), (-1, -1, 0)]) for lam in (Fraction(1, 3), 1, 2)])
def test_third_orbit_follows_1200_bit_product_to_400(coeffs, lam):
    # lambda = 1/3 is not a float, and float(1/3) alpha^J leaves the orbit (1/17,000 of
    # the value at J = 120).  Every factor past |lambda alpha^n| = 1 takes exact phases,
    # so the orbit keeps the start's error plus about 3e-16 of float64 rounding a step
    orbit = dict(rf.phihat_orbit(rf.builtin_mask("bernoulli", field(coeffs)), lam, range(0, 401)))
    errs = {}
    for J in (60, 120, 200, 300, 400):
        want = _bernoulli_phihat_1200(coeffs, lam, J)
        errs[J] = abs(orbit[J].value - want) / abs(want)
    assert max(errs.values()) < 1e-12, errs
    assert errs[400] <= errs[60] + 1e-12, errs


def test_orbit_starts_from_the_grid_at_the_last_point_within_one():
    # a chain of exact phases from J = -700 would carry a conjugate part near 2^486 past
    # the precision budget: every entry with |lambda alpha^n| <= 1 is phihat_grid's own
    for mask, js in ((rf.builtin_mask("bernoulli", field((-1, -1))), range(-700, 6)),
                     (rf.builtin_mask("golden_vector"), range(-1000, 4))):
        orbit = rf.phihat_orbit(mask, 1, js)
        assert [j for j, _ in orbit] == list(js)
        with mp.workprec(pv.precision_bits()):
            xs = [float(mp.re(mask.field.roots_mp[0]) ** j) for j in js]
        direct = [(j, x, sv) for (j, sv), x in zip(orbit, xs) if abs(x) <= 1]
        assert [j for j, _, _ in direct] == list(range(js[0], 1))
        for j, x, sv in direct:
            values, err = rf.phihat_grid(mask, x)
            assert np.array_equal(sv.value, values) and sv.truncation_error == err, (mask.name, j)
    # lambda = 0 stays at phihat(0)
    for mask in (rf.builtin_mask("bernoulli", field((-1, -1, 0))), rf.builtin_mask("golden_vector")):
        zero = rf.phihat_grid(mask, 0.0)[0]
        assert all(np.array_equal(sv.value, zero) for _, sv in rf.phihat_orbit(mask, 0, range(-5, 40)))


def test_vanishing_probe_follows_1200_bit_product(tmp_path):
    out = tmp_path / "vp.csv"
    argv = ["vanishing-probe", "--mask", "bernoulli", "--poly", "-1,-1,0", "--lambda", "1,2", "--jmax", "40"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # |phihat(lam alpha^(J+1))| = |cos(pi lam alpha^J)| |phihat(lam alpha^J)| at 1,200 bits
    # from the product at J = 0
    want = {}
    with mp.workprec(1200):
        al = alpha_1200((-1, -1, 0))
        for lam in (1, 2):
            v = mp.mpf(abs(_bernoulli_phihat_1200((-1, -1, 0), Fraction(lam), 0)))
            for J in range(41):
                want["%d" % lam, "%d" % J] = float(v)
                v *= abs(mp.cos(mp.pi * lam * al**J))
    assert sorted((r["lambda"], r["J"]) for r in rows) == sorted(want)
    for row in rows:
        w = want[row["lambda"], row["J"]]
        assert abs(float(row["abs_phihat"]) - w) <= 1e-13 * w, row


@pytest.mark.parametrize("coeffs, lam", [((-1, -1), 10**72), ((-1, -1, 0), 10**100), ((-1, -1, -1), 10**100)])
def test_orbit_past_the_field_radii_follows_1200_bit_product(coeffs, lam):
    # the chain starts with a conjugate part near 2^480 or more, past what make_field's radii
    # certify at 128 bits (about 2^470): the roots are certified again, and each residue,
    # hundreds of bits past the working precision, comes off its trace exactly.  By J = 400
    # the values fall below the smallest double, so J stops at 40
    orbit = dict(rf.phihat_orbit(rf.builtin_mask("bernoulli", field(coeffs)), lam, range(0, 41)))
    for J in (0, 40):
        want = _bernoulli_phihat_1200(coeffs, Fraction(lam), J)
        assert abs(orbit[J].value - want) <= 1e-12 * abs(want), (J, orbit[J].value, want)
