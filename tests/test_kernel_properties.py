"""Properties of the symbol kernel over the four builtin masks.

The 0-d and grid entries of the kernel agree bit for bit, for float
arguments on both sides of 2^20;
the lifted symbol A on a covering theta window equals ahat; phihat
satisfies the two-scale identity phihat(alpha y) = ahat(y) phihat(y);
the integer phase reduction equals the exact fraction of the product,
rounded once, ties included; and past 2^20 a translate 0 or 2^e keeps the
float phase of a double, with the same bits.
"""

import functools
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import pvrefine as pv
from pvrefine import refinement as rf
from pvrefine import solenoid as so

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

BUILTINS = ("boxcar", "dyadic", "golden_vector", "bernoulli")
# deterministic examples, and no example database written next to the tests
kernel_property = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@functools.lru_cache(maxsize=None)
def builtin(name):
    return rf.builtin_mask(name, pv.make_field((-1, -1)) if name == "bernoulli" else None)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def points(lo, hi):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=1, max_size=6)


@kernel_property
@given(st.sampled_from(BUILTINS), points(-2.0**22, 2.0**22))
def test_property_symbol_is_its_grid_element(name, ys):
    # past 2^20 both take the extended-precision phases
    mask = builtin(name)
    grid, tail = rf.eval_symbol_grid(mask, np.array(ys))
    for y, g in zip(ys, grid):
        sv = rf.eval_symbol(mask, y)
        assert same_bits(sv.value, g) and sv.truncation_error == tail, (name, y)


@kernel_property
@given(st.sampled_from(BUILTINS), st.floats(-1e4, 1e4, allow_nan=False))
def test_property_lifted_symbol_on_theta(name, y):
    # ahat = A o theta on a window covering every translate the tolerance keeps
    mask = builtin(name)
    g = so.theta(mask.field, y, -60 if mask.infinite else 0, 0)
    lifted, direct = so.eval_A(mask, g), rf.eval_symbol(mask, y).value
    assert np.max(np.abs(np.atleast_1d(lifted - direct))) < 1e-10


@kernel_property
@given(st.sampled_from(BUILTINS), st.floats(-40, 40, allow_nan=False))
def test_property_two_scale_identity(name, y):
    mask = builtin(name)
    lhs = rf.eval_phihat(mask, mask.alpha * y, 1e-11).value
    sym = rf.eval_symbol(mask, y).value
    base = rf.eval_phihat(mask, y, 1e-11).value
    rhs = sym * base if mask.rank == 1 else sym @ base
    assert np.max(np.abs(np.atleast_1d(lhs - rhs))) < 1e-9


@kernel_property
@given(st.sampled_from(BUILTINS), st.sampled_from((1e-14, 1e-30)),
       st.lists(st.builds(lambda s, y: s * y, st.sampled_from((1, -1)), st.floats(2.0**20, 2.0**80)),
                min_size=1, max_size=6))
def test_property_power_of_two_translates_keep_the_float_phase(name, tol, ys):
    # every builtin translate is 0 or 2^e, so past 2^20 each term keeps fl(tau y), whose
    # fraction has the bits of the exact reduction; tol 1e-30 takes dyadic to tau = 2^-99
    from unittest import mock

    mask = builtin(name)
    K = rf._truncation(mask, tol)[0]
    taus = rf._kernel_terms(mask, K, pv.precision_bits())[1]
    with mock.patch.object(rf, "_frac_products", wraps=rf._frac_products) as exact_route:
        got = rf._extended_phases(mask, K, np.array(ys))
    assert not exact_route.called
    assert got.tobytes() == rf._frac_products(taus, ys).tobytes(), (name, ys)


def test_exact_phases_where_the_float_product_would_round():
    # the double nearest 2^60 + 1 is 2^60, at which 2^(1-k) y is an integer for k <= 61
    dyadic, y = builtin("dyadic"), 2**60 + 1
    with mp.workprec(200):
        want = sum(mp.mpf(2) ** -k * mp.expj(-2 * mp.pi * (mp.mpf(2) ** (1 - k) * y % 1)) for k in range(1, 201))
    assert abs(rf.eval_symbol(dyadic, y).value - complex(want)) < 1e-13
    # and the translate 3 times a 53-bit y needs 55 bits: fl(3 y) is off by up to 2^-11
    mask, y = rf.make_mask(builtin("boxcar").field, (1.0, 1.0), (0, 3)), 2.0**40 + 0.3
    with mp.workprec(200):
        want = (1 + mp.expj(-2 * mp.pi * (3 * mp.mpf(y) % 1))) / 2
    assert abs(rf.eval_symbol(mask, y).value - complex(want)) < 1e-13


def exact(x):
    m, e = x.man_exp  # the mantissa unsigned
    return Fraction(-m if x < 0 else m) * Fraction(2) ** e


def exact_reduction(taus, ys):
    # frac(tau y) of the exact product of the mpf tau and the float or int y, rounded once to a float
    return np.array([[float(exact(t) * Fraction(y) % 1) for y in ys] for t in taus])


@st.composite
def phase_inputs(draw):
    prec = draw(st.integers(64, 512))
    signs = st.sampled_from((1, -1))
    # odd full-width mantissas, near 1 or so large that tau y keeps under a float's
    # worth of fractional bits, where a rounding tie shows in the phase
    scales = st.one_of(st.integers(-prec - 64, -prec + 24), st.integers(-64, -20))
    mantissas = st.builds(lambda high, low: high << 2 | low, st.integers(2 ** (prec - 3), 2 ** (prec - 2) - 1),
                          st.sampled_from((1, 3)))
    tau_parts = [(draw(signs) * draw(mantissas), draw(scales)) for _ in range(draw(st.integers(1, 3)))]
    with mp.workprec(prec):
        taus = [mp.mpf(t) for t in tau_parts] + [mp.mpf(0), mp.mpf(1), mp.mpf(-1) / 3]
    short = st.builds(lambda m, e: m * 2.0**e, st.integers(-2**12, 2**12), st.integers(-40, 40))
    # an odd prec-bit mantissa times 3 that carries to prec + 1 bits drops one set bit: a tie
    tie = st.builds(lambda s, e: s * 3 * 2.0**e, signs, st.integers(-40, 0))
    exact = st.integers(-2 ** (prec - 40), 2 ** (prec - 40))
    ys = draw(st.lists(st.one_of(short, tie, st.floats(-2.0**40, 2.0**40, allow_nan=False), exact,
                                 st.sampled_from((0, 0.0))), min_size=1, max_size=8))
    return prec, taus, ys


def wide_mpf(m, e, bits):
    with mp.workprec(bits):
        return mp.mpf((m, e))


@kernel_property
@given(phase_inputs())
# 3 (2^63 + 3) 2^-30 is a tie at 64 bits, and its fraction is taken unrounded; and
# 1 + x for x = -2^-54 (1 + 2^-63) lies just under a tie at 53 bits: 1 - 2^-53, not 1.0
@example((64, [wide_mpf(2**63 + 3, -30, 64)], [3.0]))
@example((64, [wide_mpf(-(2**63 + 1), -117, 64)], [1.0]))
def test_property_integer_phase_reduction_is_the_exact_fraction(args):
    prec, taus, ys = args
    got = rf._frac_products(taus, ys)
    assert got.tobytes() == exact_reduction(taus, ys).tobytes()
