"""Properties of the symbol kernel over the four builtin masks.

The 0-d and grid entries of the kernel agree bit for bit, for float
arguments on both sides of 2^20 and for mpmath arguments in object arrays;
the lifted symbol A on a covering theta window equals ahat; and phihat
satisfies the two-scale identity phihat(alpha y) = ahat(y) phihat(y).
"""

import functools

import mpmath as mp
import numpy as np
import pytest

import pvrefine as pv
from pvrefine import refinement as rf
from pvrefine import solenoid as so

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
@given(st.sampled_from(BUILTINS), points(-2.0**22, 2.0**22), st.integers(-60, -1))
def test_property_mpf_symbol_is_its_object_grid_element(name, ys, shift):
    mask = builtin(name)
    with mp.workprec(pv.precision_bits()):
        args = [mp.mpf(y) + mp.ldexp(1, shift) for y in ys]
    # floats and mpfs mixed in one object array: the mpf entries all take extended precision
    grid, _ = rf.eval_symbol_grid(mask, np.array(args + ys, dtype=object))
    for x, g in zip(args + ys, grid):
        assert same_bits(rf.eval_symbol(mask, x).value, g), (name, x)


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
