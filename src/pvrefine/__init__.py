"""Computational machinery for refinable functions with PV dilations.

Submodules:
  algebraic_core: Q[alpha] exact arithmetic, PV certification, Lagrange dual basis
  refinement:     masks, Fourier symbol, infinite products, builtin examples
  solenoid:       finite windows of the torus-sequence machinery, lattice counts
  zero_density:   near-zero scans, vanishing probes, norm-form counting
  cli:            batch command surface (CSV/SVG emitters)
"""

from .errors import (
    DegenerateError,
    EigenError,
    EmptyWindowError,
    NonconvergenceError,
    NormalizationError,
    NotPisotError,
    PrecisionError,
    PvrefineError,
    ReducibleError,
    SizeError,
    UnknownExampleError,
    WindowTooSmallError,
)
from .algebraic_core import (
    FieldElement,
    LaurentTranslate,
    NumberField,
    fe,
    fe_rational,
    first_lagrange_row,
    make_field,
    norm,
    parse_poly,
    pisot_set_test,
    precision_bits,
    trace,
    trace_power_sequence,
)
from .refinement import (
    RefinementMask,
    SymbolValue,
    bernoulli_orbit,
    builtin_mask,
    eval_phihat,
    eval_symbol,
    eval_symbol_grid,
    mask_from_file,
    phihat_grid,
    phihat_orbit,
)
from .solenoid import (
    LatticeCylinder,
    SolenoidWindow,
    UNeighborhood,
    enumerate_Y,
    equidistribution_check,
    eval_A,
    gamma_density,
    in_U,
    shift,
    theta,
)
from .zero_density import (
    NearZeroSet,
    NormForm,
    count_norm_values,
    density_estimate,
    norm_form,
    scan_near_zeros,
    vanishing_probe,
)

__all__ = [n for n in dir() if not n.startswith("_")]
