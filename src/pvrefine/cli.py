"""Batch command surface: deterministic CSV/SVG artifacts for every operation.

Nine subcommands cover field certification, symbol scans, dilation orbits,
Bernoulli products, lattice densities, near-zero scans, vanishing probes,
norm-value counts, and equidistribution estimates.  Output is reproducible
byte for byte: CSV is RFC-4180 style (CRLF line ends, '.' decimal point,
17 significant digits) and SVG is assembled by plain string formatting, so
identical configs give identical files.  --threads is accepted and validated
for compatibility; every subcommand runs serially.

Options may come from a flat key=value config file (--config); explicit
command-line flags win.  --precision-bits sets the internal working precision
for the run; PISOT_PRECISION_BITS gives the default, else 128 bits.

Exit status: 0 success, 2 validation or usage error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebraic_core import NumberField, fe_rational, make_field, working_precision
from .errors import NonconvergenceError, PrecisionError, PvrefineError, SizeError
from .refinement import (
    RefinementMask,
    bernoulli_orbit,
    builtin_mask,
    eval_phihat,
    eval_symbol,
    eval_symbol_grid,
    mask_from_file,
    phihat_grid,
    phihat_orbit,
)
from .solenoid import LatticeCylinder, enumerate_Y, equidistribution_check, gamma_density
from .zero_density import check_grid_points, count_norm_values, density_estimate, scan_near_zeros
from .zero_density import tabulate_on_grid, vanishing_probe

__all__ = ["RunConfig", "PlotSpec", "run", "emit_csv", "emit_svg", "main"]

# numeric errors exit 3; ValueError, ZeroDivisionError (a rational such as
# --lambda 1/0) and every other package error exit 2
_NUMERIC_ERRORS = (PrecisionError, NonconvergenceError, OSError)

_COMMANDS = (
    "field-check",
    "symbol-scan",
    "phihat-orbit",
    "bernoulli",
    "lattice-density",
    "zeros-scan",
    "vanishing-probe",
    "norms-count",
    "equidistribution",
)


# RunConfig raises SizeError beyond these: phihat-orbit, vanishing-probe and bernoulli
# build one entry per orbit point, and bernoulli keeps T(alpha^j) exactly for each
# j < J_max, about J_max^2 log10|alpha| / 2 digits (|alpha| <= 1 + max|c_i|); at
# either limit a run takes seconds; equidistribution keeps a few samples-by-n arrays,
# 8 n MB each at 10^6 samples
MAX_ORBIT_POINTS = 10**5
MAX_TRACE_DIGITS = 10**6
MAX_SAMPLES = 10**6

BERNOULLI_J_MAX, BERNOULLI_J_MIN = 40, -40  # bernoulli's defaults for --jmax and --jmin


# ---------------------------------------------------------------------------
# domain types


@dataclass
class RunConfig:
    """One resolved invocation: command, field/mask selection, numeric knobs."""

    command: str
    poly: tuple = None          # low-order coefficients of the monic dilation poly
    mask: str = None            # builtin name or mask-file path
    lo: float = None            # scan range [lo, hi]
    hi: float = None
    grid_step: float = None
    delta: float = None
    tol: float = None
    J_max: int = None
    j_min: int = None
    lam: str = None             # comma-separated rationals
    m: int = None
    eps: tuple = None
    L: float = None
    box: int = None
    n: int = None
    samples: int = None
    seed: int = 0
    threads: int = 1
    precision_bits: int = None
    target: str = None          # zeros-scan: symbol | phihat
    out: str = None
    svg: bool = False

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError("unknown command %r" % (self.command,))
        flag = {"grid_step": "step", "J_max": "jmax", "lo": "range", "hi": "range"}
        for name in ("lo", "hi", "grid_step", "delta", "tol", "L", "eps"):
            v = getattr(self, name)
            if v is not None and not all(math.isfinite(x) for x in np.atleast_1d(v)):
                raise ValueError("--%s must be finite" % flag.get(name, name))
        for name in ("grid_step", "delta", "tol", "L"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError("--%s must be positive" % flag.get(name, name.replace("_", "-")))
        for name in ("J_max", "box", "n", "samples", "threads", "precision_bits"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError("--%s must be a positive integer" % flag.get(name, name.replace("_", "-")))
        if self.samples is not None and self.samples > MAX_SAMPLES:
            raise SizeError("equidistribution: %d samples exceed the %d-sample limit" % (self.samples, MAX_SAMPLES))
        if self.command not in ("phihat-orbit", "vanishing-probe", "bernoulli"):
            return
        # forecast the orbit, and bernoulli's exact traces, before anything is built
        bern = self.command == "bernoulli"
        jmax = self.J_max if self.J_max is not None else (BERNOULLI_J_MAX if bern else 0)
        jmin = self.j_min if self.j_min is not None else (BERNOULLI_J_MIN if bern else 0)
        # bernoulli multiplies the factors j_min <= j < 0, then takes J = 0..J_max
        first = {"bernoulli": min(jmin, 0), "phihat-orbit": jmin}.get(self.command, 0)
        if jmax - first + 1 > MAX_ORBIT_POINTS:
            raise SizeError("%s: %d orbit points (j = %d..%d) exceed the %d-point limit"
                            % (self.command, jmax - first + 1, first, jmax, MAX_ORBIT_POINTS))
        if bern and self.poly:
            digits = jmax**2 * math.log10(1 + max(abs(c) for c in self.poly)) / 2
            if digits > MAX_TRACE_DIGITS:
                raise SizeError("bernoulli: exact traces to J=%d take up to %.3g digits, over the %d-digit limit"
                                % (jmax, digits, MAX_TRACE_DIGITS))


@dataclass(frozen=True)
class PlotSpec:
    """Single series of finite (x, y) points, sorted by x, with labels."""

    points: tuple
    xlabel: str = "x"
    ylabel: str = "y"
    title: str = ""

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("plot points must be finite")
        xs = [x for x, _ in pts]
        if any(b < a for a, b in zip(xs, xs[1:])):
            raise ValueError("plot points must be sorted by x")


# ---------------------------------------------------------------------------
# emitters


def _cell(v) -> str:
    # str already gives the text of bools, ints, strings and complexes
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    return str(v)


def emit_csv(rows, header, path) -> None:
    """RFC-4180-style CSV: CRLF, '.' decimal separator, 17 significant digits."""
    header = list(header)
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != len(header):
            raise ValueError("rows must be rectangular (want %d columns, got %d)" % (len(header), len(r)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        for r in rows:
            w.writerow([_cell(v) for v in r])


_SVG_W, _SVG_H = 800.0, 500.0
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 72.0, 24.0, 40.0, 56.0


def _axis_ticks(lo: float, hi: float):
    return [lo + i * (hi - lo) / 4.0 for i in range(5)]


def emit_svg(plot: PlotSpec, path) -> None:
    """Standalone polyline chart with axes and 5 tick labels per axis.

    Pure string assembly with fixed float formats; re-running on identical
    input produces identical bytes.
    """
    if len(plot.points) < 2:
        raise ValueError("need at least 2 points to draw a line")
    xs = [p[0] for p in plot.points]
    ys = [p[1] for p in plot.points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    iw = _SVG_W - _SVG_ML - _SVG_MR
    ih = _SVG_H - _SVG_MT - _SVG_MB

    def px(x):
        return _SVG_ML + (x - x0) / (x1 - x0) * iw

    def py(y):
        return _SVG_H - _SVG_MB - (y - y0) / (y1 - y0) * ih

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_SVG_W, _SVG_H, _SVG_W, _SVG_H)
    )
    out.append('<rect width="%d" height="%d" fill="white"/>' % (_SVG_W, _SVG_H))
    out.append(
        '<text x="%.1f" y="24" font-family="monospace" font-size="16" text-anchor="middle">%s</text>'
        % (_SVG_ML + iw / 2, plot.title)
    )
    ax = '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="1"/>'
    out.append(ax % (_SVG_ML, _SVG_H - _SVG_MB, _SVG_W - _SVG_MR, _SVG_H - _SVG_MB))
    out.append(ax % (_SVG_ML, _SVG_MT, _SVG_ML, _SVG_H - _SVG_MB))
    for t in _axis_ticks(x0, x1):
        out.append(ax % (px(t), _SVG_H - _SVG_MB, px(t), _SVG_H - _SVG_MB + 5))
        out.append(
            '<text x="%.1f" y="%.1f" font-family="monospace" font-size="11" text-anchor="middle">%.6g</text>'
            % (px(t), _SVG_H - _SVG_MB + 18, t)
        )
    for t in _axis_ticks(y0, y1):
        out.append(ax % (_SVG_ML - 5, py(t), _SVG_ML, py(t)))
        out.append(
            '<text x="%.1f" y="%.1f" font-family="monospace" font-size="11" text-anchor="end">%.6g</text>'
            % (_SVG_ML - 8, py(t) + 4, t)
        )
    out.append(
        '<text x="%.1f" y="%.1f" font-family="monospace" font-size="13" text-anchor="middle">%s</text>'
        % (_SVG_ML + iw / 2, _SVG_H - 14, plot.xlabel)
    )
    out.append(
        '<text x="16" y="%.1f" font-family="monospace" font-size="13" text-anchor="middle" '
        'transform="rotate(-90 16 %.1f)">%s</text>' % (_SVG_MT + ih / 2, _SVG_MT + ih / 2, plot.ylabel)
    )
    pts = " ".join("%.3f,%.3f" % (px(x), py(y)) for x, y in plot.points)
    out.append('<polyline points="%s" fill="none" stroke="#1f4e8c" stroke-width="1.2"/>' % pts)
    out.append("</svg>")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# shared resolution helpers


def _require(cfg: RunConfig, name: str):
    v = getattr(cfg, name)
    if v is None:
        flag = {"lam": "lambda", "J_max": "jmax", "lo": "range", "hi": "range", "grid_step": "step"}.get(
            name, name.replace("_", "-")
        )
        raise ValueError("--%s is required for %s" % (flag, cfg.command))
    return v


def _field_of(cfg: RunConfig) -> NumberField:
    return make_field(_require(cfg, "poly"))


def _mask_of(cfg: RunConfig) -> RefinementMask:
    name = _require(cfg, "mask")
    if os.path.isfile(name):
        return mask_from_file(name)
    if name == "bernoulli":
        if cfg.poly is None:
            raise ValueError("--mask bernoulli requires --poly for the dilation field")
        return builtin_mask(name, _field_of(cfg))
    return builtin_mask(name)


def _magnitudes(vals, lead: int = 1):
    # |value| over the `lead` leading axes: the modulus of a scalar, else the
    # smallest singular value (of a matrix, or of a vector: its 2-norm)
    v = np.asarray(vals)
    if v.ndim == lead:
        return np.abs(v)
    return np.linalg.svd(v[..., None, :] if v.ndim == lead + 1 else v, compute_uv=False)[..., -1]


def _magnitude(sv_value) -> float:
    return float(_magnitudes(sv_value, 0))


def _sv_row(x, sv):
    v = np.asarray(sv.value)
    if v.ndim == 0:
        z = complex(v)
        return [x, z.real, z.imag, abs(z), float(sv.truncation_error)]
    return [x, None, None, _magnitude(v), float(sv.truncation_error)]


def _grid(lo: float, hi: float, step: float):
    if hi <= lo:
        raise ValueError("--range needs lo < hi")
    check_grid_points((hi - lo) / step + 1)
    k = int(math.floor((hi - lo) / step + 1e-9))
    return lo + step * np.arange(k + 1)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (header, rows, summary lines, plot or None)


def _cmd_field_check(cfg: RunConfig):
    f = _field_of(cfg)
    mods = sorted(abs(r) for r in f.roots)
    conj = mods[-2] if len(mods) > 1 else 0.0
    rows = [[k, r.real, r.imag, abs(r)] for k, r in enumerate(f.roots)]
    summary = "%s, degree %d, conjugate modulus %.4f" % (f.pv_status, f.degree, conj)
    return ["k", "re", "im", "abs"], rows, [summary], None


def _cmd_symbol_scan(cfg: RunConfig):
    mask = _mask_of(cfg)
    lo, hi = _require(cfg, "lo"), _require(cfg, "hi")
    step = _require(cfg, "grid_step")
    tol = cfg.tol if cfg.tol is not None else 1e-14
    ys = _grid(lo, hi, step)
    vals, tail = eval_symbol_grid(mask, ys, tol)
    mags = _magnitudes(vals)
    if mask.rank == 1:
        rows = [[float(y), z.real, z.imag, abs(z), tail] for y, z in zip(ys, vals)]
    else:
        rows = [[y, None, None, m, tail] for y, m in zip(ys.tolist(), mags.tolist())]
    i = int(np.argmin(mags))
    summary = "min |ahat| = %.6g at y = %.6g over [%g, %g] step %g (%d points)" % (
        mags[i], ys[i], lo, hi, step, len(ys),
    )
    plot = PlotSpec(
        points=tuple(zip(ys.tolist(), mags.tolist())),
        xlabel="y",
        ylabel="|ahat(y)|",
        title="Fourier symbol modulus: %s" % mask.name,
    )
    return ["y", "re", "im", "abs", "truncation_error"], rows, [summary], plot


def _cmd_phihat_orbit(cfg: RunConfig):
    mask = _mask_of(cfg)
    lam = float(Fraction(_require(cfg, "lam")))
    jmax = _require(cfg, "J_max")
    jmin = cfg.j_min if cfg.j_min is not None else 0
    if jmax < jmin:
        raise ValueError("--jmax must be >= --jmin")
    tol = cfg.tol if cfg.tol is not None else 1e-12
    orbit = phihat_orbit(mask, lam, range(jmin, jmax + 1), tol)
    rows = [_sv_row(j, sv) for j, sv in orbit]
    last = orbit[-1][1]
    v = np.asarray(last.value)
    if v.ndim == 0:
        z = complex(v)
        summary = "tail value %.6g%+.6gi (modulus %.6g) at J=%d" % (z.real, z.imag, abs(z), jmax)
    else:
        summary = "tail smallest singular value %.6g at J=%d" % (_magnitude(v), jmax)
    plot = PlotSpec(
        points=tuple((float(j), r[3]) for j, r in zip(range(jmin, jmax + 1), rows)),
        xlabel="J",
        ylabel="|phihat(lambda alpha^J)|",
        title="dilation orbit: %s, lambda=%g" % (mask.name, lam),
    )
    return ["j", "re", "im", "abs", "truncation_error"], rows, [summary], plot


def _cmd_bernoulli(cfg: RunConfig):
    f = _field_of(cfg)
    jmax = cfg.J_max if cfg.J_max is not None else BERNOULLI_J_MAX
    jmin = cfg.j_min if cfg.j_min is not None else BERNOULLI_J_MIN
    values, _ = bernoulli_orbit(f, jmax, jmin)
    rows = [[J, z.real, z.imag, abs(z)] for J, z in enumerate(values)]
    summary = "|phihat| tail %.6g at J=%d (cutoff j_min=%d)" % (rows[-1][3], jmax, jmin)
    plot = PlotSpec(
        points=tuple((float(r[0]), r[3]) for r in rows),
        xlabel="J",
        ylabel="|phihat(alpha^J)|",
        title="Bernoulli convolution orbit",
    )
    return ["j", "re", "im", "abs"], rows, [summary], plot


def _cmd_lattice_density(cfg: RunConfig):
    L = _require(cfg, "L")
    if L < 1:
        raise ValueError("--L must be >= 1 for lattice-density (it reports the counts at L/100, L/10, L >= 1)")
    f = _field_of(cfg)
    eps = _require(cfg, "eps")
    m = cfg.m if cfg.m is not None else 0
    gamma = gamma_density(f, LatticeCylinder(L, m, eps))
    cyl = LatticeCylinder(L, m, eps, gamma)
    ys = np.asarray(enumerate_Y(f, cyl))
    rows = []
    for t in (L / 100.0, L / 10.0, L):
        if t < 1.0:
            continue
        cnt = int(np.searchsorted(ys, t, side="right") - np.searchsorted(ys, -t, side="left"))
        dens = cnt / (2.0 * t)
        rows.append([t, cnt, dens, gamma, abs(dens - gamma) / gamma])
    summary = "card Y(%g) = %d, density %.6g vs gamma %.6g (rel err %.3g)" % (
        L, rows[-1][1], rows[-1][2], gamma, rows[-1][4],
    )
    plot = None
    if len(rows) >= 2:
        plot = PlotSpec(
            points=tuple((math.log10(r[0]), r[4]) for r in rows),
            xlabel="log10 L",
            ylabel="relative error",
            title="lattice density vs gamma",
        )
    return ["L", "count", "density", "gamma", "rel_err"], rows, [summary], plot


def _cmd_zeros_scan(cfg: RunConfig):
    mask = _mask_of(cfg)
    lo, hi = _require(cfg, "lo"), _require(cfg, "hi")
    if lo != 0.0:
        raise ValueError("--range for zeros-scan must start at 0")
    step = _require(cfg, "grid_step")
    delta = cfg.delta if cfg.delta is not None else 1e-3
    target = cfg.target if cfg.target is not None else "symbol"
    if target not in ("symbol", "phihat"):
        raise ValueError("--target must be symbol or phihat")
    ev, ev_grid = (eval_symbol, eval_symbol_grid) if target == "symbol" else (eval_phihat, phihat_grid)

    def f(y):
        return _magnitude(ev(mask, y).value)

    # one kernel call tabulates the grid; golden-section probes call f
    f = tabulate_on_grid(f, lambda ys: _magnitudes(ev_grid(mask, ys)[0]), hi, step)
    z = scan_near_zeros(f, hi, step, delta)
    lo_d, hi_d = density_estimate(z)
    pos = np.asarray(z.positions())
    rows = []
    for k in range(1, 11):
        t = k * hi / 10.0
        cnt = int(np.searchsorted(pos, t, side="right")) if pos.size else 0
        rows.append([t, cnt, cnt / t])
    summary = "%d near-zeros of |%s| below delta=%g on [0, %g]; density in [%.6g, %.6g]" % (
        len(z.points), target, delta, hi, lo_d, hi_d,
    )
    plot = PlotSpec(
        points=tuple((r[0], r[2]) for r in rows),
        xlabel="t",
        ylabel="count / t",
        title="near-zero density: %s" % mask.name,
    )
    return ["t", "count", "density"], rows, [summary], plot


def _cmd_vanishing_probe(cfg: RunConfig):
    mask = _mask_of(cfg)
    lam_spec = _require(cfg, "lam")
    jmax = _require(cfg, "J_max")
    lams = [fe_rational(mask.field, Fraction(tok.strip())) for tok in lam_spec.split(",") if tok.strip()]
    if not lams:
        raise ValueError("--lambda needs at least one value")
    records = vanishing_probe(mask, lams, jmax, cfg.delta, cfg.tol)
    rows = []
    lines = []
    for rec in records:
        for J, v in enumerate(rec.values):
            rows.append([rec.lam_value, J, v, rec.verdict])
        lines.append(
            "lambda=%.6g: %s (tail level %.3g, slope %.3g)"
            % (rec.lam_value, rec.verdict, rec.tail_mean, rec.slope)
        )
    r0 = records[0]
    plot = PlotSpec(
        points=tuple((float(J), v) for J, v in enumerate(r0.values)),
        xlabel="J",
        ylabel="|phihat(lambda alpha^J)|",
        title="vanishing probe: %s, lambda=%g" % (mask.name, r0.lam_value),
    )
    return ["lambda", "J", "abs_phihat", "verdict"], rows, lines, plot


def _cmd_norms_count(cfg: RunConfig):
    f = _field_of(cfg)
    L = int(_require(cfg, "L"))
    box = _require(cfg, "box")
    count, exponent, pts = count_norm_values(f, L, box, checkpoints=True)
    rows = []
    prev = None
    for t, cnt in pts:
        ratio = cnt / prev if prev else float("nan")
        rows.append([t, cnt, ratio])
        prev = cnt
    summary = "%d distinct norm values in [1, %d] (box %d); fitted exponent %.4f" % (
        count, L, box, exponent,
    )
    plot = None
    if len(rows) >= 2:
        plot = PlotSpec(
            points=tuple((math.log10(r[0]), math.log10(r[1])) for r in rows),
            xlabel="log10 L",
            ylabel="log10 count",
            title="norm-value counting",
        )
    return ["L", "count", "ratio"], rows, [summary], plot


def _cmd_equidistribution(cfg: RunConfig):
    f = _field_of(cfg)
    n = cfg.n if cfg.n is not None else 1
    samples = cfg.samples if cfg.samples is not None else 10000
    L = cfg.L if cfg.L is not None else 1000.0
    rng = np.random.default_rng(cfg.seed)
    ys = rng.uniform(0.0, L, size=samples)
    disc = equidistribution_check(f, ys, n)
    rows = [[n, samples, L, cfg.seed, disc]]
    summary = "discrepancy %.6g for n=%d over %d samples in [0, %g) (seed %d)" % (
        disc, n, samples, L, cfg.seed,
    )
    return ["n", "samples", "L", "seed", "discrepancy"], rows, [summary], None


_HANDLERS = {
    "field-check": _cmd_field_check,
    "symbol-scan": _cmd_symbol_scan,
    "phihat-orbit": _cmd_phihat_orbit,
    "bernoulli": _cmd_bernoulli,
    "lattice-density": _cmd_lattice_density,
    "zeros-scan": _cmd_zeros_scan,
    "vanishing-probe": _cmd_vanishing_probe,
    "norms-count": _cmd_norms_count,
    "equidistribution": _cmd_equidistribution,
}


def run(cfg: RunConfig) -> int:
    """Dispatch one command, write its CSV (and SVG when requested), print summary."""
    # the precision holds for this invocation only
    token = working_precision.set(cfg.precision_bits)
    try:
        header, rows, lines, plot = _HANDLERS[cfg.command](cfg)
    finally:
        working_precision.reset(token)
    out = cfg.out if cfg.out is not None else "%s.csv" % cfg.command
    emit_csv(rows, header, out)
    lines.append("wrote %s (%d rows)" % (out, len(rows)))
    if cfg.svg:
        if plot is None:
            raise ValueError("--svg is not available for %s (no plottable series)" % cfg.command)
        svg_path = os.path.splitext(out)[0] + ".svg"
        emit_svg(plot, svg_path)
        lines.append("wrote %s" % svg_path)
    for ln in lines:
        print(ln)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and config-file merge


def _parse_poly(s: str) -> tuple:
    try:
        return tuple(int(tok.strip()) for tok in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("--poly wants comma-separated integers, got %r" % s)


def _parse_range(s: str) -> tuple:
    try:
        lo, hi = s.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("--range wants lo:hi, got %r" % s)


def _parse_eps(s: str) -> tuple:
    try:
        return tuple(float(tok.strip()) for tok in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("--eps wants comma-separated floats, got %r" % s)


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _parse_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in _TRUE:
        return True
    if t in _FALSE:
        return False
    raise argparse.ArgumentTypeError("boolean flag wants true/false, got %r" % s)


# dest -> (config key, converter); used both for argparse and config files
_OPTIONS = {
    "poly": ("poly", _parse_poly),
    "mask": ("mask", str),
    "range": ("range", _parse_range),
    "grid_step": ("step", float),
    "delta": ("delta", float),
    "tol": ("tol", float),
    "J_max": ("jmax", int),
    "j_min": ("jmin", int),
    "lam": ("lambda", str),
    "m": ("m", int),
    "eps": ("eps", _parse_eps),
    "L": ("L", float),
    "box": ("box", int),
    "n": ("n", int),
    "samples": ("samples", int),
    "seed": ("seed", int),
    "threads": ("threads", int),
    "precision_bits": ("precision-bits", int),
    "target": ("target", str),
    "out": ("out", str),
    "svg": ("svg", _parse_bool),
}

# which options each subcommand accepts
_ACCEPTS = {
    "field-check": ("poly",),
    "symbol-scan": ("mask", "poly", "range", "grid_step", "tol"),
    "phihat-orbit": ("mask", "poly", "lam", "J_max", "j_min", "tol"),
    "bernoulli": ("poly", "J_max", "j_min"),
    "lattice-density": ("poly", "L", "m", "eps"),
    "zeros-scan": ("mask", "poly", "range", "grid_step", "delta", "target"),
    "vanishing-probe": ("mask", "poly", "lam", "J_max", "delta", "tol"),
    "norms-count": ("poly", "L", "box"),
    "equidistribution": ("poly", "n", "samples", "L", "seed"),
}
_COMMON = ("out", "svg", "threads", "precision_bits")

_HELP = {
    "poly": "low-order coefficients c0,c1,... of the monic dilation polynomial",
    "mask": "builtin mask name (boxcar, dyadic, bernoulli, golden_vector) or mask-file path",
    "range": "scan interval lo:hi",
    "grid_step": "grid spacing",
    "delta": "near-zero / probe threshold",
    "tol": "evaluation tolerance",
    "J_max": "largest orbit exponent J",
    "j_min": "smallest orbit exponent (phihat-orbit) or product cutoff (bernoulli)",
    "lam": "comma-separated rational lambda values",
    "m": "cylinder shift exponent",
    "eps": "comma-separated conjugate radii eps_2..eps_d",
    "L": "window half-length / count limit",
    "box": "integer box half-width for norm counting",
    "n": "number of dilation powers checked for equidistribution",
    "samples": "number of sample points",
    "seed": "RNG seed for sampled subcommands",
    "threads": "accepted for compatibility; runs are serial and output bytes never depend on it",
    "precision_bits": "working precision in bits for this run (default PISOT_PRECISION_BITS, else 128)",
    "target": "zeros-scan target: symbol or phihat",
    "out": "output CSV path (default <command>.csv)",
    "svg": "also write a line-chart SVG next to the CSV",
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pvrefine",
        description="refinable functions with Pisot dilations: batch CSV/SVG reports",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    for cmd in _COMMANDS:
        sp = sub.add_parser(cmd, help="%s report" % cmd)
        sp.add_argument("--config", default=None, help="key=value options file; explicit flags win")
        for dest in _ACCEPTS[cmd] + _COMMON:
            key, conv = _OPTIONS[dest]
            if dest == "svg":
                sp.add_argument("--svg", dest="svg", action="store_true", default=None, help=_HELP["svg"])
            else:
                sp.add_argument("--%s" % key, dest=dest, type=conv, default=None, help=_HELP[dest])
    return p


def _load_config_file(path: str) -> dict:
    opts = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ValueError("%s:%d: expected key=value, got %r" % (path, lineno, s))
            k, v = s.split("=", 1)
            opts[k.strip()] = v.strip()
    return opts


_KEY_TO_DEST = {key: dest for dest, (key, _) in _OPTIONS.items()}

# flags that take a value; negative-looking values get merged as --flag=value
_VALUE_FLAGS = {"--config"} | {
    "--%s" % key for dest, (key, _) in _OPTIONS.items() if dest != "svg"
}
_NOVALUE_FLAGS = {"--svg", "-h", "--help"}


def _merge_negative_values(argv):
    # argparse rejects "--poly -1,-1" because the value starts with "-" and
    # is not a plain negative number; rewrite to "--poly=-1,-1"
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VALUE_FLAGS
            and nxt is not None
            and nxt.startswith("-")
            and nxt not in _VALUE_FLAGS
            and nxt not in _NOVALUE_FLAGS
        ):
            out.append("%s=%s" % (tok, nxt))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def build_config(argv) -> RunConfig:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_negative_values(list(argv)))
    cmd = args.command
    allowed = set(_ACCEPTS[cmd] + _COMMON)
    if args.config is not None:
        file_opts = _load_config_file(args.config)
        for key, text in file_opts.items():
            dest = _KEY_TO_DEST.get(key)
            if dest is None or dest not in allowed:
                raise ValueError("config option %r not recognized for %s" % (key, cmd))
            if getattr(args, dest, None) is None:
                conv = _OPTIONS[dest][1]
                try:
                    setattr(args, dest, conv(text))
                except argparse.ArgumentTypeError as e:
                    raise ValueError(str(e))
    kwargs = {"command": cmd}
    for dest in allowed:
        if dest == "range":
            rng = getattr(args, "range", None)
            if rng is not None:
                kwargs["lo"], kwargs["hi"] = rng
            continue
        v = getattr(args, dest, None)
        if v is not None:
            kwargs[dest] = v
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    try:
        return run(build_config(argv))
    except SystemExit as e:
        # argparse already printed usage/help; normalize to our exit contract
        return int(e.code) if e.code else 0
    except _NUMERIC_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, PvrefineError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
