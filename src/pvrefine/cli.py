"""Batch command surface: deterministic CSV/SVG artifacts for every operation.

Nine subcommands cover field certification, symbol scans, dilation orbits,
Bernoulli products, lattice densities, near-zero scans, vanishing probes,
norm-value counts, and equidistribution estimates.  Each is declared once, in
the `_COMMANDS` table: its handler and, per option, a default or `_REQUIRED`.
RunConfig fills the defaults and refuses a missing required option from that
table, and `pvrefine <command> --help` prints them.  Output is reproducible
byte for byte: CSV is RFC-4180 style (CRLF line ends, '.' decimal point,
17 significant digits) and SVG is assembled by plain string formatting, so
identical configs give identical files.  --threads is accepted and validated
for compatibility; every subcommand runs serially.

Options may come from a flat key=value config file (--config); explicit
command-line flags win.  --precision-bits sets the internal working precision
for the run, 128 bits by default and at least 64.

Exit status: 0 success, 2 validation or usage error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .algebraic_core import fe_rational, make_field, working_precision
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

# RunConfig raises SizeError beyond this: equidistribution keeps a few samples-by-n
# arrays, 8 n MB each at 10^6 samples
MAX_SAMPLES = 10**6

# the table default of an option the command cannot run without
_REQUIRED = object()


# ---------------------------------------------------------------------------
# domain types


@dataclass
class RunConfig:
    """One invocation: the command and its options.  A field left None takes its
    default from `_COMMANDS` or `_COMMON`, or raises ValueError if required."""

    command: str
    poly: tuple = None          # low-order coefficients of the monic dilation poly
    mask: str = None            # builtin name or mask-file path
    range: tuple = None         # scan range (lo, hi)
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
    seed: int = None
    threads: int = None
    precision_bits: int = None
    target: str = None          # zeros-scan: symbol | phihat
    out: str = None
    svg: bool = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError("unknown command %r" % (self.command,))
        for name in ("range", "grid_step", "delta", "tol", "L", "eps"):
            v = getattr(self, name)
            if v is not None and not all(math.isfinite(x) for x in np.atleast_1d(v)):
                raise ValueError("--%s must be finite" % _OPTIONS[name][0])
        for name in ("grid_step", "delta", "tol", "L"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError("--%s must be positive" % _OPTIONS[name][0])
        for name in ("J_max", "box", "n", "samples", "threads"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError("--%s must be a positive integer" % _OPTIONS[name][0])
        if self.samples is not None and self.samples > MAX_SAMPLES:
            raise SizeError("equidistribution: %d samples exceed the %d-sample limit" % (self.samples, MAX_SAMPLES))
        for name, default in {**_COMMANDS[self.command][1], **_COMMON}.items():
            if getattr(self, name) is None:
                if default is _REQUIRED:
                    raise ValueError("--%s is required for %s" % (_OPTIONS[name][0], self.command))
                setattr(self, name, default)


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


_FLOATS = {float, np.float64}
_BLOCK_ROWS = 4096


def emit_csv(rows, header, path) -> None:
    """RFC-4180-style CSV: CRLF, '.' decimal separator, 17 significant digits.

    Each column is formatted in one pass (%.17g for floats, empty if all None,
    else its `_cell` text), one %-format per block of `_BLOCK_ROWS` rows.  A table
    csv.writer would quote (one column, an empty or quote-worthy cell) goes through it.
    """
    header = list(header)
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != len(header):
            raise ValueError("rows must be rectangular (want %d columns, got %d)" % (len(header), len(r)))
    slots, cols, texts = [], [], []
    for col in zip(*rows):
        kinds = set(map(type, col))
        if kinds <= _FLOATS:
            slots.append("%.17g")
            cols.append(col)
        elif kinds == {type(None)}:
            slots.append("")
        else:
            slots.append("%s")
            cols.append(list(map(_cell, col)))
            texts.append(cols[-1])
    joined = "".join(chain.from_iterable(texts))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        # csv.writer quotes , " \r and \n, and alone decides how an empty field is written
        if len(header) < 2 or any("" in t for t in texts) or any(ch in joined for ch in ',"\r\n'):
            for r in rows:
                w.writerow([_cell(v) for v in r])
            return
        fmt = ",".join(slots) + "\r\n"
        for i in range(0, len(rows), _BLOCK_ROWS):
            n = min(_BLOCK_ROWS, len(rows) - i)
            fh.write((fmt * n) % tuple(chain.from_iterable(zip(*(c[i:i + n] for c in cols)))))


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


def _mask_of(cfg: RunConfig) -> RefinementMask:
    if os.path.isfile(cfg.mask):
        return mask_from_file(cfg.mask)
    if cfg.mask == "bernoulli":
        if cfg.poly is None:
            raise ValueError("--mask bernoulli requires --poly for the dilation field")
        return builtin_mask(cfg.mask, make_field(cfg.poly))
    return builtin_mask(cfg.mask)


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
# subcommand handlers; each reads a resolved RunConfig and returns
# (header, rows, summary lines, plot), where plot is None or a zero-argument
# callable giving the PlotSpec, called only under --svg


def _cmd_field_check(cfg: RunConfig):
    f = make_field(cfg.poly)
    mods = sorted(abs(r) for r in f.roots)
    conj = mods[-2] if len(mods) > 1 else 0.0
    rows = [[k, r.real, r.imag, abs(r)] for k, r in enumerate(f.roots)]
    summary = "%s, degree %d, conjugate modulus %.4f" % (f.pv_status, f.degree, conj)
    return ["k", "re", "im", "abs"], rows, [summary], None


def _cmd_symbol_scan(cfg: RunConfig):
    mask = _mask_of(cfg)
    (lo, hi), step = cfg.range, cfg.grid_step
    ys = _grid(lo, hi, step)
    vals, tail = eval_symbol_grid(mask, ys, cfg.tol)
    y_list = ys.tolist()
    if mask.rank == 1:
        # abs of each complex, not the vectorized np.abs: the two can differ in the last bit,
        # and the CSV, the minimum and the plot all take these
        zs = vals.tolist()
        m_list = [abs(z) for z in zs]
        rows = [[y, z.real, z.imag, m, tail] for y, z, m in zip(y_list, zs, m_list)]
    else:
        m_list = _magnitudes(vals).tolist()
        rows = [[y, None, None, m, tail] for y, m in zip(y_list, m_list)]
    i = int(np.argmin(m_list))
    summary = "min |ahat| = %.6g at y = %.6g over [%g, %g] step %g (%d points)" % (
        m_list[i], y_list[i], lo, hi, step, len(ys),
    )
    plot = lambda: PlotSpec(
        points=tuple(zip(y_list, m_list)),
        xlabel="y",
        ylabel="|ahat(y)|",
        title="Fourier symbol modulus: %s" % mask.name,
    )
    return ["y", "re", "im", "abs", "truncation_error"], rows, [summary], plot


def _lambdas(cfg: RunConfig):
    """--lambda as exact rationals; ValueError on none, or on one past the largest float."""
    lams = [Fraction(tok.strip()) for tok in cfg.lam.split(",") if tok.strip()]
    if not lams:
        raise ValueError("--lambda needs at least one value")
    if not all(abs(q) <= sys.float_info.max for q in lams):
        raise ValueError("--lambda must be finite")
    return lams


def _cmd_phihat_orbit(cfg: RunConfig):
    mask = _mask_of(cfg)
    lams = _lambdas(cfg)
    if len(lams) != 1:
        raise ValueError("--lambda takes one value for phihat-orbit")
    jmin, jmax = cfg.j_min, cfg.J_max
    if jmax < jmin:
        raise ValueError("--jmax must be >= --jmin")
    orbit = phihat_orbit(mask, lams[0], range(jmin, jmax + 1), cfg.tol)
    rows = [_sv_row(j, sv) for j, sv in orbit]
    v = np.asarray(orbit[-1][1].value)
    if v.ndim == 0:
        z = complex(v)
        summary = "tail value %.6g%+.6gi (modulus %.6g) at J=%d" % (z.real, z.imag, abs(z), jmax)
    else:
        summary = "tail smallest singular value %.6g at J=%d" % (_magnitude(v), jmax)
    plot = lambda: PlotSpec(
        points=tuple((float(j), r[3]) for j, r in zip(range(jmin, jmax + 1), rows)),
        xlabel="J",
        ylabel="|phihat(lambda alpha^J)|",
        title="dilation orbit: %s, lambda=%g" % (mask.name, float(lams[0])),
    )
    return ["j", "re", "im", "abs", "truncation_error"], rows, [summary], plot


def _cmd_bernoulli(cfg: RunConfig):
    values, _ = bernoulli_orbit(make_field(cfg.poly), cfg.J_max, cfg.j_min)
    rows = [[J, z.real, z.imag, abs(z)] for J, z in enumerate(values)]
    summary = "|phihat| tail %.6g at J=%d (cutoff j_min=%d)" % (rows[-1][3], cfg.J_max, cfg.j_min)
    plot = lambda: PlotSpec(
        points=tuple((float(r[0]), r[3]) for r in rows),
        xlabel="J",
        ylabel="|phihat(alpha^J)|",
        title="Bernoulli convolution orbit",
    )
    return ["j", "re", "im", "abs"], rows, [summary], plot


def _cmd_lattice_density(cfg: RunConfig):
    L = cfg.L
    if L < 1:
        raise ValueError("--L must be >= 1 for lattice-density (it reports the counts at L/100, L/10, L >= 1)")
    f = make_field(cfg.poly)
    cyl = LatticeCylinder(L, cfg.m, cfg.eps)
    gamma = gamma_density(f, cyl)
    ys = enumerate_Y(f, cyl)
    rows = []
    for t in (L / 100.0, L / 10.0, L):
        if t < 1.0:
            continue
        cnt = bisect.bisect_right(ys, t) - bisect.bisect_left(ys, -t)
        dens = cnt / (2.0 * t)
        rows.append([t, cnt, dens, gamma, abs(dens - gamma) / gamma])
    summary = "card Y(%g) = %d, density %.6g vs gamma %.6g (rel err %.3g)" % (
        L, rows[-1][1], rows[-1][2], gamma, rows[-1][4],
    )
    plot = None if len(rows) < 2 else lambda: PlotSpec(
        points=tuple((math.log10(r[0]), r[4]) for r in rows),
        xlabel="log10 L",
        ylabel="relative error",
        title="lattice density vs gamma",
    )
    return ["L", "count", "density", "gamma", "rel_err"], rows, [summary], plot


def _cmd_zeros_scan(cfg: RunConfig):
    mask = _mask_of(cfg)
    (lo, hi), step, delta, target = cfg.range, cfg.grid_step, cfg.delta, cfg.target
    if lo != 0.0:
        raise ValueError("--range for zeros-scan must start at 0")
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
    plot = lambda: PlotSpec(
        points=tuple((r[0], r[2]) for r in rows),
        xlabel="t",
        ylabel="count / t",
        title="near-zero density: %s" % mask.name,
    )
    return ["t", "count", "density"], rows, [summary], plot


def _cmd_vanishing_probe(cfg: RunConfig):
    mask = _mask_of(cfg)
    lams = [fe_rational(mask.field, q) for q in _lambdas(cfg)]
    records = vanishing_probe(mask, lams, cfg.J_max, cfg.delta, cfg.tol)
    rows, lines = [], []
    for rec in records:
        for J, v in enumerate(rec.values):
            rows.append([rec.lam_value, J, v, rec.verdict])
        lines.append(
            "lambda=%.6g: %s (tail level %.3g, slope %.3g)"
            % (rec.lam_value, rec.verdict, rec.tail_mean, rec.slope)
        )
    r0 = records[0]
    plot = lambda: PlotSpec(
        points=tuple((float(J), v) for J, v in enumerate(r0.values)),
        xlabel="J",
        ylabel="|phihat(lambda alpha^J)|",
        title="vanishing probe: %s, lambda=%g" % (mask.name, r0.lam_value),
    )
    return ["lambda", "J", "abs_phihat", "verdict"], rows, lines, plot


def _cmd_norms_count(cfg: RunConfig):
    L, box = int(cfg.L), cfg.box
    count, exponent, pts = count_norm_values(make_field(cfg.poly), L, box, checkpoints=True)
    rows = []
    prev = None
    for t, cnt in pts:
        ratio = cnt / prev if prev else float("nan")
        rows.append([t, cnt, ratio])
        prev = cnt
    summary = "%d distinct norm values in [1, %d] (box %d); fitted exponent %.4f" % (
        count, L, box, exponent,
    )
    plot = None if len(rows) < 2 else lambda: PlotSpec(
        points=tuple((math.log10(r[0]), math.log10(r[1])) for r in rows),
        xlabel="log10 L",
        ylabel="log10 count",
        title="norm-value counting",
    )
    return ["L", "count", "ratio"], rows, [summary], plot


def _cmd_equidistribution(cfg: RunConfig):
    n, samples, L, seed = cfg.n, cfg.samples, cfg.L, cfg.seed
    ys = np.random.default_rng(seed).uniform(0.0, L, size=samples)
    disc = equidistribution_check(make_field(cfg.poly), ys, n)
    rows = [[n, samples, L, seed, disc]]
    summary = "discrepancy %.6g for n=%d over %d samples in [0, %g) (seed %d)" % (
        disc, n, samples, L, seed,
    )
    return ["n", "samples", "L", "seed", "discrepancy"], rows, [summary], None


# the one command table: name -> (handler, {option: default or _REQUIRED}), in
# --help order; a None default leaves the choice to the handler
_COMMANDS = {
    "field-check": (_cmd_field_check, {"poly": _REQUIRED}),
    "symbol-scan": (_cmd_symbol_scan, {"mask": _REQUIRED, "poly": None, "range": _REQUIRED,
                                       "grid_step": _REQUIRED, "tol": 1e-14}),
    "phihat-orbit": (_cmd_phihat_orbit, {"mask": _REQUIRED, "poly": None, "lam": _REQUIRED,
                                         "J_max": _REQUIRED, "j_min": 0, "tol": 1e-12}),
    "bernoulli": (_cmd_bernoulli, {"poly": _REQUIRED, "J_max": 40, "j_min": -40}),
    "lattice-density": (_cmd_lattice_density, {"poly": _REQUIRED, "L": _REQUIRED, "m": 0, "eps": _REQUIRED}),
    "zeros-scan": (_cmd_zeros_scan, {"mask": _REQUIRED, "poly": None, "range": _REQUIRED,
                                     "grid_step": _REQUIRED, "delta": 1e-3, "target": "symbol"}),
    "vanishing-probe": (_cmd_vanishing_probe, {"mask": _REQUIRED, "poly": None, "lam": _REQUIRED,
                                               "J_max": _REQUIRED, "delta": None, "tol": None}),
    "norms-count": (_cmd_norms_count, {"poly": _REQUIRED, "L": _REQUIRED, "box": _REQUIRED}),
    "equidistribution": (_cmd_equidistribution, {"poly": _REQUIRED, "n": 1, "samples": 10000,
                                                 "L": 1000.0, "seed": 0}),
}
# options every command accepts
_COMMON = {"out": None, "svg": False, "threads": 1, "precision_bits": None}


def run(cfg: RunConfig) -> int:
    """Dispatch one command, write its CSV (and SVG when requested), print summary."""
    # the precision holds for this invocation only; precision_bits() refuses one under 64 bits
    token = working_precision.set(working_precision.get() if cfg.precision_bits is None else cfg.precision_bits)
    try:
        header, rows, lines, plot = _COMMANDS[cfg.command][0](cfg)
    finally:
        working_precision.reset(token)
    out = cfg.out if cfg.out is not None else "%s.csv" % cfg.command
    emit_csv(rows, header, out)
    lines.append("wrote %s (%d rows)" % (out, len(rows)))
    if cfg.svg:
        if plot is None:
            raise ValueError("--svg is not available for %s (no plottable series)" % cfg.command)
        svg_path = os.path.splitext(out)[0] + ".svg"
        emit_svg(plot(), svg_path)
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


# RunConfig field -> (flag and config key, converter, help); used for argparse,
# config files and error messages
_OPTIONS = {
    "poly": ("poly", _parse_poly, "low-order coefficients c0,c1,... of the monic dilation polynomial"),
    "mask": ("mask", str, "builtin mask name (boxcar, dyadic, bernoulli, golden_vector) or mask-file path"),
    "range": ("range", _parse_range, "scan interval lo:hi"),
    "grid_step": ("step", float, "grid spacing"),
    "delta": ("delta", float, "near-zero / probe threshold"),
    "tol": ("tol", float, "evaluation tolerance"),
    "J_max": ("jmax", int, "largest orbit exponent J"),
    "j_min": ("jmin", int, "smallest orbit exponent (phihat-orbit) or product cutoff (bernoulli)"),
    "lam": ("lambda", str, "comma-separated rational lambda values"),
    "m": ("m", int, "cylinder shift exponent"),
    "eps": ("eps", _parse_eps, "comma-separated conjugate radii eps_2..eps_d"),
    "L": ("L", float, "window half-length / count limit"),
    "box": ("box", int, "integer box half-width for norm counting"),
    "n": ("n", int, "number of dilation powers checked for equidistribution"),
    "samples": ("samples", int, "number of sample points"),
    "seed": ("seed", int, "RNG seed for sampled subcommands"),
    "threads": ("threads", int,
                "accepted for compatibility; runs are serial and output bytes never depend on it"),
    "precision_bits": ("precision-bits", int, "working precision in bits for this run, at least 64"),
    "target": ("target", str, "zeros-scan target: symbol or phihat"),
    "out": ("out", str, "output CSV path"),
    "svg": ("svg", _parse_bool, "also write a line-chart SVG next to the CSV"),
}

def _build_parser(only: str = None) -> argparse.ArgumentParser:
    # only: add just this command's subparser (the one a parse of its argv enters)
    p = argparse.ArgumentParser(
        prog="pvrefine",
        description="refinable functions with Pisot dilations: batch CSV/SVG reports",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    for cmd, (_, defaults) in _COMMANDS.items():
        if only is not None and cmd != only:
            continue
        sp = sub.add_parser(cmd, help="%s report" % cmd)
        sp.add_argument("--config", default=None, help="key=value options file; explicit flags win")
        for dest, default in {**defaults, **_COMMON}.items():
            key, conv, text = _OPTIONS[dest]
            text += " (required)" if default is _REQUIRED else " (default %s)" % (
                "chosen at run time" if default is None else default)
            if dest == "svg":
                sp.add_argument("--svg", dest="svg", action="store_true", default=None, help=text)
            else:
                sp.add_argument("--%s" % key, dest=dest, type=conv, default=None, help=text)
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


_KEY_TO_DEST = {opt[0]: dest for dest, opt in _OPTIONS.items()}

# flags that take a value; negative-looking values get merged as --flag=value
_VALUE_FLAGS = {"--config"} | {"--%s" % opt[0] for dest, opt in _OPTIONS.items() if dest != "svg"}
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
    argv = list(argv)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(only).parse_args(_merge_negative_values(argv))
    cmd = args.command
    allowed = {**_COMMANDS[cmd][1], **_COMMON}
    if args.config is not None:
        for key, text in _load_config_file(args.config).items():
            dest = _KEY_TO_DEST.get(key)
            if dest is None or dest not in allowed:
                raise ValueError("config option %r not recognized for %s" % (key, cmd))
            if getattr(args, dest, None) is None:
                try:
                    setattr(args, dest, _OPTIONS[dest][1](text))
                except argparse.ArgumentTypeError as e:
                    raise ValueError(str(e))
    return RunConfig(cmd, **{dest: getattr(args, dest) for dest in allowed})


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
