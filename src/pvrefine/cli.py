"""Batch command surface: deterministic CSV/SVG artifacts for every operation.

Nine subcommands cover field certification, symbol scans, dilation orbits,
Bernoulli products, lattice densities, near-zero scans, vanishing probes,
norm-value counts, and equidistribution estimates.  Each is declared once, in
the `_COMMANDS` table: its handler and, per option, a default or `_REQUIRED`.
Each option is one `RunConfig` field, which holds its flag, converter, help and
range rule for argv, --config, --help and the checks alike.  RunConfig fills the
defaults and refuses a missing required option from the command table, and
`pvrefine <command> --help` prints them.  Output is reproducible byte for byte: CSV is RFC-4180 style (CRLF line ends, '.' decimal point,
17 significant digits) and SVG is assembled by plain string formatting, so
identical configs give identical files.  --threads is accepted and validated
for compatibility; every subcommand runs serially.

argv is the command, then `--flag VALUE`, `--flag=VALUE` or the bare `--svg`,
each flag matched by exact name; a value may start with '-' unless it is a
flag, and a repeated flag keeps its last value.  Options may also come from a
flat key=value config file (--config), where '#' starts a comment; explicit
flags win.  --precision-bits sets the working precision for the run, 128 bits
by default, from 64 to 16,384.

Exit status: 0 success, 2 validation or usage error, 3 numeric error, each
error reported as one `error: ...` line on stderr.
"""

from __future__ import annotations

import bisect
import csv
import math
import os
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain

import numpy as np

from .algebraic_core import fe_rational, make_field, parse_poly, read_key_values, working_precision
from .errors import NonconvergenceError, PrecisionError, PvrefineError, SizeError
from .refinement import (
    RefinementMask,
    bernoulli_orbit,
    builtin_mask,
    eval_symbol_grid,
    mask_from_file,
    phihat_grid,
    phihat_orbit,
)
from .solenoid import LatticeCylinder, enumerate_Y, equidistribution_check, gamma_density
from .zero_density import check_grid_points, count_norm_values, density_estimate, scan_near_zeros, vanishing_probe

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


def _parse_range(s: str) -> tuple:
    lo, hi = s.split(":")
    return float(lo), float(hi)


def _parse_eps(s: str) -> tuple:
    return tuple(float(tok.strip()) for tok in s.split(","))


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _parse_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in _TRUE:
        return True
    if t in _FALSE:
        return False
    raise ValueError(s)


# option range rules: (test, complaint) checks in order; a count compares ints, so a
# 400-digit --jmax reaches the size guards instead of overflowing a float
_FINITE = ((lambda v: all(math.isfinite(x) for x in np.atleast_1d(v)), "must be finite"),)
_POSITIVE = _FINITE + ((lambda v: v > 0, "must be positive"),)
_COUNT = ((lambda v: v >= 1, "must be a positive integer"),)


def _option(flag: str, conv, text: str, rule=()):
    """A RunConfig option field, None until RunConfig fills it; its flag (also the
    config key), converter, help and range rule serve argv, --config and --help."""
    return field(default=None, metadata={"option": (flag, conv, text, rule)})


@dataclass
class RunConfig:
    """One invocation: the command and its options, each option declared by its
    field (`_option`).  A field left None takes its default from `_COMMANDS` or
    `_COMMON`, or raises ValueError if required."""

    command: str
    poly: tuple = _option("poly", parse_poly, "low-order coefficients c0,c1,... of the monic dilation polynomial")
    mask: str = _option("mask", str, "builtin mask name (boxcar, dyadic, bernoulli, golden_vector) or mask-file path")
    range: tuple = _option("range", _parse_range, "scan interval lo:hi", _FINITE)
    grid_step: float = _option("step", float, "grid spacing", _POSITIVE)
    delta: float = _option("delta", float, "near-zero / probe threshold", _POSITIVE)
    tol: float = _option("tol", float, "evaluation tolerance", _POSITIVE)
    J_max: int = _option("jmax", int, "largest orbit exponent J", _COUNT)
    j_min: int = _option("jmin", int, "smallest orbit exponent (phihat-orbit) or product cutoff (bernoulli)")
    lam: str = _option("lambda", str, "comma-separated rational lambda values")
    m: int = _option("m", int, "cylinder shift exponent")
    eps: tuple = _option("eps", _parse_eps, "comma-separated conjugate radii eps_2..eps_d", _FINITE)
    L: float = _option("L", float, "window half-length / count limit", _POSITIVE)
    box: int = _option("box", int, "integer box half-width for norm counting", _COUNT)
    n: int = _option("n", int, "number of dilation powers checked for equidistribution", _COUNT)
    samples: int = _option("samples", int, "number of sample points", _COUNT)
    seed: int = _option("seed", int, "RNG seed for sampled subcommands")
    threads: int = _option("threads", int,
                           "accepted for compatibility; runs are serial and output bytes never depend on it", _COUNT)
    precision_bits: int = _option("precision-bits", int, "working precision in bits for this run, 64 to 16384")
    target: str = _option("target", str, "zeros-scan target: symbol or phihat")
    out: str = _option("out", str, "output CSV path")
    svg: bool = _option("svg", _parse_bool, "also write a line-chart SVG next to the CSV")

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError("unknown command %r" % (self.command,))
        for name, (flag, _, _, rule) in _OPTIONS.items():
            v = getattr(self, name)
            for test, complaint in rule:
                if v is not None and not test(v):
                    raise ValueError("--%s %s" % (flag, complaint))
        if self.samples is not None and self.samples > MAX_SAMPLES:
            raise SizeError("equidistribution: %d samples exceed the %d-sample limit" % (self.samples, MAX_SAMPLES))
        for name, default in {**_COMMANDS[self.command][1], **_COMMON}.items():
            if getattr(self, name) is None:
                if default is _REQUIRED:
                    raise ValueError("--%s is required for %s" % (_OPTIONS[name][0], self.command))
                setattr(self, name, default)


# RunConfig field -> (flag and config key, converter, help, rule)
_OPTIONS = {f.name: f.metadata["option"] for f in fields(RunConfig) if f.metadata}


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
    ev = eval_symbol_grid if target == "symbol" else phihat_grid
    z = scan_near_zeros(lambda ys: _magnitudes(ev(mask, ys)[0]), hi, step, delta)
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


# every flag -> what it sets: a RunConfig field, "config" or "help"
_FLAGS = {"-h": "help", "--help": "help", "--config": "config",
          **{"--" + opt[0]: dest for dest, opt in _OPTIONS.items()}}


def _convert(dest: str, text: str):
    key, conv = _OPTIONS[dest][:2]
    try:
        return conv(text)
    except ValueError:
        raise ValueError("--%s: invalid value %r" % (key, text)) from None


class _Help(Exception):
    """-h/--help: build_config raises it with the help text, which main prints."""


def _help(cmd: str = None) -> str:
    if cmd is None:
        return ("usage: pvrefine <command> [--option VALUE ...]\n\n"
                "refinable functions with Pisot dilations: batch CSV/SVG reports\n\n"
                "commands: %s\n'pvrefine <command> --help' lists a command's options" % ", ".join(_COMMANDS))
    rows = [("-h, --help", "print this help and exit"),
            ("--config PATH", "key=value options file; explicit flags win")]
    for dest, default in {**_COMMANDS[cmd][1], **_COMMON}.items():
        key, _, text, _ = _OPTIONS[dest]
        tag = "(required)" if default is _REQUIRED else "(default %s)" % (
            "chosen at run time" if default is None else default)
        rows.append(("--" + key + ("" if dest == "svg" else " " + key.upper()), "%s %s" % (text, tag)))
    return "\n".join(["usage: pvrefine %s [--option VALUE ...]" % cmd, "", "options:"]
                     + ["  %-32s %s" % r for r in rows])


def build_config(argv) -> RunConfig:
    """RunConfig of argv, parsed by the grammar of the module docstring.

    Raises ValueError on a usage error and _Help on -h or --help."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] in (["-h"], ["--help"]):
        raise _Help(_help())
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError("%s; the commands are %s" % (
            "unknown command %r" % argv[0] if argv else "no command given", ", ".join(_COMMANDS)))
    cmd = argv[0]
    allowed = {**_COMMANDS[cmd][1], **_COMMON}
    given = {}
    i = 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        dest = _FLAGS.get(flag)
        if dest == "help" and not eq:
            raise _Help(_help(cmd))
        if dest != "config" and dest not in allowed:
            raise ValueError("unrecognized argument %r for %s" % (argv[i], cmd))
        i += 1
        if dest == "svg":
            if eq:
                raise ValueError("--svg takes no value")
            given[dest] = True
            continue
        if not eq:
            if i == len(argv) or argv[i].partition("=")[0] in _FLAGS:
                raise ValueError("%s needs a value" % flag)
            value = argv[i]
            i += 1
        given[dest] = value if dest == "config" else _convert(dest, value)
    path = given.pop("config", None)
    if path is not None:
        for key, text in read_key_values(path).items():
            dest = _FLAGS.get("--" + key)
            if dest not in allowed:
                raise ValueError("config option %r not recognized for %s" % (key, cmd))
            if dest not in given:
                given[dest] = _convert(dest, text)
    return RunConfig(cmd, **given)


def main(argv=None) -> int:
    try:
        return run(build_config(argv))
    except _Help as e:
        print(e)
        return 0
    except _NUMERIC_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, PvrefineError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
