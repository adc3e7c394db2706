"""Batch command surface: deterministic CSV/SVG artifacts for every operation.

Nine subcommands cover field certification, symbol scans, dilation orbits,
Bernoulli products, lattice densities, near-zero scans, vanishing probes,
norm-value counts, and equidistribution estimates.  Each is declared once, in
the `_COMMANDS` table: its handler and, per option, a default or `_REQUIRED`.
Each option is one `RunConfig` field, which holds its flag, converter, help and
range rule for argv, --config, --help and the checks alike.  RunConfig fills the
defaults and refuses a missing required option from the command table, and
`pvrefine <command> --help` prints them.

Each handler returns its table as columns, and its plot is built from them.
Output is reproducible byte for byte: `emit_csv` formats each column once and
writes the rows in one %-format pass, RFC-4180 style (CRLF line ends, '.'
decimal point, 17 significant digits, text quoted where csv.writer would quote
it), and SVG is assembled by plain string formatting, so identical configs give
identical files.  --threads is accepted and validated for compatibility; every
subcommand runs serially.

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


@dataclass(frozen=True, eq=False)
class PlotSpec:
    """Single series of finite (x, y) points, sorted by x, with labels.  points is
    given as pairs or an (n, 2) array and kept as a read-only (n, 2) float array,
    so two specs compare by identity."""

    points: np.ndarray
    xlabel: str = "x"
    ylabel: str = "y"
    title: str = ""

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.size and pts.shape[1:] != (2,):
            raise ValueError("plot points must be (x, y) pairs")
        pts = pts.reshape(-1, 2)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if not np.isfinite(pts).all():
            raise ValueError("plot points must be finite")
        if (pts[1:, 0] < pts[:-1, 0]).any():
            raise ValueError("plot points must be sorted by x")


# ---------------------------------------------------------------------------
# emitters


def _cell(v, blank: str = "") -> str:
    # the text csv.writer writes for v: a float's 17 digits, else str, in double quotes
    # with each " doubled if it holds , " \r or \n, and `blank` if empty
    if v is None:
        return blank
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    s = str(v)
    if not s:
        return blank
    if "," in s or '"' in s or "\r" in s or "\n" in s:
        return '"%s"' % s.replace('"', '""')
    return s


_FLOATS = {float, np.float64}
_BLOCK_ROWS = 4096


def emit_csv(cols, header, path) -> None:
    """RFC-4180-style CSV of a table given as columns, one per header name: CRLF,
    '.' decimal separator, 17 significant digits; the bytes csv.writer writes.

    Each column is formatted once (%.17g for floats, empty if all None, else its
    `_cell` text), then the rows are written by one %-format per block of `_BLOCK_ROWS`.
    A float column of one nonzero, non-NaN value is written once, as a literal of the
    row format; 0.0 and NaN are excluded since -0.0 == 0.0 and nan != nan.  Text is
    quoted as csv.writer quotes it: a cell holding , " \\r or \\n, and an empty cell of
    a one-column table.  ValueError unless the columns match the header and are all
    of one length.
    """
    header = list(header)
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in cols]
    n = len(cols[0]) if cols else 0
    if len(cols) != len(header) or any(len(c) != n for c in cols):
        raise ValueError("want %d columns of one length, got lengths %s" % (len(header), [len(c) for c in cols]))
    blank = '""' if len(header) == 1 else ""
    slots, args = [], []
    for col in cols:
        kinds = set(map(type, col))
        if kinds <= _FLOATS and n and col[0] and col[0] == col[0] and col.count(col[0]) == n:
            slots.append("%.17g" % col[0])  # no '%' in a float's text
        elif kinds <= _FLOATS:
            slots.append("%.17g")
            args.append(col)
        elif kinds == {type(None)}:
            slots.append(blank)
        else:
            slots.append("%s")
            args.append([_cell(v, blank) for v in col])
    fmt = ",".join(slots) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_cell(h, blank) for h in header) + "\r\n")
        for i in range(0, n, _BLOCK_ROWS):
            k = min(_BLOCK_ROWS, n - i)
            fh.write((fmt * k) % tuple(chain.from_iterable(zip(*(c[i:i + k] for c in args)))))


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
    xs, ys = plot.points.T
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    iw = _SVG_W - _SVG_ML - _SVG_MR
    ih = _SVG_H - _SVG_MT - _SVG_MB

    # for a float or an array, in the same IEEE operations either way
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
    pts = " ".join(["%.3f,%.3f"] * len(xs)) % tuple(np.column_stack((px(xs), py(ys))).ravel().tolist())
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


def _grid(lo: float, hi: float, step: float):
    if hi <= lo:
        raise ValueError("--range needs lo < hi")
    check_grid_points((hi - lo) / step + 1)
    k = int(math.floor((hi - lo) / step + 1e-9))
    return lo + step * np.arange(k + 1)


# ---------------------------------------------------------------------------
# subcommand handlers; each reads a resolved RunConfig and returns
# (header, columns, summary lines, plot), where plot is None or a zero-argument
# callable giving the PlotSpec from the columns, called only under --svg


def _cmd_field_check(cfg: RunConfig):
    f = make_field(cfg.poly)
    mods = sorted(abs(r) for r in f.roots)
    conj = mods[-2] if len(mods) > 1 else 0.0
    cols = [range(f.degree), [r.real for r in f.roots], [r.imag for r in f.roots], [abs(r) for r in f.roots]]
    summary = "%s, degree %d, conjugate modulus %.4f" % (f.pv_status, f.degree, conj)
    return ["k", "re", "im", "abs"], cols, [summary], None


def _cmd_symbol_scan(cfg: RunConfig):
    mask = _mask_of(cfg)
    (lo, hi), step = cfg.range, cfg.grid_step
    ys = _grid(lo, hi, step)
    vals, tail = eval_symbol_grid(mask, ys, cfg.tol)
    if mask.rank == 1:
        # abs of each complex, not the vectorized np.abs: the two can differ in the last bit,
        # and the CSV, the minimum and the plot all take these
        re, im, mags = vals.real, vals.imag, [abs(z) for z in vals.tolist()]
    else:
        re = im = [None] * len(ys)
        mags = _magnitudes(vals).tolist()
    i = int(np.argmin(mags))
    summary = "min |ahat| = %.6g at y = %.6g over [%g, %g] step %g (%d points)" % (
        mags[i], ys[i], lo, hi, step, len(ys),
    )
    plot = lambda: PlotSpec(
        points=np.column_stack((ys, mags)),
        xlabel="y",
        ylabel="|ahat(y)|",
        title="Fourier symbol modulus: %s" % mask.name,
    )
    return ["y", "re", "im", "abs", "truncation_error"], [ys, re, im, mags, [tail] * len(ys)], [summary], plot


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
    js = range(jmin, jmax + 1)
    orbit = phihat_orbit(mask, lams[0], js, cfg.tol)
    vals = [sv.value for _, sv in orbit]
    errs = [float(sv.truncation_error) for _, sv in orbit]
    if mask.rank == 1:
        re, im, mags = [z.real for z in vals], [z.imag for z in vals], [abs(z) for z in vals]
        summary = "tail value %.6g%+.6gi (modulus %.6g) at J=%d" % (re[-1], im[-1], mags[-1], jmax)
    else:
        re = im = [None] * len(vals)
        mags = _magnitudes(vals).tolist()
        summary = "tail smallest singular value %.6g at J=%d" % (mags[-1], jmax)
    plot = lambda: PlotSpec(
        points=np.column_stack((js, mags)),
        xlabel="J",
        ylabel="|phihat(lambda alpha^J)|",
        title="dilation orbit: %s, lambda=%g" % (mask.name, float(lams[0])),
    )
    return ["j", "re", "im", "abs", "truncation_error"], [js, re, im, mags, errs], [summary], plot


def _cmd_bernoulli(cfg: RunConfig):
    values, bound = bernoulli_orbit(make_field(cfg.poly), cfg.J_max, cfg.j_min)
    js, mags = range(len(values)), [abs(z) for z in values]
    summary = "|phihat| tail %.6g at J=%d (cutoff j_min=%d, dropped-factor bound %.3g)" % (
        mags[-1], cfg.J_max, cfg.j_min, bound)
    plot = lambda: PlotSpec(
        points=np.column_stack((js, mags)),
        xlabel="J",
        ylabel="|phihat(alpha^J)|",
        title="Bernoulli convolution orbit",
    )
    return ["j", "re", "im", "abs"], [js, [z.real for z in values], [z.imag for z in values], mags], [summary], plot


def _cmd_lattice_density(cfg: RunConfig):
    L = cfg.L
    if L < 1:
        raise ValueError("--L must be >= 1 for lattice-density (it reports the counts at L/100, L/10, L >= 1)")
    f = make_field(cfg.poly)
    cyl = LatticeCylinder(L, cfg.m, cfg.eps)
    gamma = gamma_density(f, cyl)
    ys = enumerate_Y(f, cyl)
    ts = [t for t in (L / 100.0, L / 10.0, L) if t >= 1.0]
    cnts = [int(np.searchsorted(ys, t, "right") - np.searchsorted(ys, -t, "left")) for t in ts]
    dens = [cnt / (2.0 * t) for t, cnt in zip(ts, cnts)]
    errs = [abs(d - gamma) / gamma for d in dens]
    summary = "card Y(%g) = %d, density %.6g vs gamma %.6g (rel err %.3g)" % (
        L, cnts[-1], dens[-1], gamma, errs[-1],
    )
    plot = None if len(ts) < 2 else lambda: PlotSpec(
        points=np.column_stack(([math.log10(t) for t in ts], errs)),
        xlabel="log10 L",
        ylabel="relative error",
        title="lattice density vs gamma",
    )
    return ["L", "count", "density", "gamma", "rel_err"], [ts, cnts, dens, [gamma] * len(ts), errs], [summary], plot


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
    ts = [k * hi / 10.0 for k in range(1, 11)]
    cnts = [int(np.searchsorted(pos, t, side="right")) if pos.size else 0 for t in ts]
    dens = [cnt / t for t, cnt in zip(ts, cnts)]
    summary = "%d near-zeros of |%s| below delta=%g on [0, %g]; density in [%.6g, %.6g]" % (
        len(z.points), target, delta, hi, lo_d, hi_d,
    )
    plot = lambda: PlotSpec(
        points=np.column_stack((ts, dens)),
        xlabel="t",
        ylabel="count / t",
        title="near-zero density: %s" % mask.name,
    )
    return ["t", "count", "density"], [ts, cnts, dens], [summary], plot


def _cmd_vanishing_probe(cfg: RunConfig):
    mask = _mask_of(cfg)
    lams = [fe_rational(mask.field, q) for q in _lambdas(cfg)]
    records = vanishing_probe(mask, lams, cfg.J_max, cfg.delta, cfg.tol)
    cols, lines = [[], [], [], []], []
    for rec in records:
        k = len(rec.values)
        cols[0] += [rec.lam_value] * k
        cols[1] += range(k)
        cols[2] += rec.values
        cols[3] += [rec.verdict] * k
        lines.append(
            "lambda=%.6g: %s (tail level %.3g, slope %.3g)"
            % (rec.lam_value, rec.verdict, rec.tail_mean, rec.slope)
        )
    r0 = records[0]
    plot = lambda: PlotSpec(
        points=np.column_stack((range(len(r0.values)), r0.values)),
        xlabel="J",
        ylabel="|phihat(lambda alpha^J)|",
        title="vanishing probe: %s, lambda=%g" % (mask.name, r0.lam_value),
    )
    return ["lambda", "J", "abs_phihat", "verdict"], cols, lines, plot


def _cmd_norms_count(cfg: RunConfig):
    L, box = int(cfg.L), cfg.box
    count, exponent, pts = count_norm_values(make_field(cfg.poly), L, box, checkpoints=True)
    ts, cnts = [t for t, _ in pts], [cnt for _, cnt in pts]
    ratios = [cnt / prev if prev else float("nan") for prev, cnt in zip([None] + cnts, cnts)]
    summary = "%d distinct norm values in [1, %d] (box %d); fitted exponent %.4f" % (
        count, L, box, exponent,
    )
    plot = None if len(ts) < 2 else lambda: PlotSpec(
        points=[(math.log10(t), math.log10(cnt)) for t, cnt in zip(ts, cnts)],
        xlabel="log10 L",
        ylabel="log10 count",
        title="norm-value counting",
    )
    return ["L", "count", "ratio"], [ts, cnts, ratios], [summary], plot


def _cmd_equidistribution(cfg: RunConfig):
    n, samples, L, seed = cfg.n, cfg.samples, cfg.L, cfg.seed
    ys = np.random.default_rng(seed).uniform(0.0, L, size=samples)
    disc = equidistribution_check(make_field(cfg.poly), ys, n)
    summary = "discrepancy %.6g for n=%d over %d samples in [0, %g) (seed %d)" % (
        disc, n, samples, L, seed,
    )
    return ["n", "samples", "L", "seed", "discrepancy"], [[n], [samples], [L], [seed], [disc]], [summary], None


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
        header, cols, lines, plot = _COMMANDS[cfg.command][0](cfg)
    finally:
        working_precision.reset(token)
    out = cfg.out if cfg.out is not None else "%s.csv" % cfg.command
    emit_csv(cols, header, out)
    lines.append("wrote %s (%d rows)" % (out, len(cols[0])))
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
