"""Workload generators and output checks for the pvrefine benchmark.

A workload turns a seed into a list of `Command`s: the argv a `pvrefine`
user would type, plus the check its output must pass.  The seed only picks
from small pools (scan bounds, +-2 % jitter on L with eps rescaled so the
point count stays put, rational lambdas, PV polynomials of each degree), so
the cost and peak memory of one pass stay about the same across seeds.

Every check takes the text of the command's CSV and its stdout and returns
None when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import random
from dataclasses import dataclass, field

import mpmath as mp

WORKLOADS = ("grid", "lattice", "exact")

GOLDEN = "-1,-1"
PLASTIC = "-1,-1,0"
TRIBONACCI = "-1,-1,-1"
PENTANACCI = "-1,-1,-1,-1,-1"
SALEM = "1,-1,-1,-1"  # X^4 - X^3 - X^2 - X + 1: a Salem number, never PV

# certified PV polynomials (low-order coefficients first), by degree
PV_POOL = {
    2: ("-1,-1", "-1,-2", "1,-3"),
    3: ("-1,-1,0", "-1,-1,-1", "-1,1,-2"),
    4: ("-1,-1,-1,-1", "-1,0,0,-1", "-1,0,0,-2", "-1,-1,-1,-2"),
    5: ("-1,-1,-1,-1,-1", "-1,0,-1,-1,-1", "-1,-1,0,-1,-1"),
    6: ("-1,-1,-1,-1,-1,-1", "-1,0,0,0,0,-2"),
}

# peak RSS of lattice-density grows with L itself, not only with the point count
JITTER = (0.98, 0.99, 1.0, 1.01, 1.02)


@dataclass(frozen=True)
class Command:
    """One pvrefine invocation: a label unique in its workload, argv, check."""

    label: str
    argv: tuple
    check: str = "rows"
    params: dict = field(default_factory=dict, compare=False)


def _num(x: float) -> str:
    return "%.6g" % x


def _grid(rng: random.Random):
    hi_phihat = rng.choice((10.0, 10.1, 10.2, 10.3, 10.4))
    hi_boxcar = rng.choice((10.25, 10.5, 10.75, 11.25, 11.5))
    hi_symbol = rng.choice((31.0, 31.5, 32.0, 32.5, 33.0))
    hi_scan = rng.choice((62.5, 63.25, 64.0, 64.75, 65.5))
    svg_mask = rng.choice(("golden_vector", "dyadic", "boxcar"))
    zs = ("zeros-scan", "--step", "0.01", "--delta", "1e-3")
    cmds = [
        Command("dyadic-phihat-zeros", ("zeros-scan", "--step", "0.04", "--delta", "1e-3", "--mask", "dyadic",
                                        "--range", "0:%s" % _num(hi_phihat), "--target", "phihat")),
        Command("boxcar-phihat-zeros", zs + ("--mask", "boxcar", "--range", "0:%s" % _num(hi_boxcar),
                                             "--target", "phihat"),
                "zeros_count", {"hi": hi_boxcar, "target": "phihat"}),
        Command("dyadic-symbol-zeros", zs + ("--mask", "dyadic", "--range", "0:%s" % _num(hi_symbol),
                                             "--target", "symbol")),
    ]
    for mask in ("golden_vector", "dyadic", "boxcar"):
        argv = ("symbol-scan", "--mask", mask, "--range", "0:%s" % _num(hi_scan), "--step", "0.01")
        if mask == svg_mask:
            argv += ("--svg",)
        cmds.append(Command("%s-symbol-scan" % mask, argv, "boxcar_symbol" if mask == "boxcar" else "rows"))
    return cmds


def _cylinder(poly: str, degree: int, L: float, eps: float, u: float):
    # scale L by u and every eps by u^(-1/(d-1)): the expected point count
    # 2 L gamma, with gamma proportional to eps^(d-1), does not move
    e = _num(eps * u ** (-1.0 / (degree - 1)))
    return ("lattice-density", "--poly", poly, "--L", _num(L * u), "--eps", ",".join([e] * (degree - 1)))


def _lattice(rng: random.Random):
    golden = _cylinder(GOLDEN, 2, 2e5, 0.1, rng.choice(JITTER))
    return [
        Command("golden-density-t1", golden + ("--threads", "1"), "rel_err"),
        Command("golden-density-t2", golden + ("--threads", "2"), "rel_err", {"same_as": "golden-density-t1"}),
        Command("plastic-density", _cylinder(PLASTIC, 3, 2.5e4, 0.3, rng.choice(JITTER)), "rel_err"),
        Command("tribonacci-density", _cylinder(TRIBONACCI, 3, 2.5e4, 0.3, rng.choice(JITTER)), "rel_err"),
        Command("plastic-equidistribution", ("equidistribution", "--poly", PLASTIC, "--n", "3",
                                             "--samples", "2500", "--seed", str(rng.randrange(10**6))),
                "discrepancy"),
        Command("golden-equidistribution", ("equidistribution", "--poly", GOLDEN, "--n", "1",
                                            "--samples", "100000", "--seed", str(rng.randrange(10**6))),
                "discrepancy"),
    ]


def _exact(rng: random.Random):
    cmds = []
    for d in sorted(PV_POOL):
        poly = rng.choice(PV_POOL[d])
        cmds.append(Command("field-check-d%d" % d, ("field-check", "--poly", poly), "verdict", {"pv": True}))
    cmds.append(Command("field-check-salem", ("field-check", "--poly", SALEM), "verdict", {"pv": False}))
    for name, poly in (("golden", GOLDEN), ("tribonacci", TRIBONACCI), ("quintic", PENTANACCI)):
        L = rng.choice((5000, 10000, 20000))
        cmds.append(Command("%s-norms" % name, ("norms-count", "--poly", poly, "--L", str(L), "--box", "200")))
    jmin = rng.choice((-42, -40, -38))
    cmds.append(Command("tribonacci-bernoulli", ("bernoulli", "--poly", TRIBONACCI, "--jmax", "40",
                                                 "--jmin", str(jmin), "--precision-bits", "256"),
                        "bernoulli", {"poly": TRIBONACCI, "jmin": jmin}))
    cmds.append(Command("pentanacci-bernoulli", ("bernoulli", "--poly", PENTANACCI, "--jmax", "30",
                                                 "--jmin", str(jmin)),
                        "bernoulli", {"poly": PENTANACCI, "jmin": jmin}))
    lam = rng.choice(("1", "3/2", "5/4", "7/4"))
    cmds.append(Command("dyadic-orbit", ("phihat-orbit", "--mask", "dyadic", "--lambda", lam,
                                         "--jmax", "150", "--precision-bits", "256")))
    lams = rng.choice(("1,2", "1,3", "2,3"))
    cmds.append(Command("cubic-probe", ("vanishing-probe", "--mask", "bernoulli", "--poly", PLASTIC,
                                        "--lambda", lams, "--jmax", "40")))
    lo = 2**21 + rng.choice((0, 64, 128, 192, 256))
    cmds.append(Command("golden_vector-mp-scan", ("symbol-scan", "--mask", "golden_vector",
                                                  "--range", "%d:%d" % (lo, lo + 50), "--step", "0.01")))
    return cmds


def generate(workload: str, seed: int):
    """The workload's commands for this seed; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (want one of %s)" % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (workload, seed))
    return {"grid": _grid, "lattice": _lattice, "exact": _exact}[workload](rng)


# ---------------------------------------------------------------------------
# output checks


def _rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("CSV has no data rows")
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:]]


def check_rows(text, stdout, params):
    _rows(text)
    return None


def check_boxcar_symbol(text, stdout, params):
    # boxcar: ahat(y) = (1 + e^{-2 pi i y}) / 2, so |ahat(y)| = |cos pi y|
    worst = max(abs(float(r["abs"]) - abs(math.cos(math.pi * float(r["y"])))) for r in _rows(text))
    if not worst <= 1e-12:
        return "boxcar |ahat| departs from |cos pi y| by %.3g" % worst
    return None


def check_zeros_count(text, stdout, params):
    # boxcar phihat vanishes at the nonzero integers, its symbol at the half-integers
    hi = params["hi"]
    want = math.floor(hi) if params["target"] == "phihat" else math.floor(hi + 0.5)
    last = _rows(text)[-1]
    if float(last["t"]) != hi or int(last["count"]) != want:
        return "count at t=%s is %s, want %d" % (last["t"], last["count"], want)
    return None


def check_rel_err(text, stdout, params):
    last = _rows(text)[-1]
    if not float(last["rel_err"]) < 1e-3:
        return "lattice-density rel_err %s at t=%s" % (last["rel_err"], last["L"])
    return None


def check_discrepancy(text, stdout, params):
    disc = float(_rows(text)[-1]["discrepancy"])
    if not 0.0 < disc < 0.1:
        return "discrepancy %.3g out of (0, 0.1)" % disc
    return None


def check_verdict(text, stdout, params):
    _rows(text)
    verdict = stdout.split(",", 1)[0].strip()
    if params["pv"] and verdict != "PV":
        return "PV polynomial reported %r" % verdict
    if not params["pv"] and verdict not in ("not-PV", "indeterminate"):
        return "Salem polynomial reported %r" % verdict
    return None


@functools.lru_cache(maxsize=None)
def _direct_bernoulli(poly: str, jmin: int, jmax: int):
    """|prod_{jmin <= j < J} cos(pi alpha^j)| for J = 0..jmax, straight from mpmath."""
    coeffs = [int(c) for c in poly.split(",")]
    with mp.workprec(512):
        roots = mp.polyroots([1] + coeffs[::-1], maxsteps=200, extraprec=512)
        alpha = max(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -50)
        prod = mp.mpf(1)
        for j in range(jmin, 0):
            prod *= mp.cos(mp.pi * alpha**j)
        out = []
        for J in range(jmax + 1):
            out.append(float(abs(prod)))
            prod *= mp.cos(mp.pi * alpha**J)
    return tuple(out)


def check_bernoulli(text, stdout, params):
    rows = _rows(text)
    direct = _direct_bernoulli(params["poly"], params["jmin"], len(rows) - 1)
    worst = 0.0
    for r, want in zip(rows, direct):
        worst = max(worst, abs(float(r["abs"]) - want))
    if not worst <= 1e-12:
        return "bernoulli |phihat| departs from the direct product by %.3g" % worst
    return None


CHECKS = {
    "rows": check_rows,
    "boxcar_symbol": check_boxcar_symbol,
    "zeros_count": check_zeros_count,
    "rel_err": check_rel_err,
    "discrepancy": check_discrepancy,
    "verdict": check_verdict,
    "bernoulli": check_bernoulli,
}


def check(cmd: Command, text: str, stdout: str):
    """None if the command's output passes its check, else the reason."""
    try:
        return CHECKS[cmd.check](text, stdout, cmd.params)
    except (ValueError, KeyError, IndexError) as e:
        return "unreadable output: %s" % e
