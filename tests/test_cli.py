"""Command surface: argument handling, CSV/SVG emission, exit codes, determinism."""

import csv
import os
import random
import subprocess
import sys

import pytest

import pvrefine as pv
from pvrefine import cli


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# emit_csv


def test_csv_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    cli.emit_csv([], ["a", "b"], p)
    assert p.read_bytes() == b"a,b\r\n"


def test_csv_roundtrip_17_digits(tmp_path):
    p = tmp_path / "row.csv"
    vals = [1.0 / 3.0, 0.44721359549995793, -2.5e-17]
    cli.emit_csv([vals], ["x", "y", "z"], p)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "z"]
    assert [float(s) for s in rows[1]] == vals
    # '.' decimal separator, never locale commas
    assert all("," not in s for s in rows[1])


def test_csv_rectangular_required(tmp_path):
    with pytest.raises(ValueError):
        cli.emit_csv([[1, 2], [3]], ["a", "b"], tmp_path / "bad.csv")


def test_csv_crlf_line_ends(tmp_path):
    p = tmp_path / "crlf.csv"
    cli.emit_csv([[1, 2.5]], ["a", "b"], p)
    data = p.read_bytes()
    assert data.count(b"\r\n") == 2
    assert b"\n" not in data.replace(b"\r\n", b"")


# ---------------------------------------------------------------------------
# emit_svg / PlotSpec


def test_svg_two_point_segment(tmp_path):
    p = tmp_path / "seg.svg"
    cli.emit_svg(cli.PlotSpec(points=((0, 0), (1, 2)), title="seg"), p)
    text = p.read_text()
    assert text.count("<polyline") == 1
    pts = text.split('points="')[1].split('"')[0]
    assert len(pts.split()) == 2
    assert "</svg>" in text


def test_svg_identical_bytes(tmp_path):
    spec = cli.PlotSpec(points=tuple((x / 7.0, x * x) for x in range(50)), xlabel="u", ylabel="v")
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    cli.emit_svg(spec, a)
    cli.emit_svg(spec, b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_needs_two_points(tmp_path):
    with pytest.raises(ValueError):
        cli.emit_svg(cli.PlotSpec(points=((0, 0),)), tmp_path / "one.svg")


def test_plotspec_validation():
    with pytest.raises(ValueError):
        cli.PlotSpec(points=((0, float("nan")), (1, 0)))
    with pytest.raises(ValueError):
        cli.PlotSpec(points=((1, 0), (0, 0)))


# ---------------------------------------------------------------------------
# subcommands end to end (in process)


def test_field_check_golden(tmp_path, capsys):
    out = tmp_path / "fc.csv"
    rc = run_cli("field-check", "--poly", "-1,-1", "--out", str(out))
    assert rc == 0
    assert "PV, degree 2, conjugate modulus 0.6180" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "re", "im", "abs"]
    assert len(rows) == 3
    mods = sorted(float(r[3]) for r in rows[1:])
    assert mods[0] == pytest.approx(0.6180339887498949, abs=1e-12)


# 10^150 and -(10^150 + 2): X^2 - (10^150 + 2) X + 10^150, conjugate 10^150 / alpha = 1 - 10^-150 + ...
HUGE = "%d,%d" % (10**150, -(10**150 + 2))


@pytest.mark.parametrize("poly, verdict", [
    ("1,-1,-1,-1", "not-PV"),  # Salem X^4 - X^3 - X^2 - X + 1: two conjugates on |z| = 1
    ("1,0,0,0", "not-PV"),     # X^4 + 1: every conjugate on |z| = 1
    ("1,-3", "PV"),            # X^2 - 3X + 1 is reciprocal, but 1/alpha is its only conjugate
    ("1,1", "not-PV"),         # X^2 + X + 1, X^2 + 1, X^2 - X + 1: both roots on |z| = 1
    ("1,0", "not-PV"),
    ("1,-1", "not-PV"),
    # not reciprocal: the conjugate 1 - 10^-10 + ... clears the circle once the disks shrink
    ("10000000000,-10000000002", "PV"),
    pytest.param(HUGE, "PV", id="10^150"),
])
def test_field_check_reciprocal_verdict(tmp_path, capsys, poly, verdict):
    assert run_cli("field-check", "--poly", poly, "--out", str(tmp_path / "fc.csv")) == 0
    assert capsys.readouterr().out.startswith(verdict + ", degree")


def test_field_check_reducible_exit_2(tmp_path, capsys):
    # X^2 - 1, and (X - 3)(X^2 + X + 1), whose factor has roots on |z| = 1
    for poly in ("-1,0", "-3,-2,-2"):
        rc = run_cli("field-check", "--poly", poly, "--out", str(tmp_path / "r.csv"))
        assert rc == 2
        assert "error: monic factor" in capsys.readouterr().err


def test_symbol_scan_csv_and_svg(tmp_path):
    out = tmp_path / "scan.csv"
    rc = run_cli("symbol-scan", "--mask", "dyadic", "--range", "0:4", "--step", "0.01",
                 "--svg", "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y", "re", "im", "abs", "truncation_error"]
    assert len(rows) == 402
    assert (tmp_path / "scan.svg").exists()
    # |ahat| stays strictly positive on the scan
    assert min(float(r[3]) for r in rows[1:]) > 0


def test_phihat_orbit_tail(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    rc = run_cli("phihat-orbit", "--mask", "dyadic", "--lambda", "1", "--jmax", "40",
                 "--out", str(out))
    assert rc == 0
    assert "tail value" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 42
    tail = complex(float(rows[-1][1]), float(rows[-1][2]))
    assert abs(tail - (0.025764015799446 + 0.069222179449402j)) < 1e-9


def test_bernoulli_report(tmp_path, capsys):
    out = tmp_path / "b.csv"
    rc = run_cli("bernoulli", "--poly", "-1,-1", "--jmax", "30", "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "re", "im", "abs"]
    assert float(rows[-1][3]) > 1e-3  # golden-mean product stays away from zero


def test_lattice_density_report(tmp_path, capsys):
    out = tmp_path / "ld.csv"
    rc = run_cli("lattice-density", "--poly", "-1,-1", "--m", "0", "--eps", "0.1",
                 "--L", "10000", "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["L", "count", "density", "gamma", "rel_err"]
    assert len(rows) == 4
    rel = [float(r[4]) for r in rows[1:]]
    assert rel[-1] < 0.05
    assert rel[-1] <= rel[0]


def test_zeros_scan_report(tmp_path, capsys):
    out = tmp_path / "z.csv"
    rc = run_cli("zeros-scan", "--mask", "boxcar", "--range", "0:12", "--step", "0.01",
                 "--delta", "0.001", "--target", "phihat", "--out", str(out))
    assert rc == 0
    assert "near-zeros" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "count", "density"]
    assert len(rows) == 11
    # integer zeros of the boxcar transform: about one per unit length
    assert int(rows[-1][1]) == 12


def test_vanishing_probe_report(tmp_path, capsys):
    out = tmp_path / "vp.csv"
    rc = run_cli("vanishing-probe", "--mask", "bernoulli", "--poly", "-1,-1",
                 "--lambda", "1,2", "--jmax", "24", "--out", str(out))
    assert rc == 0
    assert capsys.readouterr().out.count("bounded-away") == 2
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "J", "abs_phihat", "verdict"]
    assert len(rows) == 1 + 2 * 25
    assert {r[3] for r in rows[1:]} == {"bounded-away"}


def test_norms_count_report(tmp_path, capsys):
    out = tmp_path / "nc.csv"
    rc = run_cli("norms-count", "--poly", "-1,-1", "--L", "1000", "--box", "200",
                 "--out", str(out))
    assert rc == 0
    assert "fitted exponent" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["L", "count", "ratio"]
    counts = [int(r[1]) for r in rows[1:]]
    assert counts == sorted(counts)


def test_equidistribution_report(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    rc = run_cli("equidistribution", "--poly", "-1,-1", "--n", "1", "--samples", "4000",
                 "--L", "1000", "--seed", "7", "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "samples", "L", "seed", "discrepancy"]
    assert float(rows[1][4]) < 0.05


def test_mask_file_path(tmp_path):
    mf = tmp_path / "box.mask"
    mf.write_text("dilation-poly = -2\nrank = 1\ncoeffs = 1; 1\ntranslates = 0 ; 1\n")
    out = tmp_path / "mf.csv"
    rc = run_cli("symbol-scan", "--mask", str(mf), "--range", "0:1", "--step", "0.25",
                 "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    # boxcar symbol at 1/2 vanishes
    assert float(rows[3][3]) < 1e-12


# ---------------------------------------------------------------------------
# exit codes and option errors


def test_unknown_flag_rejected(capsys):
    assert run_cli("symbol-scan", "--mask", "dyadic", "--range", "0:1", "--step", "0.5",
                   "--frob") == 2


def test_unknown_command_rejected():
    assert run_cli("frobnicate") == 2


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    text = capsys.readouterr().out
    for cmd in ("field-check", "symbol-scan", "phihat-orbit", "bernoulli", "lattice-density",
                "zeros-scan", "vanishing-probe", "norms-count", "equidistribution"):
        assert cmd in text


def test_missing_option_named_in_message(tmp_path, capsys):
    rc = run_cli("symbol-scan", "--mask", "dyadic", "--step", "0.5",
                 "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    assert "--range" in capsys.readouterr().err
    # L < 1 leaves lattice-density no row to report: one line naming --L, no traceback
    rc = run_cli("lattice-density", "--poly", "-1,-1", "--eps", "0.1", "--L", "0.5",
                 "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "--L" in err and err.count("\n") == 1


def test_unknown_mask_exit_2(tmp_path, capsys):
    rc = run_cli("symbol-scan", "--mask", "sinc", "--range", "0:1", "--step", "0.5",
                 "--out", str(tmp_path / "x.csv"))
    assert rc == 2


def test_oversized_grid_exit_2(tmp_path, capsys):
    # 1e12 points: refused from the forecast, before any array exists
    rc = run_cli("symbol-scan", "--mask", "dyadic", "--range", "0:1e9", "--step", "1e-3",
                 "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "point limit" in err and "Traceback" not in err
    rc = run_cli("zeros-scan", "--mask", "boxcar", "--range", "0:1e9", "--step", "1e-3",
                 "--out", str(tmp_path / "z.csv"))
    assert rc == 2
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "z.csv").exists()
    # 2^40 corner boxes: refused before the equidistribution scan starts; the
    # count is forecast in logs, so n = 10^5 gets the same message, not a huge integer
    for n, count in (("40", "2^40 (about 1e12) corner boxes"), ("100000", "2^100000 (about 1e30102) corner boxes")):
        capsys.readouterr()
        rc = run_cli("equidistribution", "--poly", "-1,-1", "--n", n, "--out", str(tmp_path / "e.csv"))
        assert rc == 2
        assert count in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()
    # orbits of 10^6 to 10^9 points, 3.8e6 exact-trace digits and 10^12 samples:
    # refused from the forecast, before an orbit list, a trace or a sample exists
    for argv, forecast in (
        (("bernoulli", "--poly", "-1,-1", "--jmin", "-1000000000"), "1000000041 orbit points"),
        (("bernoulli", "--poly", "-1,-1", "--jmax", "1000000"), "1000041 orbit points"),
        (("bernoulli", "--poly", "-1,-1", "--jmax", "5000"), "3.76e+06 digits"),
        (("phihat-orbit", "--mask", "boxcar", "--lambda", "1", "--jmax", "3", "--jmin", "-1000000000"),
         "1000000004 orbit points"),
        (("vanishing-probe", "--mask", "boxcar", "--lambda", "1", "--jmax", "1000000000"),
         "1000000001 orbit points"),
        # 10^12 samples: refused before the sample array is drawn
        (("equidistribution", "--poly", "-1,-1", "--samples", "1000000000000"),
         "1000000000000 samples exceed the 1000000-sample limit"),
    ):
        capsys.readouterr()
        rc = run_cli(*argv, "--out", str(tmp_path / "o.csv"))
        assert rc == 2
        assert forecast in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


def test_zeros_scan_grid_past_2_20(tmp_path, capsys):
    # hi = 2^20, but the grid's last point 1.2e6 lies past it, as in the scan itself
    from pvrefine import refinement as rf
    from pvrefine import zero_density as zd

    mask = rf.builtin_mask("boxcar")
    for target, ev in (("phihat", rf.eval_phihat), ("symbol", rf.eval_symbol)):
        rc = run_cli("zeros-scan", "--mask", "boxcar", "--range", "0:1048576", "--step", "400000",
                     "--target", target, "--out", str(tmp_path / "z.csv"))
        assert rc == 0
        z = zd.scan_near_zeros(lambda y: abs(ev(mask, y).value), 2.0**20, 4e5, 1e-3)
        assert "%d near-zeros" % len(z.points) in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (("lattice-density", "--poly", "-1,-1", "--eps", "0.1", "--L", "nan"), "--L"),
    (("lattice-density", "--poly", "-1,-1", "--eps", "nan", "--L", "100"), "--eps"),
    (("symbol-scan", "--mask", "dyadic", "--range", "0:inf", "--step", "0.5"), "--range"),
    (("symbol-scan", "--mask", "dyadic", "--range", "0:1", "--step", "nan"), "--step"),
    (("symbol-scan", "--mask", "dyadic", "--range", "0:1", "--step", "0.5", "--tol", "inf"), "--tol"),
    (("zeros-scan", "--mask", "boxcar", "--range", "0:16", "--step", "0.5", "--delta", "nan"), "--delta"),
])
def test_non_finite_option_exit_2(tmp_path, capsys, argv, flag):
    assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err.strip() == "error: %s must be finite" % flag


def test_numeric_budget_exit_3(tmp_path, capsys):
    rc = run_cli("phihat-orbit", "--mask", "dyadic", "--lambda", "1", "--jmax", "500",
                 "--out", str(tmp_path / "x.csv"))
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    # 64 to 512 bits cannot move the conjugate 1 - 10^-150 off the circle: the cap
    rc = run_cli("field-check", "--poly", HUGE, "--precision-bits", "16", "--out", str(tmp_path / "x.csv"))
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: roots not certified") and err.count("\n") == 1


def test_precision_bits_flag_raises_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("PISOT_PRECISION_BITS", raising=False)
    out = tmp_path / "deep.csv"
    assert run_cli("phihat-orbit", "--mask", "dyadic", "--lambda", "1", "--jmax", "150",
                   "--out", str(out)) == 3
    rc = run_cli("phihat-orbit", "--mask", "dyadic", "--lambda", "1", "--jmax", "150",
                 "--precision-bits", "256", "--out", str(out))
    assert rc == 0
    # the override is scoped to the invocation, not left in the process env
    assert "PISOT_PRECISION_BITS" not in os.environ


def test_precision_flag_scopes_a_context_not_os_environ(tmp_path, monkeypatch):
    monkeypatch.delenv("PISOT_PRECISION_BITS", raising=False)
    seen = []

    def handler(cfg):
        seen.append((pv.precision_bits(), "PISOT_PRECISION_BITS" in os.environ))
        return ["x"], [[1]], [], None

    monkeypatch.setitem(cli._HANDLERS, "field-check", handler)
    assert run_cli("field-check", "--poly", "-1,-1", "--precision-bits", "256",
                   "--out", str(tmp_path / "p.csv")) == 0
    assert seen == [(256, False)]
    assert pv.precision_bits() == 128


# a small valid argv per subcommand, and the values a mutation may give each
# flag: malformed, out of range, or small; grids, L, --n, --samples, --jmax and
# --jmin stay small or hit a size guard, so no case allocates or loops at scale
_FUZZ_BASE = {
    "field-check": ("--poly", "-1,-1"),
    "symbol-scan": ("--mask", "boxcar", "--range", "0:2", "--step", "0.5"),
    "phihat-orbit": ("--mask", "boxcar", "--lambda", "1", "--jmax", "3"),
    "bernoulli": ("--poly", "-1,-1", "--jmax", "3", "--jmin", "-3"),
    "lattice-density": ("--poly", "-1,-1", "--eps", "0.1", "--L", "100"),
    "zeros-scan": ("--mask", "boxcar", "--range", "0:2", "--step", "0.5", "--target", "symbol"),
    "vanishing-probe": ("--mask", "boxcar", "--lambda", "1", "--jmax", "3"),
    "norms-count": ("--poly", "-1,-1", "--L", "100", "--box", "3"),
    "equidistribution": ("--poly", "-1,-1", "--n", "1", "--samples", "20"),
}
_FUZZ_VALUES = {
    "--poly": ("-1,-1", "-1,-1,0", "1,-1,-1,-1", "1,-3", "-1,0", "1,-2", "-2,0", "0,3", "5", "", "a,b",
               ",".join(["-1"] * 9)),
    "--mask": ("boxcar", "dyadic", "golden_vector", "bernoulli", "nope"),
    "--range": ("0:2", "2:0", "0:0", "-1:1", "nan:1", "0:inf", "a:b", "1", "0:1e9"),
    "--step": ("0.5", "0", "-0.5", "nan", "x", "1e-300"),
    "--lambda": ("1", "3/2", "1,2", "0", "-1", "1/0", "x", ""),
    "--jmax": ("-1", "0", "1", "4", "x", "1000000"),
    "--jmin": ("-6", "0", "2", "x", "-1000000000"),
    "--eps": ("0.1", "0", "-0.1", "nan", "0.1,0.1", "x"),
    "--L": ("100", "0.5", "0", "-5", "nan", "inf", "x", "1e3"),
    "--box": ("3", "0", "-1", "x"),
    "--n": ("1", "2", "0", "40", "x"),
    "--samples": ("20", "0", "-1", "x"),
    "--target": ("symbol", "phihat", "x"),
    "--delta": ("1e-3", "0", "-1", "nan"),
    "--tol": ("1e-10", "0", "-1", "1", "inf"),
    "--m": ("0", "-2", "3", "x"),
    "--seed": ("0", "-1", "x"),
    "--threads": ("1", "2", "0", "-1", "x"),
    "--precision-bits": ("64", "0", "-8", "x"),
}


def _mutate(rnd, argv):
    argv = list(argv)
    for _ in range(rnd.randint(1, 3)):
        flags = [i for i, tok in enumerate(argv) if tok in _FUZZ_VALUES and i + 1 < len(argv)]
        kind = rnd.choice("vvvvvdamj")
        if kind == "v" and flags:  # another value for a flag
            i = rnd.choice(flags)
            argv[i + 1] = rnd.choice(_FUZZ_VALUES[argv[i]])
        elif kind == "d" and flags:  # drop a flag and its value
            i = rnd.choice(flags)
            del argv[i:i + 2]
        elif kind == "a":  # add a flag, accepted by the subcommand or not
            flag = rnd.choice(sorted(_FUZZ_VALUES))
            argv[1:1] = [flag, rnd.choice(_FUZZ_VALUES[flag])]
        elif kind == "m" and flags:  # a flag without its value
            del argv[rnd.choice(flags) + 1]
        else:
            argv.insert(rnd.randint(1, len(argv)), rnd.choice(("--bogus", "-x", "extra", "--svg", "--", "-1")))
    return argv


def test_argv_fuzz_exits_0_2_or_3(tmp_path, capsys):
    rnd = random.Random(20161018)
    commands = sorted(_FUZZ_BASE)
    for k in range(198):
        cmd = commands[k % len(commands)]
        argv = _mutate(rnd, (cmd,) + _FUZZ_BASE[cmd]) + ["--out", str(tmp_path / "f.csv")]
        rc = run_cli(*argv)
        err = capsys.readouterr().err
        assert rc in (0, 2, 3), argv
        assert "Traceback" not in err, argv


# ---------------------------------------------------------------------------
# config files


def test_config_file_with_cli_override(tmp_path):
    cfgf = tmp_path / "scan.cfg"
    cfgf.write_text("mask=dyadic\nrange=0:4\nstep=0.02\n")
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert run_cli("symbol-scan", "--config", str(cfgf), "--out", str(out1)) == 0
    assert run_cli("symbol-scan", "--config", str(cfgf), "--step", "0.01", "--out", str(out2)) == 0
    with open(out1, newline="") as fh:
        n1 = len(list(csv.reader(fh)))
    with open(out2, newline="") as fh:
        n2 = len(list(csv.reader(fh)))
    assert n1 == 202  # file value used
    assert n2 == 402  # CLI flag wins


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfgf = tmp_path / "bad.cfg"
    cfgf.write_text("mask=dyadic\nwibble=3\n")
    assert run_cli("symbol-scan", "--config", str(cfgf), "--range", "0:1", "--step", "0.5") == 2
    assert "wibble" in capsys.readouterr().err


def test_config_malformed_line_rejected(tmp_path):
    cfgf = tmp_path / "bad2.cfg"
    cfgf.write_text("mask dyadic\n")
    assert run_cli("symbol-scan", "--config", str(cfgf), "--range", "0:1", "--step", "0.5") == 2


# ---------------------------------------------------------------------------
# determinism


def test_rerun_identical_bytes(tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / ("%s.csv" % tag)
        rc = run_cli("symbol-scan", "--mask", "dyadic", "--range", "0:8", "--step", "0.01",
                     "--svg", "--out", str(out))
        assert rc == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (tmp_path / "r1.svg").read_bytes() == (tmp_path / "r2.svg").read_bytes()


def test_threads_do_not_change_bytes(tmp_path):
    outs = []
    for tag, thr in (("t1", "1"), ("t2", "4")):
        out = tmp_path / ("%s.csv" % tag)
        rc = run_cli("lattice-density", "--poly", "-1,-1", "--m", "0", "--eps", "0.1",
                     "--L", "20000", "--threads", thr, "--out", str(out))
        assert rc == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_console_script_smoke(tmp_path):
    # one subprocess check that the installed entry point dispatches
    r = subprocess.run(
        [sys.executable, "-m", "pvrefine.cli", "field-check", "--poly", "-1,-1",
         "--out", str(tmp_path / "fc.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0
    assert "PV, degree 2" in r.stdout
