"""Command surface: argument handling, CSV/SVG emission, exit codes, determinism."""

import csv
import dataclasses
import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import pvrefine as pv
from pvrefine import cli


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# emit_csv


def test_csv_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    cli.emit_csv([[], []], ["a", "b"], p)
    assert p.read_bytes() == b"a,b\r\n"


def test_csv_roundtrip_17_digits(tmp_path):
    p = tmp_path / "row.csv"
    vals = [1.0 / 3.0, 0.44721359549995793, -2.5e-17]
    cli.emit_csv([[v] for v in vals], ["x", "y", "z"], p)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "z"]
    assert [float(s) for s in rows[1]] == vals
    # '.' decimal separator, never locale commas
    assert all("," not in s for s in rows[1])


def test_csv_rectangular_required(tmp_path):
    with pytest.raises(ValueError):
        cli.emit_csv([[1, 3], [2]], ["a", "b"], tmp_path / "bad.csv")


@pytest.mark.parametrize("cols", [[[1.0], [2.0], [3.0]], [[1.0, 2.0]], []])
def test_csv_one_column_per_header_name(tmp_path, cols):
    with pytest.raises(ValueError):
        cli.emit_csv(cols, ["a", "b"], tmp_path / "bad.csv")


def test_csv_crlf_line_ends(tmp_path):
    p = tmp_path / "crlf.csv"
    cli.emit_csv([[1], [2.5]], ["a", "b"], p)
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


def test_plotspec_pairs_and_array_give_the_same_svg(tmp_path):
    # a tuple of pairs and an (n, 2) array are one spec: read-only points, identical bytes
    ys = np.linspace(-3.0, 64.0, 6701)
    pairs = tuple(zip(ys.tolist(), np.cos(ys).tolist()))
    specs = (cli.PlotSpec(points=pairs, title="t"), cli.PlotSpec(points=np.column_stack((ys, np.cos(ys))), title="t"))
    for k, spec in enumerate(specs):
        assert spec.points.shape == (6701, 2) and not spec.points.flags.writeable
        cli.emit_svg(spec, tmp_path / ("%d.svg" % k))
    assert (tmp_path / "0.svg").read_bytes() == (tmp_path / "1.svg").read_bytes()
    # the polyline is the per-point text of the scalar formulas
    x0, x1, y0, y1 = -3.0, 64.0, min(p[1] for p in pairs), max(p[1] for p in pairs)
    want = " ".join("%.3f,%.3f" % (72.0 + (x - x0) / (x1 - x0) * 704.0, 444.0 - (y - y0) / (y1 - y0) * 404.0)
                    for x, y in pairs)
    assert 'points="%s"' % want in (tmp_path / "0.svg").read_text()
    for bad in (np.array([[0.0, 1.0], [1.0, np.nan]]), np.array([[1.0, 0.0], [0.0, 0.0]]),
                np.array([[0.0, 1.0, 2.0]]), ((0.0, np.inf), (1.0, 0.0))):
        with pytest.raises(ValueError, match="finite|sorted|pairs"):
            cli.PlotSpec(points=bad)


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


def test_symbol_scan_minimum_and_plot_read_the_csv_abs():
    # the dyadic scan where the vectorized np.abs and abs(z) differ in the last bit
    # (y = 0.01): the minimum and the plotted series are the CSV's own abs values
    cfg = cli.build_config(["symbol-scan", "--mask", "dyadic", "--range", "0:64", "--step", "0.01"])
    _, (ys, re, im, mags, _), summary, plot = cli._cmd_symbol_scan(cfg)
    assert mags[1] == 0.99974935969516388 and mags[1] == abs(complex(re[1], im[1]))
    assert [p[1] for p in plot().points] == mags
    i = mags.index(min(mags))
    assert summary[0].startswith("min |ahat| = %.6g at y = %.6g" % (mags[i], ys[i]))


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


def test_bernoulli_refuses_a_cutoff_above_its_factors(tmp_path, capsys):
    # --jmin 5 would drop the factors j = 0..4 and print |phihat| = 1: one line, exit 2
    rc = run_cli("bernoulli", "--poly", "-1,-1", "--jmax", "3", "--jmin", "5", "--out", str(tmp_path / "b.csv"))
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert err.startswith("error: the factors below j_min = 5 can move the product by up to 375")
    assert not (tmp_path / "b.csv").exists()
    assert run_cli("bernoulli", "--poly", "-1,-1", "--jmax", "3", "--out", str(tmp_path / "b.csv")) == 0
    assert "(cutoff j_min=-40, dropped-factor bound 5.82e-17)" in capsys.readouterr().out


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


def test_lattice_density_large_alpha(tmp_path, capsys):
    # X^2 - (10^10 + 2) X + 10^10: alpha ~ 10^10 and beta ~ 1 - 10^-10.  At m = 1,
    # |sigma_2| < 0.3 forces n_0 = 0 and y = n_1 alpha / (alpha - beta), so
    # |y| < 300 holds for n_1 = -299..299 exactly
    argv = ("lattice-density", "--poly", "10000000000,-10000000002", "--eps", "0.3", "--L", "300")
    rc = run_cli(*argv, "--m", "1", "--out", str(tmp_path / "m1.csv"))
    assert rc == 0
    assert "card Y(300) = 599," in capsys.readouterr().out
    # at m = 0, gamma = sqrt(10^20 + 4) * 0.6: refused from the forecast
    rc = run_cli(*argv, "--m", "0", "--out", str(tmp_path / "m0.csv"))
    assert rc == 2
    assert "2 L gamma = 3.6e+12" in capsys.readouterr().err
    assert not (tmp_path / "m0.csv").exists()


def test_lattice_density_large_m_exit_2(tmp_path, capsys):
    # alpha^(i - m) and |c_0|^(-m) leave float64 near |m| = 1,500 (golden) and
    # 1,024 (|c_0| = 2); at |m| = 200 the integer coordinates n_i lie past int64 and
    # must not wrap.  Each is a one-line refusal before any row exists
    for poly, m, message in (
        ("-1,-1", "2000", "overflows float64 at m = 2000"),
        ("-1,-1", "-2000", "overflows float64 at m = -2000"),
        ("-1,-1", "200", "coordinates up to 6.27e+40 pass int64 at m = 200"),
        ("-1,-1", "-200", "coordinates up to 1.02e+44 pass int64 at m = -200"),
        ("-2,-2", "-1100", "2 L gamma = inf"),
    ):
        capsys.readouterr()
        rc = run_cli("lattice-density", "--poly", poly, "--eps", "0.1", "--L", "100", "--m", m,
                     "--out", str(tmp_path / "o.csv"))
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()


def test_lattice_density_extreme_radii_refused(tmp_path, capsys):
    # eps^2 past float64 makes gamma infinite; eps 1e-300 against L 1e5 leaves rows too far
    # apart for the exact reduction, or for the precision the working roots certify; at
    # eps 1e-40 the reduction still resolves the lattice, whose one point is 0
    for poly, eps, L, rc_want, message in (
        ("-1,-1,0", "1e250,1e250", "1", 2, "2 L gamma = inf exceeds 1e7"),
        ("-1,-1,-1", "1e-300,1e-300", "1e5", 2, "the radii are too far apart to reduce the lattice exactly"),
        ("-1,-1", "1e-300", "1e5", 3, "the basis at m = 0 needs 567 bits; raise --precision-bits"),
    ):
        capsys.readouterr()
        rc = run_cli("lattice-density", "--poly", poly, "--eps", eps, "--L", L, "--out", str(tmp_path / "o.csv"))
        err = capsys.readouterr().err
        assert rc == rc_want
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()
    rc = run_cli("lattice-density", "--poly", "-1,-1", "--eps", "1e-40", "--L", "1000", "--out", str(tmp_path / "o.csv"))
    assert rc == 0 and "card Y(1000) = 1," in capsys.readouterr().out


def test_lattice_refusal_count_stays_short(tmp_path, capsys):
    # the coordinates reach about 3.83e291: three digits, not 292
    rc = run_cli("lattice-density", "--poly", "-1,-1", "--eps", "0.1", "--L", "100", "--m", "1400",
                 "--out", str(tmp_path / "o.csv"))
    err = capsys.readouterr().err
    assert rc == 2
    assert "coordinates up to 3.83e+291 pass int64 at m = 1400" in err and len(err) < 100


def test_lattice_density_degree_5(tmp_path, capsys):
    # X^5 - X^4 - X^3 - X^2 - X - 1 at L = 300: the pruned levels hold 144,913 / 46,163 /
    # 3,719 / 287 / 19 nodes, the last one exactly the points
    rc = run_cli("lattice-density", "--poly", "-1,-1,-1,-1,-1", "--eps", "0.5,0.5,0.5,0.5", "--L", "300",
                 "--out", str(tmp_path / "d5.csv"))
    assert rc == 0
    assert "card Y(300) = 144913, density 241.522 vs gamma 241.553" in capsys.readouterr().out


# sha256 of lattice-density's CSV and SVG, taken before the enumerator was streamed
# in blocks; every later enumerator must reproduce them byte for byte
LATTICE_BYTES = (
    (("-1,-1", "0.1", "200000", "0"),
     "bce676242e7cc4cb5ee9035c3c34c326e775ed2f6b27eda3972ff9d2870c8e43",
     "8d924854a5893a7603287a1486f7b20c25bcd4a7591a8e7214da4623bf23e0ab"),
    (("-1,-1,0", "0.301511,0.301511", "24750", "0"),
     "e064ec2e65a6daccfd69a6823640583ae81cfbf94921e364fa67fe0e33d3173f",
     "7b34a2405a4f029b07b4fb730b22cad5974c567a6fede48e5e6f66839a3c8946"),
    (("-1,-1,-1", "0.298511,0.298511", "25250", "0"),
     "898ddc0c4b63e2a1938f7f856dc95b214000dd1ec438cfa7924047bcc127b684",
     "3493ea381bb258e4cf23896e2599df705be6ab48d8f67462bc6277bb5eb1942a"),
    (("-1,-1", "0.1", "100", "-20"),
     "ba2d76a034ed800457ac3383cf0aad3d67597f3b56e594f68b98d52818b4a5c0",
     "72363120b354af443543598615fb8ec89209b09e3921872a5d0af5181447f742"),
    (("-1,-1", "0.9", "4.23606797749979", "0"),  # one row: no SVG
     "60dcc3eb69bf55304c3c541be7248f480e7c571f6871310abb9f92559bc24543", None),
    (("-1,0,0,-1", "0.4,0.4,0.4", "500", "2"),
     "da6acc2f75ae1b10137bf8be8c1b54e157f9964459169bb90e34dfcee854d641",
     "6c1057233e2e31e0b1a8730b194af036c83eb2b27c72a4b02f755da108ee4087"),
)


@pytest.mark.parametrize("cfg, csv_sha, svg_sha", LATTICE_BYTES, ids=lambda v: ":".join(v) if isinstance(v, tuple) else "")
def test_lattice_density_bytes_pinned(tmp_path, cfg, csv_sha, svg_sha):
    poly, eps, L, m = cfg
    out = tmp_path / "ld.csv"
    svg = ("--svg",) if svg_sha else ()
    rc = run_cli("lattice-density", "--poly", poly, "--eps", eps, "--L", L, "--m", m, "--out", str(out), *svg)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    if svg_sha:
        assert hashlib.sha256((tmp_path / "ld.svg").read_bytes()).hexdigest() == svg_sha


def test_lattice_density_bytes_at_64_bits(tmp_path):
    # the precision floor still gives the default bytes on a pinned config
    (poly, eps, L, m), csv_sha, svg_sha = LATTICE_BYTES[0]
    out = tmp_path / "ld.csv"
    rc = run_cli("lattice-density", "--poly", poly, "--eps", eps, "--L", L, "--m", m, "--precision-bits", "64",
                 "--out", str(out), "--svg")
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "ld.svg").read_bytes()).hexdigest() == svg_sha


# sha256 of the CSV of commands that take the extended-precision paths (exact traces,
# mpf orbits, phases reduced past 2^20), taken before the precision guards were merged
EXTENDED_BYTES = (
    (("bernoulli", "--poly", "-1,-1,-1", "--jmax", "40", "--jmin", "-40", "--precision-bits", "256"),
     "28f47b0c5d7c9728f189a10c957428c02f73b47372d88c447c411c0465b96b36"),
    (("bernoulli", "--poly", "-1,-1,-1,-1,-1", "--jmax", "30", "--jmin", "-40"),
     "c06cea80648c6a05c28af329d82a3060802599af5fdfefb0a26a6b6a24ced544"),
    (("phihat-orbit", "--mask", "dyadic", "--lambda", "3/2", "--jmax", "150", "--precision-bits", "256"),
     "01d99cf37253941ddda82b5ba86d193fd305c3451a8a68703f3b1f197b92b29b"),
    # |phihat| as phihat-orbit takes it, Python's abs of each complex (15 of 82 values moved
    # in the last bit from the 2-norm of a one-entry vector, 2f6d72e2...52639)
    (("vanishing-probe", "--mask", "bernoulli", "--poly", "-1,-1,0", "--lambda", "1,2", "--jmax", "40"),
     "33d44f894a6aeeff1ff3731d3908b02ca6aad6750aab40053f93ecf36ec27a16"),
    (("symbol-scan", "--mask", "golden_vector", "--range", "2097152:2097202", "--step", "0.01"),
     "ed874a35096797ed13afd02e4fe3d9bf122726d6ef16c7e88f3d4d712ec65215"),
    # phases of negative arguments past 2^20, and of an mpf orbit at 320 bits
    pytest.param(("symbol-scan", "--mask", "dyadic", "--range=-1048676:-1048576", "--step", "0.37"),
                 "00dfe195a2fa807cfebd7a23ede534376816dbb20f0084e88fff9a99beaaf15a", id="symbol-scan-negative"),
    pytest.param(("phihat-orbit", "--mask", "dyadic", "--lambda", "-7/4", "--jmax", "150", "--precision-bits", "320"),
                 "b0e930c36ee11f1182daa98b3605fa4da766beb18de5fdbd6440a328412e9aa5", id="phihat-orbit-320-bit"),
    # phases of products far past 2^53, where rounding the product before its fraction would show
    pytest.param(("symbol-scan", "--mask", "dyadic", "--range", "1e12:1.00000001e12", "--step", "3.7"),
                 "cbe95f6fbc5ee574113bd0465fd230aa9cb79f2ff42283ff68d6b2b2a991c7a7", id="symbol-scan-1e12"),
    pytest.param(("symbol-scan", "--mask", "golden_vector", "--range", "3e20:3.0000000000001e20", "--step", "1e5",
                  "--precision-bits", "256"),
                 "160ae99731f3661a398152662944d8e0c5a8cf30ae3fd35497e51c18b8936c19", id="symbol-scan-3e20-256-bit"),
)
# the certified roots, rounded to doubles: the benchmark's PV pool (degrees 2-6), a Salem
# number, degree 8, and alpha near 10^10 with a conjugate near 1
EXTENDED_BYTES += tuple(pytest.param(("field-check", "--poly", poly), sha, id="field-check:" + poly) for poly, sha in (
    ("-1,-1", "bccf9d4d6fca9b06001a652e29e8b2600ad0c091b5b0002c80fcb9d33082c418"),
    ("-1,-2", "a5c4a1e676496958f8c1a362a55db556fd10eb0b9a73ffdbca7dabf7168f2ea7"),
    ("1,-3", "49bb64cda90d9ca82ac23ef19d41a6d13fb78e996981c2582148a7e1d4aa791b"),
    ("-1,-1,0", "11b0393a05be5e912fc391204a7d51fe639a7c25cdb051d7fcf8a59ec4c07e14"),
    ("-1,-1,-1", "3a002bced1958c3f3b078e13768bbefd89d1aca0eedcd77ffc482d58bdb7b899"),
    ("-1,1,-2", "1ce3ce3604d183d7268bf37fac19fd8de9b5edfde98dea9d0c2050cd348cc6fa"),
    ("-1,-1,-1,-1", "d5535f8172eba239bb5b0bf9edaaa63ed8604e991bf2d4213fbc0eb51a6b4d11"),
    ("-1,0,0,-1", "4ab1ff857e55e704d57b214eabaca275ee99bc01ebf103bc34ed911e8dad7163"),
    ("-1,0,0,-2", "6d4eb40bd7a10bf060c13999106e3c05ced9d5c3294cc192bc72958b42e6bb32"),
    ("-1,-1,-1,-2", "8b7a005384b815450655090bdd2d1305982557525e272f9b75bd2d80a0bc2b5f"),
    ("-1,-1,-1,-1,-1", "eb54b6277c22ba033b0e300afcb0077c1eeae8cfb637a79ffe332c0e629c39df"),
    ("-1,0,-1,-1,-1", "b52787121031ad1d7bdac0ea2218e516c3657fdcffa16d1e1452da21862373ce"),
    ("-1,-1,0,-1,-1", "cb33363a2bb46a96c48311882ec003f11d381b98c6d9c3e16035e25d790adf60"),
    ("-1,-1,-1,-1,-1,-1", "1d7af7f9820a3ebea5dfe4515b0592bd5dec01ed226b5123a7878bd0ead0b422"),
    ("-1,0,0,0,0,-2", "867ac117910380222581789ea7efc0e0e9194cd4c937f2bc74d514b05c7d6732"),
    ("1,-1,-1,-1", "08f5ff3f25cb15cd85350924a9f529371747a40cb7d1ffe0da65fa625c0a22a9"),
    ("-1,-1,-1,-1,-1,-1,-1,-1", "59bae18004625aa66015c27041e1cf9f2fe71bb242d178772f5ad960ce076bef"),
    ("10000000000,-10000000002", "ce89f304c5548a23442d7915758622d7729d3d2e0d269b06d2b5f7d7a2248b21"),
))


@pytest.mark.parametrize("argv, csv_sha", EXTENDED_BYTES, ids=lambda v: v[0] if isinstance(v, tuple) else "")
def test_extended_precision_bytes_pinned(tmp_path, argv, csv_sha):
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha


@pytest.mark.parametrize("mask, lam, jmax", [
    (("--mask", "bernoulli", "--poly", "-1,-1,0"), "2", "40"),
    (("--mask", "golden_vector"), "1", "40"),
    (("--mask", "dyadic"), "1e300", "2"),
], ids=["bernoulli", "golden_vector", "dyadic-1e300"])
def test_probe_magnitudes_are_the_orbit_moduli(tmp_path, mask, lam, jmax):
    # both commands take |phihat| from one helper, which squares no entry: at lambda = 1e300
    # the dyadic values lie near 2e-210, below what a squared modulus keeps
    cols = {}
    for cmd, col in (("vanishing-probe", "abs_phihat"), ("phihat-orbit", "abs")):
        out = tmp_path / (cmd + ".csv")
        assert run_cli(cmd, *mask, "--lambda", lam, "--jmax", jmax, "--tol", "1e-12", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            cols[cmd] = [row[col] for row in csv.DictReader(fh)]
    assert cols["vanishing-probe"] == cols["phihat-orbit"]
    assert all(float(v) > 0 for v in cols["vanishing-probe"])


# sha256 of the CSV and SVG of the benchmark's grid commands (symbol scans at
# 6,401 points, near-zero scans of the symbol and of phihat), taken before
# emit_csv formatted whole columns
GRID_BYTES = (
    (("symbol-scan", "--mask", "dyadic", "--range", "0:64", "--step", "0.01"),
     "4104605c31923c7f6179f165d571d53163ca6856cd5eb345446a6fd8200c3363",
     "2a3dc9e7c7ae3e45d77a654cd33e3cd996de99bb40c6193a135cb04fdceef8b8"),
    (("symbol-scan", "--mask", "boxcar", "--range", "0:64", "--step", "0.01"),
     "48cd32441b1a3ed7ce3b5026197f2561aa825a62f0c9de53a77e9fa4e268da18",
     "23fb96cb4ec88429346a2232eb54157f47aada5680706252d8069409f1582a91"),
    (("symbol-scan", "--mask", "golden_vector", "--range", "0:64", "--step", "0.01"),
     "b1589eb35b48b036c2e6e003f060a430b89f6588065b82e387f6d65432b4d991",
     "bfd1d8b083ecacc3f923fa1352e9b9365f5914a763f3d765f70e39eec1076e17"),
    (("zeros-scan", "--mask", "dyadic", "--range", "0:10", "--step", "0.04", "--delta", "1e-3", "--target", "phihat"),
     "f4edb415cd19f71c86d782c694172807ca310521556cbfd75be6897d3ba8af17",
     "35344cf99fc2443e0c07a9c9516c92d9e8d1351ed96207749789bb99cd9c5b87"),
    (("zeros-scan", "--mask", "boxcar", "--range", "0:10.5", "--step", "0.01", "--delta", "1e-3",
      "--target", "phihat"),
     "96a15b7d4523bef7632b21aa7c21a5a6d5b4e071be490b427a5d4603c7b99447",
     "ae720ebfb85daf2d9123b04bc18039746f31f7ac6892f2e9ebab4957e69eb5ce"),
    (("zeros-scan", "--mask", "dyadic", "--range", "0:32", "--step", "0.01", "--delta", "1e-3", "--target", "symbol"),
     "c27f51d43857e78fbf865ec6d2385f06ff0c9c765166bb50186271d207cb6e04",
     "3e4b5ccaadf7ac18fa544d142c2c6398e4d5fdb70d9cd723195901906d2ad9a1"),
)


@pytest.mark.parametrize("argv, csv_sha, svg_sha", GRID_BYTES,
                         ids=[":".join((a[0], a[2]) + a[-1:] * (a[0] == "zeros-scan")) for a, _, _ in GRID_BYTES])
def test_grid_bytes_pinned(tmp_path, argv, csv_sha, svg_sha):
    out = tmp_path / "g.csv"
    assert run_cli(*argv, "--out", str(out), "--svg") == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "g.svg").read_bytes()).hexdigest() == svg_sha


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
    # checkpoints past 2^64 are fitted as floats
    rc = run_cli("norms-count", "--poly", "-1,-1", "--L", "1e30", "--box", "20", "--out", str(out))
    assert rc == 0
    assert "114 distinct norm values" in capsys.readouterr().out


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


def test_unknown_command_rejected(capsys):
    # no command, an unknown one, or a flag in its place: one line naming the nine
    for argv, named in (((), "no command given"), (("frobnicate",), "unknown command 'frobnicate'"),
                        (("--poly", "-1,-1"), "unknown command '--poly'")):
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: %s; the commands are %s\n" % (named, ", ".join(cli._COMMANDS))


# argv appended to a valid command line, and the one error line each gives
_USAGE_ERRORS = [
    (["--frob"], "unrecognized argument '--frob' for {cmd}"),
    (["--threads", "two"], "--threads: invalid value 'two'"),
    (["--svg=1"], "--svg takes no value"),
    (["--out"], "--out needs a value"),
    (["--out", "--svg"], "--out needs a value"),
    (["--", "extra"], "unrecognized argument '--' for {cmd}"),
    (["--jm", "3"], "unrecognized argument '--jm' for {cmd}"),
]


@pytest.mark.parametrize("cmd", list(cli._COMMANDS))
def test_usage_error_is_one_line(tmp_path, monkeypatch, capsys, cmd):
    monkeypatch.chdir(tmp_path)
    argv = [cmd, *_FUZZ_BASE[cmd]]
    # flags match by exact name: a unique prefix of the command's first flag is no flag
    prefix = argv[1][:-1]
    cases = _USAGE_ERRORS + [([prefix, argv[2]], "unrecognized argument %r for {cmd}" % prefix)]
    for extra, message in cases:
        assert run_cli(*argv, *extra) == 2, extra
        assert capsys.readouterr() == ("", "error: %s\n" % message.format(cmd=cmd)), extra
    assert list(tmp_path.iterdir()) == []


def test_flag_values_may_start_with_a_dash_and_the_last_repeat_wins():
    cfg = cli.build_config(["bernoulli", "--poly", "-1,-1", "--jmin", "-7"])
    assert cfg == cli.build_config(["bernoulli", "--poly=-1,-1", "--jmin=-7"])
    assert (cfg.poly, cfg.j_min) == ((-1, -1), -7)
    cfg = cli.build_config(["bernoulli", "--poly", "1,-3", "--jmax", "5", "--poly", "-1,-1", "--jmax=6"])
    assert (cfg.poly, cfg.J_max) == ((-1, -1), 6)


def test_parse_and_help_import_no_argparse():
    # argparse imports gettext, whose lookups import locale, on every command
    code = ("import sys; from pvrefine import cli; cli.build_config(['field-check', '--poly', '-1,-1']); "
            "cli.main(['field-check', '--help']); print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                       env=dict(os.environ, PYTHONPATH=src))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"


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
    # 100,001 points under the grid limit, 100,000 of them past 2^20 (hours of phihat
    # products): refused from the count before any is evaluated
    capsys.readouterr()
    rc = run_cli("zeros-scan", "--mask", "dyadic", "--range", "0:1e15", "--step", "1e10", "--target", "phihat",
                 "--out", str(tmp_path / "z.csv"))
    assert rc == 2
    assert capsys.readouterr().err == ("error: phihat_grid: 100000 points past 2^20 exceed the 100-point limit "
                                       "of the extended-precision path\n")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "z.csv").exists()
    # 2^40 corner boxes: refused before the equidistribution scan starts; the
    # count is forecast in logs, so n = 10^5 gets the same message, not a huge integer
    for n, count in (("40", "2^40 (about 1e12) corner boxes"), ("100000", "2^100000 (about 1e30102) corner boxes")):
        capsys.readouterr()
        rc = run_cli("equidistribution", "--poly", "-1,-1", "--n", n, "--out", str(tmp_path / "e.csv"))
        assert rc == 2
        assert count in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()
    # orbits of 10^6 to 10^9 points and 10^12 samples: refused from the forecast,
    # before an orbit list or a sample exists
    for argv, forecast in (
        (("bernoulli", "--poly", "-1,-1", "--jmin", "-1000000000"), "1000000041 orbit points"),
        (("bernoulli", "--poly", "-1,-1", "--jmax", "1000000"), "1000041 orbit points"),
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
    # degree 8, 2 L gamma = 8.4e5: no pruned level holds over 2.2e6 nodes, and the
    # count meets the forecast
    capsys.readouterr()
    rc = run_cli("lattice-density", "--poly", "-1,-1,-1,-1,-1,-1,-1,-1", "--eps", "0.3,0.3,0.3,0.3,0.3,0.3,0.3",
                 "--L", "300", "--out", str(tmp_path / "o.csv"))
    assert rc == 0
    assert "card Y(300) = 842337, density 1403.89 vs gamma 1403.76 (rel err 9.39e-05)" in capsys.readouterr().out


def test_bernoulli_long_orbit_runs(tmp_path):
    # the traces run mod 2, so J = 5000 needs no 3.76e6-digit integers; its first 41
    # rows are those of the default J = 40 run
    rows = []
    for jmax in ("5000", "40"):
        out = tmp_path / ("b%s.csv" % jmax)
        assert run_cli("bernoulli", "--poly", "-1,-1", "--jmax", jmax, "--out", str(out)) == 0
        rows.append(out.read_bytes().split(b"\r\n"))
    assert len(rows[0]) == 5003 and rows[0][:42] == rows[1][:42]


def test_zeros_scan_grid_past_2_20(tmp_path, capsys):
    # hi = 2^20, but the grid's last point 1.2e6 lies past it, as in the scan itself
    from pvrefine import refinement as rf
    from pvrefine import zero_density as zd

    mask = rf.builtin_mask("boxcar")
    for target, kernel in (("phihat", rf.phihat_grid), ("symbol", rf.eval_symbol_grid)):
        rc = run_cli("zeros-scan", "--mask", "boxcar", "--range", "0:1048576", "--step", "400000",
                     "--target", target, "--out", str(tmp_path / "z.csv"))
        assert rc == 0
        z = zd.scan_near_zeros(lambda ys: kernel(mask, ys)[0], 2.0**20, 4e5, 1e-3)
        assert "%d near-zeros" % len(z.points) in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (("lattice-density", "--poly", "-1,-1", "--eps", "0.1", "--L", "nan"), "--L"),
    (("lattice-density", "--poly", "-1,-1", "--eps", "nan", "--L", "100"), "--eps"),
    (("symbol-scan", "--mask", "dyadic", "--range", "0:inf", "--step", "0.5"), "--range"),
    (("symbol-scan", "--mask", "dyadic", "--range", "0:1", "--step", "nan"), "--step"),
    (("symbol-scan", "--mask", "dyadic", "--range", "0:1", "--step", "0.5", "--tol", "inf"), "--tol"),
    (("zeros-scan", "--mask", "boxcar", "--range", "0:16", "--step", "0.5", "--delta", "nan"), "--delta"),
    # exact rationals, but past the largest float
    (("phihat-orbit", "--mask", "dyadic", "--lambda", "1e400", "--jmax", "3"), "--lambda"),
    (("vanishing-probe", "--mask", "bernoulli", "--poly", "-1,-1", "--lambda", "1e400", "--jmax", "3"), "--lambda"),
])
def test_non_finite_option_exit_2(tmp_path, capsys, argv, flag):
    assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err.strip() == "error: %s must be finite" % flag


def test_numeric_budget_exit_3(tmp_path, capsys):
    # the orbit phases past 2^20 come from exact traces, so no budget stands on
    # |lam alpha^J|: J = 500 and 5000 (where 2^J overflows a float) run
    for jmax in ("500", "5000"):
        rc = run_cli("phihat-orbit", "--mask", "dyadic", "--lambda", "1", "--jmax", jmax,
                     "--out", str(tmp_path / "x.csv"))
        assert rc == 0
        assert "tail value 0.025764+0.0692222i" in capsys.readouterr().out
    # 256 to 2048 bits cannot move the conjugate 1 - 10^-700 off the circle: the cap
    rc = run_cli("field-check", "--poly", "%d,%d" % (10**700, -(10**700 + 2)), "--precision-bits", "64",
                 "--out", str(tmp_path / "x.csv"))
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: roots not certified") and "by 2048 bits" in err and err.count("\n") == 1
    # lambda = 10^300 puts the golden orbit's conjugate part past what root radii at the
    # 1e-290 floor certify, so no precision reaches it, and the message says so
    rc = run_cli("phihat-orbit", "--mask", "golden_vector", "--lambda", "1e300", "--jmax", "2",
                 "--precision-bits", "4096", "--out", str(tmp_path / "x.csv"))
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: conjugate part of mu alpha^n at n=-1436 = 2^1994 overflows the 951-bit budget, leaving under 32 "
        "fractional bits; no --precision-bits reaches this orbit, as the root radii stop at 1e-290\n")


@pytest.mark.parametrize("argv", [
    # 32 bits counted 89,445 points where 53 to 128 bits count 89,443
    ("lattice-density", "--poly", "-1,-1", "--eps", "0.1", "--L", "1e5", "--precision-bits", "32"),
    # 1 bit certified a conjugate modulus of 0.6250 (it is 0.6180)
    ("field-check", "--poly", "-1,-1", "--precision-bits", "1"),
])
def test_precision_floor_exit_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
    err = capsys.readouterr().err
    assert "under the 64-bit floor; raise --precision-bits" in err and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    # 10^8 and 10^7 bits did not finish in two minutes; at 16,384 bits these take seconds
    ("field-check", "--poly", "-1,-1", "--precision-bits", "100000000"),
    ("bernoulli", "--poly", "-1,-1", "--precision-bits", "10000000"),
])
def test_precision_ceiling_exit_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == ("error: working precision %s is over the 16384-bit ceiling; "
                                       "lower --precision-bits\n" % argv[-1])
    assert not (tmp_path / "x.csv").exists()


def test_precision_bits_flag_raises_budget(tmp_path):
    out = tmp_path / "deep.csv"
    # the exact orbit phases need no raised precision: 128 bits give the pinned 256-bit bytes
    assert run_cli("phihat-orbit", "--mask", "dyadic", "--lambda", "3/2", "--jmax", "150",
                   "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXTENDED_BYTES[2][1]
    # a scan point near 10^30 still needs the flag, and it holds for one invocation
    scan = ("symbol-scan", "--mask", "bernoulli", "--poly", "-1,-1", "--range", "1e30:1.0000000000001e30",
            "--step", "1e16", "--out", str(out))
    assert run_cli(*scan) == 3
    assert run_cli(*scan, "--precision-bits", "256") == 0
    assert pv.precision_bits() == 128


def test_precision_flag_scopes_a_context_not_os_environ(tmp_path, monkeypatch):
    seen = []

    def handler(cfg):
        seen.append(pv.precision_bits())
        return ["x"], [[1]], [], None

    monkeypatch.setitem(cli._COMMANDS, "field-check", (handler, cli._COMMANDS["field-check"][1]))
    assert run_cli("field-check", "--poly", "-1,-1", "--precision-bits", "256",
                   "--out", str(tmp_path / "p.csv")) == 0
    assert seen == [256]
    assert pv.precision_bits() == 128


# a small valid argv per subcommand, and the values a mutation may give each
# flag: malformed, out of range, small or 400 digits long; grids, L, --n,
# --samples, --jmax and --jmin stay small or hit a size guard, so no case
# allocates or loops at scale
_HUGE = "9" * 400
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
    "--jmax": ("-1", "0", "1", "4", "x", "1000000", _HUGE),
    "--jmin": ("-6", "0", "2", "x", "-1000000000", "-" + _HUGE),
    "--eps": ("0.1", "0", "-0.1", "nan", "0.1,0.1", "x"),
    "--L": ("100", "0.5", "0", "-5", "nan", "inf", "x", "1e3"),
    "--box": ("3", "0", "-1", "x", _HUGE),
    "--n": ("1", "2", "0", "40", "x", _HUGE),
    "--samples": ("20", "0", "-1", "x", _HUGE),
    "--target": ("symbol", "phihat", "x"),
    "--delta": ("1e-3", "0", "-1", "nan"),
    "--tol": ("1e-10", "0", "-1", "1", "inf"),
    "--m": ("0", "-2", "3", "x", _HUGE),
    "--seed": ("0", "-1", "x", _HUGE),
    "--threads": ("1", "2", "0", "-1", "x", _HUGE),
    "--precision-bits": ("64", "0", "-8", "x", "100000000", _HUGE),
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
        # every refusal is one line: no usage text, no traceback, no warning
        assert rc == 0 or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")), argv


_REQUIRED_FLAGS = [(cmd, dest) for cmd, (_, defaults) in cli._COMMANDS.items()
                   for dest, default in defaults.items() if default is cli._REQUIRED]


@pytest.mark.parametrize("cmd,dest", _REQUIRED_FLAGS, ids=["%s-%s" % p for p in _REQUIRED_FLAGS])
def test_each_required_flag_named_when_missing(tmp_path, capsys, cmd, dest):
    flag = "--" + cli._OPTIONS[dest][0]
    argv = list(_FUZZ_BASE[cmd])
    i = argv.index(flag)
    del argv[i:i + 2]
    assert run_cli(cmd, *argv, "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == "error: %s is required for %s\n" % (flag, cmd)
    assert not (tmp_path / "x.csv").exists()


# each range rule, the values it refuses and the complaint
_RULE_CASES = {
    cli._FINITE: (("nan", "must be finite"),),
    cli._POSITIVE: (("nan", "must be finite"), ("0", "must be positive"), ("-1", "must be positive")),
    cli._COUNT: (("0", "must be a positive integer"), ("-1", "must be a positive integer")),
}
_RULED = [dest for dest, opt in cli._OPTIONS.items() if opt[3]]


@pytest.mark.parametrize("dest", _RULED)
def test_option_rule_same_message_from_argv_config_and_runconfig(tmp_path, capsys, dest):
    flag, conv, _, rule = cli._OPTIONS[dest]
    cmd = "field-check" if dest in cli._COMMON else next(c for c, (_, d) in cli._COMMANDS.items() if dest in d)
    base = list(_FUZZ_BASE[cmd])
    valid = cli.build_config([cmd, *base])
    # explicit flags win over the config file, so it gets an argv without the flag
    rest = list(base)
    if "--" + flag in rest:
        i = rest.index("--" + flag)
        del rest[i:i + 2]
    for value, complaint in _RULE_CASES[rule]:
        text = "0:" + value if dest == "range" else value
        want = "--%s %s" % (flag, complaint)
        out = str(tmp_path / "x.csv")
        assert run_cli(cmd, *base, "--" + flag, text, "--out", out) == 2
        assert capsys.readouterr().err == "error: %s\n" % want, (dest, value)
        cfgf = tmp_path / "rule.cfg"
        cfgf.write_text("%s = %s  # %s\n" % (flag, text, complaint))
        assert run_cli(cmd, *rest, "--config", str(cfgf), "--out", out) == 2
        assert capsys.readouterr().err == "error: %s\n" % want, (dest, value)
        with pytest.raises(ValueError) as e:
            dataclasses.replace(valid, **{dest: conv(text)})
        assert str(e.value) == want
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("cmd, flag", [("phihat-orbit", "--jmax"), ("norms-count", "--box"),
                                       ("equidistribution", "--n")])
def test_400_digit_count_exit_2(tmp_path, capsys, cmd, flag):
    # a count is compared as an int, never made a float: each meets a size guard
    assert run_cli(cmd, *_FUZZ_BASE[cmd], flag, "9" * 400, "--out", str(tmp_path / "x.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_command_table_covers_every_option(capsys, monkeypatch):
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)} - {"command"}
    assert fields == set(cli._OPTIONS)
    assert set(cli._COMMON).union(*(d for _, d in cli._COMMANDS.values())) == fields
    # a direct RunConfig resolves from the same table as the command line
    assert cli.RunConfig("bernoulli", poly=(-1, -1)).J_max == 40
    with pytest.raises(ValueError, match="--box is required for norms-count"):
        cli.RunConfig("norms-count", poly=(-1, -1), L=10.0)
    # and --help prints each option's default, or marks it required (unwrapped here)
    monkeypatch.setenv("COLUMNS", "1000")
    for cmd, (_, defaults) in cli._COMMANDS.items():
        assert run_cli(cmd, "--help") == 0
        text = " ".join(capsys.readouterr().out.split())
        for dest, default in {**defaults, **cli._COMMON}.items():
            tag = "(required)" if default is cli._REQUIRED else "(default %s)" % (
                "chosen at run time" if default is None else default)
            assert "%s %s" % (cli._OPTIONS[dest][2], tag) in text, (cmd, dest)


# ---------------------------------------------------------------------------
# config files


def test_config_file_with_cli_override(tmp_path):
    cfgf = tmp_path / "scan.cfg"
    cfgf.write_text("# a dyadic scan\nmask=dyadic  # the 2-scale mask\nrange=0:4\nstep=0.02#spacing\n")
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


def test_config_malformed_line_rejected(tmp_path, capsys):
    cfgf = tmp_path / "bad2.cfg"
    cfgf.write_text("# scan options\n\nmask dyadic\n")
    assert run_cli("symbol-scan", "--config", str(cfgf), "--range", "0:1", "--step", "0.5") == 2
    assert capsys.readouterr().err == "error: %s:3: expected key=value, got 'mask dyadic'\n" % cfgf


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
