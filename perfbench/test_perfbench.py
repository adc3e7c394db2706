"""Tests of the benchmark's own code: generator, output checks, tracing.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pvrefine import cli  # noqa: E402


def _pvrefine(tmp_path, capsys, *argv):
    out = tmp_path / "out.csv"
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    return out.read_bytes().decode("utf-8"), capsys.readouterr().out


def _corrupt(text, column, row, value):
    lines = text.split("\r\n")
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    return "\r\n".join(lines)


def _check(name, text, stdout="", **params):
    return workloads.check(workloads.Command("t", (), name, params), text, stdout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)
    labels = [c.label for c in workloads.generate(workload, 7)]
    assert len(labels) == len(set(labels))


def test_boxcar_symbol_check(tmp_path, capsys):
    text, out = _pvrefine(tmp_path, capsys, "symbol-scan", "--mask", "boxcar", "--range", "0:4", "--step", "0.01")
    assert _check("boxcar_symbol", text) is None
    assert _check("boxcar_symbol", _corrupt(text, "abs", 50, "0.5")) is not None


@pytest.mark.parametrize("target,hi", [("phihat", 12.5), ("symbol", 12.25)])
def test_zeros_count_check(tmp_path, capsys, target, hi):
    text, out = _pvrefine(tmp_path, capsys, "zeros-scan", "--mask", "boxcar", "--range", "0:%g" % hi,
                          "--step", "0.01", "--delta", "1e-3", "--target", target)
    assert _check("zeros_count", text, hi=hi, target=target) is None
    assert _check("zeros_count", _corrupt(text, "count", 10, "11"), hi=hi, target=target) is not None


def test_rel_err_check(tmp_path, capsys):
    text, out = _pvrefine(tmp_path, capsys, "lattice-density", "--poly", "-1,-1", "--eps", "0.1", "--L", "10000")
    assert _check("rel_err", text) is None
    assert _check("rel_err", _corrupt(text, "rel_err", 3, "0.002")) is not None


def test_discrepancy_check(tmp_path, capsys):
    text, out = _pvrefine(tmp_path, capsys, "equidistribution", "--poly", "-1,-1", "--n", "1")
    assert _check("discrepancy", text) is None
    assert _check("discrepancy", _corrupt(text, "discrepancy", 1, "0.5")) is not None


def test_verdict_check(tmp_path, capsys):
    text, out = _pvrefine(tmp_path, capsys, "field-check", "--poly", "-1,-1,-1")
    assert _check("verdict", text, out, pv=True) is None
    assert _check("verdict", text, out.replace("PV", "not-PV", 1), pv=True) is not None
    text, out = _pvrefine(tmp_path, capsys, "field-check", "--poly", workloads.SALEM)
    assert _check("verdict", text, out, pv=False) is None
    assert _check("verdict", text, "PV" + out[out.index(","):], pv=False) is not None
    assert _check("verdict", "k,re,im,abs\r\n", out, pv=False) is not None


def test_bernoulli_check(tmp_path, capsys):
    text, out = _pvrefine(tmp_path, capsys, "bernoulli", "--poly", "-1,-1,-1", "--jmax", "30", "--jmin", "-20")
    assert _check("bernoulli", text, poly="-1,-1,-1", jmin=-20) is None
    assert _check("bernoulli", _corrupt(text, "abs", 20, "0.125"), poly="-1,-1,-1", jmin=-20) is not None
    assert _check("bernoulli", text, poly="-1,-1,-1", jmin=-10) is not None


def test_unreadable_csv_is_a_failure():
    assert _check("rows", "") is not None
    assert _check("rel_err", "L,count\r\n1,2\r\n") is not None


def test_pass_flags_csv_that_changed_between_passes(tmp_path):
    cmds = [workloads.Command("golden", ("field-check", "--poly", "-1,-1"), "verdict", {"pv": True})]
    digests = {}
    with run.Server(tmp_path, run._child_env()) as server:
        first = run.run_pass(cmds, server, tmp_path, False, digests)
        assert first["failed"] == 0 and first["wall_s"]["golden"] > 0
        digests["golden"] = "0" * 64
        assert run.run_pass(cmds, server, tmp_path, False, digests)["failed"] == 1


def test_server_survives_a_failing_command(tmp_path):
    bad = workloads.Command("bad", ("field-check", "--poly", "not-a-polynomial"))
    good = workloads.Command("good", ("field-check", "--poly", "-1,-1"), "verdict", {"pv": True})
    with run.Server(tmp_path, run._child_env()) as server:
        rec = run.run_pass([bad, good], server, tmp_path, True, {})
        proc = server.proc
    assert rec["failed"] == 1 and rec["wall_s"]["good"] > 0
    assert rec["layers"]["algebraic_core.make_field.calls"] >= 1
    assert proc.returncode is not None  # stopped and waited for on the way out


def test_trace_wraps_every_namespace(tmp_path):
    # cli calls phihat_orbit, never eval_symbol: every eval_symbol call counted
    # here comes from inside refinement, through its own module globals
    argv = ["phihat-orbit", "--mask", "dyadic", "--lambda", "1", "--jmax", "5", "--out", "o.csv"]
    with run.Server(tmp_path, run._child_env()) as server:
        assert server.run(argv, True, "o") == 0
    result = json.loads((tmp_path / "o.json").read_text())
    counts = result["trace"]["counts"]
    assert result["rc"] == 0
    assert counts["refinement.eval_symbol"] > 0
    assert counts["refinement.phihat_orbit"] == 1 and counts["cli.main"] == 1
    assert result["trace"]["total"]["cli.phihat-orbit"] <= result["trace"]["total"]["cli.main"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, v[0]) for k, v in run.PER_LAYER.items()]


def test_command_past_the_timeout_is_a_failure(tmp_path, monkeypatch):
    slow = workloads.Command("slow", ("lattice-density", "--poly", "-1,-1", "--eps", "0.1", "--L", "200000"))
    with run.Server(tmp_path, run._child_env()) as server:
        server._start()  # under the real timeout
        monkeypatch.setattr(run, "CHILD_TIMEOUT", 0.01)
        result, data, reason = run._run_command(slow, server, tmp_path, False)
        assert result is None and "no reply" in reason
        assert server.proc is None
