"""pvrefine benchmark: one workload, run as a user runs the CLI, checked and timed.

    python3 perfbench/run.py --workload grid|lattice|exact --seed N --seconds S --trace 0|1

The seed becomes a list of `pvrefine` argv lists (see workloads.py).  A pass
runs them one after another through `pvrefine.cli.main`, each in a child
forked from an interpreter that has only imported `pvrefine.cli`
(child.py --serve), so every in-process cache starts cold: a closed loop
with one client.  Passes repeat until S seconds are used, and every
command's output is checked each time.

Each child also times a fixed reference loop just before and just after its
command, on the same core.  wall_ref divides each command's wall time by
the mean wall time of its two reference loops, takes the median over the
run's passes and sums over the commands; cpu_ref does the same with CPU
times.  The shared cores of the machine change speed by up to 1.8x, from
one second to the next and over minutes, and lose whole stretches to the
host (steal, which stops CPU time but not wall time); a ratio taken at the
same moment, of like with like, cancels most of that.  setup_s is the CPU
time of the import, for the same reason.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, medians over the traced
passes, plus trace.overhead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 10    # timed interpreter start-ups per run, spread over it
MIN_PASSES = 3        # untraced passes per run, at least; with --trace 1, 2 untraced and 2 traced
CHILD_TIMEOUT = 150.0

END_TO_END = (("wall_ref", "ref"), ("cpu_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYERS = ("algebraic_core", "refinement", "solenoid", "zero_density", "cli")
COMMANDS = ("field-check", "symbol-scan", "phihat-orbit", "bernoulli", "lattice-density", "zeros-scan",
            "vanishing-probe", "norms-count", "equidistribution")

# metric name -> (unit, how it is read from one traced pass)
#   ("self", layer)       sum of self time over the layer's spans
#   ("self_of", span)     self time of one span
#   ("total", span)       total time in a span
#   ("count", name)       call count of a wrapped function, or a named counter
#   ("derived", name)     computed in _derived
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[_layer + ".self_s"] = ("s", "self", _layer)
PER_LAYER.update({
    "algebraic_core.make_field.calls": ("count", "count", "algebraic_core.make_field"),
    "algebraic_core.make_field.s": ("s", "total", "algebraic_core.make_field"),
    "algebraic_core.fe_mul.calls": ("count", "count", "algebraic_core.fe_mul"),
    "algebraic_core.fe_inv.calls": ("count", "count", "algebraic_core.fe_inv"),
    "algebraic_core.norm.calls": ("count", "count", "algebraic_core.norm"),
    "algebraic_core.norm.s": ("s", "total", "algebraic_core.norm"),
    "algebraic_core.discriminant.s": ("s", "total", "algebraic_core.discriminant"),
    "algebraic_core.fe_embed.calls": ("count", "count", "algebraic_core.fe_embed"),
    "refinement.eval_symbol.calls": ("count", "count", "refinement.eval_symbol"),
    "refinement.eval_symbol.mp_calls": ("count", "count", "refinement.eval_symbol.mp_calls"),
    "refinement.truncation_index.calls": ("count", "count", "refinement.truncation_index"),
    "refinement.eval_symbol_grid.points": ("count", "count", "refinement.eval_symbol_grid.points"),
    "refinement.eval_symbol_grid.s": ("s", "total", "refinement.eval_symbol_grid"),
    "refinement.eval_phihat.calls": ("count", "count", "refinement.eval_phihat"),
    "refinement.eval_phihat.s": ("s", "total", "refinement.eval_phihat"),
    "refinement.phihat_orbit.s": ("s", "total", "refinement.phihat_orbit"),
    "refinement.bernoulli_phihat.s": ("s", "total", "refinement.bernoulli_phihat"),
    "solenoid.enumerate_Y.s": ("s", "total", "solenoid.enumerate_Y"),
    "solenoid.enumerate_Y.points": ("count", "count", "solenoid.enumerate_Y.points"),
    "solenoid.enumerate_Y.us_per_point": ("us", "derived", "us_per_point"),
    "solenoid.enumerate_Y.threads2_speedup": ("ratio", "derived", "threads2_speedup"),
    "solenoid.equidistribution_check.s": ("s", "total", "solenoid.equidistribution_check"),
    "solenoid.gamma_density.calls": ("count", "count", "solenoid.gamma_density"),
    "zero_density.scan_near_zeros.self_s": ("s", "self_of", "zero_density.scan_near_zeros"),
    "zero_density.scan_near_zeros.f_calls": ("count", "count", "cli.scan_callback"),
    "zero_density.scan_near_zeros.f_calls_per_point": ("ratio", "derived", "f_calls_per_point"),
    "zero_density.scan_near_zeros.found": ("count", "count", "zero_density.scan_near_zeros.found"),
    "zero_density.norm_form.s": ("s", "total", "zero_density.norm_form"),
    "zero_density.count_norm_values.self_s": ("s", "self_of", "zero_density.count_norm_values"),
    "zero_density.vanishing_probe.s": ("s", "total", "zero_density.vanishing_probe"),
})
for _cmd in COMMANDS:
    PER_LAYER["cli.%s.s" % _cmd] = ("s", "total", "cli." + _cmd)
PER_LAYER.update({
    "cli.emit_csv.s": ("s", "total", "cli.emit_csv"),
    "cli.emit_csv.rows": ("count", "count", "cli.emit_csv.rows"),
    "cli.emit_svg.s": ("s", "total", "cli.emit_svg"),
    "cli.emit_svg.points": ("count", "count", "cli.emit_svg.points"),
    "cli.build_config.s": ("s", "total", "cli.build_config"),
    "trace.overhead": ("ratio", "overhead", None),
})


def _derived(name, total, counts, speedup):
    if name == "us_per_point":
        points = counts.get("solenoid.enumerate_Y.points", 0)
        return 1e6 * total.get("solenoid.enumerate_Y", 0.0) / points if points else 0.0
    if name == "f_calls_per_point":
        points = counts.get("zero_density.scan_near_zeros.points", 0)
        return counts.get("cli.scan_callback", 0) / points if points else 0.0
    if name == "threads2_speedup":
        return speedup
    raise KeyError(name)


def layer_metrics(traces, speedup):
    """Per-layer values of one traced pass, from the child traces of its commands."""
    total, self_time, counts = {}, {}, {}
    for tr in traces:
        for acc, part in ((total, tr["total"]), (self_time, tr["self"]), (counts, tr["counts"])):
            for k, v in part.items():
                acc[k] = acc.get(k, 0) + v
    out = {}
    for name, (_, kind, key) in PER_LAYER.items():
        if kind == "self":
            out[name] = sum((v for k, v in self_time.items() if k.startswith(key + ".")), 0.0)
        elif kind == "self_of":
            out[name] = self_time.get(key, 0.0)
        elif kind == "total":
            out[name] = total.get(key, 0.0)
        elif kind == "count":
            out[name] = counts.get(key, 0)
        elif kind == "derived":
            out[name] = _derived(key, total, counts, speedup)
    return out


# ---------------------------------------------------------------------------
# running


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("PISOT_PRECISION_BITS", None)  # the argv alone sets precision
    return env


def time_setup(work, env):
    """(wall, user+sys CPU) seconds of a fresh interpreter importing pvrefine.cli, spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), "--setup"], cwd=work, env=env,
                            stdout=subprocess.DEVNULL)
    # Popen.wait(timeout) polls in steps of up to 50 ms; wait4 blocks, and reports the CPU time
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("importing pvrefine.cli failed (exit %d)" % proc.returncode)
    return wall, usage.ru_utime + usage.ru_stime


class Server:
    """An interpreter that has imported pvrefine.cli and forks one child per command.

    Every command starts from the state a fresh `pvrefine` process reaches
    after its imports, caches cold, without paying the import each time; the
    import is measured on its own as setup_s.  Use as a context manager: the
    server and any child it forked are stopped and waited for on the way out."""

    def __init__(self, work, env):
        self.work, self.env, self.proc = work, env, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def _start(self):
        self.proc = subprocess.Popen([sys.executable, str(CHILD), "--serve"], cwd=self.work, env=self.env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        if self._reply(CHILD_TIMEOUT) != "ready":
            self.stop()
            raise RuntimeError("benchmark server did not start")

    def _reply(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline().strip() if ready else None

    def run(self, argv, trace, stem):
        """Exit status of the forked child, or None if it timed out or the server died.

        In that case the server is stopped; the next command starts a new one."""
        if self.proc is None:
            self._start()
        try:
            self.proc.stdin.write(json.dumps([list(argv), trace, stem]) + "\n")
            self.proc.stdin.flush()
            reply = self._reply(CHILD_TIMEOUT)
        except OSError:
            reply = None
        if not reply:
            self.stop()
            return None
        return int(reply)

    def stop(self):
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            proc.stdin.close()
            proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            os.killpg(proc.pid, signal.SIGKILL)  # the server and the child it is waiting for
            proc.wait()
        proc.stdout.close()


def _run_command(cmd, server, work, traced):
    """(result dict or None, CSV bytes or None, reason for failure or None)."""
    stem = cmd.label
    csv_name = stem + ".csv"
    for ext in (".csv", ".svg", ".json", ".stdout", ".stderr"):
        (work / (stem + ext)).unlink(missing_ok=True)
    status = server.run(list(cmd.argv) + ["--out", csv_name], traced, stem)
    if status is None:
        return None, None, "no reply within %.0f s from the benchmark server" % CHILD_TIMEOUT

    def text(ext):
        path = work / (stem + ext)
        return path.read_text() if path.is_file() else ""

    if status != 0 or not (work / (stem + ".json")).is_file():
        return None, None, "child exited %d: %s" % (status, text(".stderr").strip()[-300:])
    result = json.loads(text(".json"))
    if result["rc"] != 0:
        return result, None, "pvrefine exited %d: %s" % (result["rc"], text(".stderr").strip()[-300:])
    try:
        data = (work / csv_name).read_bytes()
    except OSError as e:
        return result, None, "no CSV: %s" % e
    reason = workloads.check(cmd, data.decode("utf-8"), text(".stdout"))
    return result, data, reason


def run_pass(cmds, server, work, traced, digests):
    """Run every command once; returns the pass record.  digests holds first-pass CSV hashes."""
    rec = {"wall_s": {}, "cpu_s": {}, "ref_s": {}, "ref_cpu_s": {}, "peak_rss_mb": 0.0, "failed": 0, "traces": [], "enum_s": {}}
    this_pass = {}
    for cmd in cmds:
        result, data, reason = _run_command(cmd, server, work, traced)
        if data is not None:
            digest = hashlib.sha256(data).hexdigest()
            this_pass[cmd.label] = digest
            if reason is None and digests.setdefault(cmd.label, digest) != digest:
                reason = "CSV bytes differ from the first pass"
            twin = cmd.params.get("same_as")
            if reason is None and twin is not None and this_pass.get(twin) != digest:
                reason = "CSV bytes differ from %s" % twin
        if result is not None:
            rec["wall_s"][cmd.label] = result["wall_s"]
            rec["cpu_s"][cmd.label] = result["cpu_s"]
            rec["ref_s"][cmd.label] = statistics.fmean(result["ref_s"])
            rec["ref_cpu_s"][cmd.label] = statistics.fmean(result["ref_cpu_s"])
            rec["peak_rss_mb"] = max(rec["peak_rss_mb"], result["rss_mb"])
            if traced:
                rec["traces"].append(result["trace"])
                rec["enum_s"][cmd.label] = result["trace"]["total"].get("solenoid.enumerate_Y", 0.0)
        if reason is not None:
            rec["failed"] += 1
            print("FAIL %s: %s" % (cmd.label, reason), file=sys.stderr)
    if traced:
        speedups = [rec["enum_s"][c.params["same_as"]] / rec["enum_s"][c.label]
                    for c in cmds if "same_as" in c.params and rec["enum_s"].get(c.label)]
        rec["layers"] = layer_metrics(rec["traces"], speedups[0] if speedups else 0.0)
    return rec


def measure(workload, seed, seconds, trace):
    cmds = workloads.generate(workload, seed)
    env = _child_env()
    work = WORK / ("%s-%d" % (workload, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    try:
        t_start = time.perf_counter()
        time_setup(work, env)  # the first start-up also compiles bytecode; users pay that once
        setup, plain, traced, digests = [], [], [], {}
        longest, last_setup = 0.0, None
        with Server(work, env) as server:
            while True:
                tracing = trace and len(plain) > len(traced)
                t0 = time.perf_counter()
                if last_setup is None or t0 - last_setup >= seconds / SETUP_SAMPLES:
                    setup.append(time_setup(work, env))
                    last_setup = t0
                (traced if tracing else plain).append(run_pass(cmds, server, work, tracing, digests))
                longest = max(longest, time.perf_counter() - t0)
                enough = min(len(plain), len(traced)) >= 2 if trace else len(plain) >= MIN_PASSES
                # stop before a pass that would overrun the time budget
                if enough and time.perf_counter() - t_start + longest > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return cmds, setup, plain, traced


def _per_ref(passes, key, ref_key):
    """Sum over commands of the median, over passes, of the command's time over its own reference loop."""
    labels = {label for p in passes for label in p[key]}
    return sum(statistics.median(p[key][label] / p[ref_key][label] for p in passes if label in p[key])
               for label in labels)


def _best(passes, key):
    """Sum over commands of each command's smallest value in any pass."""
    labels = {label for p in passes for label in p[key]}
    return sum(min(p[key][label] for p in passes if label in p[key]) for label in labels)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pvrefine" / "cli.py").is_file():
        print("error: no pvrefine sources at %s; run from a pvrefine checkout" % SRC, file=sys.stderr)
        return 2

    cmds, setup, plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = plain + traced
    attempted = len(cmds) * len(passes)
    failed = sum(p["failed"] for p in passes)
    n = len(plain)
    wall, cpu = _best(plain, "wall_s"), _best(plain, "cpu_s")
    values = {
        "wall_ref": _per_ref(plain, "wall_s", "ref_s"),
        "cpu_ref": _per_ref(plain, "cpu_s", "ref_cpu_s"),
        "setup_s": statistics.median(cpu for wall, cpu in setup),
        "setup_wall_s": statistics.median(wall for wall, cpu in setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_s": statistics.median(r for p in plain for r in p["ref_s"].values()),
        "failed_frac": failed / attempted,
    }
    print("workload %s, seed %d: %d commands per pass, %d untraced and %d traced passes"
          % (args.workload, args.seed, len(cmds), n, len(traced)))
    best = "best of %d passes, per command" % n
    for name, unit, how in (
            ("wall_ref", "ref", "per command, median over %d passes of wall over its reference loop" % n),
            ("cpu_ref", "ref", "the same with CPU time, over the loop's CPU time"),
            ("setup_s", "s", "user+sys CPU, median of %d start-ups" % len(setup)),
            ("setup_wall_s", "s", "wall time of the same start-ups, median"),
            ("peak_rss_mb", "MB", "median of %d passes" % n),
            ("wall_s", "s", best),
            ("cpu_s", "s", best),
            ("ref_s", "s", "median reference loop, before and after averaged"),
            ("failed_frac", "ratio", "%d of %d commands" % (failed, attempted))):
        print("  %-12s %12.6f %-5s %s" % (name, values[name], unit, how))

    if args.trace:
        metrics = {}
        for name, (unit, kind, _) in PER_LAYER.items():
            if kind == "overhead":
                v = _best(traced, "wall_s") / values["wall_s"]
            else:
                v = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": v, "unit": unit}
            print("  %-48s %16.6f %s" % (name, v, unit))
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
