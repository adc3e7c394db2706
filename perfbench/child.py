"""Run pvrefine commands through `pvrefine.cli.main` and report what each cost.

    python3 child.py --serve
    python3 child.py --setup

`--serve` imports `pvrefine.cli` once, then reads one request per line on
stdin and runs each command in a child forked from that import-only
interpreter (see `serve`), exactly as `pvrefine ...` would run it after its
imports.  The child writes a JSON result with the exit code, the wall and
user+sys CPU time of `main`, its peak RSS, and the wall and CPU time of a
fixed reference loop run just before and just after `main`.  `--setup` only imports
`pvrefine.cli` and exits; the caller times it.

With tracing on, every public function of the four library layers is wrapped
in each `pvrefine.*` namespace that binds it (`cli`, `solenoid` and
`zero_density` import many of them by name), and so are the cli entry points.
Wrapped functions are timed as spans, except the hot ones in COUNT_ONLY,
which are only counted so the trace stays cheap; their time is billed to the
enclosing span.  A span's self time is its duration minus that of the spans
it directly encloses, and a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import sys
import threading
import time

LAYERS = ("algebraic_core", "refinement", "solenoid", "zero_density")

# called once per term or per phase; a wrapper would cost more than they do
SKIP = {"cis_unit", "cis_unit_grid", "precision_bits"}

# called thousands to millions of times per command: counted, not timed
COUNT_ONLY = {
    "fe", "fe_add", "fe_neg", "fe_scale", "fe_mul", "fe_pow", "fe_inv", "fe_embed", "fe_embed_float",
    "fe_rational", "fe_alpha", "multiplication_matrix", "trace", "dist_to_int",
    "laurent", "laurent_int", "laurent_add", "laurent_embed",
    "truncation_index", "mask_terms",
}

_MP_ARG_CUTOFF = 2.0**20  # refinement's threshold for the extended-precision phase path

REF_ITERATIONS = 100_000  # about 10 ms: short enough to sit in one speed state of a shared core


def reference_loop():
    """Wall and CPU seconds of a fixed pure-Python loop: how fast this core runs right now."""
    t0, c0 = time.perf_counter(), time.process_time()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0, time.process_time() - c0


class Recorder:
    """Span times and call counters, summed per name; safe under threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total = {}
        self.self_time = {}
        self.counts = {}

    def count(self, name, k=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            inner = stack.pop()
            if stack:
                stack[-1] += dt
            with self._lock:
                self.total[name] = self.total.get(name, 0.0) + dt
                self.self_time[name] = self.self_time.get(name, 0.0) + dt - inner
                self.counts[name] = self.counts.get(name, 0) + 1

    def report(self):
        return {"total": self.total, "self": self.self_time, "counts": self.counts}


def _counted(rec, name, fn):
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _timed(rec, name, fn):
    def wrapper(*args, **kwargs):
        return rec.span(name, fn, *args, **kwargs)

    return wrapper


def _layer_wrappers(rec, mp, np):
    """original function -> wrapper, for every public function of each layer."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules["pvrefine." + layer]
        for fname, obj in vars(mod).items():
            if fname.startswith("_") or fname in SKIP:
                continue
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            qual = "%s.%s" % (layer, fname)
            out[obj] = (_counted if fname in COUNT_ONLY else _timed)(rec, qual, obj)

    # bind the originals now: the module attributes are replaced by these wrappers
    ref, sol, zd = (sys.modules["pvrefine." + m] for m in ("refinement", "solenoid", "zero_density"))
    orig_eval_symbol, orig_eval_symbol_grid = ref.eval_symbol, ref.eval_symbol_grid
    orig_enumerate_Y, orig_scan = sol.enumerate_Y, zd.scan_near_zeros

    def eval_symbol(mask, y, *args, **kwargs):
        if isinstance(y, mp.mpf) or abs(y) > _MP_ARG_CUTOFF:
            rec.count("refinement.eval_symbol.mp_calls")
        return rec.span("refinement.eval_symbol", orig_eval_symbol, mask, y, *args, **kwargs)

    def eval_symbol_grid(mask, ys, *args, **kwargs):
        rec.count("refinement.eval_symbol_grid.points", int(np.size(ys)))
        return rec.span("refinement.eval_symbol_grid", orig_eval_symbol_grid, mask, ys, *args, **kwargs)

    def enumerate_Y(*args, **kwargs):
        ys = rec.span("solenoid.enumerate_Y", orig_enumerate_Y, *args, **kwargs)
        rec.count("solenoid.enumerate_Y.points", len(ys))
        return ys

    def scan_near_zeros(f, L, grid_step, delta):
        # the callback is timed as its own span so the scan's self time excludes it
        def callback(y):
            return rec.span("cli.scan_callback", f, y)

        rec.count("zero_density.scan_near_zeros.points", len(np.arange(0.0, L + grid_step / 2, grid_step)))
        z = rec.span("zero_density.scan_near_zeros", orig_scan, callback, L, grid_step, delta)
        rec.count("zero_density.scan_near_zeros.found", len(z.points))
        return z

    out[orig_eval_symbol] = eval_symbol
    out[orig_eval_symbol_grid] = eval_symbol_grid
    out[orig_enumerate_Y] = enumerate_Y
    out[orig_scan] = scan_near_zeros
    return out


def _cli_wrappers(rec, cli):
    orig_run, orig_csv, orig_svg = cli.run, cli.emit_csv, cli.emit_svg

    def run(cfg):
        return rec.span("cli.%s" % cfg.command, orig_run, cfg)

    def emit_csv(rows, header, path):
        rows = list(rows)
        rec.count("cli.emit_csv.rows", len(rows))
        return rec.span("cli.emit_csv", orig_csv, rows, header, path)

    def emit_svg(plot, path):
        rec.count("cli.emit_svg.points", len(plot.points))
        return rec.span("cli.emit_svg", orig_svg, plot, path)

    return {
        cli.main: _timed(rec, "cli.main", cli.main),
        cli.build_config: _timed(rec, "cli.build_config", cli.build_config),
        orig_run: run,
        orig_csv: emit_csv,
        orig_svg: emit_svg,
    }


def install(rec):
    """Wrap the layers in every loaded pvrefine namespace; return the traced cli.main."""
    import mpmath as mp
    import numpy as np
    import pvrefine.cli as cli

    wrappers = _layer_wrappers(rec, mp, np)
    wrappers.update(_cli_wrappers(rec, cli))
    for modname, mod in list(sys.modules.items()):
        if modname != "pvrefine" and not modname.startswith("pvrefine."):
            continue
        for fname, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, fname, wrappers[obj])
    return cli.main


def run_command(argv, trace):
    """Run one command through cli.main in this process; its result dict."""
    import pvrefine.cli as cli

    rec = Recorder() if trace else None
    entry = install(rec) if trace else cli.main
    ref_before = reference_loop()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = entry(argv)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
        "rss_mb": r1.ru_maxrss / 1024.0,  # Linux reports kilobytes
    }
    ref_after = reference_loop()
    result.update({
        "ref_s": [ref_before[0], ref_after[0]],
        "ref_cpu_s": [ref_before[1], ref_after[1]],
    })
    if trace:
        result["trace"] = rec.report()
    return result


def _forked(argv, trace, stem):
    """Run one command in a child forked from this import-only process.

    The child's stdout and stderr go to <stem>.stdout / <stem>.stderr; the
    result goes to <stem>.json.  Returns the child's exit status."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd, ext in ((1, ".stdout"), (2, ".stderr")):
                f = os.open(stem + ext, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                os.dup2(f, fd)
                os.close(f)
            sys.stdout = sys.__stdout__  # the server points sys.stdout at stderr
            result = run_command(argv, trace)
            sys.stdout.flush()
            with open(stem + ".json", "w") as f:
                json.dump(result, f)
            code = 0
        except BaseException:
            import traceback

            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def serve():
    """Import pvrefine.cli, then run one command per request line on stdin.

    A request is a JSON list [argv, trace, stem]; each command runs in a
    child forked from this process, so it starts with exactly the state a
    fresh `pvrefine` process has after its imports: every cache cold.  The
    reply line is the child's exit status."""
    import pvrefine.cli  # noqa: F401

    out = sys.stdout
    sys.stdout = sys.stderr  # nothing but replies on the pipe
    out.write("ready\n")
    out.flush()
    for line in sys.stdin:
        argv, trace, stem = json.loads(line)
        out.write("%d\n" % _forked(argv, trace, stem))
        out.flush()
    return 0


def main(args):
    if args == ["--setup"]:
        import pvrefine.cli  # noqa: F401

        return 0
    if args == ["--serve"]:
        return serve()
    print("usage: child.py --setup | child.py --serve", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
