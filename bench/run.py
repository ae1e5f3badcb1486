"""WNSF benchmark.

Drives the ``wnsf`` library in one process, in closed loop with one client:
the next operation starts when the previous one returns.  Inputs are made
from ``--seed``; the BLAS environment is left as the process finds it and is
recorded in the ``context`` line.

    python3 bench/run.py --workload bj_grid --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --all                    # every workload in turn
    python3 bench/run.py --write-fingerprints     # refresh the stored answers

With ``--trace 0`` the run prints every end-to-end metric as
``name value unit``; with ``--trace 1`` it wraps the public functions of each
``wnsf`` module and prints per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every output check
passed.  See ``bench/NOTES.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import spans

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
DEFAULT_SEED = 0
# Set-up runs SETUP_REPEATS times before the timed loop and then once every
# SETUP_EVERY seconds of it; setup_s is the median of all of them.  The
# CLI_START_REPEATS fresh interpreters of cli_start_s are spread evenly over
# the timed loop as well.
SETUP_REPEATS = 5
SETUP_EVERY = 1.5
CLI_START_REPEATS = 5
# Relative tolerance of the stored fingerprints (theta, M, traces, costs).
FINGERPRINT_RTOL = 1e-6
# Serial and parallel Monte Carlo runs of one seed must agree this closely.
PARITY_RTOL = 1e-9
WORKLOADS = ("bj_grid", "mc_closed", "oe_fast", "bound")
LAYERS = ("cli", "simulate", "arx", "estimator", "lti", "metrics", "crb")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

# Per-layer metric -> span names it sums (a span is named layer.function).
SPAN_METRICS = {
    "simulate.generate": ("simulate.generate",),
    "arx.build_regressors": ("arx.build_regressors",),
    "arx.estimate_arx": ("arx.estimate_arx",),
    "estimator.step2_ls": ("estimator.step2_ls",),
    "estimator.step3": ("estimator.step3_wls", "estimator.step3_wls_oe"),
    "estimator.reflect_unstable": ("estimator.reflect_unstable",),
    "estimator.wnsf_identify": ("estimator.wnsf_identify",),
    "estimator.pem_cost": ("estimator.pem_cost",),
    "lti.filter_signal": ("lti.filter_signal",),
    "lti.is_stable": ("lti.is_stable",),
    "metrics.fit_of_models": ("metrics.fit_of_models",),
    "metrics.run_monte_carlo": ("metrics.run_monte_carlo",),
    "crb.compute_mcr": ("crb.compute_mcr",),
    "crb.phi_z": ("crb.phi_z",),
    "crb.build_omega_matrix": ("crb.build_omega_matrix",),
    "crb.rbar_matrix": ("crb.rbar_matrix",),
    "crb.compute_mcl": ("crb.compute_mcl",),
    "crb.mbar_limit": ("crb.mbar_limit",),
    # estimator.build_T_inverse is only called from crb.mbar_limit
    "crb.build_T_inverse": ("estimator.build_T_inverse",),
    "cli.main": ("cli.main",),
    # DataSet.from_csv is the CLI's input parser
    "cli.from_csv": ("simulate.DataSet.from_csv",),
}


def import_wnsf():
    """Import the package from this checkout's ``src``, never another."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wnsf
    except ImportError as exc:
        sys.exit(f"error: cannot import wnsf from {src}: {exc}")
    if Path(wnsf.__file__).resolve().parent != src / "wnsf":
        sys.exit(f"error: imported wnsf from {wnsf.__file__}, not {src}")
    return wnsf


def machine_context():
    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: dep.get(k) for k in ("name", "version",
                                        "openblas configuration")}

    def llc_bytes():
        for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
            try:
                out = subprocess.run(["getconf", level], capture_output=True,
                                     text=True, timeout=10).stdout.strip()
            except OSError:
                return None
            if out.isdigit() and int(out) > 0:
                return {"level": level, "bytes": int(out)}
        return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "last_level_cache": llc_bytes(),
    }


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With fewer than 21 samples
    that percentile would lie below the median, so the median is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50, n
    k = n - 11
    return xs[k], math.floor(100 * (k + 1) / n), n


def differences(want, got, rtol, where="op"):
    """Where fingerprint ``got`` differs from ``want``: integers exactly,
    floats and numeric arrays to ``rtol`` (arrays scaled by max(1, |want|)),
    dicts and lists of dicts item by item."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where} is missing"]
        return [d for key in want
                for d in differences(want[key], got.get(key), rtol,
                                     f"{where}.{key}")]
    if isinstance(want, list) and want and isinstance(want[0], dict):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where} has another length"]
        return [d for k, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, rtol, f"{where}[{k}]")]
    if isinstance(want, list):
        w, g = np.asarray(want), np.asarray(got)
        if (g.shape != w.shape or not np.max(np.abs(g - w))
                <= rtol * max(1.0, float(np.max(np.abs(w))))):
            return [f"{where} differs"]
        return []
    if isinstance(want, int):
        return [] if got == want else [f"{where} {got!r} != {want!r}"]
    if isinstance(got, float) and math.isclose(got, want, rel_tol=rtol):
        return []
    return [f"{where} {got!r} != {want!r}"]


class Checker:
    """Counts attempted and failed ops; a failure never aborts the run."""

    def __init__(self, wl, stored):
        self.wl = wl
        self.stored = stored
        self.attempted = 0
        self.failed = 0
        self.records = {}

    def fail(self, i, problems):
        self.failed += 1
        print(f"check failed: {self.wl.name} op {i}: {'; '.join(problems)}",
              file=sys.stderr)

    def record(self, i, raw):
        """Fingerprint of a returned op, or None after counting a failure."""
        self.attempted += 1
        try:
            return self.wl.record(i, raw)
        except Exception as exc:  # a failed op is counted, not fatal
            self.fail(i, [repr(exc)])
            return None

    def check(self, i, rec, parity=None):
        if rec is None:
            return
        try:
            problems = self.wl.check(i, rec)
        except Exception as exc:
            problems = [repr(exc)]
        if self.stored is not None:
            problems += differences(self.stored[i % self.wl.pool], rec,
                                    FINGERPRINT_RTOL, "stored")
        if parity is not None:
            problems += differences(parity, rec, PARITY_RTOL, "parallel")
        if problems:
            self.fail(i, problems)
        else:
            self.records[i % self.wl.pool] = rec

    def op_failed(self, i, exc):
        self.attempted += 1
        self.fail(i, [repr(exc)])


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def run_op(wl, checker, i, root=None):
    """One op, timed; returns (fingerprint or None, seconds)."""
    t0 = time.perf_counter()
    try:
        raw = root("op", wl.op, i) if root else wl.op(i)
    except Exception as exc:
        dt = time.perf_counter() - t0
        checker.op_failed(i, exc)
        return None, dt
    dt = time.perf_counter() - t0
    return checker.record(i, raw), dt


class SideSamples:
    """Set-up and CLI start-up samples spread over the timed loop, so that
    each median sees the machine over the whole run and not in one short
    window.  The loop is extended by the time they take."""

    def __init__(self, wl, seconds):
        self.wl = wl
        self.setup = [timed(wl.setup)[1] for _ in range(SETUP_REPEATS)]
        self.cli, self.cli_errors = [], []
        self.cli_every = seconds / CLI_START_REPEATS
        self.next_setup = self.next_cli = time.perf_counter()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + old if old else src

    def take(self):
        """Take the samples that are due; return the seconds they took."""
        now = time.perf_counter()
        spent = 0.0
        if now >= self.next_setup:
            spent += self._setup()
            self.next_setup = now + SETUP_EVERY
        if now >= self.next_cli and len(self.cli) < CLI_START_REPEATS:
            spent += self._cli_start()
            self.next_cli = now + self.cli_every
        return spent

    def finish(self):
        while len(self.cli) < CLI_START_REPEATS:
            self._cli_start()

    def _setup(self):
        dt = timed(self.wl.setup)[1]
        self.setup.append(dt)
        return dt

    def _cli_start(self):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wnsf.cli", "--help"], cwd=ROOT,
                env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            self.cli_errors.append(exc)
        else:
            if proc.returncode != 0:
                self.cli_errors.append(RuntimeError(
                    f"wnsf --help exited with {proc.returncode}"))
        dt = time.perf_counter() - t0
        self.cli.append(dt)
        return dt


def measure(wl, checker, seconds):
    """Untraced run: set-up, timed loop, end-to-end metrics."""
    side = SideSamples(wl, seconds)
    wl.op(0)  # warm-up, so lazy initialisation misses the timed ops

    serial = []
    par_ops, par_time = 0, 0.0
    block = getattr(wl, "block", 1)
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end:
        parity = {}
        if hasattr(wl, "parallel"):
            try:
                parts, dt = timed(wl.parallel, i)
            except Exception as exc:
                checker.op_failed(i, exc)
            else:
                par_ops += len(parts)
                par_time += dt
                for k, part in enumerate(parts):
                    parity[i + k] = checker.record(i + k, part)
        for _ in range(block):
            rec, dt = run_op(wl, checker, i)
            serial.append(dt)
            checker.check(i, rec, parity.get(i))
            i += 1
            t_end += side.take()
    side.finish()
    for exc in side.cli_errors:
        checker.op_failed("cli-start", exc)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    serial_rate = len(serial) / sum(serial)
    tail_value, tail_pct, tail_n = tail(serial)
    metrics = {
        "setup_s": (statistics.median(side.setup), "s",
                    f"median of {len(side.setup)} set-ups"),
        "op_p50_s": (statistics.median(serial), "s", f"n={len(serial)}"),
        "op_tail_s": (tail_value, "s", f"p{tail_pct}, n={tail_n}"),
        "ops_per_s": (serial_rate, "1/s", f"one worker, n={len(serial)}"),
        # getrusage reports kilobytes on Linux.  A child's figure would
        # include the pages it shares with this process at fork or exec.
        "peak_rss_mb": (peak_kb / 1024.0, "MB", "this process"),
        "cli_start_s": (statistics.median(side.cli), "s",
                        f"median of {len(side.cli)} fresh interpreters"),
    }
    info = {}
    if par_ops:
        # Too unsteady on a small shared machine to bound; see NOTES.md.
        info["ops_per_s_pool"] = (par_ops / par_time, "1/s",
                                  f"info; parallelism {wl.jobs}, "
                                  f"n={par_ops}")
    if checker.records:
        recs = [checker.records[k] for k in sorted(checker.records)]
        info.update({k: (v, u, "info")
                     for k, (v, u) in wl.info(recs).items()})
    return metrics, info


def trace_counts():
    """Counter functions of the traced run, keyed by span name."""

    def regressors(args, kwargs, result):
        data, n = args[0], args[1]
        zero_ic = kwargs.get("known_zero_ic", args[2] if len(args) > 2
                             else False)
        rows = data.N - (1 if zero_ic else n + 1) + 1
        return {"arx.phi_bytes_computed": 8 * rows * 2 * n,
                "arx.gram_flops_computed": 2 * rows * (2 * n) ** 2}

    def identify(args, kwargs, result):
        return {"candidates": len(result.trace),
                "candidates_feasible": sum(math.isfinite(c["pem_cost"])
                                           for c in result.trace),
                "orders_with_candidates": len({c["n"] for c in result.trace})}

    return {
        "arx.build_regressors": regressors,
        "arx.estimate_arx":
            lambda a, k, r: {"arx.ridge_fired": int(r.regularized)},
        "estimator.reflect_unstable":
            lambda a, k, r: {"estimator.reflect_unstable.fired": int(r[1])},
        "estimator.wnsf_identify": identify,
    }


def measure_traced(wl, checker, seconds, wnsf):
    """Traced run: repeat (untraced set-up + pass, traced set-up + pass)
    until ``seconds`` have passed and report per-layer medians over the
    traced repetitions.  A pass is the workload's first ``pass_ops`` ops;
    per-layer numbers are totals over one set-up and one pass, so counts
    repeat exactly for a given seed."""
    spans.selftest()
    modules = [getattr(wnsf, name) for name in LAYERS]
    tracer = spans.Tracer()
    layers = dict(zip(LAYERS, modules))
    methods = [("simulate.DataSet.from_csv", wnsf.simulate.DataSet,
                "from_csv")]
    counts = trace_counts()
    pass_len = wl.pass_ops

    wl.setup()
    wl.op(0)  # warm-up
    untraced, traced, reps = [], [], []
    t_end = time.perf_counter() + seconds
    while not reps or time.perf_counter() < t_end:
        wl.setup()
        t = 0.0
        for i in range(pass_len):
            rec, dt = run_op(wl, checker, i)
            checker.check(i, rec)
            t += dt
        untraced.append(t)

        tracer.reset()
        tracer.install(layers, [wnsf, *modules], counts, methods)
        try:
            tracer.root("setup", wl.setup)
            recs = [run_op(wl, checker, i, root=tracer.root)
                    for i in range(pass_len)]
        finally:
            tracer.uninstall()
        traced.append(sum(dt for _, dt in recs))
        for i, (rec, _) in enumerate(recs):
            checker.check(i, rec)
        reps.append(layer_metrics(tracer))

    out = {name: (statistics.median(r[name][0] for r in reps), unit, "")
           for name, (_, unit) in reps[0].items()}
    out["trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0,
        "ratio", f"traced over untraced pass time, minus one; medians of "
                 f"{len(reps)} repetitions")
    return out


def layer_metrics(tracer):
    calls, self_s, total_s = spans.summarize(tracer.spans)
    _, op_self, _ = spans.summarize(tracer.spans, root_name="op")
    op_time = sum(end - start for name, parent, start, end in tracer.spans
                  if parent is None and name == "op")
    c = tracer.counters
    out = {}
    for metric, names in SPAN_METRICS.items():
        out[f"{metric}.calls"] = (sum(calls[n] for n in names), "count")
        out[f"{metric}.self_s"] = (sum(self_s[n] for n in names), "s")
        out[f"{metric}.total_s"] = (sum(total_s[n] for n in names), "s")
    for key, unit in (("arx.phi_bytes_computed", "B"),
                      ("arx.gram_flops_computed", "flop"),
                      ("arx.ridge_fired", "count"),
                      ("estimator.reflect_unstable.fired", "count")):
        out[key] = (c[key], unit)
    out["estimator.step3_per_n"] = (
        c["candidates"] / c["orders_with_candidates"]
        if c["orders_with_candidates"] else 0.0, "count")
    out["estimator.candidates_feasible_frac"] = (
        c["candidates_feasible"] / c["candidates"] if c["candidates"]
        else 0.0, "ratio")
    arx_self = sum(v for n, v in op_self.items() if n.startswith("arx."))
    step3_self = sum(op_self[n] for n in SPAN_METRICS["estimator.step3"])
    out["arx.self_frac"] = (arx_self / op_time, "ratio")
    out["estimator.step3.self_frac"] = (step3_self / op_time, "ratio")
    return out


def emit(metrics, checker):
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    base = f"{checker.failed}/{checker.attempted}"
    frac = checker.failed / checker.attempted if checker.attempted else 0.0
    print(f"fail_frac {frac:.6g} 1  ({base})")


def run_workload(args):
    wnsf = import_wnsf()
    import workloads

    print("context " + json.dumps(machine_context(), sort_keys=True),
          flush=True)
    stored = None
    if args.seed == DEFAULT_SEED:
        with open(FINGERPRINTS) as fh:
            stored = json.load(fh)[args.workload]
    with work_dir() as wd:
        wl = workloads.WORKLOADS[args.workload](args.seed, wd)
        checker = Checker(wl, stored)
        if args.trace:
            metrics = measure_traced(wl, checker, args.seconds, wnsf)
            emit(metrics, checker)
        else:
            metrics, info = measure(wl, checker, args.seconds)
            emit({**metrics, **info}, checker)
    correct = checker.failed == 0 and checker.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


@contextlib.contextmanager
def work_dir():
    """Scratch directory inside the checkout, removed on exit."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run is still using it


def write_fingerprints():
    import_wnsf()
    import workloads

    out = {"seed": DEFAULT_SEED, "rtol": FINGERPRINT_RTOL}
    with work_dir() as wd:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(DEFAULT_SEED, wd)
            wl.setup()
            out[name] = [wl.record(i, wl.op(i)) for i in range(wl.pool)]
            print(f"{name}: {wl.pool} fingerprints", flush=True)
    with open(FINGERPRINTS, "w") as fh:
        fh.write(fingerprint_json(out))
    return 0


def fingerprint_json(doc):
    """One record per line, floats to ten significant digits (far inside
    FINGERPRINT_RTOL)."""

    def short(x):
        if isinstance(x, float):
            return float(f"{x:.10g}")
        if isinstance(x, list):
            return [short(v) for v in x]
        if isinstance(x, dict):
            return {k: short(v) for k, v in x.items()}
        return x

    lines = []
    for key, val in doc.items():
        if isinstance(val, list):
            body = ",\n".join("  " + json.dumps(short(r)) for r in val)
            lines.append(f'"{key}": [\n{body}\n]')
        else:
            lines.append(f'"{key}": {json.dumps(val)}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def run_all(args):
    """Run every workload in its own interpreter; non-zero if any fails."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        if proc.returncode != 0:
            print(f"{name} FAILED (exit {proc.returncode})", flush=True)
            status = 1
    return status


def main(argv=None):
    # Turn SIGTERM into SystemExit so pools shut down and the work
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one interpreter each")
    parser.add_argument("--write-fingerprints", action="store_true",
                        help="store the default seed's answers and exit")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_fingerprints:
        return write_fingerprints()
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload, --all or --write-fingerprints")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
