"""orthopt benchmark: one workload, end-to-end or traced, from one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Every unit goes through
``orthopt.cli.main`` in this process, importing orthopt from ``src``.  A
*pass* is the workload's fixed list of CLI invocations for one input family.
A run makes an untimed warm-up pass on family ``seed``, then timed passes on
families ``seed``, ``seed + 1``, ... for ``--seconds`` seconds.  Every pass's
CSV output is checked against ``reference.json``, and a family run twice must
write the same bytes both times.

``--trace 0`` reports the end-to-end metrics (medians over passes and
units, with tracing off).  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics from the traced ones, plus a
self-test of the tracer.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys

# BLAS threads must be fixed before numpy is imported by anything.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from tracer import Patcher, Tracer, UnitProbe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


@dataclass
class PassResult:
    plan: workloads.Plan
    traced: bool
    wall: float
    unit_seconds: list  # one entry per unit
    steps: int
    failed_outs: set  # invocation output dirs whose units failed
    unit_failures: int  # failed runs inside invocations that did not fail as a whole
    files: dict
    tracer: object = None


def load_orthopt():
    if not os.path.isfile(os.path.join(SRC, "orthopt", "__init__.py")):
        sys.exit(f"benchmark: no orthopt sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import numpy
    import orthopt
    from orthopt import cli

    if not os.path.abspath(orthopt.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported orthopt from {orthopt.__file__}, not from {SRC}")
    return cli, numpy


# ---------------------------------------------------------------------------
# Machine record.
# ---------------------------------------------------------------------------


def _blas_threads_in_effect():
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _openblas_version(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        return None


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "orthopt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record(numpy, loadavg):
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas_version(numpy),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "loadavg_start": list(loadavg),
    }


# ---------------------------------------------------------------------------
# Set-up time and passes.
# ---------------------------------------------------------------------------


def measure_setup(plan):
    """Median time from spawning a fresh interpreter to its first unit being ready."""
    argv = json.dumps(list(plan.invocations[0].argv))
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe_setup.py"), argv],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return statistics.median(times), len(times)


def _invoke(cli, argv):
    """Run one CLI invocation; its exit code, or None if it raised."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(list(argv))
    except Exception:  # a crash is a failed unit, not the end of the benchmark
        print(f"benchmark: {' '.join(argv[:1])} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None


def run_pass(cli, plan, pass_dir, traced):
    for inv in plan.invocations:
        shutil.rmtree(os.path.join(pass_dir, inv.out), ignore_errors=True)
    gc.collect()
    patcher = Patcher()
    tracer = Tracer() if traced else None
    probe = UnitProbe()
    if tracer is not None:
        tracer.install(patcher)
    probe.install(patcher)
    outcomes = []
    try:
        start = perf_counter()
        for inv in plan.invocations:
            before = len(probe.records)
            t0 = perf_counter()
            code = _invoke(cli, inv.argv)
            outcomes.append((code, perf_counter() - t0, probe.records[before:]))
        wall = perf_counter() - start
    finally:
        patcher.restore()

    unit_seconds, failed_outs, unit_failures, steps = [], set(), 0, 0
    for inv, (code, seconds, records) in zip(plan.invocations, outcomes):
        steps += sum(r[2] for r in records)
        if plan.unit_is_run:
            unit_seconds.extend(r[0] for r in records)
        else:
            unit_seconds.append(seconds)
        if code != 0 or (plan.unit_is_run and len(records) != inv.units):
            failed_outs.add(inv.out)
        else:
            unit_failures += sum(1 for r in records if r[1] != "ok")
    files = workloads.snapshot(plan, pass_dir)
    return PassResult(plan, traced, wall, unit_seconds, steps, failed_outs, unit_failures, files, tracer)


def measure(cli, workload, seed, pass_dir, seconds, trace):
    """An untimed warm-up pass, then timed passes until ``seconds`` have elapsed.

    Both the warm-up and timed pass i run input family ``seed + i``, so a run's
    medians cover many families and the first timed pass repeats the warm-up.
    With ``trace`` each family runs untraced and then traced.
    """
    warmup = run_pass(cli, workloads.make_plan(workload, seed, pass_dir), pass_dir, traced=False)
    timed = []
    start = perf_counter()
    while perf_counter() - start < seconds or (trace and len(timed) < 4):
        plan = workloads.make_plan(workload, seed + len(timed) // (2 if trace else 1), pass_dir)
        timed.append(run_pass(cli, plan, pass_dir, traced=False))
        if trace:
            timed.append(run_pass(cli, plan, pass_dir, traced=True))
    return warmup, timed


def _outs_of(paths):
    return {p.split("/", 1)[0] for p in paths}


def check_outputs(references, warmup, timed, trace):
    """Attempted and failed units over all passes, printing each output problem.

    Every pass is compared with the reference of its family.  The first timed
    pass must match the warm-up byte for byte, and with ``trace`` each traced
    pass must match the untraced pass of the same family.
    """
    twins = {id(timed[0]): warmup}
    if trace:
        twins.update((id(traced), untraced) for untraced, traced in zip(timed[::2], timed[1::2]))
    attempted = failed = 0
    for p in [warmup] + timed:
        reference = references.get(str(p.plan.family))
        if reference is None:
            problems = [f"{inv.out}: no reference for family {p.plan.family}" for inv in p.plan.invocations]
        else:
            problems = workloads.compare(reference, p.files)
        twin = twins.get(id(p))
        if twin is not None:
            problems += [
                f"{path}: bytes differ from the {'untraced' if p.traced else 'warm-up'} pass of the same family"
                for path in sorted(set(p.files) | set(twin.files))
                if p.files.get(path) != twin.files.get(path)
            ]
        for msg in problems:
            print(f"output check, family {p.plan.family}: {msg}", file=sys.stderr)
        bad = p.failed_outs | _outs_of(msg.split(":", 1)[0] for msg in problems)
        attempted += p.plan.units
        failed += p.unit_failures + sum(inv.units for inv in p.plan.invocations if inv.out in bad)
    return attempted, failed


def load_references(workload):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)["families"].get(workload, {})


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def percentile(samples, pct):
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1] if len(samples) > 1 else samples[0]


def tail_percentile(n):
    """Highest percentile up to 90 with TAIL_SAMPLES samples beyond it."""
    return max(1, min(90, (100 * (n - TAIL_SAMPLES)) // n)) if n > TAIL_SAMPLES else 50


def end_to_end(plan, passes, setup):
    """End-to-end metrics as (value, unit, note), and the sample counts behind them."""
    walls = [p.wall for p in passes]
    rates = [(p.steps if plan.unit_is_run else plan.work) / p.wall for p in passes]
    units_ms = [1000.0 * s for p in passes for s in p.unit_seconds]
    tail = tail_percentile(len(units_ms))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup[0], "s", f"median of {setup[1]} fresh interpreters"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "work_per_s": (statistics.median(rates), "1/s", f"{plan.work_name}, median of {len(rates)} passes"),
        "unit_ms.p50": (percentile(units_ms, 50), "ms", f"n={len(units_ms)}"),
        "unit_ms.p90": (percentile(units_ms, tail), "ms", f"p{tail} of n={len(units_ms)}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the benchmark process"),
    }
    samples = {"passes": len(walls), "units": len(units_ms), "unit_ms.p90_percentile": tail, "setup_probes": setup[1]}
    return metrics, samples


# (metric, unit, kind, span); kind is calls, self_s (self time) or s (inclusive time).
_SPAN_METRICS = [
    ("linalg.reduced_svd.calls", "count", "calls", "linalg.reduced_svd"),
    ("linalg.reduced_svd.self_s", "s", "self_s", "linalg.reduced_svd"),
    ("linalg.as_matrix.calls", "count", "calls", "linalg.as_matrix"),
    ("harness.run.self_s", "s", "self_s", "harness.run"),
]
for _opt in ("namo", "namo_d", "muon", "adamw"):
    _SPAN_METRICS += [
        (f"optimizers.{_opt}_step.calls", "count", "calls", f"optimizers.{_opt}_step"),
        (f"optimizers.{_opt}_step.self_s", "s", "self_s", f"optimizers.{_opt}_step"),
    ]
for _mode in ("exact", "newton_schulz"):
    _SPAN_METRICS += [
        (f"orthogonalize.{_mode}.calls", "count", "calls", f"orthogonalize.{_mode}"),
        (f"orthogonalize.{_mode}.self_s", "s", "self_s", f"orthogonalize.{_mode}"),
    ]
for _fn in ("grad", "loss", "minibatch_grad"):
    _SPAN_METRICS += [
        (f"problems.{_fn}.calls", "count", "calls", f"problems.{_fn}"),
        (f"problems.{_fn}.s", "s", "s", f"problems.{_fn}"),
    ]
_SPAN_METRICS += [
    ("problems.stochastic_grad.self_s", "s", "self_s", "problems.stochastic_grad"),
    ("rng.raw64.calls", "count", "calls", "rng.raw64"),
    ("rng.raw64.s", "s", "s", "rng.raw64"),
    ("rng.normals.self_s", "s", "self_s", "rng.normals"),
    ("rng.sample_without_replacement.self_s", "s", "self_s", "rng.sample_without_replacement"),
    ("harness.render_csv.s", "s", "s", "harness.render_csv"),
]
for _check in ("snr_bound", "phi_eps", "series_mut", "series_mutsqrt", "trace_inequality"):
    _SPAN_METRICS.append((f"verification.check_{_check}.s", "s", "s", f"verification.check_{_check}"))
_SPAN_METRICS.append(("cli.main.self_s", "s", "self_s", "cli.main"))
_KIND_INDEX = {"calls": 0, "self_s": 1, "s": 2}


def _span_value(tracer, kind, span):
    rec = tracer.stats.get(span)
    return 0 if rec is None else rec[_KIND_INDEX[kind]]


def per_layer(traced, untraced):
    """Per-pass medians over the traced passes, plus tracing overhead."""
    metrics = {}
    for name, unit, kind, span in _SPAN_METRICS:
        metrics[name] = (statistics.median(_span_value(p.tracer, kind, span) for p in traced), unit)
    steps = statistics.median(p.steps for p in traced)

    def per_step(value):
        return value / steps if steps else 0.0

    metrics["linalg.as_matrix.per_step"] = (per_step(metrics["linalg.as_matrix.calls"][0]), "1/step")
    grad_evals = metrics["problems.grad.calls"][0] + metrics["problems.minibatch_grad.calls"][0]
    metrics["problems.grad_evals_per_step"] = (per_step(grad_evals), "1/step")
    for key, unit in (("rng.raw64.draws", "count"), ("harness.write_csv.bytes", "B")):
        metrics[key] = (statistics.median(p.tracer.counters.get(key, 0) for p in traced), unit)
    overhead = statistics.median(t.wall / u.wall for t, u in zip(traced, untraced)) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    self_sum = statistics.median(p.tracer.self_total() / p.wall for p in traced)
    metrics["trace.self_sum_frac"] = (self_sum, "ratio")
    return metrics


def selftest(plan, traced, overhead, self_sum):
    """Checks that the tracer reached every call site the workload implies."""
    calls = [{name: rec[0] for name, rec in p.tracer.stats.items()} for p in traced]
    checks = {"counts_repeat": all(c == calls[0] for c in calls)}
    for span, expected in plan.expected_calls.items():
        got = calls[0].get(span, 0)
        checks[f"calls[{span}]={expected}"] = got == expected
    # Self times partition the traced wall time; what is left is loop and wrapper cost.
    checks["self_sum_within_overhead"] = abs(1.0 - self_sum) <= max(overhead, 0.02)
    return checks


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    loadavg = os.getloadavg()
    cli, numpy = load_orthopt()
    work_dir = os.path.join(HERE, "_work", str(os.getpid()))
    pass_dir = os.path.join(work_dir, "pass")
    try:
        os.makedirs(pass_dir, exist_ok=True)
        references = load_references(args.workload)
        setup = None if args.trace else measure_setup(workloads.make_plan(args.workload, args.seed, pass_dir))
        warmup, timed = measure(cli, args.workload, args.seed, pass_dir, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))

    plan = warmup.plan
    print(f"workload={plan.workload} seed={args.seed} families={plan.family}..{timed[-1].plan.family} trace={args.trace}")
    print(json.dumps({"machine": machine_record(numpy, loadavg)}, sort_keys=True))
    attempted, failed = check_outputs(references, warmup, timed, args.trace)
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} units)")

    untraced = [p for p in timed if not p.traced]
    if args.trace:
        traced = [p for p in timed if p.traced]
        metrics = per_layer(traced, untraced)
        checks = selftest(plan, traced, metrics["trace.overhead_frac"][0], metrics["trace.self_sum_frac"][0])
        for name, ok in checks.items():
            if not ok:
                print(f"tracer self-test failed: {name}", file=sys.stderr)
        print(json.dumps({"selftest": checks}, sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        result_metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        metrics, samples = end_to_end(plan, untraced, setup)
        print(json.dumps({"samples": samples}, sort_keys=True))
        for name, (value, unit, note) in metrics.items():
            print(f"{name} = {value:.6g} {unit} ({note})")
        result_metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
