"""Command-line entry point.

Subcommands: ``run``, ``sweep``, ``rates``, ``verify-lemmas``, ``batch-adapt``.
Exit codes: 0 success, 1 config error, 2 lemma/acceptance failure, 3 I/O error.
Each command states the header and rows of each CSV file it writes; ``--out``
is created with the first file, so a command that stops early leaves none.
In-process callers of ``main`` share one parser per process.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, NumericalError, OrthoptError
from .harness import (
    DEFAULT_C_GRID,
    DEFAULT_ETA_GRIDS,
    batch_adaptation_experiment,
    lr_sweep,
    load_run_config,
    rate_experiment,
    run,
    write_csv,
)
from .verification import LEMMA_TOLERANCES, run_all_checks, snr_tightness_gap

# Dims for `rates` and `batch-adapt` without --dims; an unknown problem fails in build_problem.
_DEFAULT_PROBLEM_DIMS = {
    "matrix_least_squares": (8, 6, 12),
    "matrix_factorization": (16, 4, 16),
    "mlp": (4, 8, 2),
}

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports bad arguments as config errors."""

    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message)


def _numbers(cast, text: str) -> list:
    values = [cast(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    return _numbers(int, text)


def _float_list(text: str) -> list[float]:
    return _numbers(float, text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orthopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="learning-rate (and c) grid sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--etas", type=_float_list, default=None)
    p_sweep.add_argument("--cs", type=_float_list, default=None)
    p_sweep.add_argument("--out", required=True)

    p_rates = sub.add_parser("rates", help="convergence-rate slope experiment")
    p_rates.add_argument("--problem", required=True)
    p_rates.add_argument("--optimizer", required=True)
    p_rates.add_argument("--T", dest="t_list", type=_int_list, required=True)
    p_rates.add_argument("--regime", choices=("det", "stoch"), required=True)
    p_rates.add_argument("--dims", type=_int_list, default=None)
    p_rates.add_argument("--problem-seed", type=int, default=0)
    p_rates.add_argument("--seed", type=int, default=0)
    p_rates.add_argument("--sigma", type=float, default=0.0)
    p_rates.add_argument("--b", type=int, default=1)
    p_rates.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify-lemmas", help="numerical lemma certification")
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--snr-bound-scale",
        type=float,
        default=1.0,
        help="self-test hook: scale the asserted SNR bound (values < 1 force a failure)",
    )
    p_ver.add_argument("--out", required=True)

    p_batch = sub.add_parser("batch-adapt", help="batch-size noise-adaptation experiment")
    p_batch.add_argument("--sigma", type=float, required=True)
    p_batch.add_argument("--b", dest="b_list", type=_int_list, required=True)
    p_batch.add_argument("--seeds", type=_int_list, required=True)
    p_batch.add_argument("--problem", default="matrix_least_squares")
    p_batch.add_argument("--optimizer", default="namo")
    p_batch.add_argument("--T", dest="t_steps", type=int, default=512)
    p_batch.add_argument("--dims", type=_int_list, default=None)
    p_batch.add_argument("--problem-seed", type=int, default=0)
    p_batch.add_argument("--out", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: ``parse_args`` keeps no state from one call to the next."""
    return build_parser()


def _cmd_run(args) -> int:
    config = load_run_config(args.config)
    summary_rows = []
    for r in range(config.repeats):
        cfg = config if r == 0 else replace(config, seed=config.seed + r)
        result = run(cfg)
        name = "run.csv" if config.repeats == 1 else f"run_{r:03d}.csv"
        rows = [
            (rec.step, rec.loss, rec.grad_fro, rec.avg_grad_fro, rec.alpha, rec.d_bar, rec.d_min, rec.d_max)
            for rec in result.records
        ]
        write_csv(("step,loss,grad_fro,avg_grad_fro,alpha,d_bar,d_min,d_max", rows), os.path.join(args.out, name))
        summary_rows.append((r, cfg.seed, result.status, result.final_loss, result.final_avg_grad))
        print(
            f"run[{r}] status={result.status} steps={result.steps_completed} "
            f"final_loss={result.final_loss:.6g} final_avg_grad={result.final_avg_grad:.6g}"
        )
    if config.repeats > 1:
        write_csv(
            ("repeat,seed,status,final_loss,final_avg_grad", summary_rows),
            os.path.join(args.out, "summary.csv"),
        )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_run_config(args.config)
    etas = args.etas if args.etas else list(DEFAULT_ETA_GRIDS[config.optimizer])
    cs = args.cs
    if cs is None and config.optimizer == "namo_d":
        cs = list(DEFAULT_C_GRID)
    result = lr_sweep(config, etas, cs)
    rows = [(config.optimizer, e.eta, e.c, e.final_loss, e.final_avg_grad, e.status) for e in result.entries]
    write_csv(("optimizer,eta,c,final_loss,final_avg_grad,status", rows), os.path.join(args.out, "sweep.csv"))
    if result.best is None:
        print("sweep: all runs diverged")
    else:
        b = result.best
        c_text = "" if b.c is None else f" c={b.c:g}"
        print(f"sweep best: eta={b.eta:g}{c_text} final_loss={b.final_loss:.6g}")
    return EXIT_OK


def _cmd_rates(args) -> int:
    result = rate_experiment(
        problem_name=args.problem,
        problem_dims=args.dims or _DEFAULT_PROBLEM_DIMS.get(args.problem, ()),
        optimizer=args.optimizer,
        t_list=args.t_list,
        regime=args.regime,
        seed=args.seed,
        problem_seed=args.problem_seed,
        sigma=args.sigma,
        batch_size=args.b,
    )
    write_csv(("T,final_avg_grad_fro", result.points), os.path.join(args.out, "rates.csv"))
    write_csv(
        ("optimizer,regime,slope", [(args.optimizer, args.regime, result.slope)]),
        os.path.join(args.out, "rate_summary.csv"),
    )
    print(f"rates: optimizer={args.optimizer} regime={args.regime} slope={result.slope:.4f}")
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    reports = run_all_checks(trials=args.trials, seed=args.seed, bound_scale=args.snr_bound_scale)
    write_csv(
        ("lemma,trials,max_violation,pass", [(r.lemma_id, r.trials, r.max_violation, r.passed()) for r in reports]),
        os.path.join(args.out, "lemmas.csv"),
    )
    all_ok = True
    for report in reports:
        ok = report.passed()
        all_ok &= ok
        print(
            f"{report.lemma_id}: trials={report.trials} "
            f"max_violation={report.max_violation:.3e} {'PASS' if ok else 'FAIL'}"
        )
    gap = snr_tightness_gap()
    tight_ok = gap <= LEMMA_TOLERANCES["SNR"]
    all_ok &= tight_ok
    print(f"SNR tightness witness: gap={gap:.3e} {'PASS' if tight_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_batch_adapt(args) -> int:
    result = batch_adaptation_experiment(
        problem_name=args.problem,
        problem_dims=args.dims or _DEFAULT_PROBLEM_DIMS.get(args.problem, ()),
        optimizer=args.optimizer,
        t_steps=args.t_steps,
        sigma=args.sigma,
        b_list=args.b_list,
        seeds=args.seeds,
        problem_seed=args.problem_seed,
    )
    write_csv(("b,mean_final_avg_grad_fro", result.rows), os.path.join(args.out, "batch_adapt.csv"))
    for b, mean in result.rows:
        print(f"b={b}: mean_final_avg_grad={mean:.6g}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "rates": _cmd_rates,
    "verify-lemmas": _cmd_verify_lemmas,
    "batch-adapt": _cmd_batch_adapt,
}


@functools.cache
def _pin_blas_to_one_thread() -> None:
    """Run numpy's OpenBLAS on one thread, since beyond 128x128 gesdd's bits
    depend on the thread count.  A build without the symbol (one linked
    against a system OpenBLAS or another BLAS) keeps its thread count."""
    try:  # dlsym on numpy's extension module also searches the OpenBLAS it links
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    if get_threads() != 1:
        set_threads(1)


def main(argv=None) -> int:
    _pin_blas_to_one_thread()
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # not a config error: a command may have written files by then
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OrthoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
