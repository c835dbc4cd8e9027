"""Golden comparison: one SHA-256 per CLI invocation over a fixed set.

Usage::

    python tools/golden.py <tree> > golden.txt

imports ``orthopt`` from ``<tree>/src`` and drives ``cli.main`` in-process
over runs, sweeps, rate and batch-size experiments and lemma checks.  Each
line is the digest of one invocation's CSV files (names and bytes), stdout,
stderr and exit code, followed by its label; the last line is a digest over
all of them.  Running it on two trees and diffing the outputs names every
invocation whose bytes changed.  The first line names the build (numpy, its
BLAS, the OpenBLAS core chosen at run time, machine, libc and Python), because
the digests hold only on the build that made them.  ``cli.main`` reuses one
argument parser per process, so the invocations, run in order in one process,
also check each subcommand, and each error path they cover, across calls on
that one parser.

``tools/golden.txt`` holds the digests of this tree; ``tests/test_golden.py``
compares against it on the build named in its first line.  A deliberate byte
change regenerates it (``python tools/golden.py . > tools/golden.txt``).

BLAS and OpenMP are pinned to one thread before numpy is imported, because
beyond 128x128 gesdd's bits depend on the thread count.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import ctypes
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

PROBLEMS = {"matrix_least_squares": "8,6,12", "matrix_factorization": "16,4,16", "mlp": "4,8,2"}
OPTIMIZERS = ("namo", "namo_d", "muon", "adamw")
ORTH_METHODS = ("exact", "newton_schulz")
NOISES = {"none": "", "additive": "sigma = 0.5\n", "minibatch": "noise_kind = minibatch\nbatch_size = 8\n"}
ETAS = {"default": "", "eta=1e3": "eta = 1e3\n"}
# The benchmark's MLP: 256 samples, so each hidden layer's activations are 128 KiB.
MLP_BENCH = (
    "[run]\nproblem = mlp\ndims = 16,64,64,8\ndataset_size = 256\noptimizer = {optimizer}\n"
    "orth_method = newton_schulz\nnoise_kind = minibatch\nbatch_size = 32\nsteps = 64\n"
)


def invocations():
    """(label, argv, config text or None) for every invocation of the set."""
    for problem, dims in PROBLEMS.items():
        for optimizer in OPTIMIZERS:
            base = f"[run]\nproblem = {problem}\ndims = {dims}\noptimizer = {optimizer}\nsteps = 40\n"
            for orth in ORTH_METHODS:
                for noise, noise_text in NOISES.items():
                    for eta, eta_text in ETAS.items():
                        text = base + f"orth_method = {orth}\nrepeats = 2\n" + noise_text + eta_text
                        yield f"run {problem} {optimizer} {orth} {noise} {eta}", ["run"], text
            yield f"sweep {problem} {optimizer}", ["sweep"], base + "sigma = 0.5\n"
        yield f"sweep {problem} namo_d cs", ["sweep", "--cs", "0.25,1"], (
            f"[run]\nproblem = {problem}\ndims = {dims}\noptimizer = namo_d\nsteps = 40\n"
        )
    for optimizer in ("namo", "muon"):
        yield f"run mlp 16,64,64,8 {optimizer} newton_schulz minibatch=32", ["run"], MLP_BENCH.format(
            optimizer=optimizer
        )
    # b = 5: least squares scales by k / b = 12 / 5, which is inexact, so a reordering shows.
    for problem, dims in (("matrix_least_squares", "8,6,12"), ("mlp", "4,8,2")):
        yield f"run {problem} namo_d exact minibatch=5", ["run"], (
            f"[run]\nproblem = {problem}\ndims = {dims}\noptimizer = namo_d\nsteps = 40\n"
            "orth_method = exact\nrepeats = 2\nnoise_kind = minibatch\nbatch_size = 5\n"
        )
    for optimizer in OPTIMIZERS:
        rates = ["rates", "--problem", "matrix_least_squares", "--optimizer", optimizer, "--T", "16,32,64"]
        yield f"rates det {optimizer}", [*rates, "--regime", "det"], None
        yield f"rates stoch {optimizer}", [*rates, "--regime", "stoch", "--sigma", "0.5", "--b", "4"], None
        yield f"batch-adapt {optimizer}", [
            "batch-adapt", "--sigma", "0.5", "--b", "1,4,16", "--seeds", "0,1,2",
            "--optimizer", optimizer, "--T", "64",
        ], None
    # A repeated horizon or seed would count twice in the slope or the mean.
    yield "rates det namo T=16,32,64,64", [
        "rates", "--problem", "matrix_least_squares", "--optimizer", "namo", "--T", "16,32,64,64", "--regime", "det",
    ], None
    yield "batch-adapt namo seeds=0,1,2,2", [
        "batch-adapt", "--sigma", "0.5", "--b", "1,4,16", "--seeds", "0,1,2,2", "--T", "64",
    ], None
    # Divergence: a non-finite loss after one logged step (repeats = 2, so summary.csv gets NaN cells),
    # a non-finite gradient norm, a sweep with no finite run, and the experiments' numerical failure.
    lstsq = "[run]\nproblem = matrix_least_squares\ndims = 8,6,12\noptimizer = {optimizer}\nsteps = 40\n"
    for optimizer in OPTIMIZERS:
        yield f"run matrix_least_squares {optimizer} eta=1e100 diverges", ["run"], lstsq.format(
            optimizer=optimizer
        ) + "eta = 1e100\nwarmup_steps = 0\nrepeats = 2\n"
    yield "run matrix_least_squares adamw eta=1e153 diverges", ["run"], lstsq.format(
        optimizer="adamw"
    ) + "eta = 1e153\nwarmup_steps = 0\n"
    yield "sweep matrix_least_squares adamw etas=1e300,1e301 diverges", [
        "sweep", "--etas", "1e300,1e301",
    ], lstsq.format(optimizer="adamw")
    yield "rates stoch namo sigma=1e300 diverges", [
        "rates", "--problem", "matrix_least_squares", "--optimizer", "namo", "--T", "16,32,64",
        "--regime", "stoch", "--sigma", "1e300",
    ], None
    yield "batch-adapt namo sigma=1e300 diverges", [
        "batch-adapt", "--sigma", "1e300", "--b", "1,4", "--seeds", "1,2,3", "--T", "16",
    ], None
    # Config errors that only building the problem or its gradient oracle finds.
    for problem, dims, extra in (
        ("matrix_least_squares", "4,3", ""),
        ("matrix_factorization", "4,3", ""),
        ("matrix_factorization", "4,8,4", ""),
        ("mlp", "4,2", ""),
        ("matrix_least_squares", "8,6,12", f"sigma = 0.5\nbatch_size = {10**400}\n"),
    ):
        label = f"run {problem} dims={dims}" + (" sigma=0.5 batch_size=10**400" if extra else "")
        yield f"{label} config error", ["run"], (
            f"[run]\nproblem = {problem}\ndims = {dims}\noptimizer = namo\nsteps = 40\n" + extra
        )
    for seed in range(6):
        yield f"verify-lemmas seed={seed}", ["verify-lemmas", "--trials", "200", "--seed", str(seed)], None
    yield "verify-lemmas trials=1000 seed=2026", ["verify-lemmas", "--trials", "1000", "--seed", "2026"], None
    yield "verify-lemmas scale=0.5", ["verify-lemmas", "--trials", "200", "--snr-bound-scale", "0.5"], None
    yield "verify-lemmas trials=0", ["verify-lemmas", "--trials", "0"], None


def build_fingerprint() -> str:
    import numpy as np

    try:
        get_config = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_config64_
        get_config.restype = ctypes.c_char_p
        openblas = get_config().decode()
    except (AttributeError, OSError):
        openblas = None
    # the build's install paths say nothing about its arithmetic
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {key: value for key, value in blas.items() if "directory" not in key}
    return json.dumps(
        {
            "numpy": np.__version__,
            "blas": blas,
            "openblas_runtime": openblas,
            "machine": platform.machine(),
            "libc": platform.libc_ver(),
            "python": platform.python_version(),
        },
        sort_keys=True,
    )


def digest(main, argv, config_text) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        if config_text is not None:
            config = os.path.join(tmp, "run.ini")
            Path(config).write_text(config_text, encoding="utf-8")
            argv = [*argv, "--config", config]
        out_dir = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", out_dir])
        h = hashlib.sha256()
        for path in sorted(Path(out_dir).glob("*")) if os.path.isdir(out_dir) else []:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        for text in (stdout.getvalue(), stderr.getvalue()):
            h.update(text.replace(tmp, "<tmp>").encode() + b"\0")
        h.update(str(code).encode())
    return h.hexdigest()


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print("usage: python tools/golden.py <tree>", file=sys.stderr)
        return 2
    src = Path(args[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    from orthopt import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"orthopt was not imported from {src}", file=sys.stderr)
        return 2
    print(f"# build {build_fingerprint()}", flush=True)
    total = hashlib.sha256()
    for label, cli_argv, config_text in invocations():
        line = f"{digest(cli.main, cli_argv, config_text)}  {label}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
