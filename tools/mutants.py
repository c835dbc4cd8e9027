"""Mutation check: which deliberate semantic edits of ``src/orthopt`` the tests notice.

Usage::

    python tools/mutants.py [<tree>]

For each edit of ``CATALOGUE`` (a name, a file of ``src/orthopt``, an exact
text and its replacement), the tracked files of ``<tree>`` (default: the
tree holding this script), with their uncommitted changes, are unpacked from
``git archive`` of a ``git stash create`` commit (``HEAD`` when nothing is
changed) into a temporary directory, the edit is applied there, and pytest runs twice
in a subprocess: Tier-1 without ``tests/test_golden.py`` (``-x``; all that
guards CSV bytes on a build other than the one named in ``tools/golden.txt``),
then ``tests/test_golden.py`` alone.  Each edit's line reads ``killed``,
``survived`` or ``skipped`` (the digests on another build) per run, then the
first failing test of the first run that fails.  ``<tree>``'s files, index
and refs are left as they are (``git stash create`` only stores objects).

Every edit's text must occur exactly once in its archived file; the tool
checks all of them before running any, and exits 2 if one does not.  Else
the exit code is 1 when an edit survives the run without the digests, and 0
when none does.  It is run by hand, beside ``tools/uncovered.py``, not as
part of the test suite; a full pass takes about five minutes.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# (name, file under src/orthopt, old text, new text)
CATALOGUE = [
    # step rules
    ("namo_d_upper_clamp_c2", "optimizers.py", "d_bar / c)", "d_bar / c**2)"),
    (
        "bias_correction_mu_swapped",
        "optimizers.py",
        "math.sqrt(1.0 - hp.mu2**t) / (1.0 - hp.mu1**t)",
        "math.sqrt(1.0 - hp.mu1**t) / (1.0 - hp.mu2**t)",
    ),
    ("namo_weight_decay_sign", "optimizers.py", "alpha) * (o + hp.weight_decay", "alpha) * (o - hp.weight_decay"),
    ("muon_without_weight_decay", "optimizers.py", "update = hp.eta * (o + hp.weight_decay * th)", "update = hp.eta * o"),
    ("matrix_rule_for_3d_parameters", "optimizers.py", "return len(shape) == 2 and", "return len(shape) >= 2 and"),
    # orthogonalization
    ("exact_rank_cutoff_1e-6", "orthogonalize.py", "_RANK_TOLERANCE = 1e-12", "_RANK_TOLERANCE = 1e-6"),
    ("ns_coefficient_2.0", "orthogonalize.py", "(3.4445, -4.7750, 2.0315)", "(3.4445, -4.7750, 2.0)"),
    ("orth_config_takes_any_method", "orthogonalize.py", "if not isinstance(self.method, OrthMethod):", "if False:"),
    # run loop and experiments
    (
        "int_fields_take_any_value",
        "harness.py",
        'if parse is int and "." not in path and type(value := getattr(self, path)) is not int:',
        "if False:",
    ),
    ("dims_take_any_value", "harness.py", "if not all(type(d) is int and d >= 1 for d in dims):", "if False:"),
    (
        "experiments_truncate_to_int",
        "harness.py",
        "return int(value) if isinstance(value, np.integer) else value",
        "return int(value)",
    ),
    ("avg_grad_over_t_plus_1", "harness.py", "grad_norm_sum / t\n", "grad_norm_sum / (t + 1)\n"),
    ("warmup_over_step_plus_1", "harness.py", "eta * step / warmup_steps", "eta * (step + 1) / warmup_steps"),
    (
        "namo_d_min_aggregated_with_max",
        "harness.py",
        "min(float(np.min(d.d_clamped))",
        "max(float(np.min(d.d_clamped))",
    ),
    (
        "fallback_drops_weight_decay",
        "harness.py",
        'default_hyperparams("adamw", eta=hp.eta, weight_decay=hp.weight_decay)',
        'default_hyperparams("adamw", eta=hp.eta)',
    ),
    ("theorem_clamp_0.4", "harness.py", "_THEOREM_CLAMP_C = 0.5", "_THEOREM_CLAMP_C = 0.4"),
    ("stoch_eta_T^-0.7", "harness.py", '"eta": t_steps**-0.75', '"eta": t_steps**-0.7'),
    # problem oracles and noise
    ("batch_size_takes_any_value", "problems.py", "if type(self.batch_size) is not int:", "if False:"),
    ("lstsq_minibatch_without_k_over_b", "problems.py", "[(k / rows.size) * grad]", "[grad]"),
    ("factorization_grad_b_halved", "problems.py", ", params[0].T @ res]", ", 0.5 * (params[0].T @ res)]"),
    ("mlp_grad_without_batch_mean", "problems.py", "delta = err / xs.shape[0]", "delta = err"),
    (
        "additive_noise_without_1/P_split",
        "problems.py",
        "math.sqrt(noise.batch_size * total)",
        "math.sqrt(noise.batch_size)",
    ),
    # random numbers
    ("box_muller_angle_pi", "rng.py", "np.multiply(angles, 2.0 * np.pi,", "np.multiply(angles, np.pi,"),
    ("fisher_yates_swap_from_0", "rng.py", "j = i + offset", "j = offset"),
    # lemma checks
    (
        "trace_check_max_of_diagonal",
        "verification.py",
        "d_min = float(np.minimum.reduce(d))",
        "d_min = float(np.maximum.reduce(d))",
    ),
    # CLI exit codes
    ("exit_io_1", "cli.py", "EXIT_IO = 3", "EXIT_IO = 1"),
    (
        "exit_numerical_1",
        "cli.py",
        'numerical failure: {exc}", file=sys.stderr)\n        return EXIT_CHECK_FAILED',
        'numerical failure: {exc}", file=sys.stderr)\n        return EXIT_CONFIG',
    ),
]

_GOLDEN = "tests/test_golden.py"


def archive(tree: Path) -> bytes:
    """The tar bytes of ``tree``'s tracked files, uncommitted changes included."""
    git = ["git", "-C", str(tree)]
    rev = subprocess.run([*git, "stash", "create"], capture_output=True, text=True, check=True).stdout.strip()
    return subprocess.run([*git, "archive", "--format=tar", rev or "HEAD"], capture_output=True, check=True).stdout


def sources(tar_bytes: bytes) -> dict[str, str]:
    """The text of each ``src/orthopt`` module in an archive, by file name."""
    with tarfile.open(fileobj=io.BytesIO(tar_bytes)) as tar:
        prefix = "src/orthopt/"
        return {
            m.name[len(prefix) :]: tar.extractfile(m).read().decode("utf-8")
            for m in tar.getmembers()
            if m.isfile() and m.name.startswith(prefix) and m.name.endswith(".py")
        }


def check_catalogue(texts: dict[str, str]) -> list[str]:
    """One message per edit whose text does not occur exactly once in its file."""
    return [
        f"{name}: {old!r} occurs {texts.get(file, '').count(old)} times in {file}"
        for name, file, old, _ in CATALOGUE
        if texts.get(file, "").count(old) != 1
    ]


def pytest_verdict(root: Path, args: list[str]) -> tuple[str, str]:
    """``(killed|survived|skipped, first failing test)`` of one pytest run in ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # pyproject.toml puts root/src on the path
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode == 0:
        return ("skipped" if lines and " skipped" in lines[-1] and " passed" not in lines[-1] else "survived"), ""
    failed = [line.split(" - ", 1)[0].split(" ", 1)[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else (lines[-1] if lines else proc.stderr.strip()[-200:])


def run_edit(tar_bytes: bytes, file: str, old: str, new: str) -> tuple[tuple[str, str], tuple[str, str]]:
    """The verdicts without the digests and of the digests alone, on a fresh copy with one edit."""
    with tempfile.TemporaryDirectory(prefix="orthopt-mutant-") as tmp:
        root = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(tar_bytes)) as tar:
            tar.extractall(root)
        path = root / "src" / "orthopt" / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        return pytest_verdict(root, ["tests", f"--ignore={_GOLDEN}"]), pytest_verdict(root, [_GOLDEN])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    args = parser.parse_args(argv)
    tar_bytes = archive(Path(args.tree))
    stale = check_catalogue(sources(tar_bytes))
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2
    print(f"{'edit':34} {'tier-1 without digests':24} digests  first failing test")
    survivors = 0
    for name, file, old, new in CATALOGUE:
        (tier1, first), (digests, golden_first) = run_edit(tar_bytes, file, old, new)
        survivors += tier1 == "survived"
        print(f"{name:34} {tier1:24} {digests:8} {first or golden_first}", flush=True)
    print(f"{len(CATALOGUE) - survivors} of {len(CATALOGUE)} killed without the digests")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
