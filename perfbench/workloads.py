"""Workload plans and output checks for the orthopt benchmark.

A workload *pass* is a fixed list of ``orthopt.cli.main`` invocations built
from one input family.  A run with seed ``s`` runs families ``s``, ``s + 1``,
... (mod ``FAMILIES``), so its medians average over the cost differences
between inputs, and ``reference.json`` can hold reference CSV values for
every input the benchmark can generate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

FAMILIES = 32

# Tolerance for comparing CSV values with the stored references:
# |got - ref| <= ATOL + RTOL * |ref|.  Loose enough for a change of SVD engine,
# which moves results by an ulp; tight enough to catch an SVD stopped at 1e-9
# orthogonality, which moves batch_adapt_exact results by 1e-11.
RTOL = 1e-12
ATOL = 1e-12

# Rows of a CSV longer than this are sampled at five fixed positions.
_FULL_ROWS = 16

BATCH_T = 64
BATCH_B = (1, 16, 256)
BATCH_SEEDS = 3
BATCH_OPTIMIZERS = ("namo", "namo_d")

MLP_DIMS = (16, 64, 64, 8)
MLP_STEPS = 64
MLP_REPEATS = 5
MLP_OPTIMIZERS = ("namo", "muon")

VERIFY_TRIALS = 32
VERIFY_SEEDS = 8


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    out: str  # output directory, relative to the pass directory
    units: int  # harness.run calls it makes (verify-lemmas: the invocation is the unit)
    work: int  # optimizer steps or randomized lemma trials


@dataclass(frozen=True)
class Plan:
    workload: str
    family: int
    invocations: tuple[Invocation, ...]
    unit_is_run: bool  # True: a unit is one harness.run call; False: one invocation
    work_name: str  # "steps_per_s" or "trials_per_s"
    expected_calls: dict = field(default_factory=dict)  # span -> calls per pass

    @property
    def units(self) -> int:
        return sum(inv.units for inv in self.invocations)

    @property
    def work(self) -> int:
        return sum(inv.work for inv in self.invocations)


def _batch_plan(k: int, pass_dir: str) -> Plan:
    steps = BATCH_T * len(BATCH_B) * BATCH_SEEDS
    seeds = ",".join(str(BATCH_SEEDS * k + i + 1) for i in range(BATCH_SEEDS))
    invocations = tuple(
        Invocation(
            argv=(
                "batch-adapt", "--sigma", "1.0", "--b", ",".join(map(str, BATCH_B)),
                "--seeds", seeds, "--optimizer", opt, "--T", str(BATCH_T),
                "--problem", "matrix_least_squares", "--dims", "8,6,12",
                "--problem-seed", str(k), "--out", os.path.join(pass_dir, opt),
            ),
            out=opt,
            units=len(BATCH_B) * BATCH_SEEDS,
            work=steps,
        )
        for opt in BATCH_OPTIMIZERS
    )
    runs = len(BATCH_OPTIMIZERS) * len(BATCH_B) * BATCH_SEEDS
    return Plan(
        workload="batch_adapt_exact",
        family=k,
        invocations=invocations,
        unit_is_run=True,
        work_name="steps_per_s",
        expected_calls={
            "harness.run": runs,
            "optimizers.namo_step": steps,
            "optimizers.namo_d_step": steps,
            "orthogonalize.exact": runs * BATCH_T,
            # one SVD per step, plus two spectral norms per problem build
            "linalg.reduced_svd": runs * (BATCH_T + 2),
            "problems.grad": 2 * runs * BATCH_T,
        },
    )


_MLP_INI = """\
[run]
problem = mlp
dims = {dims}
dataset_size = 256
optimizer = {optimizer}
orth_method = newton_schulz
noise_kind = minibatch
batch_size = 32
steps = {steps}
log_every = 1
repeats = {repeats}
seed = {seed}
problem_seed = {problem_seed}
"""


def _mlp_plan(k: int, pass_dir: str) -> Plan:
    config_dir = os.path.join(pass_dir, "configs")
    os.makedirs(config_dir, exist_ok=True)
    invocations = []
    for i, opt in enumerate(MLP_OPTIMIZERS):
        path = os.path.join(config_dir, f"family{k}-{opt}.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                _MLP_INI.format(
                    dims=",".join(map(str, MLP_DIMS)), optimizer=opt, steps=MLP_STEPS,
                    repeats=MLP_REPEATS, seed=1000 * k + 100 * i, problem_seed=k,
                )
            )
        invocations.append(
            Invocation(
                argv=("run", "--config", path, "--out", os.path.join(pass_dir, opt)),
                out=opt,
                units=MLP_REPEATS,
                work=MLP_REPEATS * MLP_STEPS,
            )
        )
    runs = len(MLP_OPTIMIZERS) * MLP_REPEATS
    layers = len(MLP_DIMS) - 1
    return Plan(
        workload="run_mlp_ns_minibatch",
        family=k,
        invocations=tuple(invocations),
        unit_is_run=True,
        work_name="steps_per_s",
        expected_calls={
            "harness.run": runs,
            "optimizers.namo_step": MLP_REPEATS * MLP_STEPS * layers,
            "optimizers.muon_step": MLP_REPEATS * MLP_STEPS * layers,
            "optimizers.adamw_step": runs * MLP_STEPS * layers,
            "orthogonalize.newton_schulz": runs * MLP_STEPS * layers,
            "linalg.reduced_svd": 0,
            "problems.minibatch_grad": runs * MLP_STEPS,
            "rng.sample_without_replacement": runs * MLP_STEPS,
        },
    )


def _verify_plan(k: int, pass_dir: str) -> Plan:
    invocations = tuple(
        Invocation(
            argv=(
                "verify-lemmas", "--trials", str(VERIFY_TRIALS),
                "--seed", str(VERIFY_SEEDS * k + j), "--out", os.path.join(pass_dir, f"seed{j}"),
            ),
            out=f"seed{j}",
            units=1,
            work=2 * VERIFY_TRIALS,  # SNR plus TRACE_OD trials
        )
        for j in range(VERIFY_SEEDS)
    )
    return Plan(
        workload="verify_lemmas",
        family=k,
        invocations=invocations,
        unit_is_run=False,
        work_name="trials_per_s",
        expected_calls={
            "cli.main": VERIFY_SEEDS,
            "verification.check_trace_inequality": VERIFY_SEEDS,
            "orthogonalize.exact": VERIFY_SEEDS * VERIFY_TRIALS,
            "linalg.nuclear_norm": VERIFY_SEEDS * VERIFY_TRIALS,
            # polar factor plus nuclear norm per TRACE_OD trial
            "linalg.reduced_svd": 2 * VERIFY_SEEDS * VERIFY_TRIALS,
        },
    )


WORKLOADS = {
    "batch_adapt_exact": _batch_plan,
    "run_mlp_ns_minibatch": _mlp_plan,
    "verify_lemmas": _verify_plan,
}


def make_plan(workload: str, seed: int, pass_dir: str) -> Plan:
    return WORKLOADS[workload](seed % FAMILIES, pass_dir)


# ---------------------------------------------------------------------------
# Output files: snapshot, reference summary and comparison.
# ---------------------------------------------------------------------------


def snapshot(plan: Plan, pass_dir: str) -> dict[str, bytes]:
    """Bytes of every file each invocation wrote, keyed by relative path."""
    files = {}
    for inv in plan.invocations:
        root = os.path.join(pass_dir, inv.out)
        if not os.path.isdir(root):
            continue
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as handle:
                files[f"{inv.out}/{name}"] = handle.read()
    return files


def _sample_rows(n: int) -> list[int]:
    if n <= _FULL_ROWS:
        return list(range(n))
    return sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})


def summarize(files: dict[str, bytes]) -> dict:
    """Reference form of a pass's output: header, row count, sampled rows."""
    out = {}
    for path, data in sorted(files.items()):
        lines = data.decode("utf-8").splitlines()
        rows = lines[1:]
        out[path] = {
            "header": lines[0] if lines else "",
            "rows": len(rows),
            "sample": {str(i): rows[i].split(",") for i in _sample_rows(len(rows))},
        }
    return out


def _cell_matches(got: str, ref: str) -> bool:
    if got == ref:
        return True
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return False
    return abs(g - r) <= ATOL + RTOL * abs(r)


def compare(reference: dict, files: dict[str, bytes]) -> list[str]:
    """Mismatches between a pass's files and their reference, as messages."""
    problems = []
    got = summarize(files)
    for path in sorted(set(reference) | set(got)):
        if path not in got:
            problems.append(f"{path}: missing")
            continue
        if path not in reference:
            problems.append(f"{path}: not in the reference")
            continue
        ref, cur = reference[path], got[path]
        if ref["header"] != cur["header"] or ref["rows"] != cur["rows"]:
            problems.append(f"{path}: header or row count differs")
            continue
        for idx, ref_cells in ref["sample"].items():
            cells = cur["sample"][idx]
            if len(cells) != len(ref_cells) or not all(map(_cell_matches, cells, ref_cells)):
                problems.append(f"{path}: row {idx} is {','.join(cells)}, reference {','.join(ref_cells)}")
    return problems
