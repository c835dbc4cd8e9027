"""Batch experiment harness: runs, learning-rate sweeps, rate and batch-size
experiments, and deterministic CSV output.

A run is a pure function of its config: the config's canonical key=value form
is hashed into the RNG stream, every stochastic draw is counter-based, and
floats are written with 17 significant digits, so identical configs produce
byte-identical CSV files.  The CSV writer takes a ``(header, rows)`` table;
which files a command writes, and their columns, is the CLI's to say.

The logged gradient norm is always the deterministic full gradient at the
pre-step iterate, shared with the loss evaluation through the fused
``loss_and_grad`` (and reused by the additive-noise oracle); its running
average is the quantity the convergence guarantees bound, so that is what
gets measured.
Each run builds its gradient oracle once; it draws additive noise per block
of steps, and CSV bytes do not depend on the block size.
For multi-parameter problems the per-step diagnostics columns aggregate over
matrix-routed parameters: ``alpha`` and ``d_bar`` are means, ``d_min``/
``d_max`` are the global extremes of the clamped stepsizes.
Rate and batch-size experiments run ``theorem_schedule`` with unit constants.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import math
import os
from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InputError, NumericalError
from .optimizers import (
    AdamWState,
    HyperParams,
    MuonState,
    NamoDState,
    NamoState,
    StepDiagnostics,
    adamw_step,
    is_matrix_parameter,
    muon_step,
    namo_d_step,
    namo_step,
)
from .orthogonalize import EXACT, OrthConfig, OrthMethod
from .problems import (
    NoiseModel,
    Problem,
    _gradient_oracle,
    make_matrix_factorization,
    make_matrix_least_squares,
    make_mlp_problem,
)
from .rng import Rng
from .verification import estimate_rate_slope

# Each optimizer's training recipe, as what it changes from the HyperParams
# defaults: its learning rate, weight decay 0.01 everywhere, (0.9, 0.95)
# moments for the AdamW baseline and the vector/scalar fallback, and NAMO-D's
# clamp constant.
RECIPES = {
    "namo": dict(eta=0.012, weight_decay=0.01),
    "namo_d": dict(eta=0.009, weight_decay=0.01, clamp_c=0.1),
    "muon": dict(eta=0.0013, weight_decay=0.01),
    "adamw": dict(eta=0.0013, mu1=0.9, mu2=0.95, weight_decay=0.01),
}
OPTIMIZER_IDS = tuple(RECIPES)

# Reference sweep grids (per-optimizer learning rates, and clamp constants
# for the diagonal variant).
DEFAULT_ETA_GRIDS = {
    "adamw": (0.0006, 0.0009, 0.0013, 0.0018, 0.0025),
    "muon": (0.0006, 0.0009, 0.0013, 0.0018, 0.0025),
    "namo": (0.005, 0.007, 0.009, 0.012, 0.015),
    "namo_d": (0.005, 0.007, 0.009, 0.012, 0.015),
}
DEFAULT_C_GRID = (0.12, 0.40, 0.75, 0.90)

STATUS_OK = "ok"
STATUS_DIVERGED = "diverged"


@dataclass(frozen=True)
class RunConfig:
    problem: str
    problem_dims: tuple[int, ...]
    optimizer: str
    hyper: HyperParams
    steps: int
    noise: NoiseModel = field(default_factory=NoiseModel)
    problem_seed: int = 0
    dataset_size: int = 64
    warmup_steps: int = 0
    log_every: int = 1
    seed: int = 0
    repeats: int = 1

    def __post_init__(self) -> None:
        # noise.batch_size and hyper.orth.ns_iterations are their owners' to check
        for path, parse in _CONFIG_KEYS.values():
            if parse is int and "." not in path and type(value := getattr(self, path)) is not int:
                raise ConfigError(f"{path} must be an int, got {value!r}")
        if self.optimizer not in OPTIMIZER_IDS:
            raise ConfigError(f"unknown optimizer id: {self.optimizer!r}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.dataset_size < 1:
            raise ConfigError("dataset_size must be positive")
        if not 0 <= self.warmup_steps < self.steps:
            raise ConfigError("warmup_steps must satisfy 0 <= warmup_steps < steps")
        if not effective_eta(self.hyper.eta, 1, self.warmup_steps) > 0.0:
            raise ConfigError("eta is too small for warmup: eta / warmup_steps rounds to 0")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")


@dataclass(frozen=True)
class RunRecord:
    step: int
    loss: float
    grad_fro: float
    avg_grad_fro: float
    alpha: Optional[float] = None
    d_bar: Optional[float] = None
    d_min: Optional[float] = None
    d_max: Optional[float] = None


@dataclass(frozen=True)
class RunResult:
    records: tuple[RunRecord, ...]
    status: str
    steps_completed: int
    final_loss: float
    final_avg_grad: float


def default_warmup(steps: int) -> int:
    """Desk-scale warmup default: one twentieth of the horizon."""
    if steps < 2:
        return 0
    return max(1, steps // 20)


def default_hyperparams(optimizer: str, **overrides) -> HyperParams:
    """The optimizer's training recipe, with ``overrides`` applied."""
    if optimizer not in RECIPES:
        raise ConfigError(f"unknown optimizer id: {optimizer!r}")
    return HyperParams(**{**RECIPES[optimizer], **overrides})


def effective_eta(eta: float, step: int, warmup_steps: int) -> float:
    """Linear warmup from zero over ``warmup_steps``, then constant."""
    if warmup_steps > 0 and step < warmup_steps:
        return eta * step / warmup_steps
    return eta


def make_problem(config: RunConfig) -> Problem:
    return build_problem(config.problem, config.problem_dims, config.problem_seed, config.dataset_size)


def build_problem(name: str, dims: Sequence[int], seed: int, dataset_size: int = RunConfig.dataset_size) -> Problem:
    if not all(type(d) is int and d >= 1 for d in dims):
        raise ConfigError(f"dimensions must be positive ints, got {dims!r}")
    if name == "matrix_least_squares":
        if len(dims) != 3:
            raise ConfigError("matrix_least_squares needs dims (m, n, k)")
        return make_matrix_least_squares(dims[0], dims[1], dims[2], seed)
    if name == "matrix_factorization":
        if len(dims) != 3:
            raise ConfigError("matrix_factorization needs dims (m, r, n)")
        return make_matrix_factorization(dims[0], dims[1], dims[2], seed)
    if name == "mlp":
        return make_mlp_problem(dims, dataset_size, seed)
    raise ConfigError(f"unknown problem: {name!r}")


# ---------------------------------------------------------------------------
# Config files: flat INI with a [run] section, canonicalized before hashing
# into the RNG stream so formatting differences cannot change a run.
# ---------------------------------------------------------------------------


def _word(value: str) -> str:
    return value.strip().lower()


def _dims(value) -> tuple[int, ...]:
    return tuple(int(d) for d in (value.split(",") if isinstance(value, str) else value))


def _orth_method(value) -> OrthMethod:
    return value if isinstance(value, OrthMethod) else OrthMethod(_word(value).replace("-", "_"))


# The config schema: each config-file key, the RunConfig field it sets (a
# dotted path through hyper, hyper.orth and noise) and its parser, which
# takes file text or a field value to the field's type.  A key left out of a
# file takes its dataclass default, or default_hyperparams/default_warmup
# where the default depends on the optimizer or on steps.
_CONFIG_KEYS = {
    "problem": ("problem", str.strip),
    "dims": ("problem_dims", _dims),
    "problem_seed": ("problem_seed", int),
    "dataset_size": ("dataset_size", int),
    "optimizer": ("optimizer", _word),
    "eta": ("hyper.eta", float),
    "mu1": ("hyper.mu1", float),
    "mu2": ("hyper.mu2", float),
    "epsilon": ("hyper.epsilon", float),
    "weight_decay": ("hyper.weight_decay", float),
    "clamp_c": ("hyper.clamp_c", float),
    "orth_method": ("hyper.orth.method", _orth_method),
    "ns_iterations": ("hyper.orth.ns_iterations", int),
    "steps": ("steps", int),
    "warmup_steps": ("warmup_steps", int),
    "log_every": ("log_every", int),
    "seed": ("seed", int),
    "repeats": ("repeats", int),
    "sigma": ("noise.sigma", float),
    "batch_size": ("noise.batch_size", int),
    "noise_kind": ("noise.kind", _word),
}


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return value.value if isinstance(value, OrthMethod) else str(value)


def canonical_config_text(config: RunConfig) -> str:
    """Sorted ``key=value`` lines of every config key except ``repeats`` (the
    CLI gives each repeat its own seed).  Values pass through their key's
    parser, so numerically equal configs (``sigma`` 1, 1.0 or
    ``np.float64(1.0)``) have one text and one RNG stream."""
    return "\n".join(
        f"{key}={_text(parse(attrgetter(path)(config)))}"
        for key, (path, parse) in sorted(_CONFIG_KEYS.items())
        if key != "repeats"
    )


def derive_stream(config: RunConfig) -> int:
    digest = hashlib.sha256(canonical_config_text(config).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def load_run_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError("file not found or unreadable")
        if not parser.has_section("run"):
            raise ConfigError("no [run] section")
        return config_from_mapping(dict(parser.items("run")))
    except (configparser.Error, ValueError) as exc:  # also ConfigError, UnicodeDecodeError
        raise ConfigError(f"invalid config {path}: {exc}") from exc


# RunConfig fields with no default: their keys must be present.
_REQUIRED_FIELDS = {f.name for f in fields(RunConfig) if f.default is f.default_factory is MISSING}


def config_from_mapping(section: dict) -> RunConfig:
    unknown = sorted(set(section) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    missing = [k for k, (path, _) in _CONFIG_KEYS.items() if path in _REQUIRED_FIELDS and k not in section]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")
    # parsed values grouped by the dataclass they belong to ("" is RunConfig)
    values = defaultdict(dict)
    for key, text in section.items():
        path, parse = _CONFIG_KEYS[key]
        owner, _, name = path.rpartition(".")
        try:
            values[owner][name] = parse(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid value for {key!r}: {exc}") from exc
    top = values[""]
    orth = OrthConfig(**values["hyper.orth"])
    hyper = default_hyperparams(top["optimizer"], orth=orth, **values["hyper"])
    top.setdefault("warmup_steps", default_warmup(top["steps"]))
    return RunConfig(**top, hyper=hyper, noise=NoiseModel(**values["noise"]))


# ---------------------------------------------------------------------------
# Core run loop.
# ---------------------------------------------------------------------------


_STEPS = {"namo": namo_step, "namo_d": namo_d_step, "muon": muon_step, "adamw": adamw_step}
_STATES = {"namo": NamoState, "namo_d": NamoDState, "muon": MuonState, "adamw": AdamWState}


def _grad_norm(grads: list[np.ndarray]) -> float:
    """Frobenius norm over all gradients; inf when the sum of squares overflows."""
    try:
        return math.sqrt(math.fsum(float(np.add.reduce(g * g, axis=None)) for g in grads))
    except OverflowError:  # fsum of finite terms past the float maximum
        return math.inf


def _aggregate_diagnostics(diags: list[StepDiagnostics]):
    alphas = [d.alpha for d in diags if d.alpha is not None]
    namo_d = [d for d in diags if d.d_clamped is not None]
    return (
        sum(alphas) / len(alphas) if alphas else None,
        sum(d.d_bar for d in namo_d) / len(namo_d) if namo_d else None,
        min(float(np.min(d.d_clamped)) for d in namo_d) if namo_d else None,
        max(float(np.max(d.d_clamped)) for d in namo_d) if namo_d else None,
    )


def run(config: RunConfig) -> RunResult:
    """Execute one optimization run; deterministic given the config."""
    problem = make_problem(config)
    theta = problem.initial_params()
    hp = config.hyper
    fallback_hp = default_hyperparams("adamw", eta=hp.eta, weight_decay=hp.weight_decay)
    rng = Rng(config.seed, stream=derive_stream(config))
    oracle = _gradient_oracle(problem, config.noise, rng, config.steps)

    plans = [
        (config.optimizer, hp)
        if config.optimizer == "adamw" or is_matrix_parameter(p.shape)
        else ("adamw", fallback_hp)
        for p in theta
    ]
    states = [_STATES[name].zero(p.shape) for (name, _), p in zip(plans, theta)]

    records: list[RunRecord] = []
    grad_norm_sum = 0.0
    steps_completed = 0
    # Divergence is detected explicitly through the gradient norm, the steps'
    # own gradient check and the loss, so float overflow along the way is
    # expected rather than an error.
    with np.errstate(over="ignore", invalid="ignore"):
        # Gradient at theta_0; afterwards the one at theta_t comes with its loss.
        full_grads = problem.grad(theta)
        for t in range(1, config.steps + 1):
            if not all(np.isfinite(p).all() for p in theta):
                break
            grad_norm = _grad_norm(full_grads)
            if not math.isfinite(grad_norm):
                break
            grad_norm_sum += grad_norm
            avg_grad = grad_norm_sum / t

            grads = oracle(theta, full_grads)

            eta_t = effective_eta(hp.eta, t, config.warmup_steps)
            # replace() re-validates HyperParams, so only warmup steps pay for it.
            plans_t = plans if eta_t == hp.eta else [(n, replace(p, eta=eta_t)) for n, p in plans]
            diags: list[StepDiagnostics] = []
            try:
                for i, ((name, hp_t), grad) in enumerate(zip(plans_t, grads)):
                    theta[i], states[i], diag = _STEPS[name](theta[i], grad, states[i], hp_t)
                    diags.append(diag)
            except InputError:  # overflowing noise made a gradient non-finite
                break

            loss, full_grads = problem.loss_and_grad(theta)
            if not math.isfinite(loss):
                break
            steps_completed = t
            if t % config.log_every == 0 or t == config.steps:
                alpha, d_bar, d_min, d_max = _aggregate_diagnostics(diags)
                records.append(
                    RunRecord(
                        step=t,
                        loss=loss,
                        grad_fro=grad_norm,
                        avg_grad_fro=avg_grad,
                        alpha=alpha,
                        d_bar=d_bar,
                        d_min=d_min,
                        d_max=d_max,
                    )
                )

    ok = steps_completed == config.steps
    return RunResult(
        records=tuple(records),
        status=STATUS_OK if ok else STATUS_DIVERGED,
        steps_completed=steps_completed,
        final_loss=loss if ok else math.nan,
        final_avg_grad=avg_grad if ok else math.nan,
    )


# ---------------------------------------------------------------------------
# Sweeps and experiments: each builds, so checks, every config before its first run.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    eta: float
    c: Optional[float]
    final_loss: float
    final_avg_grad: float
    status: str


@dataclass(frozen=True)
class SweepResult:
    entries: tuple[SweepEntry, ...]
    best: Optional[SweepEntry]  # None when every run diverged


def lr_sweep(base: RunConfig, etas: Sequence[float], cs: Optional[Sequence[float]] = None) -> SweepResult:
    """Grid sweep over learning rates (and clamp constants for namo_d).

    The argmin is over completed runs only, by final training loss, with ties
    broken toward the smaller learning rate (then smaller c).
    """
    eta_grid = [float(eta) for eta in etas]
    if not eta_grid:
        raise ConfigError("eta grid must be nonempty")
    if cs is not None and base.optimizer != "namo_d":
        raise ConfigError("a c grid only applies to the namo_d optimizer")
    c_grid = [None] if cs is None else [float(c) for c in cs]
    if not c_grid:
        raise ConfigError("c grid must be nonempty")

    grid = list(itertools.product(eta_grid, c_grid))
    hypers = [replace(base.hyper, eta=eta, clamp_c=base.hyper.clamp_c if c is None else c) for eta, c in grid]
    results = map(run, [replace(base, hyper=hp) for hp in hypers])
    entries = [SweepEntry(eta, c, r.final_loss, r.final_avg_grad, r.status) for (eta, c), r in zip(grid, results)]
    completed = [e for e in entries if e.status == STATUS_OK]
    best = min(
        completed,
        key=lambda e: (e.final_loss, e.eta, e.c if e.c is not None else 0.0),
        default=None,
    )
    return SweepResult(entries=tuple(entries), best=best)


def theorem_schedule(regime: str, t_steps: int) -> dict:
    """Hyperparameter schedules of the convergence theorems, with unit constants.

    Deterministic regime: eta = T^(-1/2), eps = T^(-1/2), constant moments.
    Stochastic regime: eta = T^(-3/4), 1 - mu1 = 1 - mu2 = T^(-1/2),
    eps = T^(-1/2).
    """
    if t_steps < 1:
        raise ConfigError(f"the horizon T must be >= 1, got {t_steps}")
    if regime == "det":
        return {
            "eta": t_steps**-0.5,
            "mu1": 0.95,
            "mu2": 0.99,
            "epsilon": t_steps**-0.5,
        }
    if regime == "stoch":
        gap = t_steps**-0.5
        return {
            "eta": t_steps**-0.75,
            "mu1": 1.0 - gap,
            "mu2": 1.0 - gap,
            "epsilon": gap,
        }
    raise ConfigError(f"unknown regime: {regime!r} (expected 'det' or 'stoch')")


# NAMO-D clamp constant of the theorem-schedule experiments.
_THEOREM_CLAMP_C = 0.5


def _unwrap(value):
    """A numpy integer as its ``int``, else ``value`` as it is for its config to check."""
    return int(value) if isinstance(value, np.integer) else value


def _theorem_config(name, dims, optimizer, regime, t_steps, **fields) -> RunConfig:
    """A run under ``theorem_schedule``: EXACT orthogonalization, no weight decay
    or warmup, only the final step logged; ``fields`` sets noise and seeds."""
    hp = HyperParams(
        **theorem_schedule(regime, t_steps),
        weight_decay=0.0,
        clamp_c=_THEOREM_CLAMP_C if optimizer == "namo_d" else 1.0,
        orth=EXACT,
    )
    dims = tuple(map(_unwrap, dims))
    return RunConfig(name, dims, optimizer, hp, t_steps, warmup_steps=0, log_every=t_steps, **fields)


@dataclass(frozen=True)
class RateResult:
    slope: float
    points: tuple[tuple[int, float], ...]


def rate_experiment(
    problem_name: str,
    problem_dims: Sequence[int],
    optimizer: str,
    t_list: Sequence[int],
    regime: str,
    seed: int,
    problem_seed: int,
    sigma: float = 0.0,
    batch_size: int = 1,
) -> RateResult:
    """Convergence-rate probe: run each horizon under its theorem schedule
    and fit the log-log slope of the final averaged gradient norm.

    ``t_list`` holds at least three distinct, geometrically spaced horizons.
    Diverged horizons are dropped; fewer than three survivors is an error.
    """
    t_list = list(map(_unwrap, t_list))
    if len(set(t_list)) < 3:
        raise ConfigError("rate experiments need at least 3 distinct T values")
    if len(set(t_list)) < len(t_list):
        raise ConfigError(f"a T value is repeated: {t_list}")
    config = partial(
        _theorem_config, problem_name, problem_dims, optimizer, regime, problem_seed=problem_seed, seed=seed
    )
    noise = NoiseModel(sigma=sigma, batch_size=batch_size)
    configs = [config(t, noise=noise) for t in t_list]
    points = [(t, r.final_avg_grad) for t, r in zip(t_list, map(run, configs)) if r.status == STATUS_OK]
    if len(points) < 3:
        raise NumericalError(
            f"only {len(points)} of {len(t_list)} horizons completed; cannot fit a slope"
        )
    return RateResult(slope=estimate_rate_slope(points), points=tuple(points))


@dataclass(frozen=True)
class BatchAdaptResult:
    rows: tuple[tuple[int, float], ...]


def batch_adaptation_experiment(
    problem_name: str,
    problem_dims: Sequence[int],
    optimizer: str,
    t_steps: int,
    sigma: float,
    b_list: Sequence[int],
    seeds: Sequence[int],
    problem_seed: int,
) -> BatchAdaptResult:
    """Mean final averaged gradient norm per batch size, stochastic schedule."""
    t_steps, b_list, seeds = _unwrap(t_steps), list(map(_unwrap, b_list)), list(map(_unwrap, seeds))
    if not b_list or any(b2 <= b1 for b1, b2 in zip(b_list, b_list[1:])):
        raise ConfigError("b_list must be non-empty and strictly increasing")
    if len(set(seeds)) < 3:
        raise ConfigError("need at least 3 distinct seeds")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"a seed is repeated: {seeds}")
    config = partial(
        _theorem_config, problem_name, problem_dims, optimizer, "stoch", t_steps, problem_seed=problem_seed
    )
    grid = [[config(noise=NoiseModel(sigma=sigma, batch_size=b), seed=s) for s in seeds] for b in b_list]
    rows: list[tuple[int, float]] = []
    for b, configs in zip(b_list, grid):
        finals = [r.final_avg_grad for r in map(run, configs) if r.status == STATUS_OK]
        if not finals:
            raise NumericalError(f"all runs diverged at batch size {b}")
        rows.append((b, sum(finals) / len(finals)))
    return BatchAdaptResult(rows=tuple(rows))


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return ""
        return f"{v:.17g}"
    return str(value)


def render_csv(table) -> str:
    """Render a ``(header, rows)`` table to CSV text: the header line, then one
    line per row with LF newlines; None and NaN are empty cells."""
    header, rows = table
    return "".join([header + "\n", *(",".join(map(_fmt, row)) + "\n" for row in rows)])


def write_csv(table, path) -> None:
    """Write a ``(header, rows)`` table to ``path`` as UTF-8 CSV with LF endings,
    creating the parent directory first; byte-stable per table."""
    text = render_csv(table)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc
