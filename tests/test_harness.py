import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthopt import harness, problems
from orthopt.errors import ConfigError
from orthopt.harness import (
    OPTIMIZER_IDS,
    BatchAdaptResult,
    RunConfig,
    RunRecord,
    STATUS_DIVERGED,
    STATUS_OK,
    SweepEntry,
    batch_adaptation_experiment,
    build_problem,
    canonical_config_text,
    config_from_mapping,
    default_hyperparams,
    derive_stream,
    effective_eta,
    load_run_config,
    lr_sweep,
    rate_experiment,
    render_csv,
    run,
    theorem_schedule,
    write_csv,
)
from orthopt.optimizers import HyperParams
from orthopt.orthogonalize import OrthConfig, OrthMethod
from orthopt.problems import NoiseKind, NoiseModel
from orthopt.verification import LemmaReport


RUN_HEADER = "step,loss,grad_fro,avg_grad_fro,alpha,d_bar,d_min,d_max"


def run_table(result):
    """The ``(header, rows)`` table of ``result``'s records, as ``run.csv`` holds them."""
    return RUN_HEADER, [dataclasses.astuple(r) for r in result.records]


def small_config(optimizer="namo", steps=40, **kwargs):
    defaults = dict(
        problem="matrix_least_squares",
        problem_dims=(4, 3, 6),
        optimizer=optimizer,
        hyper=default_hyperparams(optimizer, eta=0.05, weight_decay=0.0),
        steps=steps,
        warmup_steps=0,
        log_every=1,
        seed=3,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def momentum_overflow_config(optimizer):
    return small_config(
        optimizer,
        steps=60,
        problem="matrix_factorization",
        problem_dims=(8, 3, 6),
        seed=0,
        hyper=default_hyperparams(optimizer, eta=1e8),
        noise=NoiseModel(sigma=0.5),
    )


# Muon step size at which the gradient's per-parameter sums of squares stay
# finite while their total overflows the float range.
GRAD_NORM_OVERFLOW_ETA = 1.809689501902376e51


def grad_norm_overflow_config():
    hyper = default_hyperparams("muon", eta=GRAD_NORM_OVERFLOW_ETA)
    return replace(momentum_overflow_config("muon"), steps=30, hyper=hyper)


def record_step_calls(monkeypatch, name):
    """A list that gains ``(hp, diagnostics)`` for each call of ``harness._STEPS[name]``."""
    calls, step = [], harness._STEPS[name]

    def recording(theta, grad, state, hp):
        out = step(theta, grad, state, hp)
        calls.append((hp, out[2]))
        return out

    monkeypatch.setitem(harness._STEPS, name, recording)
    return calls


class TestRun:
    def test_descent_on_benign_problem(self):
        result = run(small_config())
        assert result.status == STATUS_OK
        assert result.records[-1].grad_fro < result.records[0].grad_fro
        assert result.records[-1].loss < result.records[0].loss

    def test_determinism(self):
        a = run(small_config())
        b = run(small_config())
        assert a == b
        assert render_csv(run_table(a)) == render_csv(run_table(b))

    def test_divergence_truncates_records(self):
        # the orthogonalized update itself is norm-bounded, so blow-up comes
        # through the decoupled weight-decay term once eta * lambda >> 1
        cfg = small_config(steps=60, hyper=default_hyperparams("namo", eta=1e6))
        result = run(cfg)
        assert result.status == STATUS_DIVERGED
        assert result.steps_completed < cfg.steps
        assert all(math.isfinite(r.loss) for r in result.records)
        assert math.isnan(result.final_loss)

    @pytest.mark.parametrize("optimizer", ["namo", "namo_d"])
    def test_huge_eta_with_rank_one_momentum_finishes(self, optimizer):
        # at eta=1e3 the 6x3 momentum becomes numerically rank one, which an
        # SVD must handle without raising
        cfg = small_config(
            optimizer,
            steps=60,
            problem="mlp",
            problem_dims=(4, 6, 3),
            seed=0,
            hyper=default_hyperparams(optimizer, eta=1e3),
            noise=NoiseModel(sigma=0.5),
        )
        assert run(cfg).status in (STATUS_OK, STATUS_DIVERGED)

    @pytest.mark.parametrize("optimizer", ["namo", "namo_d"])
    def test_momentum_overflow_ends_diverged(self, optimizer):
        # at eta=1e8 the weight-decay term overflows the update to inf; the
        # step diagnostics must not reject it before the loss check sees it
        cfg = momentum_overflow_config(optimizer)
        result = run(cfg)
        assert result.status == STATUS_DIVERGED
        assert 0 < result.steps_completed < cfg.steps
        assert all(math.isfinite(r.loss) for r in result.records)

    @pytest.mark.parametrize("optimizer", ["namo", "namo_d"])
    def test_sweep_records_overflowing_etas_as_diverged(self, optimizer):
        sweep = lr_sweep(momentum_overflow_config(optimizer), [1e-3, 1e8, 1e150])
        assert [e.status for e in sweep.entries] == [STATUS_OK, STATUS_DIVERGED, STATUS_DIVERGED]
        assert sweep.best.eta == 1e-3

    def test_grad_norm_overflow_ends_diverged(self):
        result = run(grad_norm_overflow_config())
        assert result.status == STATUS_DIVERGED
        assert all(math.isfinite(r.grad_fro) for r in result.records)

    def test_sweep_records_grad_norm_overflow_as_diverged(self):
        sweep = lr_sweep(grad_norm_overflow_config(), [1e-3, GRAD_NORM_OVERFLOW_ETA])
        assert [e.status for e in sweep.entries] == [STATUS_OK, STATUS_DIVERGED]

    def test_overflowing_parameters_end_diverged_with_a_finite_loss(self, monkeypatch):
        # The loss and gradient stay finite while AdamW's steps of about eta take theta
        # past the float maximum, so only the check on theta stops the run.
        def loss_and_grad(params, rows=None):
            return 1.0, [np.ones_like(p) for p in params]

        problem = problems.Problem(name="flat", loss_and_grad=loss_and_grad, theta0=(np.zeros(3),))
        monkeypatch.setattr(harness, "make_problem", lambda config: problem)
        result = run(small_config("adamw", steps=10, hyper=default_hyperparams("adamw", eta=1e308, weight_decay=0.0)))
        assert result.status == STATUS_DIVERGED
        assert result.steps_completed == 2  # theta is -1e308 after step 1 and -inf after step 2
        assert [r.loss for r in result.records] == [1.0, 1.0]

    @pytest.mark.parametrize("optimizer", OPTIMIZER_IDS)
    def test_three_dim_parameter_takes_the_adamw_fallback(self, optimizer, monkeypatch):
        # the (3, 2) matrix takes the run's rule and the (2, 3, 4) parameter AdamW
        targets = (np.ones((3, 2)), np.ones((2, 3, 4)))

        def loss_and_grad(params, rows=None):
            diffs = [p - t for p, t in zip(params, targets)]
            return 0.5 * sum(float(np.sum(d * d)) for d in diffs), diffs

        problem = problems.Problem(name="hand_built", loss_and_grad=loss_and_grad, theta0=map(np.zeros_like, targets))
        monkeypatch.setattr(harness, "make_problem", lambda config: problem)
        calls = record_step_calls(monkeypatch, "adamw")
        assert run(small_config(optimizer, steps=5)).status == STATUS_OK
        assert len(calls) == (10 if optimizer == "adamw" else 5)

    @pytest.mark.parametrize("optimizer", ["adamw", "muon"])
    def test_noise_overflow_ends_diverged(self, optimizer):
        # sigma=1.7e308 overflows a noisy gradient to inf; the step rejects it
        # and the run stops before that step, as it does on a non-finite loss
        cfg = config_from_mapping(
            {"problem": "matrix_least_squares", "dims": "2,2,4", "optimizer": optimizer,
             "steps": "50", "log_every": "1", "sigma": "1.7e308"}
        )
        result = run(cfg)
        assert result.status == STATUS_DIVERGED
        assert 0 < result.steps_completed < cfg.steps
        assert [r.step for r in result.records] == list(range(1, result.steps_completed + 1))
        assert all(math.isfinite(r.loss) for r in result.records)

    def test_running_average_recomputes_offline(self):
        result = run(small_config(steps=25))
        grads = [r.grad_fro for r in result.records]
        for i, record in enumerate(result.records):
            recomputed = sum(grads[: i + 1]) / (i + 1)
            assert record.avg_grad_fro == pytest.approx(recomputed, abs=1e-12)

    def test_log_every_and_final_row(self):
        result = run(small_config(steps=25, log_every=10))
        assert [r.step for r in result.records] == [10, 20, 25]

    def test_namo_diagnostics_logged(self):
        result = run(small_config("namo"))
        hp = default_hyperparams("namo")
        for record in result.records:
            assert record.alpha is not None and record.alpha < hp.alpha_bound()
            assert record.d_bar is None

    def test_namo_d_diagnostics_logged(self):
        cfg = small_config("namo_d")
        cfg = replace(cfg, hyper=replace(cfg.hyper, clamp_c=0.4))
        result = run(cfg)
        for record in result.records:
            assert record.d_bar is not None
            assert record.d_min <= record.d_bar / 0.4 + 1e-12
            assert record.d_max / record.d_min <= 1.0 / 0.4**2 + 1e-9

    def test_adamw_runs_everything(self):
        result = run(small_config("adamw"))
        assert result.status == STATUS_OK
        assert all(r.alpha is None and r.d_bar is None for r in result.records)

    def test_mlp_routes_mixed_parameters(self):
        cfg = small_config(
            problem="mlp",
            problem_dims=(3, 4, 2),
            dataset_size=12,
            steps=15,
            hyper=default_hyperparams("namo", eta=0.02, weight_decay=0.0),
        )
        result = run(cfg)
        assert result.status == STATUS_OK
        assert result.records[-1].alpha is not None  # matrix params stepped by namo

    def test_namo_d_records_extremes_over_matrix_parameters(self, monkeypatch):
        # an MLP 4-8-8-2 has three weight matrices: each record's d_min and
        # d_max are the extremes of their clamped stepsizes at that step, and
        # d_bar is the mean of their d_bar
        calls = record_step_calls(monkeypatch, "namo_d")
        cfg = small_config(
            "namo_d", problem="mlp", problem_dims=(4, 8, 8, 2), dataset_size=16, steps=12,
            hyper=default_hyperparams("namo_d", eta=0.02),
        )
        result = run(cfg)
        assert result.status == STATUS_OK and len(calls) == 3 * cfg.steps
        spread = 0
        for record in result.records:
            diags = [diag for _, diag in calls[3 * (record.step - 1) : 3 * record.step]]
            mins = [float(np.min(d.d_clamped)) for d in diags]
            assert record.d_min == min(mins)
            assert record.d_max == max(float(np.max(d.d_clamped)) for d in diags)
            assert record.d_bar == pytest.approx(sum(d.d_bar for d in diags) / 3, rel=1e-15)
            spread += min(mins) < max(mins)
        assert spread  # the parameters' minima differ, so the extreme is a real choice

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_fallback_steps_take_the_runs_weight_decay(self, monkeypatch, weight_decay):
        # NAMO steps an MLP's weight matrices; AdamW steps its two bias vectors
        # with the run's learning rate and weight decay, not its own recipe's
        calls = record_step_calls(monkeypatch, "adamw")
        cfg = small_config(
            problem="mlp", problem_dims=(3, 4, 2), dataset_size=12, steps=6,
            hyper=default_hyperparams("namo", eta=0.02, weight_decay=weight_decay),
        )
        assert run(cfg).status == STATUS_OK and len(calls) == 2 * cfg.steps
        assert {(hp.eta, hp.weight_decay) for hp, _ in calls} == {(0.02, weight_decay)}

    def test_warmup_scales_first_update_exactly(self):
        base = small_config(steps=2, warmup_steps=0, log_every=1)
        warm = small_config(steps=8, warmup_steps=4, log_every=1)
        full = run(base).records[0]
        scaled = run(warm).records[0]
        # alpha is eta-independent; the first-step loss drop reflects eta/4 vs
        # eta, so compare the actual parameter displacement via grad change
        assert scaled.alpha == pytest.approx(full.alpha, abs=1e-12)
        assert effective_eta(0.05, 1, 4) == 0.05 * 1 / 4
        assert effective_eta(0.05, 3, 4) == 0.05 * 3 / 4
        assert effective_eta(0.05, 4, 4) == 0.05
        assert effective_eta(0.05, 9, 4) == 0.05
        assert effective_eta(0.05, 1, 0) == 0.05

    def test_minibatch_full_batch_equals_zero_noise_records(self):
        cfg_kwargs = dict(
            problem="mlp",
            problem_dims=(3, 4, 2),
            dataset_size=10,
            steps=12,
            hyper=default_hyperparams("namo", eta=0.02, weight_decay=0.0),
        )
        det = run(small_config(**cfg_kwargs))
        mb = run(
            small_config(
                noise=NoiseModel(sigma=0.0, batch_size=10, kind=NoiseKind.MINIBATCH),
                **cfg_kwargs,
            )
        )
        assert det.records == mb.records

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(optimizer="sgd")
        with pytest.raises(ConfigError):
            small_config(steps=0)
        with pytest.raises(ConfigError):
            small_config(steps=5, warmup_steps=5)
        with pytest.raises(ConfigError):
            small_config(log_every=0)

    def test_unknown_optimizer_built_directly_is_config_error(self):
        # a config file fails earlier, in default_hyperparams
        with pytest.raises(ConfigError, match="unknown optimizer id: 'sgd'"):
            RunConfig("matrix_least_squares", (4, 3, 6), "sgd", default_hyperparams("namo"), steps=10)

    @pytest.mark.parametrize("eta, warmup_steps", [(5e-324, 2), (1e-323, 5)])
    def test_warmup_step_size_underflow_is_config_error(self, eta, warmup_steps):
        # eta / warmup_steps rounds to 0, a step size HyperParams rejects
        assert effective_eta(eta, 1, warmup_steps) == 0.0
        with pytest.raises(ConfigError, match="warmup"):
            small_config(hyper=default_hyperparams("namo", eta=eta), warmup_steps=warmup_steps)
        assert run(small_config(hyper=default_hyperparams("namo", eta=eta))).status == STATUS_OK

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize(
        "path",
        ["problem_seed", "dataset_size", "hyper.orth.ns_iterations", "steps", "warmup_steps",
         "log_every", "seed", "repeats", "noise.batch_size"],
    )
    def test_integer_field_holding_a_non_int_is_config_error(self, path, value):
        # such a value once failed mid-run with a bare TypeError, or ran as the
        # int that canonical_config_text hashed it to
        def with_field(obj, path):
            name, _, rest = path.partition(".")
            return replace(obj, **{name: with_field(getattr(obj, name), rest) if rest else value})

        with pytest.raises(ConfigError, match="must be an int"):
            with_field(small_config(), path)


class TestSweep:
    def test_single_point_grid_matches_run(self):
        base = small_config()
        sweep = lr_sweep(base, [base.hyper.eta])
        single = run(base)
        assert len(sweep.entries) == 1
        entry = sweep.entries[0]
        assert entry.final_loss == single.final_loss
        assert sweep.best == entry

    def test_argmin_and_tie_break(self):
        entries = (
            SweepEntry(0.02, None, 1.0, 0.5, STATUS_OK),
            SweepEntry(0.01, None, 1.0, 0.5, STATUS_OK),
            SweepEntry(0.03, None, 2.0, 0.5, STATUS_OK),
        )
        best = min(entries, key=lambda e: (e.final_loss, e.eta, e.c or 0.0))
        assert best.eta == 0.01  # tie resolved toward the smaller eta

    def test_diverged_runs_excluded_from_argmin(self):
        base = small_config(steps=60, hyper=default_hyperparams("namo", eta=0.05))
        sweep = lr_sweep(base, [0.05, 1e6])
        statuses = [e.status for e in sweep.entries]
        assert statuses == [STATUS_OK, STATUS_DIVERGED]
        assert sweep.best.eta == 0.05

    def test_all_diverged(self):
        base = small_config(steps=60, hyper=default_hyperparams("namo", eta=0.05))
        sweep = lr_sweep(base, [1e6, 1e7])
        assert sweep.best is None

    def test_c_grid_only_for_namo_d(self):
        base = small_config("namo")
        with pytest.raises(ConfigError):
            lr_sweep(base, [0.01], cs=[0.5])

    def test_namo_d_product_grid(self):
        base = small_config("namo_d", steps=15)
        sweep = lr_sweep(base, [0.01, 0.02], cs=[0.4, 0.9])
        assert len(sweep.entries) == 4
        assert {(e.eta, e.c) for e in sweep.entries} == {
            (0.01, 0.4),
            (0.01, 0.9),
            (0.02, 0.4),
            (0.02, 0.9),
        }

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            lr_sweep(small_config(), [])

    def test_empty_c_grid_rejected(self):
        with pytest.raises(ConfigError, match="c grid must be nonempty"):
            lr_sweep(small_config("namo_d", steps=15), [0.01], cs=[])


class TestTheoremSchedule:
    def test_deterministic_schedule(self):
        s = theorem_schedule("det", 1024)
        assert s["eta"] == pytest.approx(1024**-0.5)
        assert s["epsilon"] == pytest.approx(1024**-0.5)
        assert s["mu1"] == 0.95 and s["mu2"] == 0.99

    def test_stochastic_schedule(self):
        s = theorem_schedule("stoch", 1024)
        assert s["eta"] == pytest.approx(1024**-0.75)
        assert s["mu1"] == pytest.approx(1.0 - 1024**-0.5)
        assert s["mu1"] == s["mu2"]

    def test_unknown_regime(self):
        with pytest.raises(ConfigError):
            theorem_schedule("fast", 100)

    @pytest.mark.parametrize("regime", ["det", "stoch"])
    @pytest.mark.parametrize("t_steps", [0, -4])
    def test_non_positive_horizon_rejected(self, regime, t_steps):
        with pytest.raises(ConfigError):
            theorem_schedule(regime, t_steps)


class TestRateExperiment:
    def test_synthetic_slope_plumbing(self):
        # estimate_rate_slope is exercised end to end by rate_experiment; the
        # pure-plumbing path is checked against an exact power law
        from orthopt.verification import estimate_rate_slope

        pts = [(t, float(t) ** -0.5) for t in (256, 1024, 4096)]
        assert estimate_rate_slope(pts) == pytest.approx(-0.5, abs=1e-12)

    def test_small_rate_experiment_runs(self):
        result = rate_experiment(
            "matrix_factorization", (6, 2, 6), "namo", [32, 64, 128], "det", seed=0, problem_seed=0
        )
        assert len(result.points) == 3
        assert result.slope < 0.0

    def test_needs_three_distinct_horizons(self):
        with pytest.raises(ConfigError):
            rate_experiment("matrix_factorization", (6, 2, 6), "namo", [32, 32, 32], "det", 0, 0)

    def test_stochastic_zero_sigma_equals_deterministic_run(self):
        a = rate_experiment(
            "matrix_factorization", (6, 2, 6), "namo", [32, 64, 128], "stoch", 0, 0, sigma=0.0
        )
        b = rate_experiment(
            "matrix_factorization", (6, 2, 6), "namo", [32, 64, 128], "stoch", 0, 0, sigma=0.0
        )
        assert a == b


class TestBatchAdaptation:
    def test_zero_sigma_rows_are_identical(self):
        result = batch_adaptation_experiment(
            "matrix_least_squares", (4, 3, 6), "namo", 30, 0.0, [1, 4, 16], [1, 2, 3], 0
        )
        values = [v for _, v in result.rows]
        assert values[0] == values[1] == values[2]

    def test_validation(self):
        with pytest.raises(ConfigError):
            batch_adaptation_experiment(
                "matrix_least_squares", (4, 3, 6), "namo", 10, 1.0, [4, 4], [1, 2, 3], 0
            )
        with pytest.raises(ConfigError):
            batch_adaptation_experiment(
                "matrix_least_squares", (4, 3, 6), "namo", 10, 1.0, [1, 4], [1, 2], 0
            )

    @pytest.mark.parametrize(
        "b_list, seeds, message",
        [
            ([], [1, 2, 3], "non-empty"),
            ([1, 4], [1, 1, 1], "3 distinct seeds"),
            ([1, 4], [5, 2, 5], "3 distinct seeds"),
        ],
    )
    def test_rejects_no_batch_sizes_and_repeated_seeds(self, b_list, seeds, message):
        # an empty b_list gave no rows, and a repeated seed averaged one run twice
        with pytest.raises(ConfigError, match=message):
            batch_adaptation_experiment("matrix_least_squares", (4, 3, 6), "namo", 10, 1.0, b_list, seeds, 0)


@pytest.mark.parametrize(
    "experiment, kwargs",
    [
        (lr_sweep, dict(base=small_config(steps=15), etas=[0.01, 0.02])),
        (lr_sweep, dict(base=small_config("namo_d", steps=15), etas=[0.01, 0.02], cs=[0.4, 0.9])),
        (rate_experiment, dict(
            problem_name="matrix_factorization", problem_dims=(6, 2, 6), optimizer="namo",
            t_list=[32, 64, 128], regime="det", seed=0, problem_seed=0,
        )),
        (batch_adaptation_experiment, dict(
            problem_name="matrix_least_squares", problem_dims=(4, 3, 6), optimizer="namo",
            t_steps=10, sigma=1.0, b_list=[1, 4], seeds=[1, 2, 3], problem_seed=0,
        )),
    ],
    ids=["lr_sweep", "lr_sweep_c_grid", "rate_experiment", "batch_adaptation_experiment"],
)
def test_numpy_array_grids_match_list_grids(experiment, kwargs):
    # an eta grid of two or more entries given as a numpy array once raised
    # numpy's ambiguous-truth-value ValueError
    arrays = {key: np.array(value) if isinstance(value, list) else value for key, value in kwargs.items()}
    assert experiment(**arrays) == experiment(**kwargs)


def readme_config_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def load_ini(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return load_run_config(str(path))


CRITERION_10_INI = """\
[run]
problem = matrix_least_squares
dims = 4,3,6
optimizer = namo_d
eta = 0.03
steps = 50
warmup_steps = 5
sigma = 0.5
batch_size = 2
seed = 9
"""

# every hyperparameter from the optimizer's default recipe
DEFAULT_RECIPE_INI = "[run]\nproblem = matrix_least_squares\ndims = 8,6,12\noptimizer = {}\nsteps = 100\n"

# the first muon config of the benchmark's MLP workload
PERFBENCH_MLP_INI = """\
[run]
problem = mlp
dims = 16,64,64,8
dataset_size = 256
optimizer = muon
orth_method = newton_schulz
noise_kind = minibatch
batch_size = 32
steps = 64
log_every = 1
repeats = 5
seed = 100
problem_seed = 0
"""


class TestConfigFiles:
    def test_file_without_run_section_is_config_error(self, tmp_path):
        path = tmp_path / "other.ini"
        path.write_text("[other]\nproblem = matrix_least_squares\n")
        with pytest.raises(ConfigError) as info:
            load_run_config(str(path))
        assert str(info.value) == f"invalid config {path}: no [run] section"

    def test_round_trip(self, tmp_path):
        text = (
            "[run]\n"
            "problem = matrix_least_squares\n"
            "dims = 4,3,6\n"
            "optimizer = namo\n"
            "eta = 0.05\n"
            "steps = 40\n"
            "warmup_steps = 0\n"
            "seed = 3\n"
            "weight_decay = 0.0\n"
        )
        path = tmp_path / "run.ini"
        path.write_text(text)
        config = load_run_config(str(path))
        assert config == small_config()

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nproblem = matrix_least_squares\ndims = 4,3,6\noptimizer = namo_d\nsteps = 100\n"
        )
        config = load_run_config(str(path))
        assert config.hyper.eta == 0.009  # per-optimizer default
        assert config.hyper.clamp_c == 0.1
        assert config.hyper.mu1 == 0.95 and config.hyper.mu2 == 0.99
        assert config.hyper.weight_decay == 0.01
        assert config.warmup_steps == max(1, 100 // 20)

    def test_adamw_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nproblem = matrix_least_squares\ndims = 4,3,6\noptimizer = adamw\nsteps = 10\n"
        )
        config = load_run_config(str(path))
        assert (config.hyper.mu1, config.hyper.mu2) == (0.9, 0.95)
        assert config.hyper.eta == 0.0013

    @pytest.mark.parametrize(
        "optimizer, recipe",
        [
            ("namo", HyperParams(0.012, 0.95, 0.99, 1e-8, 0.01, 1.0, OrthConfig())),
            ("namo_d", HyperParams(0.009, 0.95, 0.99, 1e-8, 0.01, 0.1, OrthConfig())),
            ("muon", HyperParams(0.0013, 0.95, 0.99, 1e-8, 0.01, 1.0, OrthConfig())),
            ("adamw", HyperParams(0.0013, 0.9, 0.95, 1e-8, 0.01, 1.0, OrthConfig())),
        ],
    )
    def test_default_recipe_is_pinned(self, optimizer, recipe):
        hp = default_hyperparams(optimizer)
        assert hp == recipe
        assert [type(getattr(hp, f.name)) for f in dataclasses.fields(hp)] == [
            type(getattr(recipe, f.name)) for f in dataclasses.fields(recipe)
        ]

    def test_canonical_hash_ignores_formatting(self):
        section = {
            "problem": "matrix_least_squares",
            "dims": "4,3,6",
            "optimizer": "namo",
            "steps": "10",
        }
        a = config_from_mapping(section)
        b = config_from_mapping(dict(reversed(section.items())))
        assert canonical_config_text(a) == canonical_config_text(b)
        assert derive_stream(a) == derive_stream(b)
        # orth_method is a word: case and "-" for "_" do not change the stream
        for spelling, method in [("Exact", "exact"), ("newton-schulz", "newton_schulz")]:
            c = config_from_mapping({**section, "orth_method": spelling})
            assert c.hyper.orth.method is OrthMethod(method)
            assert derive_stream(c) == derive_stream(config_from_mapping({**section, "orth_method": method}))

    def test_canonical_text_covers_every_config_field(self):
        # every leaf field of the config reaches the RNG stream, under its
        # config-file key; repeats is excluded because the CLI changes the
        # seed for each repeat
        renames = {"problem_dims": "dims", "method": "orth_method", "kind": "noise_kind"}

        def leaves(obj):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if dataclasses.is_dataclass(value):
                    yield from leaves(value)
                else:
                    yield renames.get(f.name, f.name)

        cfg = small_config()
        fields = [name for name in leaves(cfg) if name != "repeats"]
        keys = [line.split("=", 1)[0] for line in canonical_config_text(cfg).splitlines()]
        assert sorted(fields) == sorted(keys)

    def test_readme_config_example_loads(self, tmp_path):
        config = load_ini(tmp_path, readme_config_block())
        assert (config.problem, config.problem_dims) == ("matrix_least_squares", (8, 6, 12))
        assert (config.optimizer, config.hyper.eta, config.steps) == ("namo", 0.012, 2000)

    # pinned streams: a change to the canonical text moves every CSV
    @pytest.mark.parametrize(
        "make, stream",
        [
            (lambda tmp: load_ini(tmp, readme_config_block()), 4263782655331766238),
            (lambda tmp: load_ini(tmp, CRITERION_10_INI), 3120254188480636900),
            (lambda tmp: load_ini(tmp, PERFBENCH_MLP_INI), 7286330072102708396),
            (
                lambda tmp: harness._theorem_config(
                    "matrix_least_squares", (8, 6, 12), "namo_d", "stoch", 64,
                    noise=NoiseModel(sigma=1.0, batch_size=16), problem_seed=0, seed=1,
                ),
                328985773715451741,
            ),
            (lambda tmp: load_ini(tmp, DEFAULT_RECIPE_INI.format("namo")), 8034926118570623727),
            (lambda tmp: load_ini(tmp, DEFAULT_RECIPE_INI.format("namo_d")), 3560885747105034353),
            (lambda tmp: load_ini(tmp, DEFAULT_RECIPE_INI.format("adamw")), 1709924368897227401),
        ],
        ids=["readme", "criterion_10", "perfbench_mlp", "theorem_schedule", "namo", "namo_d", "adamw"],
    )
    def test_golden_streams(self, make, stream, tmp_path):
        assert derive_stream(make(tmp_path)) == stream

    def test_canonical_text_round_trips(self):
        dims = {"matrix_least_squares": (4, 3, 6), "matrix_factorization": (6, 2, 5), "mlp": (3, 5, 2)}
        noises = [
            NoiseModel(),
            NoiseModel(sigma=0.5, batch_size=4),
            NoiseModel(batch_size=8, kind=NoiseKind.MINIBATCH),
        ]
        for (problem, d), optimizer, method, noise in itertools.product(
            dims.items(), OPTIMIZER_IDS, OrthMethod, noises
        ):
            hyper = default_hyperparams(optimizer, eta=0.1 + 0.2, orth=OrthConfig(method, 7))
            config = small_config(
                optimizer, problem=problem, problem_dims=d, hyper=hyper, noise=noise,
                warmup_steps=3, problem_seed=2, dataset_size=48, log_every=3,
            )
            text = canonical_config_text(config)
            assert config_from_mapping(dict(line.split("=", 1) for line in text.splitlines())) == config

    @pytest.mark.parametrize("sigma", [1, np.float64(1.0)])
    def test_numerically_equal_configs_share_one_stream(self, sigma):
        args = ("matrix_least_squares", (8, 6, 12), "namo", 32)
        kwargs = dict(b_list=[1, 16], seeds=[1, 2, 3], problem_seed=0)
        reference = batch_adaptation_experiment(*args, sigma=1.0, **kwargs)
        assert batch_adaptation_experiment(*args, sigma=sigma, **kwargs).rows == reference.rows

    def test_numpy_floats_are_written_as_numbers(self):
        config = small_config(hyper=default_hyperparams("namo", eta=np.float64(0.012)))
        assert "eta=0.012" in canonical_config_text(config).splitlines()

    def test_unparsable_value_names_its_key(self):
        section = {"problem": "mlp", "dims": "2,4,2", "optimizer": "namo", "steps": "x"}
        with pytest.raises(ConfigError, match="'steps'"):
            config_from_mapping(section)
        with pytest.raises(ConfigError) as info:
            config_from_mapping({**section, "steps": "5", "orth_method": "qr"})
        assert str(info.value) == "invalid value for 'orth_method': 'qr' is not a valid OrthMethod"

    def test_stream_depends_on_semantic_fields(self):
        a = small_config(seed=1)
        b = small_config(seed=2)
        assert derive_stream(a) != derive_stream(b)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_run_config("/nonexistent/path.ini")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nproblem = matrix_least_squares\ndims = 4,3,6\noptimizer = namo\n"
            "steps = 10\nbogus = 1\n"
        )
        with pytest.raises(ConfigError):
            load_run_config(str(path))

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"optimizer": "namo", "dims": "2,2,2", "steps": "5"})
        with pytest.raises(ConfigError):
            config_from_mapping({"problem": "mlp", "dims": "2,4,2", "steps": "0", "optimizer": "namo"})


class TestCsvOutput:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv((RUN_HEADER, []), path)
        assert path.read_text() == "step,loss,grad_fro,avg_grad_fro,alpha,d_bar,d_min,d_max\n"

    def test_single_record_two_lines(self, tmp_path):
        record = RunRecord(step=1, loss=0.5, grad_fro=1.0, avg_grad_fro=1.0, alpha=0.25)
        path = tmp_path / "one.csv"
        write_csv((RUN_HEADER, [dataclasses.astuple(record)]), path)
        lines = path.read_text().split("\n")
        assert len(lines) == 3 and lines[2] == ""
        assert lines[1].startswith("1,0.5,1,1,0.25,,,")

    def test_float_format_round_trips(self):
        record = RunRecord(step=1, loss=1.0 / 3.0, grad_fro=0.1, avg_grad_fro=0.1)
        row = render_csv((RUN_HEADER, [dataclasses.astuple(record)])).splitlines()[1]
        loss_text = row.split(",")[1]
        assert float(loss_text) == 1.0 / 3.0

    def test_byte_identical_for_identical_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_table(run(small_config())), p1)
        write_csv(run_table(run(small_config())), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_row_format(self):
        entry = SweepEntry(0.01, None, 0.5, 0.1, STATUS_OK)
        row = ("namo", *dataclasses.astuple(entry))  # the CLI writes the config's optimizer first
        text = render_csv(("optimizer,eta,c,final_loss,final_avg_grad,status", [row]))
        # 17-significant-digit round-trip formatting
        assert text.splitlines()[1] == "namo,0.01,,0.5,0.10000000000000001,ok"

    def test_lemma_row_format(self):
        report = LemmaReport("SNR", 10, -1e-15)
        row = (report.lemma_id, report.trials, report.max_violation, report.passed())
        text = render_csv(("lemma,trials,max_violation,pass", [row]))
        assert text.splitlines()[1].endswith(",true")

    def test_batch_row_format(self):
        result = BatchAdaptResult(((1, 0.5), (16, 0.25)))
        text = render_csv(("b,mean_final_avg_grad_fro", result.rows))
        assert text.splitlines()[1:] == ["1,0.5", "16,0.25"]

    def test_missing_parent_directories_are_created(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.csv"
        write_csv(("h", [(1,)]), target)
        assert target.read_text() == "h\n1\n"

    def test_io_error_carries_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        # the parent is a regular file, so no directory can be made there
        with pytest.raises(OSError, match="failed to write CSV to .*blocker"):
            write_csv((RUN_HEADER, []), blocker / "out.csv")


def test_reference_sweep_grids():
    from orthopt.harness import DEFAULT_C_GRID, DEFAULT_ETA_GRIDS

    assert DEFAULT_ETA_GRIDS["muon"] == (0.0006, 0.0009, 0.0013, 0.0018, 0.0025)
    assert DEFAULT_ETA_GRIDS["adamw"] == DEFAULT_ETA_GRIDS["muon"]
    assert DEFAULT_ETA_GRIDS["namo"] == (0.005, 0.007, 0.009, 0.012, 0.015)
    assert DEFAULT_ETA_GRIDS["namo_d"] == DEFAULT_ETA_GRIDS["namo"]
    assert DEFAULT_C_GRID == (0.12, 0.40, 0.75, 0.90)


def test_zero_sigma_records_do_not_depend_on_batch_size():
    # sigma = 0 draws nothing, so runs with different batch sizes coincide
    # even though their derived RNG streams differ
    a = run(small_config(noise=NoiseModel(sigma=0.0, batch_size=1)))
    b = run(small_config(noise=NoiseModel(sigma=0.0, batch_size=64)))
    assert a.records == b.records


def test_large_batch_limit_approaches_zero_noise_row():
    sigma = 1.0
    noisy = batch_adaptation_experiment(
        "matrix_least_squares", (4, 3, 6), "namo", 60, sigma, [10**6], [1, 2, 3], 0
    )
    quiet = batch_adaptation_experiment(
        "matrix_least_squares", (4, 3, 6), "namo", 60, 0.0, [1], [1, 2, 3], 0
    )
    big_b = noisy.rows[0][1]
    zero = quiet.rows[0][1]
    assert big_b == pytest.approx(zero, rel=1e-2)


def test_namo_and_muon_share_momentum_semantics():
    # same mu1 and a constant stream: the two runs differ only through alpha,
    # which the tiny epsilon pins to 1
    hp = HyperParams(eta=0.05, mu1=0.95, mu2=0.99, epsilon=1e-30, weight_decay=0.0)
    cfg_muon = small_config("muon", hyper=replace(hp, mu1=0.95))
    cfg_namo = small_config("namo", hyper=hp)
    rec_m = run(cfg_muon).records[-1]
    rec_n = run(cfg_namo).records[-1]
    # not identical (gradient stream differs as iterates move), but both sane
    assert rec_m.loss > 0.0 and rec_n.loss > 0.0


@pytest.mark.parametrize(
    "problem,dims,batch_size",
    [
        pytest.param("matrix_least_squares", (4, 3, 6), None, id="matrix_least_squares-dims0"),
        pytest.param("matrix_factorization", (6, 2, 5), None, id="matrix_factorization-dims1"),
        pytest.param("mlp", (4, 6, 3), None, id="mlp-dims2"),
        pytest.param("matrix_least_squares", (4, 3, 12), 5, id="matrix_least_squares-minibatch"),
        pytest.param("mlp", (4, 6, 3), 5, id="mlp-minibatch"),
    ],
)
def test_additive_noise_run_evaluates_problem_once_per_step(monkeypatch, problem, dims, batch_size):
    # one gradient at theta_0, then one fused loss_and_grad per step, and with
    # minibatch noise (b below the dataset size) one minibatch gradient per step
    counts = Counter()
    make_problem = harness.make_problem

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def counting_make_problem(config):
        p = make_problem(config)
        fields = ("loss", "grad", "loss_and_grad", "minibatch_grad")
        return replace(p, **{f: counted(f, getattr(p, f)) for f in fields if getattr(p, f) is not None})

    monkeypatch.setattr(harness, "make_problem", counting_make_problem)
    steps = 12
    if batch_size is None:
        noise, want = NoiseModel(sigma=0.5), Counter(grad=1, loss_and_grad=steps)
    else:
        noise = NoiseModel(batch_size=batch_size, kind=NoiseKind.MINIBATCH)
        want = Counter(grad=1, loss_and_grad=steps, minibatch_grad=steps)
    cfg = small_config("namo_d", steps=steps, problem=problem, problem_dims=dims, noise=noise)
    assert run(cfg).status == STATUS_OK
    assert counts == want


@pytest.mark.parametrize(
    "problem,dims",
    [("matrix_least_squares", (4, 3, 6)), ("matrix_factorization", (6, 2, 5)), ("mlp", (4, 6, 3))],
)
def test_run_bytes_do_not_depend_on_noise_block_size(monkeypatch, problem, dims):
    steps = 130
    cfg = small_config("namo_d", steps=steps, problem=problem, problem_dims=dims, noise=NoiseModel(sigma=0.5))
    total = sum(math.prod(shape) for shape in build_problem(problem, dims, 0).params_spec)
    assert problems._NOISE_BLOCK_ENTRIES // total >= steps  # the default draws one block
    want = render_csv(run_table(run(cfg)))
    # one row per block (a draw per step), then blocks of 50 rows: 50, 50, 30
    for entries in (1, 50 * total):
        monkeypatch.setattr(problems, "_NOISE_BLOCK_ENTRIES", entries)
        assert render_csv(run_table(run(cfg))) == want


_PROPERTY_DIMS = {
    "matrix_least_squares": (8, 6, 12),
    "matrix_factorization": (8, 3, 6),
    "mlp": (4, 6, 3),
}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    problem=st.sampled_from(sorted(_PROPERTY_DIMS)),
    optimizer=st.sampled_from(harness.OPTIMIZER_IDS),
    method=st.sampled_from(list(OrthMethod)),
    eta=st.floats(-3.0, 150.0).map(lambda e: 10.0**e),
    minibatch=st.booleans(),
    warmup_steps=st.sampled_from([0, 1, 5]),
)
@example(
    problem="matrix_factorization",
    optimizer="muon",
    method=OrthMethod.EXACT,
    eta=GRAD_NORM_OVERFLOW_ETA,
    minibatch=False,
    warmup_steps=0,
)
def test_every_run_ends_ok_or_diverged(problem, optimizer, method, eta, minibatch, warmup_steps):
    # matrix_factorization has no dataset, so it only takes additive noise
    if minibatch and problem != "matrix_factorization":
        noise = NoiseModel(sigma=0.5, batch_size=4, kind=NoiseKind.MINIBATCH)
    else:
        noise = NoiseModel(sigma=0.5)
    cfg = small_config(
        optimizer,
        steps=30,
        problem=problem,
        problem_dims=_PROPERTY_DIMS[problem],
        seed=0,
        hyper=default_hyperparams(optimizer, eta=eta, orth=OrthConfig(method=method)),
        noise=noise,
        warmup_steps=warmup_steps,
    )
    assert run(cfg).status in (STATUS_OK, STATUS_DIVERGED)
