import dataclasses
import inspect

import numpy as np
import pytest

from orthopt.errors import ConfigError, DimensionError, InputError
from orthopt.linalg import spectral_norm
from orthopt.problems import (
    _LSTSQ_LIPSCHITZ,
    NoiseKind,
    NoiseModel,
    Problem,
    finite_difference_grad,
    make_matrix_factorization,
    make_matrix_least_squares,
    make_mlp_problem,
    stochastic_grad,
)
from orthopt.rng import Rng


def rel_err_worst_coord(analytic, numeric, floor=1e-6):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestMatrixLeastSquares:
    def setup_method(self):
        self.problem = make_matrix_least_squares(5, 4, 9, seed=7)

    def test_shapes_and_hint(self):
        assert self.problem.params_spec == ((5, 4),)
        # X is scaled so that the gradient's Lipschitz constant is the fixed hint
        x = self.problem.data["X"]
        assert spectral_norm(x.T @ x) == pytest.approx(_LSTSQ_LIPSCHITZ, rel=1e-12)

    def test_gradient_vanishes_at_pseudoinverse_solution(self):
        x, y = self.problem.data["X"], self.problem.data["Y"]
        theta_star = np.linalg.pinv(x) @ y
        (g,) = self.problem.grad([theta_star])
        assert np.max(np.abs(g)) <= 1e-10

    def test_loss_at_optimum_is_projection_residual(self):
        x, y = self.problem.data["X"], self.problem.data["Y"]
        theta_star = np.linalg.pinv(x) @ y
        residual = x @ theta_star - y
        expected = 0.5 * float(np.sum(residual * residual))
        assert self.problem.loss([theta_star]) == pytest.approx(expected, rel=1e-12)
        assert expected > 0.0  # overdetermined: planted noise is not fit exactly

    def test_gradient_matches_finite_differences(self):
        params = [Rng(3).normal_matrix(5, 4)]
        fd = finite_difference_grad(self.problem, params, h=1e-5)
        assert rel_err_worst_coord(self.problem.grad(params), fd) <= 1e-8

    def test_minibatch_full_batch_is_exact(self):
        params = self.problem.initial_params()
        noise = NoiseModel(sigma=0.0, batch_size=9, kind=NoiseKind.MINIBATCH)
        got = stochastic_grad(self.problem, params, noise, Rng(0))
        np.testing.assert_array_equal(got[0], self.problem.grad(params)[0])

    @pytest.mark.parametrize("b", [1, 5, 7, 8, 11, 12])
    def test_minibatch_oracle_is_k_over_b_times_the_row_sums(self, b):
        # k / b is inexact at b = 5, 7 and 11, so a reordered scale would show
        k = 12
        problem = make_matrix_least_squares(5, 4, k, seed=3)
        x, y = problem.data["X"], problem.data["Y"]
        rng = Rng(b)
        for _ in range(3):
            params = [rng.normal_matrix(5, 4)]
            rows = rng.sample_without_replacement(k, b)
            r = x[rows] @ params[0] - y[rows]
            loss, (g,) = problem.loss_and_grad(params, rows)
            np.testing.assert_array_equal(g, (k / b) * (x[rows].T @ r))
            np.testing.assert_array_equal(problem.minibatch_grad(params, rows)[0], g)
            assert loss == (k / b) * (0.5 * float(np.add.reduce(r * r, axis=None)))

    def test_minibatch_is_unbiased(self):
        params = self.problem.initial_params()
        (full,) = self.problem.grad(params)
        noise = NoiseModel(sigma=0.0, batch_size=3, kind=NoiseKind.MINIBATCH)
        rng = Rng(5)
        acc = np.zeros_like(full)
        n_draws = 4000
        for _ in range(n_draws):
            acc += stochastic_grad(self.problem, params, noise, rng)[0]
        mean = acc / n_draws
        # CLT envelope with a generous constant
        scale = float(np.max(np.abs(full))) + 1.0
        assert np.max(np.abs(mean - full)) <= 5.0 * scale / np.sqrt(n_draws)


class TestMatrixFactorization:
    def setup_method(self):
        self.problem = make_matrix_factorization(6, 3, 5, seed=11)

    def test_planted_product_is_global_minimum(self):
        a, b = self.problem.data["A_star"], self.problem.data["B_star"]
        assert self.problem.loss([a, b]) <= 1e-22
        for g in self.problem.grad([a, b]):
            assert np.max(np.abs(g)) <= 1e-11

    def test_gauge_symmetry(self):
        a, b = self.problem.initial_params()
        base = self.problem.loss([a, b])
        for s in (0.5, 2.0, 11.0):
            assert self.problem.loss([a / s, s * b]) == pytest.approx(base, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = Rng(13)
        for trial in range(10):
            r = rng.substream(trial)
            params = [r.normal_matrix(6, 3), r.normal_matrix(3, 5)]
            fd = finite_difference_grad(self.problem, params, h=1e-5)
            assert rel_err_worst_coord(self.problem.grad(params), fd) <= 1e-6

    def test_rank_validation(self):
        with pytest.raises(ConfigError):
            make_matrix_factorization(4, 5, 4, seed=0)


class TestMlpProblem:
    def setup_method(self):
        self.problem = make_mlp_problem((3, 5, 2), dataset_size=16, seed=17)

    def test_parameter_mix(self):
        # weight matrices alternate with bias vectors
        assert self.problem.params_spec == ((3, 5), (5,), (5, 2), (2,))

    def test_zero_parameters_loss_formula(self):
        # with all-zero parameters the network output is zero, so the loss is
        # 0.5 * mean ||y||^2 (and would be exactly 0 for zero targets)
        zeros = [np.zeros(s) for s in self.problem.params_spec]
        y = self.problem.data["Y"]
        expected = 0.5 * float(np.sum(y * y)) / y.shape[0]
        assert self.problem.loss(zeros) == pytest.approx(expected, rel=1e-12)

    def test_backprop_matches_finite_differences(self):
        rng = Rng(19)
        for trial in range(5):
            r = rng.substream(trial)
            params = [r.normals(int(np.prod(s))).reshape(s) * 0.5 for s in self.problem.params_spec]
            fd = finite_difference_grad(self.problem, params, h=1e-5)
            assert rel_err_worst_coord(self.problem.grad(params), fd, floor=1e-4) <= 1e-5

    def test_full_batch_minibatch_draw_is_deterministic_gradient(self):
        params = self.problem.initial_params()
        noise = NoiseModel(sigma=0.0, batch_size=16, kind=NoiseKind.MINIBATCH)
        got = stochastic_grad(self.problem, params, noise, Rng(1))
        want = self.problem.grad(params)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_layer_count_validation(self):
        with pytest.raises(ConfigError):
            make_mlp_problem((3, 2), dataset_size=8, seed=0)

    def test_empty_dataset_is_config_error(self):
        with pytest.raises(ConfigError, match="dataset_size must be positive"):
            make_mlp_problem((3, 5, 2), dataset_size=0, seed=0)

    def test_fractional_width_builds_no_truncated_layer(self):
        # a width of 8.5 once built an 8-wide hidden layer
        with pytest.raises((ConfigError, TypeError)):
            make_mlp_problem((4, 8.5, 2), 12, 0)


def reference_mlp_loss_and_grad(params, xs, ys):
    """The MLP oracle written with a fresh array per operation."""
    n_layers = len(params) // 2
    acts = [xs]
    for l in range(n_layers):
        z = acts[-1] @ params[2 * l] + params[2 * l + 1]
        acts.append(np.tanh(z) if l < n_layers - 1 else z)
    err = acts[-1] - ys
    delta = err / xs.shape[0]
    grads = [None] * (2 * n_layers)
    for l in range(n_layers - 1, -1, -1):
        grads[2 * l] = acts[l].T @ delta
        grads[2 * l + 1] = np.add.reduce(delta, axis=0)
        if l > 0:
            delta = (delta @ params[2 * l].T) * (1.0 - acts[l] ** 2)
    return 0.5 * float(np.add.reduce(err**2, axis=None)) / xs.shape[0], grads


@pytest.mark.parametrize("dataset_size", [1, 10, 256])
@pytest.mark.parametrize("dims", [(3, 5, 2), (3, 5, 4, 2), (16, 64, 64, 8), (4, 7, 6, 5, 3, 2)])
def test_mlp_oracle_with_reused_buffers_matches_allocating_reference(dims, dataset_size):
    problem = make_mlp_problem(dims, dataset_size=dataset_size, seed=dataset_size)
    x, y = problem.data["X"], problem.data["Y"]
    # The arrays the full-data oracle holds: X, Y and two work buffers per hidden layer.
    held = [
        a
        for value in inspect.getclosurevars(problem.loss_and_grad).nonlocals.values()
        for a in (value if isinstance(value, list) else [value])
        if isinstance(a, np.ndarray)
    ]
    assert len(held) == 2 + 2 * (len(dims) - 2)
    rng = Rng(len(dims))
    param_sets = [
        [p + 0.5 * rng.normals(p.size).reshape(p.shape) for p in problem.theta0] for _ in range(2)
    ]
    # a minibatch uses the buffers' leading rows: one row, a third of them and all but one
    idx_sets = [
        np.sort(rng.sample_without_replacement(dataset_size, b))
        for b in (max(1, dataset_size // 3), 1, max(1, dataset_size - 1))
    ]
    # alternate two parameter sets, so that state carried between calls shows
    for params in param_sets * 3:
        for idx in idx_sets:
            want_loss, want = reference_mlp_loss_and_grad(params, x, y)
            loss, got = problem.loss_and_grad(params)
            mini = problem.minibatch_grad(params, idx)
            assert loss == want_loss
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            for g, w in zip(mini, reference_mlp_loss_and_grad(params, x[idx], y[idx])[1]):
                np.testing.assert_array_equal(g, w)
            for g in got + mini:
                assert not any(np.shares_memory(g, a) for a in held)
                g.fill(np.nan)  # a caller writing into its gradient leaves the next call unchanged
    assert problem.loss(param_sets[0]) == reference_mlp_loss_and_grad(param_sets[0], x, y)[0]


class TestStochasticGrad:
    def setup_method(self):
        self.problem = make_matrix_least_squares(4, 3, 8, seed=23)
        self.params = self.problem.initial_params()

    def test_zero_sigma_is_exact(self):
        noise = NoiseModel(sigma=0.0, batch_size=4)
        got = stochastic_grad(self.problem, self.params, noise, Rng(0))
        np.testing.assert_array_equal(got[0], self.problem.grad(self.params)[0])

    def test_unbiasedness_clt_envelope(self):
        sigma, b = 0.7, 4
        noise = NoiseModel(sigma=sigma, batch_size=b)
        (full,) = self.problem.grad(self.params)
        rng = Rng(31)
        n_draws = 10_000
        acc = np.zeros_like(full)
        for _ in range(n_draws):
            acc += stochastic_grad(self.problem, self.params, noise, rng)[0]
        mean = acc / n_draws
        envelope = 3.0 * sigma / np.sqrt(b * n_draws)
        assert np.max(np.abs(mean - full)) <= envelope

    def test_variance_contract(self):
        sigma, b = 1.3, 2
        noise = NoiseModel(sigma=sigma, batch_size=b)
        (full,) = self.problem.grad(self.params)
        rng = Rng(37)
        n_draws = 10_000
        acc = 0.0
        for _ in range(n_draws):
            z = stochastic_grad(self.problem, self.params, noise, rng)[0] - full
            acc += float(np.sum(z * z))
        assert acc / n_draws == pytest.approx(sigma**2 / b, rel=0.05)

    def test_variance_split_proportional_to_element_count(self):
        problem = make_matrix_factorization(6, 2, 4, seed=41)
        params = problem.initial_params()
        full = problem.grad(params)
        noise = NoiseModel(sigma=1.0, batch_size=1)
        rng = Rng(43)
        n_draws = 8000
        acc = [0.0, 0.0]
        for _ in range(n_draws):
            draw = stochastic_grad(problem, params, noise, rng)
            for i in range(2):
                d = draw[i] - full[i]
                acc[i] += float(np.sum(d * d))
        sizes = [p.size for p in params]
        total = sum(sizes)
        for i in range(2):
            assert acc[i] / n_draws == pytest.approx(sizes[i] / total, rel=0.06)

    def test_determinism_by_counter(self):
        noise = NoiseModel(sigma=0.5, batch_size=1)
        a = stochastic_grad(self.problem, self.params, noise, Rng(9, stream=4))[0]
        b = stochastic_grad(self.problem, self.params, noise, Rng(9, stream=4))[0]
        np.testing.assert_array_equal(a, b)

    def test_minibatch_unsupported_raises(self):
        problem = make_matrix_factorization(4, 2, 4, seed=1)
        noise = NoiseModel(sigma=0.0, batch_size=2, kind=NoiseKind.MINIBATCH)
        with pytest.raises(ConfigError):
            stochastic_grad(problem, problem.initial_params(), noise, Rng(0))

    def test_batch_size_validation(self):
        with pytest.raises(ConfigError):
            NoiseModel(sigma=1.0, batch_size=0)

    @pytest.mark.parametrize("batch_size", [2.5, True])
    def test_batch_size_must_be_an_int(self, batch_size):
        # 2.5 once drew noise of variance sigma^2 / (2.5 P), and True ran as 1
        with pytest.raises(ConfigError, match="batch_size must be an int"):
            stochastic_grad(self.problem, self.params, NoiseModel(sigma=1.0, batch_size=batch_size), Rng(1))

    def test_shape_validation(self):
        noise = NoiseModel(sigma=0.0)
        with pytest.raises(DimensionError):
            stochastic_grad(self.problem, [np.zeros((3, 3))], noise, Rng(0))


class TestFiniteDifference:
    def test_quadratic_is_exact_for_any_h(self):
        problem = Problem(
            name="half_square",
            loss_and_grad=lambda p: (0.5 * float(p[0][0, 0]) ** 2, [p[0].copy()]),
            theta0=(np.array([[1.7]]),),
        )
        for h in (1e-1, 1e-3, 1e-6):
            fd = finite_difference_grad(problem, [np.array([[1.7]])], h=h)
            assert fd[0][0, 0] == pytest.approx(1.7, rel=1e-9)

    def test_error_scales_quadratically_on_mlp(self):
        problem = make_mlp_problem((2, 4, 1), dataset_size=8, seed=3)
        params = problem.initial_params()
        analytic = problem.grad(params)

        def max_err(h):
            fd = finite_difference_grad(problem, params, h=h)
            return max(float(np.max(np.abs(a - n))) for a, n in zip(analytic, fd))

        e1, e2 = max_err(2e-2), max_err(1e-2)
        assert e2 <= e1 / 2.5  # ~4x per halving, slack for higher-order terms

    def test_h_validation(self):
        problem = make_matrix_least_squares(2, 2, 3, seed=0)
        with pytest.raises(InputError):
            finite_difference_grad(problem, problem.initial_params(), h=0.0)

    def test_parameter_count_validation(self):
        problem = make_matrix_factorization(4, 2, 3, seed=0)
        with pytest.raises(DimensionError, match="^expected 2 parameters, got 1$"):
            finite_difference_grad(problem, problem.initial_params()[:1], h=1e-3)


def test_problem_data_generation_is_seed_deterministic():
    a = make_matrix_least_squares(4, 3, 6, seed=5)
    b = make_matrix_least_squares(4, 3, 6, seed=5)
    np.testing.assert_array_equal(a.data["X"], b.data["X"])
    np.testing.assert_array_equal(a.theta0[0], b.theta0[0])
    c = make_matrix_least_squares(4, 3, 6, seed=6)
    assert not np.array_equal(a.data["X"], c.data["X"])


@pytest.mark.parametrize(
    "problem",
    [
        make_matrix_least_squares(5, 3, 8, seed=1),
        make_matrix_factorization(6, 2, 5, seed=1),
        make_mlp_problem((3, 5, 4, 2), dataset_size=10, seed=1),
    ],
    ids=lambda p: p.name,
)
def test_loss_and_grad_is_bitwise_loss_and_grad(problem):
    rng = Rng(77)
    params = [rng.normals(int(np.prod(s))).reshape(s) for s in problem.params_spec]
    loss, grads = problem.loss_and_grad(params)
    assert loss == problem.loss(params)
    for fused, alone in zip(grads, problem.grad(params), strict=True):
        np.testing.assert_array_equal(fused, alone)
    assert (problem.minibatch_grad is None) == (problem.dataset_size is None)
    if problem.dataset_size is not None:
        for b in (1, 3, problem.dataset_size):
            rows = rng.sample_without_replacement(problem.dataset_size, b)
            fused = problem.loss_and_grad(params, rows)[1]
            for f, m in zip(fused, problem.minibatch_grad(params, rows), strict=True):
                np.testing.assert_array_equal(f, m)


def test_problem_derives_its_views_from_the_oracle_alone():
    k = 5
    x = Rng(3).normal_matrix(k, 2)

    def loss_and_grad(params, rows=None):
        xs = x if rows is None else x[rows]
        r = xs @ params[0]
        return (k / len(xs)) * 0.5 * float(r @ r), [(k / len(xs)) * (xs.T @ r)]

    problem = Problem("hand_built", loss_and_grad, [np.array([0.3, -1.2])], dataset_size=k)
    assert isinstance(problem.theta0, tuple)
    params, rows = problem.initial_params(), np.array([3, 0])
    loss, (grad,) = loss_and_grad(params)
    assert problem.loss(params) == loss
    np.testing.assert_array_equal(problem.grad(params)[0], grad)
    np.testing.assert_array_equal(problem.minibatch_grad(params, rows)[0], loss_and_grad(params, rows)[1][0])
    assert Problem("no_data", loss_and_grad, (np.zeros(2),)).minibatch_grad is None
    # the views passed to replace are kept, as the benchmark's tracer wraps them
    f, g, h = (lambda p: 0.0), (lambda p: []), (lambda p, rows: [])
    kept = dataclasses.replace(problem, loss=f, grad=g, minibatch_grad=h)
    assert (kept.loss, kept.grad, kept.minibatch_grad) == (f, g, h)
    assert kept.loss_and_grad is loss_and_grad
