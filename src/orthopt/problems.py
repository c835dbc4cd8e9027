"""Synthetic optimization problems with analytic gradients and noise oracles.

Each factory returns an immutable ``Problem`` carrying the loss, its analytic
gradient, a seeded initial iterate, and (where a dataset exists) a minibatch
gradient hook.  ``loss_and_grad`` is the fused oracle: one residual or forward
pass gives both values, and ``loss`` and ``grad`` are its two halves.
``stochastic_grad`` wraps a problem's gradient in either additive Gaussian
noise calibrated so the aggregate squared Frobenius deviation is exactly
sigma^2 / b in expectation, or minibatch subsampling.
All randomness flows through the counter-based ``Rng``, so every draw is a
pure function of (seed, stream, counter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionError, InputError
from .linalg import spectral_norm
from .rng import Rng

__all__ = [
    "Problem",
    "NoiseModel",
    "NoiseKind",
    "Rng",
    "make_matrix_least_squares",
    "make_matrix_factorization",
    "make_mlp_problem",
    "stochastic_grad",
    "finite_difference_grad",
]

# Factories rescale their data so curvature hints stay within a fixed band,
# keeping learning-rate sweeps comparable across problems.
_LSTSQ_LIPSCHITZ = 4.0
_FACTORIZATION_SPECTRAL = 3.0


@dataclass(frozen=True)
class Problem:
    """A differentiable objective over a list of array parameters.

    ``loss_and_grad`` (set by every factory, needed by ``harness.run``) is
    bitwise equal to ``(loss(p), grad(p))`` from one evaluation.
    """

    name: str
    params_spec: tuple[tuple[int, ...], ...]
    loss: Callable[[list[np.ndarray]], float]
    grad: Callable[[list[np.ndarray]], list[np.ndarray]]
    theta0: tuple[np.ndarray, ...]
    lipschitz_hint: Optional[float] = None
    minibatch_grad: Optional[Callable[[list[np.ndarray], np.ndarray], list[np.ndarray]]] = None
    dataset_size: Optional[int] = None
    data: dict = field(default_factory=dict)
    loss_and_grad: Optional[Callable[[list[np.ndarray]], tuple[float, list[np.ndarray]]]] = None

    def initial_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.theta0]


class NoiseKind:
    ADDITIVE_GAUSSIAN = "additive_gaussian"
    MINIBATCH = "minibatch"


@dataclass(frozen=True)
class NoiseModel:
    """Gradient noise specification: scale sigma and batch size b."""

    sigma: float = 0.0
    batch_size: int = 1
    kind: str = NoiseKind.ADDITIVE_GAUSSIAN

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ConfigError("sigma must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.kind not in (NoiseKind.ADDITIVE_GAUSSIAN, NoiseKind.MINIBATCH):
            raise ConfigError(f"unknown noise kind: {self.kind!r}")


def make_matrix_least_squares(m: int, n: int, k: int, seed: int) -> Problem:
    """Least squares 0.5 * ||X Theta - Y||_F^2 over Theta in R^{m x n}.

    X is k-by-m with spectral_norm(X^T X) rescaled to a fixed constant
    (recorded in ``lipschitz_hint``); Y is generated from a planted solution
    plus residual noise so the optimum has nonzero loss for k > m.
    """
    if min(m, n, k) < 1:
        raise ConfigError("dimensions must be positive")
    rng = Rng(seed, stream=0)
    x = rng.normal_matrix(k, m)
    x *= np.sqrt(_LSTSQ_LIPSCHITZ) / np.sqrt(spectral_norm(x.T @ x))
    theta_star = rng.normal_matrix(m, n) / np.sqrt(m)
    y = x @ theta_star + 0.2 * rng.normal_matrix(k, n)
    theta0 = rng.normal_matrix(m, n) * (0.5 / np.sqrt(m))

    def loss_and_grad(params: list[np.ndarray]):
        r = x @ params[0] - y
        return 0.5 * float(np.sum(r * r)), [x.T @ r]

    def minibatch_grad(params: list[np.ndarray], indices: np.ndarray) -> list[np.ndarray]:
        xs = x[indices]
        rs = xs @ params[0] - y[indices]
        return [(k / indices.size) * (xs.T @ rs)]

    return Problem(
        name="matrix_least_squares",
        params_spec=((m, n),),
        loss=lambda p: loss_and_grad(p)[0],
        grad=lambda p: loss_and_grad(p)[1],
        loss_and_grad=loss_and_grad,
        theta0=(theta0,),
        lipschitz_hint=float(spectral_norm(x.T @ x)),
        minibatch_grad=minibatch_grad,
        dataset_size=k,
        data={"X": x, "Y": y},
    )


def make_matrix_factorization(m: int, r: int, n: int, seed: int) -> Problem:
    """Rank-r factorization 0.5 * ||A B - C||_F^2 with C a planted product."""
    if r > min(m, n):
        raise ConfigError("inner rank must satisfy r <= min(m, n)")
    if min(m, r, n) < 1:
        raise ConfigError("dimensions must be positive")
    rng = Rng(seed, stream=0)
    a_star = rng.normal_matrix(m, r)
    b_star = rng.normal_matrix(r, n)
    c = a_star @ b_star
    scale = _FACTORIZATION_SPECTRAL / spectral_norm(c)
    c = c * scale
    a_star = a_star * np.sqrt(scale)
    b_star = b_star * np.sqrt(scale)
    a0 = rng.normal_matrix(m, r) * (0.5 / np.sqrt(r))
    b0 = rng.normal_matrix(r, n) * (0.5 / np.sqrt(r))

    def loss_and_grad(params: list[np.ndarray]):
        res = params[0] @ params[1] - c
        return 0.5 * float(np.sum(res * res)), [res @ params[1].T, params[0].T @ res]

    return Problem(
        name="matrix_factorization",
        params_spec=((m, r), (r, n)),
        loss=lambda p: loss_and_grad(p)[0],
        grad=lambda p: loss_and_grad(p)[1],
        loss_and_grad=loss_and_grad,
        theta0=(a0, b0),
        data={"A_star": a_star, "B_star": b_star, "C": c},
    )


def make_mlp_problem(layer_dims, dataset_size: int, seed: int) -> Problem:
    """Tanh MLP regression on a seeded synthetic dataset.

    Parameters alternate weight matrices and bias vectors, so the problem
    exercises matrix/fallback routing.  The loss is the mean squared error
    0.5 * mean_i ||f(x_i) - y_i||^2 with targets from a seeded teacher
    network of the same architecture.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 3:
        raise ConfigError("need at least two layers (len(layer_dims) >= 3)")
    if dataset_size < 1:
        raise ConfigError("dataset_size must be positive")
    rng = Rng(seed, stream=0)
    n_layers = len(dims) - 1

    def draw_params(r: Rng, scale: float) -> list[np.ndarray]:
        out = []
        for l in range(n_layers):
            out.append(r.normal_matrix(dims[l], dims[l + 1]) * (scale / np.sqrt(dims[l])))
            out.append(np.zeros(dims[l + 1]))
        return out

    teacher = draw_params(rng, 1.0)
    x_data = rng.normal_matrix(dataset_size, dims[0])
    y_data = _mlp_forward(teacher, x_data, n_layers)[-1]
    theta0 = draw_params(rng, 0.5)

    def loss_and_grad_on(params, xs, ys):
        acts = _mlp_forward(params, xs, n_layers)
        err = acts[-1] - ys
        delta = err / xs.shape[0]
        grads: list[np.ndarray] = [np.zeros(0)] * (2 * n_layers)
        for l in range(n_layers - 1, -1, -1):
            grads[2 * l] = acts[l].T @ delta
            grads[2 * l + 1] = np.sum(delta, axis=0)
            if l > 0:
                delta = (delta @ params[2 * l].T) * (1.0 - acts[l] ** 2)
        return 0.5 * float(np.sum(err**2)) / xs.shape[0], grads

    def loss_and_grad(params: list[np.ndarray]):
        return loss_and_grad_on(params, x_data, y_data)

    def minibatch_grad(params: list[np.ndarray], indices: np.ndarray) -> list[np.ndarray]:
        return loss_and_grad_on(params, x_data[indices], y_data[indices])[1]

    return Problem(
        name="mlp",
        params_spec=tuple(p.shape for p in theta0),
        loss=lambda p: loss_and_grad(p)[0],
        grad=lambda p: loss_and_grad(p)[1],
        loss_and_grad=loss_and_grad,
        theta0=tuple(theta0),
        minibatch_grad=minibatch_grad,
        dataset_size=dataset_size,
        data={"X": x_data, "Y": y_data},
    )


def _mlp_forward(params: list[np.ndarray], xs: np.ndarray, n_layers: int) -> list[np.ndarray]:
    """Activations per layer; hidden layers tanh, final layer linear."""
    acts = [xs]
    h = xs
    for l in range(n_layers):
        z = h @ params[2 * l] + params[2 * l + 1]
        h = np.tanh(z) if l < n_layers - 1 else z
        acts.append(h)
    return acts


def stochastic_grad(
    problem: Problem, params: list[np.ndarray], noise: NoiseModel, rng: Rng, det_grads=None
) -> list[np.ndarray]:
    """Unbiased stochastic gradient under the given noise model.

    Additive Gaussian: adds iid N(0, sigma^2 / (b * P)) entries with P the
    total parameter count, splitting the sigma^2 / b variance budget across
    parameters proportionally to their element counts.  Minibatch: gradient
    of the b-sample empirical loss (sampling without replacement, so b equal
    to the dataset size reproduces the deterministic gradient).

    ``det_grads``, if given, is ``problem.grad(params)`` already evaluated.
    """
    if noise.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    _check_params(problem, params)
    if noise.kind == NoiseKind.ADDITIVE_GAUSSIAN:
        grads = problem.grad(params) if det_grads is None else det_grads
        if noise.sigma == 0.0:
            return grads
        total = sum(g.size for g in grads)
        std = noise.sigma / np.sqrt(noise.batch_size * total)
        z = rng.normals(total)
        out = []
        offset = 0
        for g in grads:
            out.append(g + std * z[offset : offset + g.size].reshape(g.shape))
            offset += g.size
        return out
    if problem.minibatch_grad is None or problem.dataset_size is None:
        raise ConfigError(f"problem {problem.name!r} does not support minibatch noise")
    b = min(noise.batch_size, problem.dataset_size)
    if b == problem.dataset_size:
        return problem.grad(params) if det_grads is None else det_grads
    indices = rng.sample_without_replacement(problem.dataset_size, b)
    return problem.minibatch_grad(params, indices)


def finite_difference_grad(problem: Problem, params: list[np.ndarray], h: float) -> list[np.ndarray]:
    """Central-difference gradient, one coordinate at a time."""
    if not h > 0.0:
        raise InputError("step size h must be positive")
    _check_params(problem, params)
    work = [np.array(p, dtype=np.float64, copy=True) for p in params]
    grads = [np.zeros_like(p) for p in work]
    for i, p in enumerate(work):
        flat = p.reshape(-1)
        gflat = grads[i].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            f_plus = problem.loss(work)
            flat[j] = orig - h
            f_minus = problem.loss(work)
            flat[j] = orig
            gflat[j] = (f_plus - f_minus) / (2.0 * h)
    return grads


def _check_params(problem: Problem, params: list[np.ndarray]) -> None:
    if len(params) != len(problem.params_spec):
        raise DimensionError(
            f"expected {len(problem.params_spec)} parameters, got {len(params)}"
        )
    for p, shape in zip(params, problem.params_spec):
        if tuple(p.shape) != tuple(shape):
            raise DimensionError(f"parameter shape {p.shape} does not match declared {shape}")
