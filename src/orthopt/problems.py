"""Synthetic optimization problems with analytic gradients and noise oracles.

Each factory writes one oracle, ``loss_and_grad(params, rows=None)``: one
residual or forward pass gives the loss and its gradient, on the full data or,
where a dataset exists, as the unbiased estimate from the data rows ``rows``.
``Problem`` derives ``loss``, ``grad`` and ``minibatch_grad`` from it, so they
are views of that one function.  Parameter shapes are read off the initial
iterate.  ``stochastic_grad`` wraps a problem's gradient in either additive
Gaussian noise calibrated so the aggregate squared Frobenius deviation is
exactly sigma^2 / b in expectation, or minibatch subsampling.  It is one call
of the oracle that ``harness.run`` builds once per run, which draws additive
noise per block of steps, each row bitwise the draw of a per-step call.  All
randomness flows through the counter-based ``Rng``, so every draw is a pure
function of (seed, stream, counter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionError, InputError
from .linalg import spectral_norm
from .rng import Rng

# Factories rescale their data so curvature hints stay within a fixed band,
# keeping learning-rate sweeps comparable across problems.
_LSTSQ_LIPSCHITZ = 4.0
_FACTORIZATION_SPECTRAL = 3.0


@dataclass(frozen=True)
class Problem:
    """A differentiable objective over array parameters shaped as ``theta0``.

    ``loss_and_grad(params, rows=None)`` is the oracle: the loss and gradient
    on the full data or, given ``rows`` (a 1-D array of distinct data rows,
    only with ``dataset_size``), their unbiased estimate from those rows.
    ``loss``, ``grad`` and ``minibatch_grad`` (``None`` without a dataset) are
    its views, bit for bit, derived unless passed in.  An MLP problem's oracle,
    on full data or on rows, writes into work buffers it owns, so it must not
    be evaluated from two threads at once (``harness.run`` builds one per run).
    """

    name: str
    loss_and_grad: Callable[..., tuple[float, list[np.ndarray]]]
    theta0: tuple[np.ndarray, ...]
    dataset_size: Optional[int] = None
    data: dict = field(default_factory=dict)
    loss: Optional[Callable[[list[np.ndarray]], float]] = None
    grad: Optional[Callable[[list[np.ndarray]], list[np.ndarray]]] = None
    minibatch_grad: Optional[Callable[[list[np.ndarray], np.ndarray], list[np.ndarray]]] = None

    def __post_init__(self) -> None:
        loss_and_grad = self.loss_and_grad
        object.__setattr__(self, "theta0", tuple(self.theta0))
        if self.loss is None:
            object.__setattr__(self, "loss", lambda p: loss_and_grad(p)[0])
        if self.grad is None:
            object.__setattr__(self, "grad", lambda p: loss_and_grad(p)[1])
        if self.minibatch_grad is None and self.dataset_size is not None:
            object.__setattr__(self, "minibatch_grad", lambda p, rows: loss_and_grad(p, rows)[1])

    @property
    def params_spec(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.shape for p in self.theta0)

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
        if not 0.0 <= self.sigma < math.inf:
            raise ConfigError("sigma must be finite and nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.kind not in (NoiseKind.ADDITIVE_GAUSSIAN, NoiseKind.MINIBATCH):
            raise ConfigError(f"unknown noise kind: {self.kind!r}")


def make_matrix_least_squares(m: int, n: int, k: int, seed: int) -> Problem:
    """Least squares 0.5 * ||X Theta - Y||_F^2 over Theta in R^{m x n}.

    X is k-by-m with spectral_norm(X^T X) rescaled to ``_LSTSQ_LIPSCHITZ``,
    the gradient's Lipschitz constant; Y is generated from a planted solution
    plus residual noise so the optimum has nonzero loss for k > m.
    """
    rng = Rng(seed, stream=0)
    x = rng.normal_matrix(k, m)
    x *= np.sqrt(_LSTSQ_LIPSCHITZ) / np.sqrt(spectral_norm(x.T @ x))
    theta_star = rng.normal_matrix(m, n) / np.sqrt(m)
    y = x @ theta_star + 0.2 * rng.normal_matrix(k, n)
    theta0 = rng.normal_matrix(m, n) * (0.5 / np.sqrt(m))

    def loss_and_grad(params: list[np.ndarray], rows: Optional[np.ndarray] = None):
        xs, ys = (x, y) if rows is None else (x[rows], y[rows])
        r = xs @ params[0] - ys
        loss, grad = 0.5 * float(np.add.reduce(r * r, axis=None)), xs.T @ r
        if rows is None:
            return loss, [grad]
        return (k / rows.size) * loss, [(k / rows.size) * grad]  # b rows' sums estimate the k rows'

    return Problem("matrix_least_squares", loss_and_grad, (theta0,), dataset_size=k, data={"X": x, "Y": y})


def make_matrix_factorization(m: int, r: int, n: int, seed: int) -> Problem:
    """Rank-r factorization 0.5 * ||A B - C||_F^2 with C a planted product."""
    if r > min(m, n):
        raise ConfigError("inner rank must satisfy r <= min(m, n)")
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
        return 0.5 * float(np.add.reduce(res * res, axis=None)), [res @ params[1].T, params[0].T @ res]

    return Problem("matrix_factorization", loss_and_grad, (a0, b0), data={"A_star": a_star, "B_star": b_star, "C": c})


def make_mlp_problem(layer_dims, dataset_size: int, seed: int) -> Problem:
    """Tanh MLP regression on a seeded synthetic dataset.

    Parameters alternate weight matrices and bias vectors, so the problem
    exercises matrix/fallback routing.  The loss is the mean squared error
    0.5 * mean_i ||f(x_i) - y_i||^2 with targets from a seeded teacher
    network of the same architecture.  The oracle writes into one activation
    and one error buffer per hidden layer, allocated here, a minibatch into
    their leading rows; the loss and gradients it returns are fresh and never
    alias them, and no two threads may evaluate one problem at once.
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

    # Allocated once, one (dataset_size, width) array per hidden layer: at 256 samples of width 64 each
    # is 128 KiB, glibc's mmap threshold, so per-call temporaries would be mapped and unmapped each time.
    hidden, deltas = ([np.empty((dataset_size, d)) for d in dims[1:-1]] for _ in range(2))
    teacher = draw_params(rng, 1.0)
    x_data = rng.normal_matrix(dataset_size, dims[0])
    y_data = _mlp_forward(teacher, x_data, hidden)
    theta0 = draw_params(rng, 0.5)

    def loss_and_grad(params: list[np.ndarray], rows: Optional[np.ndarray] = None):
        # A b-row mean estimates the full mean unscaled.  The buffers' leading b rows are C-contiguous
        # with a fresh (b, width) array's strides, so BLAS sees the same layout.
        xs, ys = (x_data, y_data) if rows is None else (x_data[rows], y_data[rows])
        hid, dels = [a[: xs.shape[0]] for a in hidden], [a[: xs.shape[0]] for a in deltas]
        err = _mlp_forward(params, xs, hid)
        err -= ys
        delta = err / xs.shape[0]
        acts = [xs, *hid]
        grads: list[np.ndarray] = [np.zeros(0)] * (2 * n_layers)
        for l in range(n_layers - 1, -1, -1):
            grads[2 * l] = acts[l].T @ delta
            grads[2 * l + 1] = np.add.reduce(delta, axis=0)
            if l > 0:  # delta @ W^T * (1 - a^2), with 1 - a^2 written over a
                a = acts[l]
                np.square(a, out=a)
                np.subtract(1.0, a, out=a)
                delta = np.matmul(delta, params[2 * l].T, out=dels[l - 1])
                delta *= a
        return 0.5 * float(np.add.reduce(err**2, axis=None)) / xs.shape[0], grads

    return Problem("mlp", loss_and_grad, theta0, dataset_size=dataset_size, data={"X": x_data, "Y": y_data})


def _mlp_forward(params: list[np.ndarray], xs: np.ndarray, hidden: list[np.ndarray]) -> np.ndarray:
    """Network output on rows ``xs`` (final layer linear, a fresh array); the
    tanh activation of each hidden layer is written into its ``hidden`` array."""
    h = xs
    for l, a in enumerate(hidden):
        np.matmul(h, params[2 * l], out=a)
        a += params[2 * l + 1]
        h = np.tanh(a, out=a)
    return h @ params[-2] + params[-1]


def stochastic_grad(
    problem: Problem, params: list[np.ndarray], noise: NoiseModel, rng: Rng
) -> list[np.ndarray]:
    """Unbiased stochastic gradient under the given noise model.

    Additive Gaussian: adds iid N(0, sigma^2 / (b * P)) entries with P the
    total parameter count, splitting the sigma^2 / b variance budget across
    parameters proportionally to their element counts.  Minibatch: gradient
    of the b-sample empirical loss (sampling without replacement, so b equal
    to the dataset size reproduces the deterministic gradient).
    """
    _check_params(problem, params)
    return _gradient_oracle(problem, noise, rng, 1)(params, None)


# Additive noise is drawn for about this many entries (at least one step's
# worth) per call, so a small problem's run draws once, not once per step.
_NOISE_BLOCK_ENTRIES = 2**16


def _gradient_oracle(problem: Problem, noise: NoiseModel, rng: Rng, steps: int):
    """``stochastic_grad`` for ``steps`` calls as ``(params, full_grads) -> grads``,
    noise checked once; additive noise comes ``min(steps left, max(1,
    _NOISE_BLOCK_ENTRIES // P))`` rows of ``Rng.normal_rows`` at a time."""

    def exact(params, full_grads):
        return problem.grad(params) if full_grads is None else full_grads

    if noise.kind == NoiseKind.ADDITIVE_GAUSSIAN:
        if noise.sigma == 0.0:
            return exact
        sizes = [math.prod(shape) for shape in problem.params_spec]
        total = sum(sizes)
        try:  # the exact integer product, rounded once to float as numpy's int64 cast does
            std = noise.sigma / math.sqrt(noise.batch_size * total)
        except OverflowError:
            raise ConfigError(f"batch_size {noise.batch_size} is too large for additive noise") from None

        def noise_rows():  # per call, the scaled noise of each parameter
            left = steps
            while True:
                rows = max(1, min(left, _NOISE_BLOCK_ENTRIES // total))
                left -= rows
                z = np.split(std * rng.normal_rows(rows, total), np.cumsum(sizes[:-1]), axis=1)
                yield from zip(*(e.reshape(rows, *s) for e, s in zip(z, problem.params_spec)))

        draws = noise_rows()
        return lambda params, full_grads: [g + e for g, e in zip(exact(params, full_grads), next(draws))]
    if problem.dataset_size is None:
        raise ConfigError(f"problem {problem.name!r} does not support minibatch noise")
    b = min(noise.batch_size, problem.dataset_size)
    if b == problem.dataset_size:
        return exact
    sample = rng.sample_without_replacement
    return lambda params, full_grads: problem.minibatch_grad(params, sample(problem.dataset_size, b))


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
