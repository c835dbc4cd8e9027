"""Numerical certification of the inequalities the convergence analysis uses.

Each ``check_*`` routine evaluates both sides of one inequality on randomized
or grid inputs and reports the worst signed violation (positive means the
inequality failed), not the input that gave it.  The checks are pure
functions of their grids and seeds, and trial k of a randomized check draws
only from ``rng.substream(k)``, so ``max_violation`` at ``trials = k`` is the
worst of the first k trials and bisecting ``trials`` finds the first failing
one.  A NaN violation is the worst case: the first one becomes the report's
``max_violation`` and fails the check.  The array forms of the SNR and
PHI_EPS checks give the bits of their scalar loops.

The randomized checks run in trial blocks bounded by an entry budget: each
draw comes for the whole block from one ``rng.draws``, a block's SNR
recursions run on one stack (``snr_ratio`` is a batch of one), and one SVD per
trace trial gives both sides.  The series checks sum their terms one scalar
at a time and compute each grid's report once per process.

Checked statements:

* SNR            the bias-corrected norm ratio ||m_hat|| / sqrt(v_hat) of an
                 exponential-average stream never exceeds
                 sqrt((1-mu1)/(1-mu2)) when mu1 <= mu2.
* PHI_EPS        x <= phi_eps(x) + sqrt(eps * phi_eps(x)) for
                 phi_eps(x) = x^2 / (x + eps), eps > 0, x >= 0.
* SERIES_MUT     sum_{t<=T} 1/(1-mu^t) <= T + mu/(1-mu) - ln((1-mu^T)/(1-mu))/ln(mu).
* SERIES_MUTSQRT sum_{t<=T} 1/sqrt(1-mu^t) <= T - 2 ln(1+sqrt(1-mu^T))/ln(mu).
* TRACE_OD       <M, Orth(M) D> >= min_j(D_jj) * ||M||_* for nonnegative
                 diagonal D (with D = I this is the nuclear-norm duality
                 identity <M, Orth(M)> = ||M||_*).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .linalg import _svd
from .orthogonalize import _polar
from .rng import Rng, draws

# Default pass thresholds: plain floating-point accumulation for the analytic
# inequalities, an SVD-mediated budget for the trace inequality.
LEMMA_TOLERANCES = {
    "SNR": 1e-12,
    "PHI_EPS": 1e-12,
    "SERIES_MUT": 1e-12,
    "SERIES_MUTSQRT": 1e-12,
    "TRACE_OD": 1e-9,
}

# (mu1, mu2) pairs always exercised by the SNR check; random pairs fill the
# remaining trials.
SNR_MU_GRID = ((0.9, 0.9), (0.9, 0.99), (0.95, 0.99))

# A block of randomized trials holds at most this many float64 entries at the largest shapes its check
# allows (or one trial), so memory stays bounded for any shape maxima.  The binding limit is the tests' 1 MB
# tracemalloc peak for run_all_checks(1000): 0.75 / 1.04 / 1.32 MB at 2**15 / 3 * 2**14 / 2**16.  The SNR
# check at 32 trials took 5.7 / 4.0 / 3.7 / 2.95 ms at 2**15 / 2**16 / 2**17 / 2**18 (best of 3 x 150 calls).
_BLOCK_ENTRIES = 2**15


def _blocks(trials: int, entries_per_trial: int):
    size = max(1, _BLOCK_ENTRIES // entries_per_trial)
    return (range(first, min(trials, first + size)) for first in range(0, trials, size))


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    trials: int
    max_violation: float

    def passed(self) -> bool:
        return self.max_violation <= LEMMA_TOLERANCES[self.lemma_id]


def _report(lemma_id: str, trials: int, violations) -> LemmaReport:
    """A check's report: the first maximum of its 1-D ``violations``, or the first NaN (``np.argmax``)."""
    return LemmaReport(lemma_id, trials, float(violations[np.argmax(violations)]))


def snr_ratio(g_stream: np.ndarray, mu1: float, mu2: float) -> float:
    """||m_hat_t|| / sqrt(v_hat_t) for the stream of vectors g_1..g_t, eps = 0."""
    return _snr_ratios([g_stream], [mu1], [mu2])[0]


def _snr_ratios(streams, mu1s, mu2s) -> list[float]:
    """``snr_ratio`` of each (t, d) stream, the recursions run on one (steps, streams, dims + 1)
    stack: right-aligned and zero-padded (a padded step keeps +0.0), with v in column ``dims``.
    Each row dot g.g and each final norm is taken on the stream's own unpadded rows."""
    steps, dims = max(g.shape[0] for g in streams), max(g.shape[1] for g in streams)
    decay = np.repeat(np.array([mu1s, mu2s]).T, [dims, 1], axis=1)  # mu1 for m, mu2 for v
    x = np.zeros((steps, len(streams), dims + 1))
    for i, g in enumerate(streams):
        t, d = g.shape
        x[steps - t :, i, :d] = g
        # Every row's g.g in one stacked (1, d) @ (d, 1) matmul: per-row np.dot bits on a C-ordered stream.
        x[steps - t :, i, dims] = np.matmul(g[:, None, :], g[:, :, None]).ravel()
    x *= 1.0 - decay
    acc = np.zeros((len(streams), dims + 1))
    for step in x:  # m <- mu1 m + (1 - mu1) g and v <- mu2 v + (1 - mu2) g.g
        acc *= decay
        acc += step
    ratios = []
    for g, mu1, mu2, row in zip(streams, mu1s, mu2s, acc):
        t, d = g.shape
        m_hat = row[:d] / (1.0 - mu1**t)
        v_hat = float(row[dims]) / (1.0 - mu2**t)
        ratios.append(0.0 if v_hat == 0.0 else float(np.sqrt(np.dot(m_hat, m_hat))) / math.sqrt(v_hat))
    return ratios


def check_snr_bound(
    trials: int, rng: Rng, dims_max: int = 64, t_max: int = 100, bound_scale: float = 1.0
) -> LemmaReport:
    """Random-stream check of the adaptive-scalar bound.

    ``bound_scale`` is a self-test hook: values below 1 shrink the asserted
    bound so the check must fail, exercising the failure path end to end.
    """
    if trials < 1 or not math.isfinite(bound_scale):
        raise ConfigError(f"trials must be >= 1 and bound_scale finite, got {trials=}, {bound_scale=}")
    if dims_max < 1 or t_max < 1:
        raise ConfigError(f"dims_max and t_max must be >= 1, got {dims_max=}, {t_max=}")
    violations = []
    for block in _blocks(trials, t_max * (dims_max + 1)):
        gens = [rng.substream(trial) for trial in block]
        inputs, scales = [], []
        # A random (mu1, mu2) takes two uniforms ahead of the stream's dim, length and scale.
        counts = [3 if trial < len(SNR_MU_GRID) or trial % 4 == 0 else 5 for trial in block]
        for trial, u in zip(block, draws(gens, counts, normal=False)):
            if len(u) == 3:
                mu1, mu2 = SNR_MU_GRID[trial % len(SNR_MU_GRID)]
            else:
                mu2 = 0.5 + 0.4999 * u[0]
                mu1 = mu2 * u[1]
            d = 1 + int(u[-3] * dims_max) % dims_max
            t = 1 + int(u[-2] * t_max) % t_max
            inputs.append({"trial": trial, "mu1": mu1, "mu2": mu2, "dim": d, "t": t})
            scales.append(10.0 ** (6.0 * u[-1] - 3.0))
        normals = draws(gens, [p["t"] * p["dim"] for p in inputs], normal=True)
        streams = []
        for z, p, scale in zip(normals, inputs, scales):
            z *= scale
            g = z.reshape(p["t"], p["dim"])
            if p["trial"] % 7 == 3:
                g[:] = g[0]  # constant stream: the tight case when mu1 == mu2
            streams.append(g)
        for p, ratio in zip(inputs, _snr_ratios(streams, [p["mu1"] for p in inputs], [p["mu2"] for p in inputs])):
            violations.append(ratio - math.sqrt((1.0 - p["mu1"]) / (1.0 - p["mu2"])) * bound_scale)
    return _report("SNR", trials, violations)


def snr_tightness_gap(mu: float = 0.9, t: int = 50, dim: int = 8) -> float:
    """|ratio - bound| for a constant stream with mu1 = mu2, where bound = 1.

    The bound is achieved exactly in this configuration, so the gap is a
    non-vacuousness witness for the SNR check.
    """
    g = np.full((t, dim), 1.37)
    return abs(snr_ratio(g, mu, mu) - 1.0)


def check_phi_eps() -> LemmaReport:
    """Grid check of x <= phi_eps(x) + sqrt(eps * phi_eps(x)) on a fixed grid of x >= 0 and eps > 0."""
    x = np.concatenate([[0.0], np.logspace(-12, 6, 55)])
    eps = np.logspace(-12, 3, 46)[:, np.newaxis]
    phi = x * x / (x + eps)  # row i is eps[i], as in a loop over eps then x
    violation = x - (phi + np.sqrt(eps * phi))
    return _report("PHI_EPS", violation.size, violation.ravel())


# The two series as (direct sum, closed-form bound), each sum an fsum of scalar terms that
# take mu^t from Python's libm pow (np.power does not match it).
def _require_series_domain(mu: float, t_steps: int) -> None:
    if not 0.0 < mu < 1.0 or t_steps < 1:
        raise InputError(f"the series need 0 < mu < 1 and T >= 1, got {mu=}, {t_steps=}")


def series_mut_sides(mu: float, t_steps: int) -> tuple[float, float]:
    """Direct sum and closed-form bound for sum 1/(1-mu^t)."""
    _require_series_domain(mu, t_steps)
    lhs = math.fsum(1.0 / (1.0 - mu**t) for t in range(1, t_steps + 1))
    return lhs, t_steps + mu / (1.0 - mu) - math.log((1.0 - mu**t_steps) / (1.0 - mu)) / math.log(mu)


def series_mutsqrt_sides(mu: float, t_steps: int) -> tuple[float, float]:
    """Direct sum and closed-form bound for sum 1/sqrt(1-mu^t)."""
    _require_series_domain(mu, t_steps)
    lhs = math.fsum(1.0 / math.sqrt(1.0 - mu**t) for t in range(1, t_steps + 1))
    return lhs, t_steps - 2.0 * math.log(1.0 + math.sqrt(1.0 - mu**t_steps)) / math.log(mu)


_SERIES_MU_GRID = (0.5, 0.9, 0.99, 0.999)
_SERIES_T_GRID = (1, 10, 100, 1000, 10000)


def check_series_mut() -> LemmaReport:
    return _check_series("SERIES_MUT", _SERIES_MU_GRID, _SERIES_T_GRID)


def check_series_mutsqrt() -> LemmaReport:
    return _check_series("SERIES_MUTSQRT", _SERIES_MU_GRID, _SERIES_T_GRID)


# One report per lemma and grid for the process.  The key holds no function: a tracer that
# rebinds series_mut_sides to a fresh wrapper per pass would otherwise add an entry per pass.
@functools.cache
def _check_series(lemma_id: str, mu_grid: tuple, t_grid: tuple) -> LemmaReport:
    sides = series_mut_sides if lemma_id == "SERIES_MUT" else series_mutsqrt_sides
    # Relative scaling keeps the check meaningful when both sides are
    # large (the T = 1 case is an exact equality up to roundoff).
    violations = [(lhs - rhs) / max(1.0, abs(rhs)) for lhs, rhs in (sides(mu, n) for mu in mu_grid for n in t_grid)]
    return _report(lemma_id, len(violations), violations)


def check_trace_inequality(trials: int, rng: Rng, dims_max=(16, 12)) -> LemmaReport:
    """Random check of <M, Orth(M) D> >= min(D) * ||M||_*."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials=}")
    m_max, n_max = dims_max
    if m_max < 2 or n_max < 2:
        raise ConfigError(f"both dims_max entries must be >= 2, got {dims_max=}")
    violations = []
    for block in _blocks(trials, m_max * (n_max + 1)):
        gens = [rng.substream(trial) for trial in block]
        us = draws(gens, [2] * len(gens), normal=False)
        shapes = [(2 + int(u[0] * (m_max - 1)) % (m_max - 1), 2 + int(u[1] * (n_max - 1)) % (n_max - 1)) for u in us]
        mats = [z.reshape(shape) for z, shape in zip(draws(gens, [m * n for m, n in shapes], normal=True), shapes)]
        # A diagonal is the last draw of a trial, so the duality-identity and zero cases may draw and drop it.
        diagonals = draws(gens, [n for _, n in shapes], normal=False)
        for trial, (_, n_cols), mat, diagonal in zip(block, shapes, mats, diagonals):
            if trial % 11 == 1:
                d = np.ones(n_cols)  # duality identity case
            elif trial % 13 == 2:
                d = np.zeros(n_cols)
            else:
                d = 2.0 * diagonal
                if trial % 5 == 0:
                    d[trial % n_cols] = 0.0
            # One SVD for both sides; a Gaussian matrix is never below orthogonalize's zero
            # threshold, so its polar factor is orthogonalize(mat, EXACT).
            u, s, vt = _svd(mat)
            aligned = np.ascontiguousarray(_polar(u, s, vt) * d[np.newaxis, :])  # F order moves the sum's bits
            d_min = float(np.minimum.reduce(d))  # the reductions np.min and np.sum call
            violations.append(d_min * float(np.add.reduce(s)) - float(np.add.reduce(mat * aligned, axis=None)))
    return _report("TRACE_OD", trials, violations)


def estimate_rate_slope(records) -> float:
    """Least-squares slope of log(value) against log(T).

    ``records`` is a sequence of (T, value) pairs with at least three
    distinct positive T values and strictly positive values.
    """
    pts = [(float(t), float(y)) for t, y in records]
    if len({t for t, _ in pts}) < 3:
        raise InputError("need at least 3 distinct T values")
    for t, y in pts:
        if t <= 0.0:
            raise InputError("T values must be positive")
        if y <= 0.0:
            raise InputError("measurements must be positive")
    xs = np.log([t for t, _ in pts])
    ys = np.log([y for _, y in pts])
    xc = xs - xs.mean()
    return float(np.dot(xc, ys - ys.mean()) / np.dot(xc, xc))


def run_all_checks(trials: int, seed: int, bound_scale: float) -> list[LemmaReport]:
    """All five lemma checks with shared seeding, in a fixed order (``bound_scale`` as in the SNR check)."""
    rng = Rng(seed)
    return [
        check_snr_bound(trials, rng.substream(1), bound_scale=bound_scale),
        check_phi_eps(),
        check_series_mut(),
        check_series_mutsqrt(),
        check_trace_inequality(trials, rng.substream(2)),
    ]
