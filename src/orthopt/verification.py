"""Numerical certification of the inequalities the convergence analysis uses.

Each ``check_*`` routine evaluates both sides of one inequality on randomized
or grid inputs and reports the worst signed violation (positive means the
inequality failed).  The checks are pure functions of their grids and seeds,
so reports are reproducible.

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

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import inner_product, nuclear_norm
from .orthogonalize import EXACT, orthogonalize
from .rng import Rng

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


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    trials: int
    max_violation: float
    worst_case_inputs: str

    def passed(self) -> bool:
        return self.max_violation <= LEMMA_TOLERANCES[self.lemma_id]


def _report(lemma_id: str, trials: int, max_violation: float, worst) -> LemmaReport:
    return LemmaReport(
        lemma_id=lemma_id,
        trials=trials,
        max_violation=float(max_violation),
        worst_case_inputs=json.dumps(worst, sort_keys=True),
    )


def snr_ratio(g_stream: np.ndarray, mu1: float, mu2: float) -> float:
    """||m_hat_t|| / sqrt(v_hat_t) for the stream of vectors g_1..g_t, eps = 0."""
    t = g_stream.shape[0]
    m = np.zeros(g_stream.shape[1])
    v = 0.0
    for tau in range(t):
        g = g_stream[tau]
        m = mu1 * m + (1.0 - mu1) * g
        v = mu2 * v + (1.0 - mu2) * float(np.dot(g, g))
    m_hat = m / (1.0 - mu1**t)
    v_hat = v / (1.0 - mu2**t)
    if v_hat == 0.0:
        return 0.0
    return float(np.sqrt(np.dot(m_hat, m_hat))) / math.sqrt(v_hat)


def check_snr_bound(
    trials: int = 1000,
    dims_max: int = 64,
    t_max: int = 100,
    rng: Rng | None = None,
    bound_scale: float = 1.0,
) -> LemmaReport:
    """Random-stream check of the adaptive-scalar bound.

    ``bound_scale`` is a self-test hook: values below 1 shrink the asserted
    bound so the check must fail, exercising the failure path end to end.
    """
    rng = rng if rng is not None else Rng(0)
    worst_violation = -math.inf
    worst = None
    for trial in range(trials):
        r = rng.substream(trial)
        if trial < len(SNR_MU_GRID) or trial % 4 == 0:
            mu1, mu2 = SNR_MU_GRID[trial % len(SNR_MU_GRID)]
        else:
            u = r.uniforms(2)
            mu2 = 0.5 + 0.4999 * u[0]
            mu1 = mu2 * u[1]
        u = r.uniforms(3)
        d = 1 + int(u[0] * dims_max) % dims_max
        t = 1 + int(u[1] * t_max) % t_max
        scale = 10.0 ** (6.0 * u[2] - 3.0)
        g = r.normal_matrix(t, d) * scale
        if trial % 7 == 3:
            g[:] = g[0]  # constant stream: the tight case when mu1 == mu2
        bound = math.sqrt((1.0 - mu1) / (1.0 - mu2)) * bound_scale
        violation = snr_ratio(g, mu1, mu2) - bound
        if violation > worst_violation:
            worst_violation = violation
            worst = {"trial": trial, "mu1": mu1, "mu2": mu2, "dim": d, "t": t}
    return _report("SNR", trials, worst_violation, worst)


def snr_tightness_gap(mu: float = 0.9, t: int = 50, dim: int = 8) -> float:
    """|ratio - bound| for a constant stream with mu1 = mu2, where bound = 1.

    The bound is achieved exactly in this configuration, so the gap is a
    non-vacuousness witness for the SNR check.
    """
    g = np.full((t, dim), 1.37)
    return abs(snr_ratio(g, mu, mu) - 1.0)


def check_phi_eps(x_grid=None, eps_grid=None) -> LemmaReport:
    """Grid check of x <= phi_eps(x) + sqrt(eps * phi_eps(x))."""
    if x_grid is None:
        x_grid = np.concatenate([[0.0], np.logspace(-12, 6, 55)])
    if eps_grid is None:
        eps_grid = np.logspace(-12, 3, 46)
    worst_violation = -math.inf
    worst = None
    trials = 0
    for eps in eps_grid:
        for x in x_grid:
            trials += 1
            phi = x * x / (x + eps)
            violation = x - (phi + math.sqrt(eps * phi))
            if violation > worst_violation:
                worst_violation = violation
                worst = {"x": float(x), "eps": float(eps)}
    return _report("PHI_EPS", trials, worst_violation, worst)


def series_mut_sides(mu: float, t_steps: int) -> tuple[float, float]:
    """Direct sum and closed-form bound for sum 1/(1-mu^t)."""
    lhs = math.fsum(1.0 / (1.0 - mu**t) for t in range(1, t_steps + 1))
    rhs = t_steps + mu / (1.0 - mu) - math.log((1.0 - mu**t_steps) / (1.0 - mu)) / math.log(mu)
    return lhs, rhs


def series_mutsqrt_sides(mu: float, t_steps: int) -> tuple[float, float]:
    """Direct sum and closed-form bound for sum 1/sqrt(1-mu^t)."""
    lhs = math.fsum(1.0 / math.sqrt(1.0 - mu**t) for t in range(1, t_steps + 1))
    rhs = t_steps - 2.0 * math.log(1.0 + math.sqrt(1.0 - mu**t_steps)) / math.log(mu)
    return lhs, rhs


_SERIES_MU_GRID = (0.5, 0.9, 0.99, 0.999)
_SERIES_T_GRID = (1, 10, 100, 1000, 10000)


def check_series_mut() -> LemmaReport:
    return _check_series("SERIES_MUT", series_mut_sides)


def check_series_mutsqrt() -> LemmaReport:
    return _check_series("SERIES_MUTSQRT", series_mutsqrt_sides)


def _check_series(lemma_id: str, sides) -> LemmaReport:
    worst_violation = -math.inf
    worst = None
    trials = 0
    for mu in _SERIES_MU_GRID:
        for t_steps in _SERIES_T_GRID:
            trials += 1
            lhs, rhs = sides(mu, t_steps)
            # Relative scaling keeps the check meaningful when both sides are
            # large (the T = 1 case is an exact equality up to roundoff).
            violation = (lhs - rhs) / max(1.0, abs(rhs))
            if violation > worst_violation:
                worst_violation = violation
                worst = {"mu": float(mu), "T": int(t_steps)}
    return _report(lemma_id, trials, worst_violation, worst)


def check_trace_inequality(trials: int = 1000, dims_max=(16, 12), rng: Rng | None = None) -> LemmaReport:
    """Random check of <M, Orth(M) D> >= min(D) * ||M||_*."""
    rng = rng if rng is not None else Rng(0)
    m_max, n_max = dims_max
    worst_violation = -math.inf
    worst = None
    for trial in range(trials):
        r = rng.substream(trial)
        u = r.uniforms(2)
        m_rows = 2 + int(u[0] * (m_max - 1)) % (m_max - 1)
        n_cols = 2 + int(u[1] * (n_max - 1)) % (n_max - 1)
        mat = r.normal_matrix(m_rows, n_cols)
        if trial % 11 == 1:
            d = np.ones(n_cols)  # duality identity case
        elif trial % 13 == 2:
            d = np.zeros(n_cols)
        else:
            d = 2.0 * r.uniforms(n_cols)
            if trial % 5 == 0:
                d[trial % n_cols] = 0.0
        o = orthogonalize(mat, EXACT)
        lhs = inner_product(mat, o * d[np.newaxis, :])
        rhs = float(np.min(d)) * nuclear_norm(mat)
        violation = rhs - lhs
        if violation > worst_violation:
            worst_violation = violation
            worst = {"trial": trial, "rows": m_rows, "cols": n_cols, "d_min": float(np.min(d))}
    return _report("TRACE_OD", trials, worst_violation, worst)


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


def run_all_checks(trials: int = 1000, seed: int = 0, bound_scale: float = 1.0) -> list[LemmaReport]:
    """All five lemma checks with shared seeding, in a fixed order (``bound_scale`` as in the SNR check)."""
    rng = Rng(seed)
    return [
        check_snr_bound(trials=trials, rng=rng.substream(1), bound_scale=bound_scale),
        check_phi_eps(),
        check_series_mut(),
        check_series_mutsqrt(),
        check_trace_inequality(trials=trials, rng=rng.substream(2)),
    ]
