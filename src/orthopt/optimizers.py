"""Per-parameter step rules: NAMO, NAMO-D, Muon, and AdamW.

All four optimizers share the same calling convention: a step function takes
the current parameter, a gradient, the persistent state, and hyperparameters,
and returns the updated parameter, the updated state, and diagnostics.  The
functions are pure; each (parameter, state) pair is owned by exactly one step
call at a time, and distinct parameters may be stepped concurrently.

NAMO rescales orthogonalized momentum by a single norm-based adaptive scalar;
NAMO-D right-multiplies it by a clamped diagonal of per-column adaptive
scalars; Muon applies the orthogonalized momentum directly; AdamW is the
element-wise baseline and the fallback rule for vector/scalar parameters.
Weight decay is decoupled in all four, sitting inside the adaptive scale for
NAMO/NAMO-D:

    NAMO    theta <- theta - eta * alpha_t * (O_t + lambda * theta)
    NAMO-D  theta <- theta - eta * (O_t + lambda * theta) @ D_t
    Muon    theta <- theta - eta * (O_t + lambda * theta)
    AdamW   theta <- theta - eta * (m_hat / (sqrt(v_hat) + eps) + lambda * theta)

With lambda = 0 the NAMO/NAMO-D updates reduce to the plain two-moment
recursions over the gradient stream.

All four steps share one validated start that counts the step and mu1-averages the
gradient.  The matrix rules take 2-D parameters only and raise ``DimensionError``
on any other; AdamW is element-wise on any shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, InputError
from .linalg import _norm
from .orthogonalize import OrthConfig, orthogonalize


@dataclass(frozen=True)
class HyperParams:
    """Step-rule hyperparameters shared across optimizers.

    ``mu1``/``mu2`` are the first/second-moment coefficients (doubling as
    AdamW's beta1/beta2); ``clamp_c`` only affects NAMO-D.  The constraint
    ``mu1 <= mu2`` is what makes the adaptive scalars provably bounded, so it
    is enforced at construction.
    """

    eta: float
    mu1: float = 0.95
    mu2: float = 0.99
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    clamp_c: float = 1.0
    orth: OrthConfig = field(default_factory=OrthConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.eta < math.inf:
            raise ConfigError("eta must be positive and finite")
        if not 0.0 <= self.mu1 <= self.mu2 < 1.0:
            raise ConfigError("momentum coefficients must satisfy 0 <= mu1 <= mu2 < 1")
        if not self.epsilon > 0.0:
            raise ConfigError("epsilon must be positive")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and nonnegative")
        if not 0.0 < self.clamp_c <= 1.0:
            raise ConfigError("clamp_c must lie in (0, 1]")

    def alpha_bound(self) -> float:
        """Uniform upper bound sqrt((1-mu1)/(1-mu2)) on the adaptive scalars."""
        return math.sqrt((1.0 - self.mu1) / (1.0 - self.mu2))


@dataclass
class NamoState:
    M: np.ndarray
    v: float
    t: int

    @classmethod
    def zero(cls, shape) -> "NamoState":
        return cls(M=np.zeros(shape), v=0.0, t=0)


@dataclass
class NamoDState:
    M: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def zero(cls, shape) -> "NamoDState":
        return cls(M=np.zeros(shape), v=np.zeros(math.prod(shape[1:])), t=0)


@dataclass
class MuonState:
    M: np.ndarray
    t: int

    @classmethod
    def zero(cls, shape) -> "MuonState":
        return cls(M=np.zeros(shape), t=0)


@dataclass
class AdamWState:
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def zero(cls, shape) -> "AdamWState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)


@dataclass
class StepDiagnostics:
    """Observable per-step quantities.

    ``alpha`` is populated by NAMO; ``d_raw``/``d_clamped``/``d_bar`` by
    NAMO-D.
    """

    alpha: float | None = None
    d_raw: np.ndarray | None = None
    d_clamped: np.ndarray | None = None
    d_bar: float | None = None


def _momentum(theta, grad, m: np.ndarray, t: int, hp: HyperParams):
    """Validated theta and grad as float arrays, the step count and first moment."""
    th = np.asarray(theta, dtype=np.float64)
    g = np.asarray(grad, dtype=np.float64)
    if th.shape != g.shape:
        raise DimensionError(f"parameter/gradient shapes differ: {th.shape} vs {g.shape}")
    if th.shape != m.shape:
        raise DimensionError(f"parameter/state shapes differ: {th.shape} vs {m.shape}")
    if not np.isfinite(g).all():
        raise InputError("gradient contains non-finite entries")
    return th, g, t + 1, hp.mu1 * m + (1.0 - hp.mu1) * g


def _bias_correction(t: int, hp: HyperParams) -> float:
    return math.sqrt(1.0 - hp.mu2**t) / (1.0 - hp.mu1**t)


def namo_step(theta, grad, state: NamoState, hp: HyperParams):
    """One NAMO step; returns (new parameter, new state, diagnostics).

    The adaptive stepsize ``alpha`` is strictly below ``hp.alpha_bound()``
    whenever eps > 0.
    """
    th, g, t_new, m_new = _momentum(theta, grad, state.M, state.t, hp)
    v_new = hp.mu2 * state.v + (1.0 - hp.mu2) * _norm(g) ** 2
    o = orthogonalize(m_new, hp.orth)
    alpha = _bias_correction(t_new, hp) * _norm(m_new) / (math.sqrt(v_new) + hp.epsilon)
    update = (hp.eta * alpha) * (o + hp.weight_decay * th)
    diag = StepDiagnostics(alpha=alpha)
    return th - update, NamoState(M=m_new, v=v_new, t=t_new), diag


def _clamp(d: np.ndarray, c: float) -> tuple[float, np.ndarray]:
    """(mean of ``d``, ``d`` clamped around it) for a trusted vector."""
    d_bar = float(np.add.reduce(d, axis=None)) / d.size
    return d_bar, np.minimum(np.maximum(d, c * d_bar), d_bar / c)


def namo_d_step(theta, grad, state: NamoDState, hp: HyperParams):
    """One NAMO-D step; returns (new parameter, new state, diagnostics)."""
    th, g, t_new, m_new = _momentum(theta, grad, state.M, state.t, hp)
    if th.ndim != 2 or state.v.shape != (th.shape[1],):
        raise DimensionError("second-moment vector length must equal the column count")
    gc = _norm(g, axis=0)
    v_new = hp.mu2 * state.v + (1.0 - hp.mu2) * gc * gc
    bias = _bias_correction(t_new, hp)
    d_raw = bias * _norm(m_new, axis=0) / (np.sqrt(v_new) + hp.epsilon)
    d_bar, d_clamped = _clamp(d_raw, hp.clamp_c)
    o = orthogonalize(m_new, hp.orth)
    update = hp.eta * ((o + hp.weight_decay * th) * d_clamped[np.newaxis, :])
    diag = StepDiagnostics(d_raw=d_raw, d_clamped=d_clamped, d_bar=d_bar)
    return th - update, NamoDState(M=m_new, v=v_new, t=t_new), diag


def muon_step(theta, grad, state: MuonState, hp: HyperParams):
    """One Muon step (orthogonalized momentum, no adaptive scaling)."""
    th, g, t_new, m_new = _momentum(theta, grad, state.M, state.t, hp)
    o = orthogonalize(m_new, hp.orth)
    update = hp.eta * (o + hp.weight_decay * th)
    return th - update, MuonState(M=m_new, t=t_new), StepDiagnostics()


def adamw_step(theta, grad, state: AdamWState, hp: HyperParams):
    """One AdamW step on a parameter of any shape (matrix, vector, scalar)."""
    th, g, t_new, m_new = _momentum(theta, grad, state.m, state.t, hp)
    v_new = hp.mu2 * state.v + (1.0 - hp.mu2) * g * g
    m_hat = m_new / (1.0 - hp.mu1**t_new)
    v_hat = v_new / (1.0 - hp.mu2**t_new)
    update = hp.eta * (m_hat / (np.sqrt(v_hat) + hp.epsilon) + hp.weight_decay * th)
    return th - update, AdamWState(m=m_new, v=v_new, t=t_new), StepDiagnostics()


def is_matrix_parameter(shape) -> bool:
    """Whether a parameter of ``shape`` takes the matrix rule; AdamW takes the rest.

    Only 2-D shapes with both dimensions above 1 take it: orthogonalizing a
    1-by-n matrix degenerates to normalization, which defeats the point of the
    matrix rules.  Vectors, scalars and 3-D+ parameters go to the fallback.
    """
    return len(shape) == 2 and all(d > 1 for d in shape)
