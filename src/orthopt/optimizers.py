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

Steps validate their inputs once on entry, then run the arithmetic of
``compute_alpha`` and ``clamp_d`` without re-checking arrays.  The matrix
steps treat a parameter with more than two dimensions as its
(d0, d1 * ... * dk) matrix, the convention Muon uses for convolution weights.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, InputError
from .linalg import _norm, as_matrix
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
        if not self.eta > 0.0:
            raise ConfigError("eta must be positive")
        if not 0.0 <= self.mu1 <= self.mu2 < 1.0:
            raise ConfigError("momentum coefficients must satisfy 0 <= mu1 <= mu2 < 1")
        if not self.epsilon > 0.0:
            raise ConfigError("epsilon must be positive")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be nonnegative")
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
    NAMO-D.  ``update_frobenius`` is the norm of the applied update and is
    always present.
    """

    update_frobenius: float
    alpha: float | None = None
    d_raw: np.ndarray | None = None
    d_clamped: np.ndarray | None = None
    d_bar: float | None = None


def _check_step_inputs(theta, grad, state_shape) -> tuple[np.ndarray, np.ndarray]:
    th = np.asarray(theta, dtype=np.float64)
    g = np.asarray(grad, dtype=np.float64)
    if th.shape != g.shape:
        raise DimensionError(f"parameter/gradient shapes differ: {th.shape} vs {g.shape}")
    if state_shape is not None and th.shape != state_shape:
        raise DimensionError(f"parameter/state shapes differ: {th.shape} vs {state_shape}")
    if not np.all(np.isfinite(g)):
        raise InputError("gradient contains non-finite entries")
    return th, g


def _flat(a: np.ndarray) -> np.ndarray:
    """``a`` with its trailing dimensions merged into one: (d0, d1 * ... * dk)."""
    return a.reshape(a.shape[0], -1) if a.ndim > 2 else a


def compute_alpha(m, v: float, t: int, hp: HyperParams) -> float:
    """Bias-corrected norm ratio scaling the orthogonalized update.

    Returns ``sqrt(1-mu2^t)/(1-mu1^t) * ||M||_F / (sqrt(v) + eps)``, which is
    strictly below ``hp.alpha_bound()`` whenever eps > 0.
    """
    if t < 1:
        raise InputError("step counter must be >= 1")
    if v < 0.0:
        raise InputError("second moment must be nonnegative")
    return _bias_correction(t, hp) * _norm(as_matrix(m)) / (math.sqrt(v) + hp.epsilon)


def _bias_correction(t: int, hp: HyperParams) -> float:
    return math.sqrt(1.0 - hp.mu2**t) / (1.0 - hp.mu1**t)


def namo_step(theta, grad, state: NamoState, hp: HyperParams):
    """One NAMO step; returns (new parameter, new state, diagnostics)."""
    th, g = _check_step_inputs(theta, grad, state.M.shape)
    shape, th, g = th.shape, _flat(th), _flat(g)
    t_new = state.t + 1
    m_new = hp.mu1 * _flat(state.M) + (1.0 - hp.mu1) * g
    v_new = hp.mu2 * state.v + (1.0 - hp.mu2) * _norm(g) ** 2
    o = orthogonalize(m_new, hp.orth)
    alpha = _bias_correction(t_new, hp) * _norm(m_new) / (math.sqrt(v_new) + hp.epsilon)
    update = (hp.eta * alpha) * (o + hp.weight_decay * th)
    diag = StepDiagnostics(update_frobenius=_norm(update), alpha=alpha)
    return (th - update).reshape(shape), NamoState(M=m_new.reshape(shape), v=v_new, t=t_new), diag


def clamp_d(d, c: float) -> np.ndarray:
    """Clamp entries of ``d`` into [c * mean(d), mean(d) / c] entrywise."""
    arr = np.asarray(d, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("clamp_d needs a nonempty 1-D vector")
    if np.any(arr < 0.0):
        raise InputError("clamp_d entries must be nonnegative")
    if not 0.0 < c <= 1.0:
        raise ConfigError("clamping constant must lie in (0, 1]")
    return _clamp(arr, c)[1]


def _clamp(d: np.ndarray, c: float) -> tuple[float, np.ndarray]:
    """(mean of ``d``, ``d`` clamped around it) for a trusted vector."""
    d_bar = float(np.sum(d)) / d.size
    return d_bar, np.minimum(np.maximum(d, c * d_bar), d_bar / c)


def namo_d_step(theta, grad, state: NamoDState, hp: HyperParams):
    """One NAMO-D step; returns (new parameter, new state, diagnostics)."""
    th, g = _check_step_inputs(theta, grad, state.M.shape)
    shape, th, g = th.shape, _flat(th), _flat(g)
    if th.ndim < 2 or state.v.shape != (th.shape[1],):
        raise DimensionError("second-moment vector length must equal the column count")
    t_new = state.t + 1
    m_new = hp.mu1 * _flat(state.M) + (1.0 - hp.mu1) * g
    gc = _norm(g, axis=0)
    v_new = hp.mu2 * state.v + (1.0 - hp.mu2) * gc * gc
    bias = _bias_correction(t_new, hp)
    d_raw = bias * _norm(m_new, axis=0) / (np.sqrt(v_new) + hp.epsilon)
    d_bar, d_clamped = _clamp(d_raw, hp.clamp_c)
    o = orthogonalize(m_new, hp.orth)
    update = hp.eta * ((o + hp.weight_decay * th) * d_clamped[np.newaxis, :])
    diag = StepDiagnostics(
        update_frobenius=_norm(update),
        d_raw=d_raw,
        d_clamped=d_clamped,
        d_bar=d_bar,
    )
    return (th - update).reshape(shape), NamoDState(M=m_new.reshape(shape), v=v_new, t=t_new), diag


def muon_step(theta, grad, state: MuonState, hp: HyperParams):
    """One Muon step (orthogonalized momentum, no adaptive scaling)."""
    th, g = _check_step_inputs(theta, grad, state.M.shape)
    shape, th, g = th.shape, _flat(th), _flat(g)
    t_new = state.t + 1
    m_new = hp.mu1 * _flat(state.M) + (1.0 - hp.mu1) * g
    o = orthogonalize(m_new, hp.orth)
    update = hp.eta * (o + hp.weight_decay * th)
    diag = StepDiagnostics(update_frobenius=_norm(update))
    return (th - update).reshape(shape), MuonState(M=m_new.reshape(shape), t=t_new), diag


def adamw_step(theta, grad, state: AdamWState, hp: HyperParams):
    """One AdamW step on a parameter of any shape (matrix, vector, scalar)."""
    th, g = _check_step_inputs(theta, grad, state.m.shape)
    t_new = state.t + 1
    m_new = hp.mu1 * state.m + (1.0 - hp.mu1) * g
    v_new = hp.mu2 * state.v + (1.0 - hp.mu2) * g * g
    m_hat = m_new / (1.0 - hp.mu1**t_new)
    v_hat = v_new / (1.0 - hp.mu2**t_new)
    update = hp.eta * (m_hat / (np.sqrt(v_hat) + hp.epsilon) + hp.weight_decay * th)
    diag = StepDiagnostics(update_frobenius=_norm(update))
    return th - update, AdamWState(m=m_new, v=v_new, t=t_new), diag


class ParameterRule(enum.Enum):
    MATRIX = "matrix"
    FALLBACK = "fallback"


def route_parameter(shape) -> ParameterRule:
    """Route genuine matrices to the matrix rule, everything else to AdamW.

    Shapes with fewer than two dimensions, or with any dimension equal to 1,
    go to the fallback: orthogonalizing a 1-by-n matrix degenerates to
    normalization, which defeats the point of the matrix rules.
    """
    dims = tuple(int(d) for d in shape)
    if len(dims) >= 2 and all(d > 1 for d in dims):
        return ParameterRule.MATRIX
    return ParameterRule.FALLBACK
