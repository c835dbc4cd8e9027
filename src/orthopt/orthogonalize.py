"""Orthogonalization of matrices: exact polar factor or Newton-Schulz.

``orthogonalize`` maps M to the nearest matrix with orthonormal columns (or
rows, for wide inputs): exactly as U V^T from the reduced SVD, or
approximately through a fixed number of quintic Newton-Schulz iterations as
used in practice by orthogonalized-momentum optimizers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linalg import _norm, as_matrix, frobenius_norm, reduced_svd

# De-facto quintic coefficients for momentum orthogonalization: steep slope at
# zero buys fast escape from tiny singular values at the cost of converging to
# a band around 1 rather than to 1 itself.
DEFAULT_NS_COEFFICIENTS = (3.4445, -4.7750, 2.0315)
DEFAULT_NS_ITERATIONS = 5

_PRENORM_TINY = 1e-12


class OrthMethod(enum.Enum):
    EXACT = "exact"
    NEWTON_SCHULZ = "newton_schulz"

    @classmethod
    def from_string(cls, name: str) -> "OrthMethod":
        key = name.strip().lower().replace("-", "_")
        for member in cls:
            if member.value == key:
                return member
        raise ConfigError(f"unknown orthogonalization method: {name!r}")


@dataclass(frozen=True)
class OrthConfig:
    """Settings for ``orthogonalize``.

    ``rank_tolerance`` only affects EXACT mode: singular values at or below
    ``rank_tolerance * sigma_max`` are dropped.  Inputs with Frobenius norm at
    or below ``zero_threshold`` map to the zero matrix in both modes, which
    makes optimizer updates a no-op on an exactly-zero momentum.
    """

    method: OrthMethod = OrthMethod.EXACT
    ns_iterations: int = DEFAULT_NS_ITERATIONS
    ns_coefficients: tuple[float, float, float] = DEFAULT_NS_COEFFICIENTS
    rank_tolerance: float = 1e-12
    zero_threshold: float = 1e-30

    def __post_init__(self) -> None:
        if self.ns_iterations < 1:
            raise ConfigError("ns_iterations must be >= 1")
        if len(self.ns_coefficients) != 3:
            raise ConfigError("ns_coefficients must be a triple (a, b, c)")
        if not 0.0 <= self.rank_tolerance < 1.0:
            raise ConfigError("rank_tolerance must lie in [0, 1)")
        if self.zero_threshold < 0.0:
            raise ConfigError("zero_threshold must be nonnegative")


EXACT = OrthConfig(method=OrthMethod.EXACT)
NEWTON_SCHULZ = OrthConfig(method=OrthMethod.NEWTON_SCHULZ)


def orthogonalize(m, cfg: OrthConfig = EXACT) -> np.ndarray:
    """Orthogonal factor of ``m``, same shape as ``m``.

    EXACT mode computes U V^T over the singular triples above the rank
    cutoff.  NEWTON_SCHULZ mode normalizes by the Frobenius norm (placing all
    singular values in (0, 1]) and applies the quintic map
    ``X <- a X + b (X X^T) X + c (X X^T)^2 X`` for ``ns_iterations`` rounds,
    keeping the Gram product on the smaller side by iterating on the wide
    orientation.
    """
    a = as_matrix(m)
    norm = _norm(a)
    if norm <= cfg.zero_threshold:
        return np.zeros_like(a)
    if cfg.method is OrthMethod.EXACT:
        f = reduced_svd(a)
        smax = float(f.singular_values[0])
        keep = f.singular_values > cfg.rank_tolerance * smax
        return f.U[:, keep] @ f.V[:, keep].T
    return _newton_schulz(a, norm, cfg.ns_iterations, cfg.ns_coefficients)


def _newton_schulz(m: np.ndarray, norm: float, iterations: int, coeffs) -> np.ndarray:
    """Quintic iteration on ``m`` prescaled by its Frobenius norm ``norm``."""
    ca, cb, cc = coeffs
    x = m / (norm + _PRENORM_TINY)
    transposed = x.shape[0] > x.shape[1]
    if transposed:
        x = x.T
    for _ in range(iterations):
        g = x @ x.T
        x = ca * x + (cb * g + cc * (g @ g)) @ x
    return x.T if transposed else x


def orthogonality_defect(o) -> float:
    """Frobenius distance of the smaller-side Gram matrix from the identity."""
    a = as_matrix(o)
    rows, cols = a.shape
    g = a.T @ a if rows >= cols else a @ a.T
    return frobenius_norm(g - np.eye(g.shape[0]))
