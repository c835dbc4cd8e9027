"""Dense small-matrix primitives: norms, inner products, and a reduced SVD.

Everything operates on two-dimensional float64 arrays and accumulates in
double precision with a fixed summation order, so repeated evaluation of the
same inputs is bit-stable on a given numpy/LAPACK build.  The SVD is LAPACK's
gesdd through ``np.linalg.svd``; a fixed sign convention makes its factors
unique for distinct singular values.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, NumericalError


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate and return ``data`` as a finite 2-D float64 array.

    Raises DimensionError for non-2-D or empty inputs and InputError when any
    entry is NaN/Inf.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must have at least one row and one column")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def _norm(a: np.ndarray, axis=None):
    """Unchecked norm: Frobenius (a float, any shape) or column norms (axis=0)."""
    squares = np.add.reduce(a * a, axis=axis)
    return math.sqrt(float(squares)) if axis is None else np.sqrt(squares)


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries."""
    return _norm(as_matrix(m))


def inner_product(a, b) -> float:
    """Trace inner product sum_ij A_ij * B_ij = tr(A^T B)."""
    am = as_matrix(a, "first operand")
    bm = as_matrix(b, "second operand")
    if am.shape != bm.shape:
        raise DimensionError(f"inner_product shapes differ: {am.shape} vs {bm.shape}")
    return float(np.sum(am * bm))


@dataclass(frozen=True)
class SvdFactors:
    """Reduced SVD ``M = U diag(s) V^T`` with r = min(m, n) retained triples.

    U is m-by-r and V is n-by-r, both with orthonormal columns;
    ``singular_values`` is nonincreasing and nonnegative.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def _svd(a: np.ndarray):
    """gesdd's ``(u, s, vt)`` of a validated matrix, with LAPACK's signs."""
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK SVD failed: {exc}") from exc


def reduced_svd(m) -> SvdFactors:
    """Reduced SVD from LAPACK's divide-and-conquer driver (gesdd).

    The sign convention forces the largest-magnitude entry of each column of
    U to be nonnegative; the matching column of V flips with it, so the
    product is unchanged.

    Raises NumericalError if LAPACK reports that the SVD did not converge.
    """
    u, sigma, vt = _svd(as_matrix(m))
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    sign = np.where(peak < 0.0, -1.0, 1.0)
    return SvdFactors(U=u * sign, singular_values=sigma, V=vt.T * sign)


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(reduced_svd(m).singular_values[0])


def nuclear_norm(m) -> float:
    """Sum of singular values."""
    return float(np.sum(reduced_svd(m).singular_values))
