import math

import numpy as np
import pytest

from orthopt.errors import DimensionError, InputError, NumericalError
from orthopt.linalg import (
    SvdFactors,
    _norm,
    as_matrix,
    frobenius_norm,
    inner_product,
    nuclear_norm,
    reduced_svd,
    spectral_norm,
)
from orthopt.orthogonalize import EXACT, orthogonalize
from orthopt.rng import Rng


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros(3))
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 2)))
    with pytest.raises(InputError):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(InputError):
        as_matrix(np.array([[np.inf], [0.0]]))


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((3, 2))) == 0.0

    def test_identity(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_hand_value(self):
        # sqrt(3^2 + 4^2) = 5
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0


class TestColumnNorms:
    # the column norms NAMO-D's D_t is built from
    def test_identity(self):
        np.testing.assert_allclose(_norm(np.eye(3), axis=0), [1.0, 1.0, 1.0])

    def test_hand_value(self):
        np.testing.assert_allclose(_norm(np.array([[3.0], [4.0]]), axis=0), [5.0])

    def test_zero(self):
        np.testing.assert_array_equal(_norm(np.zeros((2, 4)), axis=0), np.zeros(4))

    def test_parseval_against_frobenius(self):
        # sum of squared column norms equals the squared Frobenius norm
        for seed in range(10):
            m = Rng(seed).normal_matrix(7, 5)
            total = float(np.sum(_norm(m, axis=0) ** 2))
            assert total == pytest.approx(frobenius_norm(m) ** 2, rel=1e-12)


class TestInnerProduct:
    def test_identity_pair(self):
        assert inner_product(np.eye(2), np.eye(2)) == 2.0

    def test_self_inner_is_squared_norm(self):
        m = Rng(3).normal_matrix(4, 6)
        assert inner_product(m, m) == pytest.approx(frobenius_norm(m) ** 2, rel=1e-14)

    def test_hand_value(self):
        assert inner_product(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])) == 11.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_symmetry_is_exact(self):
        a = Rng(11).normal_matrix(5, 5)
        b = Rng(12).normal_matrix(5, 5)
        assert inner_product(a, b) == inner_product(b, a)


class TestReducedSvd:
    def test_diagonal(self):
        f = reduced_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(f.singular_values, [3.0, 1.0], atol=1e-14)
        # sign convention makes the factors exactly the identity
        np.testing.assert_allclose(f.U, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(f.V, np.eye(2), atol=1e-14)

    def test_rank_one(self):
        u = np.array([[1.0], [2.0], [2.0]]) / 3.0
        v = np.array([[3.0, 4.0]]) / 5.0
        f = reduced_svd(u @ v)
        np.testing.assert_allclose(f.singular_values, [1.0, 0.0], atol=1e-14)
        # U must still have orthonormal columns despite the null direction
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("shape", [(8, 5), (5, 8), (16, 12), (1, 1), (3, 1), (64, 64)])
    def test_reconstruction_and_orthogonality(self, shape):
        m = Rng(shape[0] * 100 + shape[1]).normal_matrix(*shape)
        f = reduced_svd(m)
        r = min(shape)
        scale = max(1.0, frobenius_norm(m))
        assert frobenius_norm((f.U * f.singular_values) @ f.V.T - m) <= 1e-8 * scale
        assert frobenius_norm(f.U.T @ f.U - np.eye(r)) <= 1e-10
        assert frobenius_norm(f.V.T @ f.V - np.eye(r)) <= 1e-10
        assert np.all(np.diff(f.singular_values) <= 0.0)
        assert np.all(f.singular_values >= 0.0)

    def test_known_spectrum_and_polar_factor(self):
        # M = Q1 diag(s) Q2^T with a planted spectrum, so the oracle does not
        # come from the SVD under test
        s = np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.25])
        for seed, (rows, cols) in [(0, (9, 6)), (1, (6, 9))]:
            q1 = np.linalg.qr(Rng(seed).normal_matrix(rows, 6))[0]
            q2 = np.linalg.qr(Rng(seed + 50).normal_matrix(cols, 6))[0]
            m = (q1 * s) @ q2.T
            np.testing.assert_allclose(reduced_svd(m).singular_values, s, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(orthogonalize(m, EXACT), q1 @ q2.T, rtol=0.0, atol=1e-12)

    def test_zero_matrix(self):
        f = reduced_svd(np.zeros((4, 3)))
        np.testing.assert_array_equal(f.singular_values, np.zeros(3))
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
    def test_sign_convention(self, shape):
        m = Rng(21).normal_matrix(*shape)
        f = reduced_svd(m)
        for j in range(min(shape)):
            i = int(np.argmax(np.abs(f.U[:, j])))
            assert f.U[i, j] >= 0.0

    def test_determinism(self):
        m = Rng(5).normal_matrix(10, 7)
        f1 = reduced_svd(m)
        f2 = reduced_svd(m)
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.singular_values, f2.singular_values)
        assert np.array_equal(f1.V, f2.V)

    def test_lapack_failure_raises_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError):
            reduced_svd(Rng(1).normal_matrix(5, 5))


class TestSpectralAndNuclear:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
        assert nuclear_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-13)

    def test_diagonal(self):
        d = np.diag([2.0, 5.0])
        assert spectral_norm(d) == pytest.approx(5.0, abs=1e-14)
        assert nuclear_norm(d) == pytest.approx(7.0, abs=1e-13)

    def test_spectral_is_max_singular_value(self):
        m = Rng(17).normal_matrix(6, 3)
        f = reduced_svd(m)
        assert spectral_norm(m) == float(np.max(f.singular_values))

    def test_norm_ordering(self):
        # spectral <= frobenius <= nuclear <= sqrt(r) * frobenius
        for seed in range(20):
            rows = 2 + seed % 7
            cols = 2 + (3 * seed) % 5
            m = Rng(seed).normal_matrix(rows, cols)
            s, fro, nuc = spectral_norm(m), frobenius_norm(m), nuclear_norm(m)
            r = min(rows, cols)
            assert s <= fro + 1e-12
            assert fro <= nuc + 1e-12
            assert nuc <= math.sqrt(r) * fro + 1e-12


def test_svd_factors_reconstruct_helper():
    m = Rng(2).normal_matrix(5, 4)
    f = reduced_svd(m)
    assert isinstance(f, SvdFactors)
    np.testing.assert_allclose((f.U * f.singular_values) @ f.V.T, m, atol=1e-12)
