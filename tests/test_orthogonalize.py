import numpy as np
import pytest

from orthopt.errors import ConfigError
from orthopt.linalg import frobenius_norm, inner_product, nuclear_norm
from orthopt.orthogonalize import (
    DEFAULT_NS_COEFFICIENTS,
    EXACT,
    NEWTON_SCHULZ,
    OrthConfig,
    OrthMethod,
    _newton_schulz,
    orthogonality_defect,
    orthogonalize,
)
from orthopt.rng import Rng


def scalar_quintic_oracle(singular_values, fro, iterations, coeffs=DEFAULT_NS_COEFFICIENTS):
    """Apply the Newton-Schulz quintic to each normalized singular value.

    The matrix iteration acts on each singular value independently, so this
    scalar recursion predicts the singular values of the matrix output.
    """
    a, b, c = coeffs
    x = np.asarray(singular_values, dtype=np.float64) / (fro + 1e-12)
    for _ in range(iterations):
        x = a * x + b * x**3 + c * x**5
    return x


def well_conditioned(seed, rows, cols, smin=0.5, smax=1.0):
    """Seeded matrix with singular values spread over [smin, smax]."""
    r = Rng(seed)
    q1, _ = np.linalg.qr(r.normal_matrix(rows, rows))
    q2, _ = np.linalg.qr(r.normal_matrix(cols, cols))
    k = min(rows, cols)
    s = np.linspace(smax, smin, k)
    return q1[:, :k] @ np.diag(s) @ q2[:, :k].T


class TestOrthConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            OrthConfig(ns_iterations=0)

    def test_method_parsing(self):
        assert OrthMethod.from_string("Exact") is OrthMethod.EXACT
        assert OrthMethod.from_string("newton-schulz") is OrthMethod.NEWTON_SCHULZ
        with pytest.raises(ConfigError):
            OrthMethod.from_string("qr")


class TestExactMode:
    def test_identity_fixed_point(self):
        np.testing.assert_allclose(orthogonalize(np.eye(3), EXACT), np.eye(3), atol=1e-14)

    def test_scaled_rotation(self):
        m = np.array([[0.0, -2.0], [2.0, 0.0]])
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(orthogonalize(m, EXACT), expected, atol=1e-14)

    def test_defect_on_random_full_rank(self):
        for seed in range(5):
            m = Rng(seed).normal_matrix(16, 8)
            assert orthogonality_defect(orthogonalize(m, EXACT)) <= 1e-9

    def test_scale_invariance(self):
        m = Rng(4).normal_matrix(6, 4)
        base = orthogonalize(m, EXACT)
        for s in (1e-3, 0.5, 7.3, 1e3):
            np.testing.assert_allclose(orthogonalize(s * m, EXACT), base, atol=1e-10)

    def test_nearest_orthogonal_property(self):
        # Orth(M) minimizes ||M - Q||_F over orthonormal-column Q
        m = Rng(8).normal_matrix(4, 3)
        o = orthogonalize(m, EXACT)
        best = frobenius_norm(m - o)
        r = Rng(9)
        for trial in range(1000):
            q, _ = np.linalg.qr(r.normal_matrix(4, 3))
            dist = frobenius_norm(m - q)
            assert dist >= best - 1e-12
            if dist <= best + 1e-12:
                np.testing.assert_allclose(q, o, atol=1e-6)

    def test_nuclear_norm_duality(self):
        for seed in range(10):
            m = Rng(seed + 50).normal_matrix(7, 5)
            gap = abs(inner_product(m, orthogonalize(m, EXACT)) - nuclear_norm(m))
            assert gap <= 1e-9

    def test_rank_deficient_retains_subspace_projector(self):
        # rank-1 input: O^T O equals the projector onto the retained
        # right-singular subspace
        u = Rng(1).normal_matrix(4, 1)
        v = Rng(2).normal_matrix(1, 3)
        m = u @ v
        o = orthogonalize(m, EXACT)
        v_unit = v.ravel() / np.linalg.norm(v)
        projector = np.outer(v_unit, v_unit)
        assert frobenius_norm(o.T @ o - projector) <= 1e-9

    def test_wide_matrix_transpose_consistency(self):
        m = Rng(13).normal_matrix(3, 7)
        o = orthogonalize(m, EXACT)
        ot = orthogonalize(m.T, EXACT)
        np.testing.assert_allclose(o.T, ot, atol=1e-10)
        assert orthogonality_defect(o) <= 1e-9


class TestNewtonSchulzMode:
    def test_singular_values_match_scalar_oracle(self):
        # frozen case from the scalar oracle: diag(5, 0.1), 5 iterations
        m = np.diag([5.0, 0.1])
        fro = frobenius_norm(m)
        predicted = np.sort(scalar_quintic_oracle([5.0, 0.1], fro, 5))[::-1]
        out = orthogonalize(m, NEWTON_SCHULZ)
        got = np.linalg.svd(out, compute_uv=False)
        np.testing.assert_allclose(got, predicted, atol=1e-6)

    @pytest.mark.parametrize("shape", [(8, 8), (16, 8), (8, 16)])
    def test_oracle_on_random_inputs(self, shape):
        m = Rng(shape[0] + shape[1]).normal_matrix(*shape)
        s_in = np.linalg.svd(m, compute_uv=False)
        predicted = np.sort(scalar_quintic_oracle(s_in, frobenius_norm(m), 5))[::-1]
        got = np.linalg.svd(orthogonalize(m, NEWTON_SCHULZ), compute_uv=False)
        np.testing.assert_allclose(got, predicted, atol=1e-6)

    def test_iterations_reduce_defect_for_convergent_coefficients(self):
        # The classical cubic map 1.5 x - 0.5 x^3 pushes every singular value
        # monotonically toward 1, so the defect strictly decreases with the
        # iteration count.  (The default quintic trades that monotonicity for
        # speed: it converges to a band around 1 and oscillates inside it.)
        for seed in range(10):
            m = well_conditioned(seed + 200, 16, 8, smin=0.3, smax=1.0)
            defects = [
                orthogonality_defect(_newton_schulz(m, frobenius_norm(m), k, (1.5, -0.5, 0.0)))
                for k in range(1, 6)
            ]
            assert all(b < a for a, b in zip(defects, defects[1:]))

    def test_default_quintic_beats_raw_normalization(self):
        # Five rounds of the default quintic always improve on the
        # Frobenius-normalized input itself.
        for seed in range(10):
            m = Rng(seed + 200).normal_matrix(16, 8)
            raw = orthogonality_defect(m / frobenius_norm(m))
            out = orthogonality_defect(orthogonalize(m, NEWTON_SCHULZ))
            assert out < raw

    def test_custom_iteration_count_and_coefficients(self):
        m = well_conditioned(3, 6, 4)
        s_in = np.linalg.svd(m, compute_uv=False)
        predicted = np.sort(
            scalar_quintic_oracle(s_in, frobenius_norm(m), 3, (1.5, -0.5, 0.0))
        )[::-1]
        out = _newton_schulz(m, frobenius_norm(m), 3, (1.5, -0.5, 0.0))
        got = np.linalg.svd(out, compute_uv=False)
        np.testing.assert_allclose(got, predicted, atol=1e-9)

    def test_wide_orientation(self):
        m = Rng(31).normal_matrix(4, 10)
        out = orthogonalize(m, NEWTON_SCHULZ)
        assert out.shape == (4, 10)
        # transposing the input transposes the output
        np.testing.assert_allclose(orthogonalize(m.T, NEWTON_SCHULZ), out.T, atol=1e-9)


class TestZeroHandling:
    @pytest.mark.parametrize("cfg", [EXACT, NEWTON_SCHULZ])
    def test_zero_maps_to_zero(self, cfg):
        np.testing.assert_array_equal(orthogonalize(np.zeros((3, 4)), cfg), np.zeros((3, 4)))

    def test_zero_threshold(self):
        tiny = np.full((2, 2), 1e-32)
        np.testing.assert_array_equal(orthogonalize(tiny, EXACT), np.zeros((2, 2)))


class TestOrthogonalityDefect:
    def test_identity(self):
        assert orthogonality_defect(np.eye(3)) == 0.0

    def test_hand_value(self):
        # ||4 I - I||_F over 2x2 = 3 sqrt(2)
        assert orthogonality_defect(2.0 * np.eye(2)) == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-12)

    def test_uses_smaller_side(self):
        m = Rng(41).normal_matrix(2, 5)
        o = orthogonalize(m, EXACT)
        assert orthogonality_defect(o) <= 1e-9
