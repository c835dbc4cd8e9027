import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopt.errors import ConfigError, DimensionError, InputError
from orthopt.optimizers import (
    AdamWState,
    HyperParams,
    MuonState,
    NamoDState,
    NamoState,
    _clamp,
    adamw_step,
    is_matrix_parameter,
    muon_step,
    namo_d_step,
    namo_step,
)
from orthopt.orthogonalize import EXACT, NEWTON_SCHULZ
from orthopt.rng import Rng

TINY_EPS = 1e-300  # effectively the eps -> 0 limit while satisfying eps > 0


def reference_orth(m, rank_tolerance=1e-12):
    """Independent polar factor via LAPACK, dropping near-null triples."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > rank_tolerance * s[0]
    return u[:, keep] @ vt[keep, :]


def reference_namo_trajectory(theta0, grads, eta, mu1, mu2, eps, lam):
    """Line-by-line transcription of the NAMO recursion, kept independent of
    the library implementation (LAPACK orthogonalization, explicit loop)."""
    theta = theta0.copy()
    m = np.zeros_like(theta0)
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = mu1 * m + (1.0 - mu1) * g
        v = mu2 * v + (1.0 - mu2) * np.linalg.norm(g, "fro") ** 2
        o = reference_orth(m)
        alpha = (math.sqrt(1.0 - mu2**t) / (1.0 - mu1**t)) * np.linalg.norm(m, "fro") / (
            math.sqrt(v) + eps
        )
        theta = theta - eta * alpha * (o + lam * theta)
        out.append(theta.copy())
    return out


def reference_namo_d_trajectory(theta0, grads, eta, mu1, mu2, eps, lam, c):
    """Line-by-line transcription of the diagonal variant."""
    theta = theta0.copy()
    m = np.zeros_like(theta0)
    v = np.zeros(theta0.shape[1])
    out = []
    for t, g in enumerate(grads, start=1):
        m = mu1 * m + (1.0 - mu1) * g
        v = mu2 * v + (1.0 - mu2) * np.linalg.norm(g, axis=0) ** 2
        d = (math.sqrt(1.0 - mu2**t) / (1.0 - mu1**t)) * np.linalg.norm(m, axis=0) / (
            np.sqrt(v) + eps
        )
        d_bar = d.mean()
        d_tilde = np.minimum(np.maximum(d, c * d_bar), d_bar / c)
        o = reference_orth(m)
        theta = theta - eta * (o + lam * theta) @ np.diag(d_tilde)
        out.append(theta.copy())
    return out


def reference_adamw_trajectory(theta0, grads, eta, b1, b2, eps, lam):
    theta = theta0.copy()
    m = np.zeros_like(theta0)
    v = np.zeros_like(theta0)
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        theta = theta - eta * (m_hat / (np.sqrt(v_hat) + eps) + lam * theta)
        out.append(theta.copy())
    return out


class TestHyperParams:
    def test_momentum_ordering_enforced(self):
        with pytest.raises(ConfigError):
            HyperParams(eta=0.1, mu1=0.99, mu2=0.9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=0.0),
            dict(eta=0.1, epsilon=0.0),
            dict(eta=0.1, weight_decay=-1.0),
            dict(eta=0.1, clamp_c=0.0),
            dict(eta=0.1, clamp_c=1.5),
            dict(eta=0.1, mu2=1.0),
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            HyperParams(**kwargs)

    def test_alpha_bound_value(self):
        hp = HyperParams(eta=0.1, mu1=0.95, mu2=0.99)
        assert hp.alpha_bound() == pytest.approx(math.sqrt(5.0), abs=1e-12)


class TestComputeAlpha:
    # alpha as namo_step computes it: from NamoState.zero, the first step's M
    # and v are bitwise (1 - mu1) g and (1 - mu2) ||g||^2
    def test_first_step_cancels_bias(self):
        # t=1 with M = (1-mu1) g and v = (1-mu2) ||g||^2 gives alpha -> 1
        hp = HyperParams(eta=0.1, mu1=0.9, mu2=0.99, epsilon=TINY_EPS, orth=EXACT)
        g = Rng(1).normal_matrix(3, 4)
        _, _, diag = namo_step(np.zeros((3, 4)), g, NamoState.zero((3, 4)), hp)
        assert diag.alpha == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # ||g|| = 1, mu2 = 0.99, eps = 0.1: eps_1 = 1, alpha_1 = 0.5
        hp = HyperParams(eta=0.1, mu1=0.9, mu2=0.99, epsilon=0.1, orth=EXACT)
        _, _, diag = namo_step(np.zeros((1, 1)), np.array([[1.0]]), NamoState.zero((1, 1)), hp)
        assert diag.alpha == pytest.approx(0.5, abs=1e-15)

    def test_strict_bound_over_random_streams(self):
        hp = HyperParams(eta=0.1, mu1=0.95, mu2=0.99, epsilon=1e-8, orth=EXACT)
        bound = hp.alpha_bound()
        rng = Rng(7)
        for trial in range(200):
            r = rng.substream(trial)
            theta, state = np.zeros((4, 3)), NamoState.zero((4, 3))
            for _ in range(1 + trial % 40):
                theta, state, diag = namo_step(theta, r.normal_matrix(4, 3), state, hp)
                assert diag.alpha < bound


class TestNamoStep:
    def test_constant_stream_is_muon_step(self):
        # alpha_t = 1 in the eps -> 0 limit, so each update is -eta Orth(G)
        g = Rng(2).normal_matrix(4, 3)
        hp = HyperParams(eta=0.05, mu1=0.9, mu2=0.95, epsilon=TINY_EPS, orth=EXACT)
        o = reference_orth(g)
        theta = np.zeros((4, 3))
        state = NamoState.zero((4, 3))
        for t in range(1, 11):
            theta, state, diag = namo_step(theta, g, state, hp)
            assert diag.alpha == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(theta, -hp.eta * t * o, atol=1e-10)

    def test_zero_gradient_from_zero_init_is_noop(self):
        hp = HyperParams(eta=0.1, epsilon=1e-8, orth=EXACT)
        theta = Rng(3).normal_matrix(3, 3)
        new_theta, state, diag = namo_step(theta, np.zeros((3, 3)), NamoState.zero((3, 3)), hp)
        assert diag.alpha == 0.0
        np.testing.assert_array_equal(new_theta, theta)
        assert state.t == 1

    def test_single_step_against_reference(self):
        theta0 = np.zeros((2, 2))
        grad = np.array([[0.0, -2.0], [2.0, 0.0]])
        hp = HyperParams(eta=0.1, mu1=0.9, mu2=0.99, epsilon=1e-8, orth=EXACT)
        theta, _, _ = namo_step(theta0, grad, NamoState.zero((2, 2)), hp)
        (expected,) = reference_namo_trajectory(theta0, [grad], 0.1, 0.9, 0.99, 1e-8, 0.0)
        np.testing.assert_allclose(theta, expected, atol=1e-12)

    def test_trajectory_against_reference(self):
        rng = Rng(10)
        grads = [rng.normal_matrix(5, 3) for _ in range(30)]
        theta0 = Rng(11).normal_matrix(5, 3)
        hp = HyperParams(eta=0.02, mu1=0.95, mu2=0.99, epsilon=1e-8, weight_decay=0.01, orth=EXACT)
        expected = reference_namo_trajectory(theta0, grads, 0.02, 0.95, 0.99, 1e-8, 0.01)
        theta = theta0.copy()
        state = NamoState.zero(theta0.shape)
        for g, want in zip(grads, expected):
            theta, state, _ = namo_step(theta, g, state, hp)
            np.testing.assert_allclose(theta, want, atol=1e-12)

    # all four rules share one validated start, so each rejects the same bad inputs
    @pytest.mark.parametrize(
        "step,state_cls",
        [(namo_step, NamoState), (namo_d_step, NamoDState), (muon_step, MuonState), (adamw_step, AdamWState)],
        ids=["namo", "namo_d", "muon", "adamw"],
    )
    def test_rejects_bad_inputs(self, step, state_cls):
        hp = HyperParams(eta=0.1)
        with pytest.raises(InputError):
            step(np.zeros((2, 2)), np.full((2, 2), np.nan), state_cls.zero((2, 2)), hp)
        with pytest.raises(DimensionError):
            step(np.zeros((2, 2)), np.zeros((2, 3)), state_cls.zero((2, 2)), hp)
        with pytest.raises(DimensionError):
            step(np.zeros((3, 2)), np.zeros((3, 2)), state_cls.zero((2, 2)), hp)

    def test_gradient_scale_leaves_direction_unchanged(self):
        # with eps ~ 0 the whole trajectory is invariant under grad rescaling
        rng = Rng(12)
        grads = [rng.normal_matrix(4, 4) for _ in range(20)]
        hp = HyperParams(eta=0.03, mu1=0.9, mu2=0.99, epsilon=TINY_EPS, orth=EXACT)

        def trajectory(scale):
            theta = np.zeros((4, 4))
            state = NamoState.zero((4, 4))
            for g in grads:
                theta, state, _ = namo_step(theta, scale * g, state, hp)
            return theta

        np.testing.assert_allclose(trajectory(1.0), trajectory(37.5), atol=1e-10)


class TestClampD:
    # D_t's clamp as namo_d_step computes it
    def test_hand_case(self):
        np.testing.assert_allclose(_clamp(np.array([0.1, 1.0]), 0.5)[1], [0.275, 1.0], atol=1e-15)

    def test_c_one_collapses_to_mean(self):
        d = np.array([0.3, 0.8, 0.1])
        d_bar = d.sum() / 3.0
        np.testing.assert_allclose(_clamp(d, 1.0)[1], np.full(3, d_bar), atol=1e-15)

    def test_slack_clamps_are_identity(self):
        np.testing.assert_array_equal(_clamp(np.array([0.2, 0.4]), 0.001)[1], [0.2, 0.4])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=16),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_conditioning_and_interval(self, values, c):
        d = np.array(values)
        out = _clamp(d, c)[1]
        d_bar = d.sum() / d.size
        assert np.all(out >= c * d_bar - 1e-15)
        assert np.all(out <= d_bar / c + 1e-9 * max(1.0, d_bar))
        if d_bar > 0.0:
            assert float(np.max(out)) / float(np.min(out)) <= 1.0 / c**2 + 1e-9
        # clamp interval contains the mean, so it is never empty
        assert c * d_bar <= d_bar / c + 1e-15


class TestNamoDStep:
    def test_single_column_matches_namo(self):
        rng = Rng(20)
        grads = [rng.normal_matrix(5, 1) for _ in range(100)]
        hp = HyperParams(eta=0.05, mu1=0.95, mu2=0.99, epsilon=1e-8, clamp_c=0.5, orth=EXACT)
        theta_a = np.zeros((5, 1))
        theta_b = np.zeros((5, 1))
        state_a = NamoState.zero((5, 1))
        state_b = NamoDState.zero((5, 1))
        for g in grads:
            theta_a, state_a, _ = namo_step(theta_a, g, state_a, hp)
            theta_b, state_b, _ = namo_d_step(theta_b, g, state_b, hp)
            np.testing.assert_allclose(theta_b, theta_a, atol=1e-10)

    def test_c_one_gives_scalar_diagonal(self):
        rng = Rng(21)
        hp = HyperParams(eta=0.05, clamp_c=1.0, orth=EXACT)
        theta = np.zeros((4, 6))
        state = NamoDState.zero((4, 6))
        for _ in range(20):
            theta, state, diag = namo_d_step(theta, rng.normal_matrix(4, 6), state, hp)
            np.testing.assert_allclose(diag.d_clamped, np.full(6, diag.d_bar), atol=1e-12)

    def test_zero_column_step_against_reference(self):
        theta0 = np.zeros((2, 2))
        grad = np.array([[3.0, 0.0], [4.0, 0.0]])
        hp = HyperParams(eta=0.1, mu1=0.9, mu2=0.99, epsilon=1e-8, clamp_c=0.5, orth=EXACT)
        theta, _, diag = namo_d_step(theta0, grad, NamoDState.zero((2, 2)), hp)
        # column norms [5, 0] make the raw stepsizes ~[1, 0]; the clamp lifts
        # the dead column to c * d_bar
        np.testing.assert_allclose(diag.d_raw, [1.0 - 2e-8 / (0.1 + 1e-8), 0.0], atol=1e-7)
        assert diag.d_clamped[1] == pytest.approx(0.5 * diag.d_bar, abs=1e-15)
        (expected,) = reference_namo_d_trajectory(theta0, [grad], 0.1, 0.9, 0.99, 1e-8, 0.0, 0.5)
        np.testing.assert_allclose(theta, expected, atol=1e-12)

    def test_trajectory_against_reference(self):
        rng = Rng(22)
        grads = [rng.normal_matrix(4, 5) for _ in range(30)]
        theta0 = Rng(23).normal_matrix(4, 5)
        hp = HyperParams(
            eta=0.02, mu1=0.95, mu2=0.99, epsilon=1e-8, weight_decay=0.01, clamp_c=0.4, orth=EXACT
        )
        expected = reference_namo_d_trajectory(theta0, grads, 0.02, 0.95, 0.99, 1e-8, 0.01, 0.4)
        theta = theta0.copy()
        state = NamoDState.zero(theta0.shape)
        for g, want in zip(grads, expected):
            theta, state, _ = namo_d_step(theta, g, state, hp)
            np.testing.assert_allclose(theta, want, atol=1e-12)

    def test_all_zero_columns_is_noop(self):
        hp = HyperParams(eta=0.1, orth=EXACT)
        theta = Rng(24).normal_matrix(3, 3)
        new_theta, _, diag = namo_d_step(theta, np.zeros((3, 3)), NamoDState.zero((3, 3)), hp)
        np.testing.assert_array_equal(new_theta, theta)
        assert diag.d_bar == 0.0

    def test_preclamp_bound_over_random_streams(self):
        hp = HyperParams(eta=0.05, mu1=0.95, mu2=0.99, epsilon=1e-8, clamp_c=0.3, orth=NEWTON_SCHULZ)
        bound = hp.alpha_bound()
        rng = Rng(25)
        theta = np.zeros((6, 4))
        state = NamoDState.zero((6, 4))
        for _ in range(100):
            theta, state, diag = namo_d_step(theta, rng.normal_matrix(6, 4), state, hp)
            assert np.all(diag.d_raw < bound)

    def test_state_length_validation(self):
        hp = HyperParams(eta=0.1)
        bad = NamoDState(M=np.zeros((3, 2)), v=np.zeros(3), t=0)
        with pytest.raises(DimensionError):
            namo_d_step(np.zeros((3, 2)), np.zeros((3, 2)), bad, hp)
        with pytest.raises(DimensionError):
            namo_d_step(np.zeros(3), np.zeros(3), NamoDState.zero((3,)), hp)


class TestMuonStep:
    def test_constant_stream_fixed_point(self):
        g = Rng(30).normal_matrix(5, 4)
        hp = HyperParams(eta=0.1, mu1=0.95, orth=EXACT)
        o = reference_orth(g)
        theta = np.zeros((5, 4))
        state = MuonState.zero((5, 4))
        for t in range(1, 6):
            theta, state, _ = muon_step(theta, g, state, hp)
            np.testing.assert_allclose(theta, -hp.eta * t * o, atol=1e-12)

    def test_zero_gradient_noop(self):
        hp = HyperParams(eta=0.1, orth=EXACT)
        theta = Rng(31).normal_matrix(2, 3)
        out, _, _ = muon_step(theta, np.zeros((2, 3)), MuonState.zero((2, 3)), hp)
        np.testing.assert_array_equal(out, theta)

    def test_namo_matches_muon_on_constant_stream(self):
        g = Rng(32).normal_matrix(6, 3)
        hp = HyperParams(eta=0.07, mu1=0.95, mu2=0.99, epsilon=TINY_EPS, orth=EXACT)
        theta_m = np.zeros((6, 3))
        theta_n = np.zeros((6, 3))
        sm = MuonState.zero((6, 3))
        sn = NamoState.zero((6, 3))
        for _ in range(100):
            theta_m, sm, _ = muon_step(theta_m, g, sm, hp)
            theta_n, sn, _ = namo_step(theta_n, g, sn, hp)
        np.testing.assert_allclose(theta_n, theta_m, atol=1e-10)

    def test_weight_decay_placement(self):
        theta = Rng(33).normal_matrix(3, 3)
        g = Rng(34).normal_matrix(3, 3)
        hp = HyperParams(eta=0.1, weight_decay=0.5, orth=EXACT)
        out, _, _ = muon_step(theta, g, MuonState.zero((3, 3)), hp)
        o = reference_orth((1.0 - hp.mu1) * g)
        np.testing.assert_allclose(out, theta - 0.1 * (o + 0.5 * theta), atol=1e-12)


class TestAdamWStep:
    def test_first_step_is_sign_like(self):
        g = Rng(40).normal_matrix(3, 2)
        hp = HyperParams(eta=0.01, mu1=0.9, mu2=0.95, epsilon=1e-8)
        theta, _, _ = adamw_step(np.zeros((3, 2)), g, AdamWState.zero((3, 2)), hp)
        np.testing.assert_allclose(theta, -0.01 * g / (np.abs(g) + 1e-8), atol=1e-15)

    def test_zero_gradient_noop(self):
        hp = HyperParams(eta=0.1)
        theta = Rng(41).normals(4)
        out, _, _ = adamw_step(theta, np.zeros(4), AdamWState.zero((4,)), hp)
        np.testing.assert_array_equal(out, theta)

    def test_scalar_stream_against_reference(self):
        grads = [np.array([1.0]), np.array([1.0]), np.array([-1.0])]
        theta0 = np.array([0.0])
        expected = reference_adamw_trajectory(theta0, grads, 1.0, 0.9, 0.95, 1e-8, 0.0)
        hp = HyperParams(eta=1.0, mu1=0.9, mu2=0.95, epsilon=1e-8)
        theta = theta0.copy()
        state = AdamWState.zero((1,))
        for g, want in zip(grads, expected):
            theta, state, _ = adamw_step(theta, g, state, hp)
            np.testing.assert_allclose(theta, want, atol=1e-12)

    def test_matrix_trajectory_with_weight_decay(self):
        rng = Rng(42)
        grads = [rng.normal_matrix(3, 3) for _ in range(25)]
        theta0 = Rng(43).normal_matrix(3, 3)
        expected = reference_adamw_trajectory(theta0, grads, 0.01, 0.9, 0.95, 1e-8, 0.01)
        hp = HyperParams(eta=0.01, mu1=0.9, mu2=0.95, epsilon=1e-8, weight_decay=0.01)
        theta = theta0.copy()
        state = AdamWState.zero((3, 3))
        for g, want in zip(grads, expected):
            theta, state, _ = adamw_step(theta, g, state, hp)
            np.testing.assert_allclose(theta, want, atol=1e-12)

    def test_three_d_parameter_equals_its_matrix_view(self):
        # AdamW is element-wise, so a (2, 3, 4) parameter steps bit for bit as its (2, 12) reshape
        rng = Rng(44)
        grads = [rng.normals(24).reshape(2, 3, 4) for _ in range(10)]
        hp = HyperParams(eta=0.01, mu1=0.9, mu2=0.95, epsilon=1e-8, weight_decay=0.01)
        theta, state = Rng(45).normals(24).reshape(2, 3, 4), AdamWState.zero((2, 3, 4))
        flat, flat_state = theta.reshape(2, 12), AdamWState.zero((2, 12))
        for g in grads:
            theta, state, _ = adamw_step(theta, g, state, hp)
            flat, flat_state, _ = adamw_step(flat, g.reshape(2, 12), flat_state, hp)
            assert theta.shape == state.m.shape == state.v.shape == (2, 3, 4)
            assert theta.tobytes() == flat.tobytes()
            assert state.m.tobytes() == flat_state.m.tobytes()
            assert state.v.tobytes() == flat_state.v.tobytes()
            assert state.t == flat_state.t


class TestRouting:
    @pytest.mark.parametrize(
        "shape,is_matrix",
        [
            ((64, 32), True),
            ((64,), False),
            ((1, 8), False),
            ((8, 1), False),
            ((3, 3), True),
            ((), False),
            ((2, 3, 4), False),
        ],
    )
    def test_route(self, shape, is_matrix):
        assert is_matrix_parameter(shape) is is_matrix


def test_namo_update_direction_stays_orthogonal():
    # with exact orthogonalization and full-rank momentum the applied
    # direction has orthonormal columns
    from orthopt.orthogonalize import orthogonalize, orthogonality_defect

    rng = Rng(60)
    hp = HyperParams(eta=0.05, orth=EXACT)
    theta = np.zeros((6, 4))
    state = NamoState.zero((6, 4))
    for _ in range(20):
        theta, state, _ = namo_step(theta, rng.normal_matrix(6, 4), state, hp)
        direction = orthogonalize(state.M, hp.orth)
        assert orthogonality_defect(direction) <= 1e-9


def test_namo_d_update_singular_values_bracketed_by_clamp():
    # the scaled direction O @ diag(d) is generally not orthogonal; its
    # singular values must lie inside [min(d), max(d)]
    from orthopt.orthogonalize import orthogonalize

    rng = Rng(61)
    hp = HyperParams(eta=0.05, clamp_c=0.3, orth=EXACT)
    theta = np.zeros((7, 4))
    state = NamoDState.zero((7, 4))
    for _ in range(20):
        theta, state, diag = namo_d_step(theta, rng.normal_matrix(7, 4), state, hp)
        direction = orthogonalize(state.M, hp.orth) * diag.d_clamped[np.newaxis, :]
        sv = np.linalg.svd(direction, compute_uv=False)
        assert np.all(sv >= np.min(diag.d_clamped) - 1e-9)
        assert np.all(sv <= np.max(diag.d_clamped) + 1e-9)


def test_step_determinism():
    rng = Rng(50)
    grads = [rng.normal_matrix(4, 4) for _ in range(10)]
    hp = HyperParams(eta=0.05, orth=EXACT)

    def run_once():
        theta = np.zeros((4, 4))
        state = NamoState.zero((4, 4))
        for g in grads:
            theta, state, _ = namo_step(theta, g, state, hp)
        return theta

    assert np.array_equal(run_once(), run_once())


@pytest.mark.parametrize(
    "step,state_cls", [(namo_step, NamoState), (namo_d_step, NamoDState), (muon_step, MuonState)]
)
@pytest.mark.parametrize("shape", [(2, 3, 4), (6,), ()])
def test_matrix_rules_reject_a_parameter_that_is_not_2d(step, state_cls, shape):
    # the matrix rules take 2-D parameters only; harness.run sends any other to AdamW
    hp = HyperParams(eta=0.05, clamp_c=0.5, orth=EXACT)
    theta = Rng(62).normals(math.prod(shape)).reshape(shape)
    with pytest.raises(DimensionError):
        step(theta, np.ones(shape), state_cls.zero(shape), hp)
