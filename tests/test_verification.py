import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopt.errors import InputError
from orthopt.rng import Rng
from orthopt.verification import (
    LEMMA_TOLERANCES,
    check_phi_eps,
    check_series_mut,
    check_series_mutsqrt,
    check_snr_bound,
    check_trace_inequality,
    estimate_rate_slope,
    series_mut_sides,
    series_mutsqrt_sides,
    snr_ratio,
    snr_tightness_gap,
)


class TestSnrBound:
    def test_equal_moments_constant_stream_is_tight(self):
        g = np.full((40, 6), 2.5)
        assert snr_ratio(g, 0.9, 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_single_step_ratio_is_one(self):
        g = Rng(1).normal_matrix(1, 8)
        assert snr_ratio(g, 0.9, 0.99) == pytest.approx(1.0, abs=1e-13)

    def test_default_run_passes(self):
        report = check_snr_bound(trials=300, rng=Rng(0))
        assert report.max_violation <= LEMMA_TOLERANCES["SNR"]
        assert report.passed()
        assert report.trials == 300
        json.loads(report.worst_case_inputs)  # serialized worst-case inputs

    def test_tightness_gap(self):
        assert snr_tightness_gap() <= 1e-12

    def test_perturbation_hook_forces_failure(self):
        report = check_snr_bound(trials=50, rng=Rng(0), bound_scale=0.5)
        assert report.max_violation > 0.0
        assert not report.passed()

    def test_reports_are_reproducible(self):
        a = check_snr_bound(trials=100, rng=Rng(3))
        b = check_snr_bound(trials=100, rng=Rng(3))
        assert a == b


class TestPhiEps:
    def test_zero_case(self):
        # x = 0: both sides vanish
        report = check_phi_eps(x_grid=np.array([0.0]), eps_grid=np.array([1.0]))
        assert report.max_violation <= 0.0

    def test_hand_value(self):
        # x = eps = 1: phi = 0.5 and the right side is 0.5 + sqrt(0.5)
        phi = 0.5
        rhs = phi + math.sqrt(phi)
        assert rhs == pytest.approx(1.2071067811865476, abs=1e-15)
        assert 1.0 <= rhs

    def test_small_eps_approaches_equality(self):
        x = 3.7
        for eps in (1e-3, 1e-6, 1e-9):
            phi = x * x / (x + eps)
            slack = phi + math.sqrt(eps * phi) - x
            assert 0.0 <= slack <= 2.0 * math.sqrt(eps * x)

    def test_default_grid_passes(self):
        report = check_phi_eps()
        assert report.max_violation <= LEMMA_TOLERANCES["PHI_EPS"]

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1e-12, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_inequality_holds_everywhere(self, x, eps):
        phi = x * x / (x + eps)
        assert x <= phi + math.sqrt(eps * phi) + 1e-12 * max(1.0, x)


class TestSeriesBounds:
    @pytest.mark.parametrize("mu", [0.5, 0.9, 0.99, 0.999])
    def test_mut_t1_equality(self, mu):
        lhs, rhs = series_mut_sides(mu, 1)
        # T = 1 telescopes to 1/(1-mu) on both sides
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))
        assert lhs == pytest.approx(1.0 / (1.0 - mu), rel=1e-15)

    def test_mut_direct_evaluation(self):
        lhs, rhs = series_mut_sides(0.5, 10)
        assert lhs <= rhs
        assert lhs == pytest.approx(math.fsum(1.0 / (1.0 - 0.5**t) for t in range(1, 11)))

    def test_mut_small_mu_asymptotics(self):
        lhs, rhs = series_mut_sides(1e-6, 50)
        assert lhs <= rhs
        assert lhs == pytest.approx(50.0, abs=1e-3)
        assert rhs == pytest.approx(50.0, abs=1e-3)

    def test_mutsqrt_hand_value(self):
        lhs, rhs = series_mutsqrt_sides(0.5, 1)
        assert lhs == pytest.approx(math.sqrt(2.0), rel=1e-15)
        expected_rhs = 1.0 - 2.0 * math.log(1.0 + math.sqrt(0.5)) / math.log(0.5)
        assert rhs == pytest.approx(expected_rhs, rel=1e-15)
        assert rhs == pytest.approx(2.5431, abs=1e-4)
        assert lhs <= rhs

    def test_mutsqrt_small_mu_asymptotics(self):
        lhs, rhs = series_mutsqrt_sides(1e-6, 25)
        assert lhs <= rhs
        assert lhs == pytest.approx(25.0, abs=1e-3)

    def test_mutsqrt_direct_evaluation(self):
        lhs, rhs = series_mutsqrt_sides(0.9, 100)
        assert lhs <= rhs

    def test_default_grids_pass(self):
        assert check_series_mut().max_violation <= LEMMA_TOLERANCES["SERIES_MUT"]
        assert check_series_mutsqrt().max_violation <= LEMMA_TOLERANCES["SERIES_MUTSQRT"]


class TestTraceInequality:
    def test_identity_diagonal_is_duality_identity(self):
        from orthopt.linalg import inner_product, nuclear_norm
        from orthopt.orthogonalize import EXACT, orthogonalize

        m = Rng(5).normal_matrix(7, 4)
        o = orthogonalize(m, EXACT)
        assert inner_product(m, o) == pytest.approx(nuclear_norm(m), abs=1e-9)

    def test_zero_diagonal(self):
        from orthopt.linalg import inner_product
        from orthopt.orthogonalize import EXACT, orthogonalize

        m = Rng(6).normal_matrix(5, 3)
        o = orthogonalize(m, EXACT)
        assert inner_product(m, o * np.zeros(3)[np.newaxis, :]) == 0.0

    def test_default_run_passes(self):
        report = check_trace_inequality(trials=200, rng=Rng(0))
        assert report.max_violation <= LEMMA_TOLERANCES["TRACE_OD"]
        assert report.passed()

    def test_reproducible(self):
        a = check_trace_inequality(trials=60, rng=Rng(8))
        b = check_trace_inequality(trials=60, rng=Rng(8))
        assert a == b


class TestRateSlope:
    def test_exact_power_law(self):
        pts = [(t, t**-0.5) for t in (100, 1000, 10_000)]
        assert estimate_rate_slope(pts) == pytest.approx(-0.5, abs=1e-10)

    def test_constant_series(self):
        pts = [(t, 3.0) for t in (10, 100, 1000)]
        assert estimate_rate_slope(pts) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_quarter_rate(self):
        rng = Rng(77)
        ts = [100, 400, 1600, 6400]
        noise = rng.normals(len(ts))
        pts = [(t, 2.0 * t**-0.25 * (1.0 + 0.01 * z)) for t, z in zip(ts, noise)]
        assert estimate_rate_slope(pts) == pytest.approx(-0.25, abs=0.05)

    def test_input_validation(self):
        with pytest.raises(InputError):
            estimate_rate_slope([(10, 1.0), (10, 2.0), (10, 3.0)])
        with pytest.raises(InputError):
            estimate_rate_slope([(10, 1.0), (20, 0.0), (40, 1.0)])
        with pytest.raises(InputError):
            estimate_rate_slope([(10, 1.0), (-20, 1.0), (40, 1.0)])
