import itertools
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopt import verification
from orthopt.errors import ConfigError, InputError
from orthopt.rng import Rng
from orthopt.verification import (
    LEMMA_TOLERANCES,
    SNR_MU_GRID,
    check_phi_eps,
    check_series_mut,
    check_series_mutsqrt,
    check_snr_bound,
    check_trace_inequality,
    estimate_rate_slope,
    run_all_checks,
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sides", [series_mut_sides, series_mutsqrt_sides])
    @pytest.mark.parametrize("mu, t_steps", [(mu, 5) for mu in (0.0, 1.0, 1.5, -0.5)] + [(0.5, 0), (0.5, -3)])
    def test_out_of_range_input_is_input_error(self, sides, mu, t_steps):
        with pytest.raises(InputError, match="0 < mu < 1 and T >= 1"):
            sides(mu, t_steps)

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


# Scalar references: each check written one stream step, grid cell or series
# term at a time, with the NaN rule (the first NaN violation is the worst)
# spelled out.  The array forms must match them bit for bit, so the bytes of
# lemmas.csv do not depend on which form runs.


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


def _report_bits(report):
    return report.lemma_id, report.trials, _bits(report.max_violation)


def _replaces(violation, worst_violation) -> bool:
    if math.isnan(worst_violation):
        return False
    return math.isnan(violation) or violation > worst_violation


def running_worst(violations) -> list[float]:
    """The worst violation so far after each one."""
    return list(itertools.accumulate(violations, lambda w, v: v if _replaces(v, w) else w, initial=-math.inf))[1:]


def scalar_snr_ratio(g_stream, mu1, mu2):
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


def scalar_phi_eps(x_grid, eps_grid):
    violations = []
    for eps in eps_grid:
        for x in x_grid:
            phi = x * x / (x + eps)
            violations.append(x - (phi + math.sqrt(eps * phi)))
    return "PHI_EPS", len(violations), _bits(running_worst(violations)[-1])


def scalar_series_mut_sides(mu, t_steps):
    lhs = math.fsum(1.0 / (1.0 - mu**t) for t in range(1, t_steps + 1))
    rhs = t_steps + mu / (1.0 - mu) - math.log((1.0 - mu**t_steps) / (1.0 - mu)) / math.log(mu)
    return lhs, rhs


def scalar_series_mutsqrt_sides(mu, t_steps):
    lhs = math.fsum(1.0 / math.sqrt(1.0 - mu**t) for t in range(1, t_steps + 1))
    rhs = t_steps - 2.0 * math.log(1.0 + math.sqrt(1.0 - mu**t_steps)) / math.log(mu)
    return lhs, rhs


SERIES_MU_GRID = (0.5, 0.9, 0.99, 0.999)
SERIES_T_GRID = (1, 10, 100, 1000, 10000)


def scalar_check_series(lemma_id, sides, mu_grid=SERIES_MU_GRID, t_grid=SERIES_T_GRID):
    violations = []
    for mu in mu_grid:
        for t_steps in t_grid:
            lhs, rhs = sides(mu, t_steps)
            violations.append((lhs - rhs) / max(1.0, abs(rhs)))
    return lemma_id, len(violations), _bits(running_worst(violations)[-1])


# The randomized checks as per-trial loops, one substream's draws, one
# recursion and one orthogonalize/nuclear_norm pair at a time, each giving its
# violations in trial order: the blocked checks must report the same bits.


def reference_snr_violations(trials, rng, dims_max=64, t_max=100, bound_scale=1.0):
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
            g[:] = g[0]
        bound = math.sqrt((1.0 - mu1) / (1.0 - mu2)) * bound_scale
        yield scalar_snr_ratio(g, mu1, mu2) - bound


def reference_trace_violations(trials, rng, dims_max=(16, 12)):
    from orthopt.linalg import inner_product, nuclear_norm
    from orthopt.orthogonalize import EXACT, orthogonalize

    m_max, n_max = dims_max
    for trial in range(trials):
        r = rng.substream(trial)
        u = r.uniforms(2)
        m_rows = 2 + int(u[0] * (m_max - 1)) % (m_max - 1)
        n_cols = 2 + int(u[1] * (n_max - 1)) % (n_max - 1)
        mat = r.normal_matrix(m_rows, n_cols)
        if trial % 11 == 1:
            d = np.ones(n_cols)
        elif trial % 13 == 2:
            d = np.zeros(n_cols)
        else:
            d = 2.0 * r.uniforms(n_cols)
            if trial % 5 == 0:
                d[trial % n_cols] = 0.0
        lhs = inner_product(mat, orthogonalize(mat, EXACT) * d[np.newaxis, :])
        yield float(np.min(d)) * nuclear_norm(mat) - lhs


def reference_check_snr_bound(trials, rng, dims_max=64, t_max=100, bound_scale=1.0):
    return "SNR", trials, _bits(running_worst(reference_snr_violations(trials, rng, dims_max, t_max, bound_scale))[-1])


def reference_check_trace_inequality(trials, rng, dims_max=(16, 12)):
    return "TRACE_OD", trials, _bits(running_worst(reference_trace_violations(trials, rng, dims_max))[-1])


def trial_counts(block):
    """1, 2 and 300 trials, and a block's size give or take one where that stays near 300."""
    return sorted({1, 2, 300} | ({block - 1, block, block + 1} - {0} if block <= 400 else set()))


def snr_block(dims_max=64, t_max=100):
    return max(1, verification._BLOCK_ENTRIES // (t_max * (dims_max + 1)))


def trace_block(dims_max=(16, 12)):
    return max(1, verification._BLOCK_ENTRIES // (dims_max[0] * (dims_max[1] + 1)))


def recorded_snr_ratios(monkeypatch):
    """Record every _snr_ratios call as (streams, mu1s, mu2s, ratios)."""
    calls = []
    real = verification._snr_ratios

    def recorded(streams, mu1s, mu2s):
        calls.append(([g.copy() for g in streams], list(mu1s), list(mu2s), real(streams, mu1s, mu2s)))
        return calls[-1][-1]

    monkeypatch.setattr(verification, "_snr_ratios", recorded)
    return calls


class TestMatchesScalarReferences:
    def test_stacked_row_dot_matches_per_row_dot(self):
        # snr_ratio takes every g.g from one stacked matmul; pin it against
        # per-row np.dot for every stream length t <= 100 and width d <= 64
        r = Rng(11)
        base = r.normal_matrix(100, 64) * (10.0 ** (6.0 * r.uniforms(100) - 3.0))[:, np.newaxis]
        mismatches = []
        for d in range(1, 65):
            rows = np.ascontiguousarray(base[:, :d])
            per_row = [_bits(np.dot(g, g)) for g in rows]
            for t in range(1, 101):
                g = rows[:t]
                stacked = np.matmul(g[:, None, :], g[:, :, None]).ravel()
                if [_bits(x) for x in stacked] != per_row[:t]:
                    mismatches.append((t, d))
        assert mismatches == []

    def test_snr_ratio_matches_scalar_recursion(self):
        rng = Rng(2024)
        mismatches = []
        for k in range(2400):
            r = rng.substream(k)
            u = r.uniforms(5)
            t = 1 + int(u[0] * 100) % 100
            d = 1 + int(u[1] * 64) % 64
            scale = 10.0 ** (6.0 * u[2] - 3.0)
            if k < 3 * len(SNR_MU_GRID):
                mu1, mu2 = SNR_MU_GRID[k % len(SNR_MU_GRID)]
            else:
                mu2 = 0.5 + 0.4999 * u[3]
                mu1 = mu2 if k % 5 == 0 else mu2 * u[4]
            g = r.normal_matrix(t, d) * scale
            if k % 7 == 3:
                g[:] = g[0]  # constant stream
            if _bits(snr_ratio(g, mu1, mu2)) != _bits(scalar_snr_ratio(g, mu1, mu2)):
                mismatches.append(k)
        assert mismatches == []

    def test_snr_check_matches_scalar_recursion(self, monkeypatch):
        # trial counts on both sides of a block boundary
        for trials in (snr_block() - 1, snr_block(), snr_block() + 1, 120):
            with monkeypatch.context() as patch:
                calls = recorded_snr_ratios(patch)
                arrays = check_snr_bound(trials=trials, rng=Rng(4))
            assert sum(len(streams) for streams, *_ in calls) == trials
            # every trial, not only the worst one the report keeps
            got = [_bits(ratio) for *_, ratios in calls for ratio in ratios]
            want = [_bits(scalar_snr_ratio(*args)) for streams, *mus, _ in calls for args in zip(streams, *mus)]
            assert got == want, trials
            with monkeypatch.context() as patch:
                patch.setattr(verification, "_snr_ratios", lambda *args: [*map(scalar_snr_ratio, *args)])
                scalar = check_snr_bound(trials=trials, rng=Rng(4))
            assert _report_bits(arrays) == _report_bits(scalar), trials

    @pytest.mark.parametrize(
        "seed, dims_max, t_max",
        [(0, 64, 100), (7, 64, 100), (2026, 64, 100), (0, 7, 13), (7, 7, 13), (2026, 1, 1), (0, 600, 60)],
    )
    def test_snr_reports_match_per_trial_loop(self, seed, dims_max, t_max):
        for trials in trial_counts(snr_block(dims_max, t_max)):
            kwargs = {} if (dims_max, t_max) == (64, 100) else {"dims_max": dims_max, "t_max": t_max}
            got = check_snr_bound(trials=trials, rng=Rng(seed).substream(1), **kwargs)
            want = reference_check_snr_bound(trials, Rng(seed).substream(1), dims_max, t_max)
            assert _report_bits(got) == want, trials
        got = check_snr_bound(trials=40, rng=Rng(seed), bound_scale=0.5)
        assert _report_bits(got) == reference_check_snr_bound(40, Rng(seed), bound_scale=0.5)

    @pytest.mark.parametrize(
        "seed, dims_max", [(0, (16, 12)), (7, (16, 12)), (2026, (16, 12)), (0, (5, 3)), (7, (2, 2)), (2026, (40, 30))]
    )
    def test_trace_reports_match_per_trial_loop(self, seed, dims_max):
        for trials in trial_counts(trace_block(dims_max)):
            kwargs = {} if dims_max == (16, 12) else {"dims_max": dims_max}
            got = check_trace_inequality(trials=trials, rng=Rng(seed).substream(2), **kwargs)
            want = reference_check_trace_inequality(trials, Rng(seed).substream(2), dims_max)
            assert _report_bits(got) == want, trials

    @pytest.mark.parametrize("seed", [0, 2026])
    def test_reports_at_k_trials_are_the_running_worst(self, seed):
        # Trial k's bits do not depend on the trial count, so bisecting --trials finds the worst trial.
        for check, stream, violations, block in [
            (check_snr_bound, 1, reference_snr_violations, snr_block()),
            (check_trace_inequality, 2, reference_trace_violations, trace_block()),
        ]:
            want = running_worst(violations(block + 3, Rng(seed).substream(stream)))
            got = [check(trials=k, rng=Rng(seed).substream(stream)).max_violation for k in range(1, block + 4)]
            assert [_bits(v) for v in got] == [_bits(v) for v in want], check.__name__

    def test_run_all_checks_series_match_scalar_checks(self):
        reports = run_all_checks(trials=3, seed=0, bound_scale=1.0)
        assert _report_bits(reports[2]) == scalar_check_series("SERIES_MUT", scalar_series_mut_sides)
        assert _report_bits(reports[3]) == scalar_check_series("SERIES_MUTSQRT", scalar_series_mutsqrt_sides)

    @pytest.mark.parametrize("mu", [0.5, 0.9, 0.99, 0.999, 0.3141, 0.77, 0.9876, 0.9967, 1e-6, 1e-300])
    def test_series_sides_match_scalar_sums(self, mu):
        # T around the first t whose term is exactly 1.0: a little past it the
        # direct sums stop building terms and count them instead
        first_one = next((t for t in range(1, 20001) if 1.0 - mu**t == 1.0), 20000)
        near = {first_one + k for k in (-2, -1, 0, 1, 2, 50)}
        for t_steps in sorted({1, 2, 3, 10, 37, 100, 1000, 4096, 10000} | {t for t in near if t >= 1}):
            assert [_bits(v) for v in series_mut_sides(mu, t_steps)] == [
                _bits(v) for v in scalar_series_mut_sides(mu, t_steps)
            ], t_steps
            assert [_bits(v) for v in series_mutsqrt_sides(mu, t_steps)] == [
                _bits(v) for v in scalar_series_mutsqrt_sides(mu, t_steps)
            ], t_steps

    def test_series_terms_past_the_built_ones_are_exactly_one(self):
        # the direct sums count every term after _built(mu, T) as 1.0 instead
        # of building it; check that claim term by term, since a term of
        # 1 + 2^-52 vanishes in the rounding of a sum of thousands
        mus = [0.5, 0.9, 0.99, 0.999, 1e-6, 1e-300, 5e-324, 0.9999]
        mus += (0.9999 * Rng(31).uniforms(400)).tolist()
        for mu in mus:
            built = verification._built(mu, 10**12)
            assert built < 10**12
            assert all(1.0 - mu**t == 1.0 for t in range(built + 1, built + 2001)), mu

    @pytest.mark.parametrize(
        "check, lemma_id, sides",
        [
            (check_series_mut, "SERIES_MUT", scalar_series_mut_sides),
            (check_series_mutsqrt, "SERIES_MUTSQRT", scalar_series_mutsqrt_sides),
        ],
    )
    def test_series_reports_match_scalar_checks(self, check, lemma_id, sides, monkeypatch):
        assert _report_bits(check()) == scalar_check_series(lemma_id, sides)
        # each grid cell alone, so every violation is compared, not only the worst
        for mu in SERIES_MU_GRID:
            monkeypatch.setattr(verification, "_SERIES_MU_GRID", (mu,))
            for t_steps in SERIES_T_GRID:
                monkeypatch.setattr(verification, "_SERIES_T_GRID", (t_steps,))
                assert _report_bits(check()) == scalar_check_series(lemma_id, sides, (mu,), (t_steps,))

    def test_phi_eps_default_grid_matches_scalar_loop(self):
        x_grid = np.concatenate([[0.0], np.logspace(-12, 6, 55)])
        eps_grid = np.logspace(-12, 3, 46)
        assert _report_bits(check_phi_eps()) == scalar_phi_eps(x_grid, eps_grid)


class TestConfigErrorsAndNan:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_config_error(self, trials):
        with pytest.raises(ConfigError):
            check_snr_bound(trials=trials, rng=Rng(0))
        with pytest.raises(ConfigError):
            check_trace_inequality(trials=trials, rng=Rng(0))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_scale_is_config_error(self, scale):
        with pytest.raises(ConfigError):
            check_snr_bound(trials=5, rng=Rng(0), bound_scale=scale)

    def test_zero_bound_scale_still_forces_failure(self):
        report = check_snr_bound(trials=5, rng=Rng(0), bound_scale=0.0)
        assert report.max_violation > 0.0
        assert not report.passed()

    @pytest.mark.parametrize(
        "check, kwargs, named",
        [
            (check_snr_bound, {"dims_max": 0}, "dims_max=0"),
            (check_snr_bound, {"dims_max": -3}, "dims_max=-3"),
            (check_snr_bound, {"t_max": 0}, "t_max=0"),
            (check_trace_inequality, {"dims_max": (1, 5)}, "dims_max=(1, 5)"),
            (check_trace_inequality, {"dims_max": (5, 1)}, "dims_max=(5, 1)"),
            (check_trace_inequality, {"dims_max": (0, 5)}, "dims_max=(0, 5)"),
            (check_trace_inequality, {"dims_max": (-2, 4)}, "dims_max=(-2, 4)"),
        ],
    )
    def test_out_of_range_shape_maximum_is_config_error(self, check, kwargs, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            check(trials=2, rng=Rng(0), **kwargs)

    def test_first_nan_snr_violation_is_the_worst(self, monkeypatch):
        ratios = iter([0.5, math.nan, 2.0, math.nan, 9.0])
        monkeypatch.setattr(verification, "_snr_ratios", lambda streams, mu1s, mu2s: [next(ratios) for _ in streams])
        report = check_snr_bound(trials=5, rng=Rng(0))
        assert math.isnan(report.max_violation)
        assert not report.passed()

    def test_first_nan_trace_violation_is_the_worst(self, monkeypatch):
        # a NaN singular value makes that trial's nuclear norm, and so its violation, NaN
        factors = iter([1.0, 1.0, math.nan, 1.0, math.nan])
        real_svd = verification._svd

        def svd(mat):
            u, s, vt = real_svd(mat)
            return u, s * next(factors), vt

        monkeypatch.setattr(verification, "_svd", svd)
        report = check_trace_inequality(trials=5, rng=Rng(0))
        assert math.isnan(report.max_violation)
        assert not report.passed()


class TestBlocksAndMemory:
    def test_snr_blocks_shrink_to_one_trial_for_large_shapes(self, monkeypatch):
        calls = recorded_snr_ratios(monkeypatch)
        check_snr_bound(trials=4, rng=Rng(0), dims_max=4096, t_max=100)
        assert [len(streams) for streams, *_ in calls] == [1, 1, 1, 1]

    def test_default_blocks_hold_several_trials(self, monkeypatch):
        calls = recorded_snr_ratios(monkeypatch)
        check_snr_bound(trials=32, rng=Rng(0))
        block = snr_block()
        assert block > 1
        assert [len(streams) for streams, *_ in calls] == [block] * (32 // block) + [32 % block] * (32 % block > 0)

    def test_thousand_trial_run_stays_within_memory_bound(self):
        run_all_checks(trials=3, seed=0, bound_scale=1.0)  # import-time and first-call allocations
        tracemalloc.start()
        try:
            run_all_checks(trials=1000, seed=2026, bound_scale=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # per-trial loops peaked at 0.49 MB and blocks of 2**15 entries at 0.75 MB; 2**18 fails
        assert peak < 1_000_000, peak


class TestSeriesReportCache:
    @pytest.mark.parametrize("seed", [0, 5, 2026])
    def test_cold_and_warm_reports_are_bit_identical(self, seed):
        verification._check_series.cache_clear()
        cold = run_all_checks(trials=32, seed=seed, bound_scale=1.0)
        assert verification._check_series.cache_info().currsize == 2
        warm = run_all_checks(trials=32, seed=seed, bound_scale=1.0)
        assert [_report_bits(r) for r in warm] == [_report_bits(r) for r in cold]
        assert warm[2] is cold[2] and warm[3] is cold[3]

    def test_public_sides_leave_the_cache_alone(self):
        check_series_mut()
        info = verification._check_series.cache_info()
        for mu, t_steps in [(0.95, 77), (0.3, 5), (0.999, 20000)]:
            series_mut_sides(mu, t_steps)
            series_mutsqrt_sides(mu, t_steps)
        assert verification._check_series.cache_info() == info

    def test_rebound_sides_leave_the_cache_alone(self, monkeypatch):
        # a tracer binds a fresh wrapper of each public function on every pass
        reports = [check_series_mut(), check_series_mutsqrt()]
        size = verification._check_series.cache_info().currsize
        for _ in range(3):
            for name, sides in [("series_mut_sides", series_mut_sides), ("series_mutsqrt_sides", series_mutsqrt_sides)]:
                monkeypatch.setattr(verification, name, lambda mu, t_steps, sides=sides: sides(mu, t_steps))
            again = [check_series_mut(), check_series_mutsqrt()]
            assert [_report_bits(r) for r in again] == [_report_bits(r) for r in reports]
            assert verification._check_series.cache_info().currsize == size
