import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orthopt
from orthopt.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from orthopt.errors import InputError
from orthopt.harness import DEFAULT_C_GRID, DEFAULT_ETA_GRIDS

RUN_INI = """\
[run]
problem = matrix_least_squares
dims = 4,3,6
optimizer = namo
eta = 0.05
weight_decay = 0.0
steps = 30
warmup_steps = 0
seed = 3
"""

# config files that configparser itself rejects, or cannot decode
MALFORMED_CONFIGS = {
    "no_section_header": b"problem = mlp\n",
    "bare_percent": RUN_INI.encode() + b"sigma = 5%\n",
    "duplicate_key": RUN_INI.encode() + b"seed = 4\n",
    "non_utf8": RUN_INI.encode() + b"; caf\xe9\n",
}

# values that parse but that no run can use: each is a config error, where it
# used to exit 1 from the first step (sigma), end diverged after 0 steps
# (weight_decay, eta) or run a zero-width network to final_loss=0 (dims)
BAD_VALUE_CONFIGS = {
    **{f"sigma={v}": {"sigma": v} for v in ("nan", "inf", "1e400")},
    **{f"weight_decay={v}": {"weight_decay": v} for v in ("nan", "inf", "1e400")},
    **{f"eta={v}": {"eta": v} for v in ("inf", "1e400")},
    "mlp_zero_width_input": {"problem": "mlp", "dims": "0,3,2"},
    # sqrt(batch_size * parameter count) has no float64 value
    "batch_size=10**400": {"sigma": "0.5", "batch_size": str(10**400)},
    # found only when the problem or its noise is built, as are the two above;
    # each of these seven used to leave an empty output directory behind
    "least_squares_dims=4,3": {"dims": "4,3"},
    "factorization_dims=4,3": {"problem": "matrix_factorization", "dims": "4,3"},
    "factorization_rank_above_min": {"problem": "matrix_factorization", "dims": "4,8,4"},
    "factorization_minibatch": {"problem": "matrix_factorization", "dims": "6,2,5", "noise_kind": "minibatch"},
    "mlp_one_layer": {"problem": "mlp", "dims": "4,2"},
}

# sigma=1.7e308 overflows a noisy gradient to inf, which the AdamW and Muon
# steps reject; the run ends diverged there
NOISE_OVERFLOW_INI = """\
[run]
problem = matrix_least_squares
dims = 2,2,4
optimizer = adamw
steps = 50
sigma = 1.7e308
"""
NOISE_OVERFLOW_FLAGS = ["--sigma", "1.7e308", "--dims", "2,2,4", "--optimizer", "muon"]
# batch_size * parameter count beyond uint64
HUGE_BATCH = "10000000000000000000"


# eta / warmup_steps (default 2 at 40 steps) rounds to 0 at the first step
WARMUP_UNDERFLOW_INI = """\
[run]
problem = matrix_least_squares
dims = 4,3,6
optimizer = namo
steps = 40
eta = 5e-324
"""


def with_values(ini: str, values: dict) -> str:
    """``ini`` with the given keys set, replacing any existing line for them."""
    kept = [line for line in ini.splitlines() if line.split(" = ")[0] not in values]
    return "\n".join(kept + [f"{k} = {v}" for k, v in values.items()]) + "\n"


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(RUN_INI)
    return str(path)


class TestRunCommand:
    def test_run_writes_csv(self, run_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", run_config, "--out", str(out)]) == EXIT_OK
        lines = (out / "run.csv").read_text().splitlines()
        assert lines[0] == "step,loss,grad_fro,avg_grad_fro,alpha,d_bar,d_min,d_max"
        assert len(lines) == 31  # one row per step
        assert "status=ok" in capsys.readouterr().out

    def test_nested_out_is_created(self, run_config, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert main(["run", "--config", run_config, "--out", str(out)]) == EXIT_OK
        assert [path.name for path in out.iterdir()] == ["run.csv"]

    def test_empty_out_writes_into_working_directory(self, run_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", run_config, "--out", ""]) == EXIT_OK
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.csv", "run.ini"]

    def test_run_twice_is_byte_identical(self, run_config, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", run_config, "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", run_config, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()

    def test_repeats_write_numbered_files(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(RUN_INI + "repeats = 2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "run_000.csv").exists()
        assert (out / "run_001.csv").exists()
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "repeat,seed,status,final_loss,final_avg_grad"
        assert [line.split(",")[:3] for line in lines[1:]] == [["0", "3", "ok"], ["1", "4", "ok"]]

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_bad_key_is_config_error(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(RUN_INI + "bogus = 1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_config_error(self, name, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(MALFORMED_CONFIGS[name])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("name", sorted(BAD_VALUE_CONFIGS))
    def test_unusable_value_is_config_error(self, name, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(with_values(RUN_INI, BAD_VALUE_CONFIGS[name]))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    def test_warmup_underflow_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(WARMUP_UNDERFLOW_INI)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "warmup" in err

    @pytest.mark.parametrize("dataset_size", ["0", "-3"])
    @pytest.mark.parametrize(
        "problem,dims", [("matrix_least_squares", "4,3,6"), ("matrix_factorization", "6,2,5"), ("mlp", "4,6,3")]
    )
    def test_nonpositive_dataset_size_is_config_error(self, problem, dims, dataset_size, tmp_path, capsys):
        # rejected at load for every problem: least squares and factorization used to
        # ignore it and exit 0, the MLP failed only after the output directory was made
        path = tmp_path / "run.ini"
        path.write_text(with_values(RUN_INI, {"problem": problem, "dims": dims, "dataset_size": dataset_size}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.endswith(": dataset_size must be positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("optimizer", ["namo", "namo_d"])
    def test_overflowing_run_exits_ok_with_diverged_status(self, optimizer, tmp_path, capsys):
        # eta=1e8 overflows the momentum; that is a diverged run, not a config error
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nproblem = matrix_factorization\ndims = 8,3,6\n"
            f"optimizer = {optimizer}\neta = 1e8\nsigma = 0.5\nsteps = 60\nwarmup_steps = 0\n"
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert "status=diverged" in capsys.readouterr().out

    def test_grad_norm_overflow_run_exits_ok_with_diverged_status(self, tmp_path, capsys):
        # finite per-parameter sums of squares whose total overflows
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nproblem = matrix_factorization\ndims = 8,3,6\noptimizer = muon\n"
            "eta = 1.809689501902376e51\nsigma = 0.5\nsteps = 30\nwarmup_steps = 0\n"
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert "status=diverged" in capsys.readouterr().out

    @pytest.mark.parametrize("optimizer", ["adamw", "muon"])
    def test_noise_overflow_exits_ok_with_diverged_status(self, optimizer, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(with_values(NOISE_OVERFLOW_INI, {"optimizer": optimizer}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert "status=diverged" in capsys.readouterr().out

    def test_huge_batch_size_runs(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(with_values(RUN_INI, {"sigma": "0.5", "batch_size": HUGE_BATCH}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert "status=ok" in capsys.readouterr().out

    def test_unwritable_out_is_io_error(self, run_config, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        # out path points through a regular file
        code = main(["run", "--config", run_config, "--out", str(blocker / "sub")])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith(f"i/o error: failed to write CSV to {blocker / 'sub' / 'run.csv'}: ")

    def test_out_of_memory_is_one_line_error(self, run_config, tmp_path, capsys, monkeypatch):
        # numpy's error for an mlp with dataset_size = 10**12, raised here: a real allocation
        # may succeed under memory overcommit and get the process killed later
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000, 1) and data type float64"

        def refuse(config):
            raise MemoryError(message)

        monkeypatch.setattr(orthopt.harness, "make_problem", refuse)
        out = tmp_path / "o"
        assert main(["run", "--config", run_config, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"
        assert not out.exists()


class TestSweepCommand:
    def test_sweep(self, run_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", run_config, "--etas", "0.02,0.05", "--out", str(out)]
        )
        assert code == EXIT_OK
        text = (out / "sweep.csv").read_text()
        assert text.splitlines()[0] == "optimizer,eta,c,final_loss,final_avg_grad,status"
        assert len(text.splitlines()) == 3
        assert "sweep best" in capsys.readouterr().out

    def test_noise_overflow_ends_all_diverged(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(NOISE_OVERFLOW_INI)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert capsys.readouterr().out == "sweep: all runs diverged\n"

    def test_namo_d_sweeps_the_default_grids_eta_major(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(with_values(RUN_INI, {"optimizer": "namo_d"}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        got = [(optimizer, float(eta), float(c)) for optimizer, eta, c, *_ in rows]
        assert got == [("namo_d", eta, c) for eta in DEFAULT_ETA_GRIDS["namo_d"] for c in DEFAULT_C_GRID]
        assert len(got) == 20

    def test_cs_for_wrong_optimizer_is_config_error(self, run_config, tmp_path):
        code = main(
            ["sweep", "--config", run_config, "--etas", "0.02", "--cs", "0.5", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG


class TestRatesCommand:
    def test_small_rate_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "rates",
                "--problem", "matrix_factorization",
                "--optimizer", "namo",
                "--dims", "6,2,6",
                "--T", "32,64,128",
                "--regime", "det",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "rates.csv").read_text().splitlines()[0] == "T,final_avg_grad_fro"
        lines = (out / "rate_summary.csv").read_text().splitlines()
        assert lines[0] == "optimizer,regime,slope"
        assert lines[1].startswith("namo,det,")
        assert "slope=" in capsys.readouterr().out

    def test_noise_overflow_is_numerical_failure(self, tmp_path, capsys):
        code = main(
            [
                "rates",
                "--problem", "matrix_least_squares",
                *NOISE_OVERFLOW_FLAGS,
                "--T", "10,20,40",
                "--regime", "stoch",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CHECK_FAILED
        assert capsys.readouterr().err.startswith("numerical failure: only 0 of 3 horizons completed")

    def test_input_error_is_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(**kwargs):
            raise InputError("counter out of range")

        monkeypatch.setattr(orthopt.cli, "rate_experiment", fail)
        argv = ["rates", "--problem", "matrix_least_squares", "--optimizer", "namo", "--T", "4,8,16", "--regime", "det"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: counter out of range\n"

    def test_bad_regime_is_config_error(self, tmp_path):
        code = main(
            [
                "rates",
                "--problem", "matrix_factorization",
                "--optimizer", "namo",
                "--T", "32,64,128",
                "--regime", "warp",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG

    def test_zero_horizon_is_config_error(self, tmp_path, capsys):
        code = main(
            [
                "rates",
                "--problem", "matrix_least_squares",
                "--optimizer", "namo",
                "--T", "0,4,16",
                "--regime", "det",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")


class TestVerifyLemmasCommand:
    def test_passes_on_defaults(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify-lemmas", "--trials", "60", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "lemmas.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "lemma,trials,max_violation,pass"
        assert len(lines) == 6  # five lemma rows
        assert all(line.endswith(",true") for line in lines[1:])
        assert "SNR tightness witness" in capsys.readouterr().out

    def test_perturbed_bound_exits_2(self, tmp_path):
        for scale in ("0.5", "0"):  # a finite scale below 1, 0 included, forces a failure
            code = main(
                [
                    "verify-lemmas",
                    "--trials", "40",
                    "--snr-bound-scale", scale,
                    "--out", str(tmp_path / "out"),
                ]
            )
            assert code == EXIT_CHECK_FAILED

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trials", "0"],
            ["--trials", "-1"],
            ["--trials", "1", "--snr-bound-scale", "nan"],
            ["--trials", "1", "--snr-bound-scale", "inf"],
            ["--trials", "1", "--snr-bound-scale=-inf"],
        ],
    )
    def test_bad_trials_or_bound_scale_is_config_error(self, flags, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify-lemmas", *flags, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: trials must be >= 1 and bound_scale finite")
        assert not out.exists()

    def test_nan_violation_exits_2(self, tmp_path, capsys, monkeypatch):
        def nan_ratios(streams, mu1s, mu2s):
            return [float("nan")] * len(streams)

        monkeypatch.setattr(orthopt.verification, "_snr_ratios", nan_ratios)
        out = tmp_path / "out"
        code = main(["verify-lemmas", "--trials", "4", "--out", str(out)])
        assert code == EXIT_CHECK_FAILED
        assert (out / "lemmas.csv").read_text().splitlines()[1] == "SNR,4,,false"
        assert "SNR: trials=4 max_violation=nan FAIL" in capsys.readouterr().out

    def test_tightness_witness_reads_the_tolerance_table(self, tmp_path, capsys, monkeypatch):
        # a negative tolerance fails every gap, the witness's exact 0 included
        monkeypatch.setitem(orthopt.verification.LEMMA_TOLERANCES, "SNR", -1.0)
        code = main(["verify-lemmas", "--trials", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_CHECK_FAILED
        assert re.search(r"^SNR tightness witness: gap=\S+ FAIL$", capsys.readouterr().out, re.M)


class TestBatchAdaptCommand:
    def test_small_batch_adapt(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "batch-adapt",
                "--sigma", "0.5",
                "--b", "1,4,16",
                "--seeds", "1,2,3",
                "--dims", "4,3,6",
                "--T", "40",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        text = (out / "batch_adapt.csv").read_text()
        assert text.splitlines()[0] == "b,mean_final_avg_grad_fro"
        assert len(text.splitlines()) == 4
        assert "b=1:" in capsys.readouterr().out

    def test_noise_overflow_is_numerical_failure(self, tmp_path, capsys):
        code = main(
            [
                "batch-adapt",
                *NOISE_OVERFLOW_FLAGS,
                "--b", "1,4",
                "--seeds", "1,2,3",
                "--T", "40",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == "numerical failure: all runs diverged at batch size 1\n"

    def test_huge_batch_size_runs(self, tmp_path, capsys):
        code = main(
            [
                "batch-adapt",
                "--sigma", "0.5",
                "--b", HUGE_BATCH,
                "--seeds", "1,2,3",
                "--dims", "4,3,6",
                "--T", "20",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith(f"b={HUGE_BATCH}: ")

    def test_bad_b_list_is_config_error(self, tmp_path):
        code = main(
            [
                "batch-adapt",
                "--sigma", "0.5",
                "--b", "4,4",
                "--seeds", "1,2,3",
                "--T", "10",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("t_steps", ["0", "-4"])
    def test_non_positive_horizon_is_config_error(self, t_steps, tmp_path, capsys):
        code = main(
            [
                "batch-adapt",
                "--sigma", "1",
                "--b", "1,4",
                "--seeds", "1,2,3",
                "--T", t_steps,
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")


# a list argument that holds no number: each was dropped, or taken as the default
EMPTY_LIST_ARGUMENTS = {
    "batch_adapt_b_empty": (["batch-adapt", "--sigma", "0.5", "--b", "", "--seeds", "1,2,3", "--T", "10"], "--b"),
    "batch_adapt_b_comma": (["batch-adapt", "--sigma", "0.5", "--b", ",", "--seeds", "1,2,3", "--T", "10"], "--b"),
    "batch_adapt_dims_empty": (
        ["batch-adapt", "--sigma", "0.5", "--b", "1,4", "--seeds", "1,2,3", "--T", "10", "--dims", ""], "--dims"
    ),
    "rates_dims_empty": (
        ["rates", "--problem", "matrix_least_squares", "--optimizer", "namo", "--T", "4,8,16", "--regime", "det",
         "--dims", ""], "--dims"
    ),
    "sweep_etas_empty": (["sweep", "--config", "{namo}", "--etas", ""], "--etas"),
    "sweep_cs_empty": (["sweep", "--config", "{namo_d}", "--etas", "0.02", "--cs", ""], "--cs"),
}


@pytest.mark.parametrize("name", sorted(EMPTY_LIST_ARGUMENTS))
def test_empty_list_argument_is_config_error(name, tmp_path, capsys):
    argv, flag = EMPTY_LIST_ARGUMENTS[name]
    configs = {}
    for optimizer in ("namo", "namo_d"):
        configs[optimizer] = tmp_path / f"{optimizer}.ini"
        configs[optimizer].write_text(with_values(RUN_INI, {"optimizer": optimizer}))
    out = tmp_path / "out"
    assert main([arg.format(**configs) for arg in argv] + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: argument {flag}: ")
    assert not out.exists()


def test_repeated_seeds_are_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["batch-adapt", "--sigma", "0.5", "--b", "1,4", "--seeds", "1,1,1", "--T", "10", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: need at least 3 distinct seeds\n"
    assert not out.exists()


REPEATED_ENTRIES = {
    "batch-adapt seeds": (
        ["batch-adapt", "--sigma", "0.5", "--b", "1,4", "--seeds", "1,2,3,3", "--T", "10", "--dims", "4,3,6"],
        "a seed is repeated: [1, 2, 3, 3]",
    ),
    "rates horizons": (
        ["rates", "--problem", "matrix_least_squares", "--optimizer", "namo", "--T", "4,8,16,16", "--regime", "det"],
        "a T value is repeated: [4, 8, 16, 16]",
    ),
    # the problem name is checked where the problem is built, after the experiment's lists
    "batch-adapt seeds, unknown problem": (
        ["batch-adapt", "--problem", "bogus", "--sigma", "0.5", "--b", "1", "--seeds", "1,1,2"],
        "need at least 3 distinct seeds",
    ),
}


@pytest.mark.parametrize("name", sorted(REPEATED_ENTRIES))
def test_repeated_seed_or_horizon_is_config_error(name, tmp_path, capsys):
    # a repeated entry used to run again and count twice in the mean or the slope fit
    argv, message = REPEATED_ENTRIES[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--optimizer", "namo", "--T", "4,8,16", "--regime", "det"],
        ["batch-adapt", "--sigma", "0.5", "--b", "1,4", "--seeds", "1,2,3"],
    ],
    ids=["rates", "batch-adapt"],
)
def test_unknown_problem_without_dims_is_config_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--problem", "bogus", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown problem: 'bogus'\n"
    assert not out.exists()


RATES_ARGV = ["--optimizer", "namo", "--T", "4,8,16", "--regime", "stoch", "--sigma", "0.5", "--b", "4"]


@pytest.mark.parametrize(
    "argv, dims",
    [
        (["rates", "--problem", "matrix_least_squares", *RATES_ARGV], "8,6,12"),
        (["rates", "--problem", "matrix_factorization", *RATES_ARGV], "16,4,16"),
        (["rates", "--problem", "mlp", *RATES_ARGV], "4,8,2"),
        (["batch-adapt", "--sigma", "0.5", "--b", "1,4", "--seeds", "1,2,3", "--T", "10"], "8,6,12"),
    ],
    ids=["rates-lstsq", "rates-factorization", "rates-mlp", "batch-adapt"],
)
def test_default_dims_given_as_dims_write_the_same_bytes(argv, dims, tmp_path, capsys):
    outputs = []
    for label, dims_argv in (("given", ["--dims", dims]), ("omitted", [])):
        out = tmp_path / label
        assert main([*argv, *dims_argv, "--out", str(out)]) == EXIT_OK
        outputs.append(({path.name: path.read_bytes() for path in out.iterdir()}, capsys.readouterr()))
    assert outputs[0] == outputs[1]


def verify_lemmas_in_fresh_interpreter(out):
    """stdout of ``verify-lemmas --trials 32 --seed 5`` run by a new Python process."""
    src = str(Path(orthopt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["verify-lemmas", "--trials", "32", "--seed", "5", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "orthopt.cli", *argv], env=env, check=True, capture_output=True, text=True, timeout=120
    )
    return done.stdout


def test_reused_parser_carries_no_state_between_calls(tmp_path, capsys):
    assert orthopt.cli.build_parser() is not orthopt.cli.build_parser()
    assert main(["verify-lemmas", "--trials", "0", "--out", str(tmp_path / "zero")]) == EXIT_CONFIG
    assert main(["verify-lemmas", "--frobnicate", "--out", str(tmp_path / "unknown")]) == EXIT_CONFIG
    with pytest.raises(SystemExit) as help_exit:
        main(["--help"])
    assert help_exit.value.code == 0
    empty_b = ["batch-adapt", "--sigma", "0.5", "--b", "", "--seeds", "1,2,3", "--out", str(tmp_path / "empty")]
    assert main(empty_b) == EXIT_CONFIG
    capsys.readouterr()
    out = tmp_path / "reused"
    assert main(["verify-lemmas", "--trials", "32", "--seed", "5", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    fresh = tmp_path / "fresh"
    assert stdout == verify_lemmas_in_fresh_interpreter(fresh)
    assert (out / "lemmas.csv").read_bytes() == (fresh / "lemmas.csv").read_bytes()


def test_blas_pin_without_the_library_returns_quietly(monkeypatch):
    def no_library(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(orthopt.cli.ctypes, "CDLL", no_library)
    assert orthopt.cli._pin_blas_to_one_thread.__wrapped__() is None


def test_unknown_command_is_config_error():
    assert main(["frobnicate"]) == EXIT_CONFIG


def test_missing_required_flag_is_config_error():
    assert main(["run", "--out", "/tmp/x"]) == EXIT_CONFIG


# run configs, or the argv of a verify-lemmas invocation
BLAS_THREAD_CASES = {
    "mlp": "problem = mlp\ndims = 16,128,128,8\noptimizer = namo_d\n"
    "noise_kind = minibatch\nbatch_size = 16\nsteps = 40\nseed = 5\n",
    "least_squares": "problem = matrix_least_squares\ndims = 8,6,12\noptimizer = namo\n"
    "sigma = 0.5\nsteps = 40\nseed = 5\n",
    "least_squares_300x200": "problem = matrix_least_squares\ndims = 300,200,400\noptimizer = namo\n"
    "steps = 5\nseed = 5\n",
    "verify_lemmas": ["verify-lemmas", "--trials", "60", "--seed", "1"],
}


@pytest.mark.parametrize("name", sorted(BLAS_THREAD_CASES))
def test_csv_bytes_do_not_depend_on_blas_threads(name, tmp_path):
    # cli.main runs OpenBLAS on one thread whatever OPENBLAS_NUM_THREADS says:
    # beyond 128x128 gesdd's bits depend on the thread count.  The SNR check
    # of verify-lemmas takes every g.g from one stacked matmul.
    case = BLAS_THREAD_CASES[name]
    if isinstance(case, list):
        argv, csv_name = case, "lemmas.csv"
    else:
        config = tmp_path / "run.ini"
        config.write_text("[run]\n" + case)
        argv, csv_name = ["run", "--config", str(config)], "run.csv"
    src = str(Path(orthopt.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "orthopt.cli", *argv, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append((out / csv_name).read_bytes())
    assert outputs[0] == outputs[1]


# Config-file text for the property test below: valid values per key, kept
# small (steps, ns_iterations, repeats, dataset_size, dims) so every example
# is cheap, and texts that no key takes, or that only some keys take.
VALID_TEXTS = {
    "problem": ["matrix_least_squares", "matrix_factorization", "mlp"],
    "dims": ["4,3,6", "3,2,3", "2,3,2", "2,3,3,2"],
    "problem_seed": ["0", "3"],
    "dataset_size": ["1", "8"],
    "optimizer": ["namo", "namo_d", "muon", "adamw"],
    "eta": ["0.05", "1e-3", "1e8"],
    "mu1": ["0.9", "0.95"],
    "mu2": ["0.95", "0.99"],
    "epsilon": ["1e-8", "0.1"],
    "weight_decay": ["0.01", "0.5"],
    "clamp_c": ["0.1", "1"],
    "orth_method": ["exact", "newton_schulz"],
    "ns_iterations": ["1", "5"],
    "steps": ["1", "5", "20"],
    "warmup_steps": ["0", "1", "3"],
    "log_every": ["1", "4"],
    "seed": ["0", "7"],
    "repeats": ["1", "2"],
    "sigma": ["0", "0.5", "2"],
    "batch_size": ["1", "4", "100"],
    "noise_kind": ["additive_gaussian", "minibatch"],
}
ODD_TEXTS = ["0", "-1", "nan", "inf", "-inf", "1e400", "1.7e308", "5e-324", HUGE_BATCH, "", "abc"]
RUN_STATUS = re.compile(r"^run\[\d+\] status=(\w+) ", re.M)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    edits=st.lists(
        st.sampled_from(sorted(VALID_TEXTS)).flatmap(
            lambda key: st.tuples(
                st.just(key), st.sampled_from(VALID_TEXTS[key]) | st.sampled_from([None, *ODD_TEXTS])
            )
        ),
        max_size=6,
    )
)
@example(edits=[("eta", "5e-324")])
@example(edits=[("optimizer", "adamw"), ("dims", "2,2,4"), ("sigma", "1.7e308")])
@example(edits=[("sigma", "0.5"), ("batch_size", HUGE_BATCH)])
def test_every_config_file_is_config_error_or_ok_or_diverged(edits):
    # edits apply in order to WARMUP_UNDERFLOW_INI without its eta line; None
    # removes the key, required keys included
    values = {"problem": "matrix_least_squares", "dims": "4,3,6", "optimizer": "namo", "steps": "40"}
    for key, text in edits:
        values.pop(key, None)
        if text is not None:
            values[key] = text
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[run]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--config", path, "--out", os.path.join(tmp, "o")])
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error:")
    else:
        assert code == EXIT_OK
        statuses = RUN_STATUS.findall(out.getvalue())
        assert statuses and set(statuses) <= {"ok", "diverged"}
