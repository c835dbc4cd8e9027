import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthopt
from orthopt.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_IO, EXIT_OK, main

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


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(RUN_INI)
    return str(path)


class TestRunCommand:
    def test_run_writes_csv(self, run_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", run_config, "--out", str(out)]) == EXIT_OK
        assert (out / "run.csv").exists()
        assert "status=ok" in capsys.readouterr().out

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
        assert (out / "summary.csv").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_bad_key_is_config_error(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(RUN_INI + "bogus = 1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

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

    def test_unwritable_out_is_io_error(self, run_config, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        # out path points through a regular file
        code = main(["run", "--config", run_config, "--out", str(blocker / "sub")])
        assert code == EXIT_IO


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
        assert "slope=" in capsys.readouterr().out

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
        code = main(
            [
                "verify-lemmas",
                "--trials", "40",
                "--snr-bound-scale", "0.5",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_CHECK_FAILED


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


def test_unknown_command_is_config_error():
    assert main(["frobnicate"]) == EXIT_CONFIG


def test_missing_required_flag_is_config_error():
    assert main(["run", "--out", "/tmp/x"]) == EXIT_CONFIG


BLAS_THREAD_CONFIGS = {
    "mlp": "problem = mlp\ndims = 16,128,128,8\noptimizer = namo_d\n"
    "noise_kind = minibatch\nbatch_size = 16\nsteps = 40\nseed = 5\n",
    "least_squares": "problem = matrix_least_squares\ndims = 8,6,12\noptimizer = namo\n"
    "sigma = 0.5\nsteps = 40\nseed = 5\n",
}


@pytest.mark.parametrize("name", sorted(BLAS_THREAD_CONFIGS))
def test_csv_bytes_do_not_depend_on_blas_threads(name, tmp_path):
    # The EXACT path runs LAPACK gesdd, whose bits match across BLAS thread
    # counts for matrices up to 128x128 (the largest here); see README.
    config = tmp_path / "run.ini"
    config.write_text("[run]\n" + BLAS_THREAD_CONFIGS[name])
    src = str(Path(orthopt.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "orthopt.cli", "run", "--config", str(config), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append((out / "run.csv").read_bytes())
    assert outputs[0] == outputs[1]
