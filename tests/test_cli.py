import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord.analytic import werner_ghz_gqd
from qdiscord.cli import DEFAULT_TARGETS, SweepSpec, main
from qdiscord.discord import OptimizerConfig, q_gqd, q_qd_one_sided
from qdiscord.states import random_density_matrix, save_state, werner_ghz

LIGHT_FLAGS = ["--starts", "4", "--max-evals", "400"]


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner.json"
    save_state(path, werner_ghz(2, 0.5))
    return str(path)


@pytest.fixture
def random_file(tmp_path):
    path = tmp_path / "random.json"
    save_state(path, random_density_matrix(2, seed=5))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCompute:
    def test_entropy(self, capsys, werner_file):
        code, payload = run_json(
            capsys, ["compute", "--state", werner_file, "--quantity", "entropy", "--q", "2"]
        )
        assert code == 0
        assert payload["quantity"] == "entropy"
        assert payload["q"] == 2.0
        # 1 - (0.625^2 + 3 * 0.125^2) = 0.5625
        assert_allclose(payload["value"], 0.5625, atol=1e-12)
        assert_allclose(
            payload["diagnostics"]["spectrum"], [0.625, 0.125, 0.125, 0.125], atol=1e-12
        )
        assert payload["diagnostics"]["num_qubits"] == 2

    def test_mutual_info(self, capsys, werner_file):
        code, payload = run_json(
            capsys,
            ["compute", "--state", werner_file, "--quantity", "mutual_info", "--q", "1"],
        )
        assert code == 0
        d = payload["diagnostics"]
        expected = sum(d["marginal_entropies"]) - d["state_entropy"]
        assert_allclose(payload["value"], expected, atol=1e-12)
        assert_allclose(d["marginal_entropies"], [np.log(2.0)] * 2, atol=1e-12)

    def test_qgqd_matches_library(self, capsys, random_file):
        code, payload = run_json(
            capsys,
            ["compute", "--state", random_file, "--quantity", "qgqd", "--q", "0.5"]
            + LIGHT_FLAGS,
        )
        assert code == 0
        rho = random_density_matrix(2, seed=5)
        report = q_gqd(rho, 0.5, OptimizerConfig(starts=4, max_evals=400))
        assert_allclose(payload["value"], report.value, atol=1e-12)
        assert payload["diagnostics"]["raw_value"] == report.raw_value
        assert payload["diagnostics"]["measured_qubits"] == [0, 1]

    def test_qgqd_matches_closed_form(self, capsys, werner_file):
        code, payload = run_json(
            capsys, ["compute", "--state", werner_file, "--quantity", "qgqd", "--q", "0.5"]
        )
        assert code == 0
        assert_allclose(payload["value"], werner_ghz_gqd(2, 0.5, 0.5).value, atol=1e-5)

    def test_qqd_measures_last_qubit(self, capsys, random_file):
        code, payload = run_json(
            capsys,
            ["compute", "--state", random_file, "--quantity", "qqd", "--q", "0.5"]
            + LIGHT_FLAGS,
        )
        assert code == 0
        rho = random_density_matrix(2, seed=5)
        report = q_qd_one_sided(rho, (1,), 0.5, OptimizerConfig(starts=4, max_evals=400))
        assert_allclose(payload["value"], report.value, atol=1e-12)
        assert payload["diagnostics"]["measured_qubits"] == [1]


class TestExitCodes:
    def test_bad_q_is_parameter_error(self, capsys, werner_file):
        code = main(["compute", "--state", werner_file, "--quantity", "entropy", "--q", "0"])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_bad_optimizer_flag(self, capsys, werner_file):
        code = main(
            ["compute", "--state", werner_file, "--quantity", "qgqd", "--q", "0.5", "--starts", "0"]
        )
        assert code == 4
        for starts in ("16", "4"):
            code = main(["sweep", "--seed", "-1", "--starts", starts, "--target", "alpha:0.3"])
            assert code == 4
            assert "seed must be non-negative" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        code = main(
            ["compute", "--state", str(tmp_path / "nope.json"), "--quantity", "entropy", "--q", "1"]
        )
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code = main(["compute", "--state", str(path), "--quantity", "entropy", "--q", "1"])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_invalid_state_matrix(self, capsys, tmp_path):
        payload = {
            "num_qubits": 1,
            "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        }
        path = tmp_path / "nonpsd.json"
        path.write_text(json.dumps(payload))
        code = main(["compute", "--state", str(path), "--quantity", "entropy", "--q", "1"])
        assert code == 3
        assert "positive semidefinite" in capsys.readouterr().err

    def test_non_finite_state_matrix(self, capsys, tmp_path):
        # json writes and reads the bare NaN token.
        payload = {
            "num_qubits": 1,
            "matrix": [[[0.5, 0.0], [float("nan"), 0.0]], [[float("nan"), 0.0], [0.5, 0.0]]],
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        code = main(["compute", "--state", str(path), "--quantity", "entropy", "--q", "0.5"])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    def test_desk_scale_violation(self, capsys, tmp_path):
        eye = np.eye(32) / 32.0
        payload = {
            "num_qubits": 5,
            "matrix": [[[float(v), 0.0] for v in row] for row in eye],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(payload))
        code = main(
            ["compute", "--state", str(path), "--quantity", "qgqd", "--q", "0.5"] + LIGHT_FLAGS
        )
        assert code == 3
        assert "desk-scale" in capsys.readouterr().err

    def test_sweep_parameter_errors(self, capsys):
        assert main(["sweep", "--steps", "1", "--target", "mixed:2"]) == 4
        assert main(["sweep", "--q-min", "0", "--target", "mixed:2"]) == 4
        assert main(["sweep", "--q-min", "0.9", "--q-max", "0.5", "--target", "mixed:2"]) == 4
        capsys.readouterr()

    def test_unknown_target(self, capsys):
        assert main(["sweep", "--target", "ghz:3"]) == 4
        assert "unknown target" in capsys.readouterr().err

    def test_malformed_target_number(self, capsys):
        assert main(["sweep", "--target", "alpha:zero"]) == 4
        assert "malformed target" in capsys.readouterr().err

    def test_target_outside_state_space(self, capsys):
        assert main(["sweep", "--target", "werner:2:1.5"]) == 3
        capsys.readouterr()

    def test_target_file_missing(self, capsys, tmp_path):
        assert main(["sweep", "--target", f"file:{tmp_path}/gone.json"]) == 2
        capsys.readouterr()

    def test_verify_trials_domain(self, capsys):
        assert main(["verify", "--suite", "telescoping", "--trials", "0"]) == 4
        capsys.readouterr()

    def test_argparse_rejects_unknown_names(self, werner_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--state", werner_file, "--quantity", "bogus", "--q", "1"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestSweep:
    def test_mixed_target_is_all_zero(self, capsys):
        code = main(
            ["sweep", "--target", "mixed:2", "--steps", "3", "--q-min", "0.5", "--q-max", "0.7"]
            + LIGHT_FLAGS
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q,mixed:2,difference"
        assert len(lines) == 4
        for line in lines[1:]:
            q, value, difference = line.split(",")
            assert float(value) == 0.0
            assert float(difference) == 0.0
        assert_allclose([float(l.split(",")[0]) for l in lines[1:]], [0.5, 0.6, 0.7])

    def test_two_target_difference_column(self, capsys):
        code = main(
            [
                "sweep",
                "--target",
                "werner:2:0.5",
                "--target",
                "mixed:2",
                "--steps",
                "2",
                "--q-min",
                "0.4",
                "--q-max",
                "0.8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q,werner:2:0.5,mixed:2,difference"
        for line in lines[1:]:
            q, first, second, difference = (float(x) for x in line.split(","))
            assert_allclose(difference, first - second, atol=1e-12)
            assert_allclose(first, werner_ghz_gqd(2, 0.5, q).value, atol=1e-5)

    def test_out_flag_writes_identical_file(self, capsys, tmp_path):
        argv = ["sweep", "--target", "mixed:2", "--steps", "2", "--q-min", "0.5", "--q-max", "0.7"] + LIGHT_FLAGS
        main(argv)
        stdout_text = capsys.readouterr().out
        path = tmp_path / "sweep.csv"
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_text() == stdout_text

    def test_default_targets(self):
        assert DEFAULT_TARGETS == ("alpha:0.58", "alpha:0.3")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="steps"):
            SweepSpec(q_min=0.1, q_max=0.9, steps=1, targets=(("a", None),))
        with pytest.raises(ValueError, match="q-max"):
            SweepSpec(q_min=0.9, q_max=0.1, steps=5, targets=(("a", None),))
        with pytest.raises(ValueError, match="target"):
            SweepSpec(q_min=0.1, q_max=0.9, steps=5, targets=())


class TestVerify:
    def run_suite(self, capsys, suite, trials, extra=()):
        code = main(
            ["verify", "--suite", suite, "--trials", str(trials), *extra]
        )
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        summary = json.loads(lines[-1])
        return code, lines, summary

    def test_telescoping(self, capsys):
        code, lines, summary = self.run_suite(capsys, "telescoping", 3)
        assert code == 0
        assert lines[0].startswith("suite telescoping (seed=0, trials=3)")
        assert any(line.startswith("[PASS]") for line in lines)
        assert summary["passed"] is True
        assert summary["details"]["max_residual"] <= 1e-9

    def test_majorization(self, capsys):
        code, lines, summary = self.run_suite(capsys, "majorization", 5)
        assert code == 0
        assert summary["passed"] is True
        assert not any(line.startswith("[FAIL]") for line in lines)

    def test_nonnegativity(self, capsys):
        code, _, summary = self.run_suite(
            capsys, "nonnegativity", 2, ("--starts", "4", "--max-evals", "400")
        )
        assert code == 0
        assert summary["passed"] is True
        assert summary["details"]["min_qgqd"] >= -1e-8

    def test_oracle_agreement(self, capsys):
        code, _, summary = self.run_suite(
            capsys, "oracle_agreement", 2, ("--starts", "8", "--max-evals", "800")
        )
        assert code == 0
        assert summary["passed"] is True
        assert summary["details"]["worst_gap"] <= 1e-5

    def test_monogamy(self, capsys):
        code, lines, summary = self.run_suite(
            capsys, "monogamy", 1, ("--starts", "8", "--max-evals", "800")
        )
        assert code == 0
        assert summary["passed"] is True
        assert any(
            "condition_holds=false inequality_holds=true" in line for line in lines
        )
        audit = summary["details"]["audit"]
        assert audit["passed"] is True
        assert audit["condition_holds"] is False
        assert audit["inequality_holds"] is True


class TestConsoleEntry:
    def test_module_execution(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "qdiscord.cli",
                "sweep",
                "--target",
                "mixed:2",
                "--steps",
                "2",
                "--q-min",
                "0.5",
                "--q-max",
                "0.7",
                "--starts",
                "1",
                "--max-evals",
                "50",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("q,mixed:2,difference\n")
