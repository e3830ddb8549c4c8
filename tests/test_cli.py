import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord import cli, discord, monogamy
from qdiscord.analytic import pauli_diagonal_gqd, werner_ghz_gqd
from qdiscord.cli import DEFAULT_TARGETS, build_parser, main
from qdiscord.discord import OptimizerConfig, q_gqd, q_gqd_many, q_qd_one_sided
from qdiscord.linalg import DESK_SCALE_LIMIT, DensityMatrix
from qdiscord.monogamy import DecompositionLedger
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
        assert payload["diagnostics"]["start_minima"] == list(report.start_minima)
        assert payload["diagnostics"]["basin_hits"] == report.basin_hits
        assert payload["diagnostics"]["start_evals"] == list(report.start_evals)
        assert payload["diagnostics"]["start_converged"] == list(report.start_converged)

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

    def test_qgqd_of_a_state_with_admitted_hermiticity_error(self, capsys, tmp_path):
        # Each entry (r, 8 + r) is off Hermitian by 0.45e-10, under the
        # 1e-10 tolerance; the qubit-0 marginal sums all eight of them.
        m = random_density_matrix(4, 5).matrix.copy()
        for r in range(8):
            m[r, 8 + r] += 0.45e-10j
        path = tmp_path / "almost_hermitian.json"
        save_state(path, DensityMatrix(m))
        code, payload = run_json(
            capsys, ["compute", "--state", str(path), "--quantity", "qgqd", "--q", "0.5"] + LIGHT_FLAGS
        )
        assert code == 0
        assert np.isfinite(payload["value"])

    def test_mutual_info_of_a_state_with_admitted_hermiticity_error(self, capsys, tmp_path):
        # The state above: its marginal_entropies diagnostic takes each
        # qubit's marginal through partial_trace, which admits them.
        m = random_density_matrix(4, 5).matrix.copy()
        for r in range(8):
            m[r, 8 + r] += 0.45e-10j
        path = tmp_path / "almost_hermitian.json"
        save_state(path, DensityMatrix(m))
        code, payload = run_json(capsys, ["compute", "--state", str(path), "--quantity", "mutual_info", "--q", "0.5"])
        assert code == 0
        assert np.isfinite(payload["value"])

    @pytest.mark.parametrize("quantity", ["entropy", "mutual_info", "qgqd"])
    def test_eigenvalues_just_outside_unit_interval(self, capsys, tmp_path, quantity):
        path = tmp_path / "edge.json"
        save_state(path, DensityMatrix(np.diag([1.0 + 5e-10, -5e-10])))
        code, payload = run_json(
            capsys,
            ["compute", "--state", str(path), "--quantity", quantity, "--q", "0.5"]
            + LIGHT_FLAGS,
        )
        assert code == 0
        assert abs(payload["value"]) <= 1e-9
        if quantity == "entropy":
            assert payload["diagnostics"]["spectrum"] == [1.0, 0.0]

    def test_many_eigenvalues_just_below_zero(self, capsys, tmp_path):
        # Clipping 14 eigenvalues of -9e-10 up to 0 must not make the
        # spectrum diagnostic fail its sum check.
        path = tmp_path / "edge.json"
        save_state(path, DensityMatrix(np.diag([0.5 + 6.3e-9] * 2 + [-9e-10] * 14)))
        code, payload = run_json(
            capsys, ["compute", "--state", str(path), "--quantity", "entropy", "--q", "0.5"]
        )
        assert code == 0
        spectrum = payload["diagnostics"]["spectrum"]
        assert len(spectrum) == 16
        assert_allclose(sum(spectrum), 1.0, rtol=0, atol=1e-15)


class TestOptimizerFlags:
    def test_defaults_are_the_library_defaults(self):
        # Every subcommand that takes the optimizer flags defaults them to
        # OptimizerConfig's fields.
        defaults = OptimizerConfig()
        parser = build_parser()
        required = {
            "compute": ["--state", "s.json", "--quantity", "entropy", "--q", "1"],
            "verify": ["--suite", "telescoping"],
            "sweep": [],
        }
        for command, rest in required.items():
            args = parser.parse_args([command] + rest)
            assert (args.starts, args.max_evals, args.seed) == (
                defaults.starts,
                defaults.max_evals,
                defaults.seed,
            )


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

    def test_qqd_needs_two_qubits(self, capsys, tmp_path):
        # qqd measures the last qubit, so a one-qubit state leaves nothing unmeasured.
        path = tmp_path / "one.json"
        save_state(path, random_density_matrix(1, seed=3))
        code = main(["compute", "--state", str(path), "--quantity", "qqd", "--q", "0.5"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: qqd measures the last qubit and needs at least two qubits\n"
        )

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

    @pytest.mark.parametrize(
        "text",
        [
            b'{"num_qubits": 1, "matrix": [[{}, [0, 0]], [[0, 0], [1, 0]]]}',
            b'{"num_qubits": 1, "matrix": [[[1' + b"0" * 400 + b', 0], [0, 0]], [[0, 0], [0, 0]]]}',
            b'{"num_qubits": 1, "matrix": ' + b"[" * 10000 + b"]" * 10000 + b"}",
            b'{"num_qubits": 1, "matrix": "\xff"}',
            b'{"num_qubits": 1' + b"0" * 4400 + b', "matrix": []}',
            b'{"num_qubits": 20000, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
            b'{"num_qubits": 1, "matrix": [[[0.5, 0, 99], [0, 0]], [[0, 0], [0.5, 0]]]}',
            b'{"num_qubits": 1, "matrix": [[[true, false], [0, 0]], [[0, 0], [false, false]]]}',
        ],
        ids=["object-entry", "int-overflow", "deep-nesting", "not-utf8", "long-int",
             "huge-qubit-count", "three-numbers", "booleans"],
    )
    def test_malformed_state_file(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code = main(["compute", "--state", str(path), "--quantity", "entropy", "--q", "0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

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

    def test_mixed_target_beyond_desk_scale(self, capsys):
        # Every target that names a qubit count is checked before its state
        # is built; werner:40 and pauli:40 would need 2^40 x 2^40 matrices.
        too_many = DESK_SCALE_LIMIT + 1
        for target in (
            "mixed:0",
            f"mixed:{too_many}",
            "werner:0:0.5",
            f"werner:{too_many}:0.5",
            "werner:40:0.5",
            f"pauli:{too_many}:0.1:0.1:0.1",
            "pauli:40:0.1:0.1:0.1",
        ):
            kind = target.split(":")[0]
            assert main(["sweep", "--target", target]) == 4
            assert f"{kind} target qubit count must be 1..4" in capsys.readouterr().err

    def test_target_outside_state_space(self, capsys):
        assert main(["sweep", "--target", "werner:2:1.5"]) == 3
        capsys.readouterr()
        assert main(["sweep", "--target", "werner:1:0.5"]) == 3
        assert "family requires at least two qubits" in capsys.readouterr().err

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
    def test_values_match_q_gqd_many_reports(self, monkeypatch):
        # The sweep takes its cells from _values. With two jobs a block and
        # targets of two shapes, blocks finish out of job order; the CSV is
        # still the one built from q_gqd_many's reports of the same jobs.
        targets = [cli._parse_target(t) for t in ("alpha:0.58", "werner:3:0.4")]
        qs = np.linspace(0.3, 1.5, 5)
        opt = OptimizerConfig(starts=4, max_evals=400)
        monkeypatch.setattr(discord, "_MAX_ROWS", 8)
        from_values = cli._render_sweep(qs, targets, opt)
        monkeypatch.setattr(
            cli, "_values", lambda jobs, opt: [r.value for r in q_gqd_many([(rho, q) for rho, q, _, _ in jobs], opt)]
        )
        assert from_values == cli._render_sweep(qs, targets, opt)

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

    def test_pauli_target_difference_column(self, capsys):
        code = main(
            [
                "sweep",
                "--target",
                "pauli:2:0.2:0.1:0.3",
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
        assert lines[0] == "q,pauli:2:0.2:0.1:0.3,mixed:2,difference"
        for line in lines[1:]:
            q, first, second, difference = (float(x) for x in line.split(","))
            assert_allclose(first, pauli_diagonal_gqd(2, 0.2, 0.1, 0.3, q).value, atol=1e-5)
            assert_allclose(second, 0.0, atol=1e-5)
            assert_allclose(difference, first - second, atol=1e-12)

    def test_out_flag_writes_identical_file(self, capsys, tmp_path):
        argv = ["sweep", "--target", "mixed:2", "--steps", "2", "--q-min", "0.5", "--q-max", "0.7"] + LIGHT_FLAGS
        main(argv)
        stdout_text = capsys.readouterr().out
        path = tmp_path / "sweep.csv"
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_text() == stdout_text

    def test_default_targets(self):
        assert DEFAULT_TARGETS == ("alpha:0.58", "alpha:0.3")

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            # 200 starts allow 5 jobs per lockstep, so each target's 6
            # cells take two
            ["--target", "werner:3:0.4", "--target", "alpha:0.3", "--steps", "6",
             "--starts", "200", "--max-evals", "5"],
        ],
    )
    def test_csv_equals_a_per_cell_loop(self, capsys, flags):
        # The sweep solves its cells together; the CSV must be the one a
        # q_gqd call per cell gives, byte for byte.
        assert main(["sweep", *flags]) == 0
        text = capsys.readouterr().out
        args = build_parser().parse_args(["sweep", *flags])
        opt = OptimizerConfig(starts=args.starts, max_evals=args.max_evals, seed=args.seed)
        targets = [cli._parse_target(t) for t in (args.target or DEFAULT_TARGETS)]
        rows = ["q," + ",".join(name for name, _ in targets) + ",difference"]
        for q in np.linspace(args.q_min, args.q_max, args.steps):
            values = [q_gqd(state, float(q), opt).value for _, state in targets]
            cells = [float(q)] + values + [values[0] - values[1]]
            rows.append(",".join(f"{v:.12g}" for v in cells))
        assert text == "\n".join(rows) + "\n"

    def test_spec_validation(self, capsys):
        for flags, message in [
            (["--steps", "1"], "--steps must be at least 2"),
            (["--q-min", "0"], "--q-min must be a positive real number"),
            (["--q-min", "nan"], "--q-min must be a positive real number"),
            (["--q-max", "inf"], "--q-max must be finite and exceed --q-min"),
            (["--q-min", "0.9", "--q-max", "0.1"], "--q-max must be finite and exceed --q-min"),
        ]:
            assert main(["sweep", "--target", "mixed:2", *flags]) == 4
            assert capsys.readouterr().err == f"error: {message}\n"


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


    @pytest.mark.parametrize(
        "suite, attr, stub, failing",
        [
            (
                "telescoping",
                "decompose_induced_gqd",
                lambda rho, phi, q: DecompositionLedger(0.0, (), 1.0),
                "[FAIL] decomposition residual max 1.000e+00",
            ),
            (
                "majorization",
                "majorizes",
                lambda x, y: False,
                "[FAIL] all-z spectrum majorizes every measured spectrum: 0/2",
            ),
            (
                "majorization",
                "tsallis_entropy_probs",
                lambda p, q: float(np.max(p)),
                "[FAIL] entropy ordering failures: 4 (q in 0.5, 2)",
            ),
            (
                "majorization",
                "pauli_diagonal_measured_spectrum",
                lambda n, c1, c2, c3, phi: np.ones(2**n),
                "[FAIL] correlation product bound failures: 2",
            ),
        ],
    )
    def test_one_failing_check_fails_the_suite(self, capsys, monkeypatch, suite, attr, stub, failing):
        monkeypatch.setattr(cli, attr, stub)
        code, lines, summary = self.run_suite(capsys, suite, 2)
        assert code == 1
        fails = [line for line in lines if line.startswith("[FAIL]")]
        assert len(fails) == 1 and fails[0].startswith(failing)
        assert summary["passed"] is False

    def test_implication_violation_fails_the_suite(self, capsys, monkeypatch):
        # Whole 0.1, every other value 0.2: each report raises its
        # condition-without-inequality fault and the suite counts it (the
        # faked audit fails its own lines too).
        def fake_values(jobs, opt=None):
            return [0.1 if rho.num_qubits == 3 and cut is None else 0.2 for rho, _, _, cut in jobs]

        monkeypatch.setattr(monogamy, "_values", fake_values)
        code, lines, summary = self.run_suite(capsys, "monogamy", 2)
        assert code == 1
        assert "[FAIL] condition-implies-inequality violations: 2 over 2 random states" in lines
        assert summary["passed"] is False

    def test_one_faulty_trial_is_counted_alone(self, capsys, monkeypatch):
        # The audit and both trials are solved in one call; faking the first
        # trial's values (whole 0.1, the rest 0.2) faults its report alone,
        # its bounded sum 0.1 - (0.2 + 0.2) fails and is counted too, and
        # the second trial's report still counts.
        solve = monogamy._values

        def first_trial_faulty(jobs, opt=None):
            values = solve(jobs, opt)
            first = next(j for j, (_, q, _, _) in enumerate(jobs) if q == 0.5)  # the audit's q is 0.9
            values[first : first + 4] = [0.1, 0.2, 0.2, 0.2]  # whole, two pairs, the nested cut
            return values

        monkeypatch.setattr(monogamy, "_values", first_trial_faulty)
        code, lines, summary = self.run_suite(capsys, "monogamy", 2, LIGHT_FLAGS)
        assert code == 1
        assert "[FAIL] condition-implies-inequality violations: 1 over 2 random states" in lines
        assert "[FAIL] bounded-sum failures: 1 over 2 random states" in lines
        assert summary["details"]["audit"]["passed"] is True

    @pytest.mark.parametrize("trials", [1, 3, 6])
    def test_monogamy_suite_builds_one_objective_per_shape(self, capsys, monkeypatch, trials):
        # The audit and every trial share one lockstep per (qubit count,
        # measured qubits): one for the pairs, and one for the whole states
        # with the nested cut (01)|(2) and the audit's cut (0)|(12), so 2
        # objectives at any trial count up to 31.
        built = []
        make = discord._make_objective

        def counting(states, qs, measured, *args, **kwargs):
            built.append((states[0].num_qubits, measured))
            return make(states, qs, measured, *args, **kwargs)

        monkeypatch.setattr(discord, "_make_objective", counting)
        code, lines, summary = self.run_suite(capsys, "monogamy", trials)
        assert code == 0
        assert len(built) == len(set(built)) == 2


class TestLocksteps:
    # Every lockstep run by _bfgs_rows (_ARRAY_ROWS = 1) or by the _bfgs
    # generators (_ARRAY_ROWS = 10**9) prints the same bytes.
    @pytest.mark.parametrize(
        "argv",
        [["sweep"]]
        + [
            ["verify", "--suite", suite, "--trials", "2"]
            for suite in ("telescoping", "majorization", "nonnegativity", "oracle_agreement", "monogamy")
        ],
    )
    def test_output_does_not_depend_on_the_driver(self, capsys, monkeypatch, argv):
        outputs = []
        for rows in (1, 10**9):
            monkeypatch.setattr(discord, "_ARRAY_ROWS", rows)
            code = main(argv)
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    def test_monogamy_output_does_not_depend_on_the_block_size(self, capsys, monkeypatch):
        # With _MAX_ROWS = 16 each job of the default 16 starts is a block
        # of its own, so no whole state, cut or pair shares a round with
        # another; the suite prints the same bytes.
        outputs = []
        for rows in (discord._MAX_ROWS, 16):
            monkeypatch.setattr(discord, "_MAX_ROWS", rows)
            code = main(["verify", "--suite", "monogamy", "--trials", "2"])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


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

    def test_package_execution(self):
        result = subprocess.run(
            [sys.executable, "-m", "qdiscord", "sweep", "--steps", "2", "--starts", "1", "--max-evals", "20"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        names = ",".join(DEFAULT_TARGETS)
        assert result.stdout.startswith(f"q,{names},difference\n")
