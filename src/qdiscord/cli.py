"""Command-line surface: compute, verify, sweep.

compute evaluates one quantity for a state file and prints a JSON object;
verify runs a named property suite with human-readable lines plus a JSON
summary; sweep writes a CSV of discord values over a q grid. Exit codes:
0 ok, 1 verify suite failed, 2 bad input (files, unknown names), 3 state
invariant violated, 4 bad numeric parameter.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analytic import (
    pauli_diagonal_gqd,
    pauli_diagonal_measured_spectrum,
    werner_ghz_gqd,
    werner_ghz_measured_spectrum,
    werner_ghz_optimal_measured_spectrum,
)
from .discord import (
    CLAMP_SLACK,
    OptimizerConfig,
    _minimize_many,
    _values,
    mutual_information_q,
    q_gqd,
    q_gqd_many,
    q_qd_one_sided,
)
from .entropy import (
    _check_q,
    majorizes,
    schur_concavity_witness,
    tsallis_entropy,
    tsallis_entropy_probs,
)
from .linalg import DESK_SCALE_LIMIT, DensityMatrix, partial_trace, state_spectrum
from .measurement import ProductMeasurement, apply_full
from .monogamy import _audit_and_reports, _faulty, decompose_induced_gqd
from .states import (
    StateFormatError,
    alpha_state,
    load_state,
    pauli_diagonal_state,
    random_density_matrix,
    random_pauli_diagonal_coefficients,
    werner_ghz,
)

__all__ = ["main", "cmd_compute", "cmd_verify", "cmd_sweep"]

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_INPUT = 2
EXIT_STATE = 3
EXIT_PARAMETER = 4

DEFAULT_TARGETS = ("alpha:0.58", "alpha:0.3")


class ParameterError(ValueError):
    """A numeric flag violates its domain (exit code 4)."""


def _positive_q(q: float, flag: str = "--q") -> float:
    try:
        return _check_q(q)
    except ValueError:
        raise ParameterError(f"{flag} must be a positive real number") from None


def _optimizer_from(args) -> OptimizerConfig:
    try:
        return OptimizerConfig(
            starts=args.starts,
            max_evals=args.max_evals,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def _report_diagnostics(report) -> dict:
    return {
        "measured_qubits": [int(k) for k in report.measured_qubits],
        "optimal_axes": [
            [float(c) for c in m.axis] for m in report.optimal_measurement
        ],
        "starts_used": int(report.starts_used),
        "converged": bool(report.converged),
        "objective_evals": int(report.objective_evals),
        "raw_value": float(report.raw_value),
        "nonnegativity_guaranteed": bool(report.nonnegativity_guaranteed),
        "start_minima": [float(f) for f in report.start_minima],
        "basin_hits": int(report.basin_hits),
        "start_evals": list(report.start_evals),
        "start_converged": list(report.start_converged),
    }


def cmd_compute(args) -> int:
    q = _positive_q(args.q)
    opt = _optimizer_from(args)
    rho = load_state(args.state)
    if args.quantity == "entropy":
        value = tsallis_entropy(rho, q)
        diagnostics = {
            "num_qubits": rho.num_qubits,
            "spectrum": [float(p) for p in state_spectrum(rho).probs],
        }
    elif args.quantity == "mutual_info":
        value = mutual_information_q(rho, q)
        diagnostics = {
            "num_qubits": rho.num_qubits,
            "state_entropy": float(tsallis_entropy(rho, q)),
            "marginal_entropies": [
                float(tsallis_entropy(partial_trace(rho, (k,)), q))
                for k in range(rho.num_qubits)
            ],
        }
    else:
        if args.quantity == "qgqd":
            report = q_gqd(rho, q, opt)
        elif rho.num_qubits < 2:
            raise ValueError("qqd measures the last qubit and needs at least two qubits")
        else:
            report = q_qd_one_sided(rho, (rho.num_qubits - 1,), q, opt)
        value, diagnostics = report.value, _report_diagnostics(report)
    print(
        json.dumps(
            {
                "quantity": args.quantity,
                "q": q,
                "value": float(value),
                "diagnostics": diagnostics,
            }
        )
    )
    return EXIT_OK


def _random_axis_pairs(rng, n):
    return [
        (math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(n)
    ]


def _suite_nonnegativity(seed, trials, opt):
    rng = np.random.default_rng(seed)
    q_grid = (0.25, 0.5, 0.75, 1.0)
    floor = -CLAMP_SLACK
    rhos = [random_density_matrix(3 if i % 3 == 2 else 2, rng) for i in range(trials)]
    # Every global job, then every one-sided job measuring the last qubit, in one call.
    jobs = [(rho, q, None, None) for rho in rhos for q in q_grid]
    jobs += [(rho, q, (rho.num_qubits - 1,), None) for rho in rhos for q in q_grid]
    raw = [r.raw_value for r in _minimize_many(jobs, opt)]
    global_raw, one_sided_raw = raw[: len(raw) // 2], raw[len(raw) // 2 :]
    min_gqd = min(global_raw)
    min_one_sided = min(one_sided_raw)
    failures = sum(v < floor for v in global_raw + one_sided_raw)
    checks = [
        (
            min_gqd >= floor,
            f"q_gqd raw minimum {min_gqd:.3e} over {trials} states x {len(q_grid)} q values (floor {floor:g})",
        ),
        (min_one_sided >= floor, f"one-sided q-QD raw minimum {min_one_sided:.3e} (floor {floor:g})"),
    ]
    details = {
        "min_qgqd": float(min_gqd),
        "min_one_sided": float(min_one_sided),
        "failures": failures,
    }
    return checks, details


def _suite_telescoping(seed, trials, opt):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rho = random_density_matrix(3, rng)
        phi = ProductMeasurement.from_angles(_random_axis_pairs(rng, 3))
        for q in (0.5, 1.0):
            ledger = decompose_induced_gqd(rho, phi, q)
            worst = max(worst, abs(ledger.residual))
    checks = [
        (
            worst <= 1e-9,
            f"decomposition residual max {worst:.3e} over {trials} (state, measurement) pairs (limit 1e-09)",
        )
    ]
    return checks, {"max_residual": float(worst)}


def _suite_monogamy(seed, trials, opt):
    # Every trial state is drawn first, so the audit and all trials are solved in one call.
    rng = np.random.default_rng(seed)
    rhos = [random_density_matrix(3, rng) for _ in range(trials)]
    audit, reports = _audit_and_reports(0.9, rhos, 0.5, opt)
    checks = [
        (
            audit.passed,
            f"counterexample audit at q=0.9: first_vs_rest={audit.first_vs_rest:.2e}"
            f" pair_01={audit.pair_01:.6f} pair_02={audit.pair_02:.2e}"
            f" whole={audit.whole:.6f}",
        ),
        (
            not audit.condition_holds and audit.inequality_holds,
            f"condition_holds={str(audit.condition_holds).lower()}"
            f" inequality_holds={str(audit.inequality_holds).lower()}",
        ),
    ]
    implication_violations = sum(map(_faulty, reports))
    bounded_failures = sum(not report.bounded_sum_holds for report in reports)
    checks += [
        (
            implication_violations == 0,
            f"condition-implies-inequality violations: {implication_violations} over {trials} random states",
        ),
        (bounded_failures == 0, f"bounded-sum failures: {bounded_failures} over {trials} random states"),
    ]
    details = {
        "audit": {
            "q": audit.q,
            "whole": audit.whole,
            "first_vs_rest": audit.first_vs_rest,
            "pair_01": audit.pair_01,
            "pair_02": audit.pair_02,
            "condition_holds": audit.condition_holds,
            "inequality_holds": audit.inequality_holds,
            "passed": audit.passed,
        },
        "implication_violations": implication_violations,
        "bounded_sum_failures": bounded_failures,
    }
    return checks, details


def _suite_oracle_agreement(seed, trials, opt):
    rng = np.random.default_rng(seed)
    closed, jobs = [], []
    for i in range(trials):
        q = (0.3, 0.5, 0.8, 0.99)[i % 4]
        n = 2 + (i // 2) % 2
        if i % 2 == 0:
            mu = rng.uniform()
            closed.append(werner_ghz_gqd(n, mu, q).value)
            jobs.append((werner_ghz(n, mu), q))
        else:
            c1, c2, c3 = random_pauli_diagonal_coefficients(n, rng)
            closed.append(pauli_diagonal_gqd(n, c1, c2, c3, q).value)
            jobs.append((pauli_diagonal_state(n, c1, c2, c3), q))
    worst = 0.0
    for value, report in zip(closed, q_gqd_many(jobs, opt)):
        worst = max(worst, abs(value - report.value))
    checks = [
        (worst <= 1e-5, f"closed form vs optimizer worst gap {worst:.3e} over {trials} states (limit 1e-05)")
    ]
    return checks, {"worst_gap": float(worst)}


def _suite_majorization(seed, trials, opt):
    rng = np.random.default_rng(seed)
    optimal = werner_ghz_optimal_measured_spectrum(3, 0.5)
    base = werner_ghz(3, 0.5)
    worst_spec = 0.0
    maj_failures = 0
    order_failures = 0
    bound_failures = 0
    for _ in range(trials):
        phi = ProductMeasurement.from_angles(_random_axis_pairs(rng, 3))
        predicted = werner_ghz_measured_spectrum(0.5, phi)
        seen = state_spectrum(apply_full(phi, base)).probs
        worst_spec = max(
            worst_spec, float(np.abs(np.sort(predicted)[::-1] - seen).max())
        )
        if not majorizes(predicted, optimal):
            maj_failures += 1
        for q in (0.5, 2.0):
            if tsallis_entropy_probs(seen, q) < tsallis_entropy_probs(optimal, q) - 1e-9:
                order_failures += 1
        c1, c2, c3 = random_pauli_diagonal_coefficients(3, rng)
        axes = ProductMeasurement.from_angles(_random_axis_pairs(rng, 3))
        # the spectrum's first entry is (1 + t)/8, t the correlation product
        t = 8.0 * pauli_diagonal_measured_spectrum(3, c1, c2, c3, axes)[0] - 1.0
        if abs(t) > max(abs(c1), abs(c2), abs(c3)) + 1e-12:
            bound_failures += 1
    schur_ok = all(schur_concavity_witness(q, trials, seed) for q in (0.5, 2.0))
    checks = [
        (worst_spec <= 1e-10, f"measured-spectrum formula max error {worst_spec:.3e} (limit 1e-10)"),
        (
            maj_failures == 0,
            f"all-z spectrum majorizes every measured spectrum: {trials - maj_failures}/{trials}",
        ),
        (order_failures == 0, f"entropy ordering failures: {order_failures} (q in 0.5, 2)"),
        (bound_failures == 0, f"correlation product bound failures: {bound_failures}"),
        (schur_ok, "doubly stochastic mixing never lowers H_q (q in 0.5, 2)"),
    ]
    details = {
        "worst_spectrum_error": worst_spec,
        "majorization_failures": maj_failures,
        "ordering_failures": order_failures,
        "bound_failures": bound_failures,
        "schur_ok": schur_ok,
    }
    return checks, details


# Each suite returns (checks, details): checks is a list of (ok, text) pairs,
# one per printed line; cmd_verify derives the verdict from them alone.
SUITES = {
    "nonnegativity": _suite_nonnegativity,
    "telescoping": _suite_telescoping,
    "monogamy": _suite_monogamy,
    "oracle_agreement": _suite_oracle_agreement,
    "majorization": _suite_majorization,
}


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ParameterError("--trials must be at least 1")
    opt = _optimizer_from(args)
    suite = SUITES[args.suite]
    print(f"suite {args.suite} (seed={args.seed}, trials={args.trials})")
    checks, details = suite(args.seed, args.trials, opt)
    for ok, text in checks:
        print(f"{'[PASS]' if ok else '[FAIL]'} {text}")
    passed = all(ok for ok, _ in checks)
    print(
        json.dumps(
            {
                "suite": args.suite,
                "seed": args.seed,
                "trials": args.trials,
                "passed": passed,
                "details": details,
            }
        )
    )
    return EXIT_OK if passed else EXIT_SUITE_FAILED


def _target_number(text: str, field: str, convert):
    """One numeric target field; a field that does not parse is a flag mistake."""
    try:
        return convert(field)
    except ValueError:
        raise ParameterError(
            f"malformed target {text!r}: {field!r} is not a valid {convert.__name__}"
        ) from None


def _target_qubits(text: str, kind: str, field: str) -> int:
    """A target's qubit count, checked against the desk scale before any state is built."""
    n = _target_number(text, field, int)
    if not 1 <= n <= DESK_SCALE_LIMIT:
        raise ParameterError(f"{kind} target qubit count must be 1..{DESK_SCALE_LIMIT}")
    return n


def _parse_target(text: str):
    kind, _, rest = text.partition(":")
    fields = rest.split(":") if rest else []
    if kind == "alpha" and len(fields) == 1:
        return text, alpha_state(_target_number(text, fields[0], float))
    if kind == "werner" and len(fields) == 2:
        n = _target_qubits(text, kind, fields[0])
        return text, werner_ghz(n, _target_number(text, fields[1], float))
    if kind == "pauli" and len(fields) == 4:
        n = _target_qubits(text, kind, fields[0])
        c1, c2, c3 = (_target_number(text, f, float) for f in fields[1:])
        return text, pauli_diagonal_state(n, c1, c2, c3)
    if kind == "mixed" and len(fields) == 1:
        n = _target_qubits(text, kind, fields[0])
        return text, DensityMatrix(np.eye(2**n) / 2**n)
    if kind == "file" and len(fields) >= 1:
        return text.replace(",", ";"), load_state(rest)
    raise ParameterError(
        f"unknown target {text!r}; expected alpha:A, werner:N:MU, "
        "pauli:N:C1:C2:C3, mixed:N, or file:PATH"
    )


def cmd_sweep(args) -> int:
    opt = _optimizer_from(args)
    targets = [_parse_target(t) for t in (args.target or DEFAULT_TARGETS)]
    q_min = _positive_q(args.q_min, "--q-min")
    if not math.isfinite(args.q_max) or args.q_max <= q_min:
        raise ParameterError("--q-max must be finite and exceed --q-min")
    if args.steps < 2:
        raise ParameterError("--steps must be at least 2")
    text = _render_sweep(np.linspace(q_min, args.q_max, args.steps), targets, opt)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def _render_sweep(qs, targets, opt: OptimizerConfig) -> str:
    header = "q," + ",".join(name for name, _ in targets) + ",difference"
    rows = [header]
    qs = [float(q) for q in qs]
    values = _values([(state, q, None, None) for q in qs for _, state in targets], opt)
    for i, q in enumerate(qs):
        row_values = values[i * len(targets) : (i + 1) * len(targets)]
        difference = row_values[0] - row_values[1] if len(row_values) >= 2 else 0.0
        rows.append(
            ",".join([_fmt(q)] + [_fmt(v) for v in row_values] + [_fmt(difference)])
        )
    return "\n".join(rows) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _add_optimizer_flags(sub):
    defaults = OptimizerConfig()
    sub.add_argument("--starts", type=int, default=defaults.starts, help="optimizer restarts")
    sub.add_argument(
        "--max-evals",
        type=int,
        default=defaults.max_evals,
        help="value-and-gradient evaluations per start",
    )
    sub.add_argument("--seed", type=int, default=defaults.seed, help="seed for restarts and suites")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiscord",
        description="Tsallis-q discord calculator: compute, verify, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate one quantity for a state file")
    compute.add_argument("--state", required=True, help="state file (JSON)")
    compute.add_argument(
        "--quantity",
        required=True,
        choices=("entropy", "mutual_info", "qqd", "qgqd"),
        help="what to compute (qqd measures the last qubit)",
    )
    compute.add_argument("--q", type=float, required=True, help="entropy parameter")
    _add_optimizer_flags(compute)
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument(
        "--suite", required=True, choices=tuple(SUITES), help="suite name"
    )
    verify.add_argument("--trials", type=int, default=20, help="ensemble size")
    _add_optimizer_flags(verify)
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="write discord values over a q grid as CSV")
    sweep.add_argument("--q-min", type=float, default=0.05)
    sweep.add_argument("--q-max", type=float, default=0.95)
    sweep.add_argument("--steps", type=int, default=19)
    sweep.add_argument(
        "--target",
        action="append",
        help="state to sweep: alpha:A, werner:N:MU, pauli:N:C1:C2:C3, "
        "mixed:N, file:PATH (repeatable; default: the two alpha states)",
    )
    sweep.add_argument("--out", help="output CSV path (stdout when omitted)")
    _add_optimizer_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (StateFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE


if __name__ == "__main__":
    sys.exit(main())
