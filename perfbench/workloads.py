"""The benchmark's four workloads: inputs made from the seed, operations, checks.

Each workload is a closed loop of one caller in one process: the next
operation starts only after the previous one and its check have finished.
The program receives only the generated states (for cli-e2e, argument
lists). Every answer is checked, so a fast wrong answer counts as failed.

Calls into qdiscord go through module attributes (`discord.q_gqd(...)`, not
a name imported at set-up), so the tracer's wrappers see them.

Why each workload (BENCHMARK.json records the same reasons):
- light-n3: many short 3-qubit solves where per-evaluation and per-solve
  overhead dominate; the one-sided solve takes the block-eigvalsh branch.
- deep-n4: a few long 4-qubit solves checked against closed forms, where
  start choice and stopping dominate; q = 1 takes the Shannon branch.
- ledger-n4: never calls the optimizer; measurement as a one-point channel
  plus partial traces, state validation and full-state entropies.
- cli-e2e: the only workload that reaches the command layer: the default
  sweep with its thread pool, then the monogamy verify suite.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qdiscord import analytic, cli, discord, measurement, monogamy, states

NONNEG_FLOOR = -1e-8
ORACLE_GAP = 1e-5
RESIDUAL_LIMIT = 1e-9
SPECTRUM_LIMIT = 1e-10


@dataclass(frozen=True)
class Op:
    """One operation: run() is timed, check(result) -> (ok, measures) is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, dict]]


@dataclass(frozen=True)
class Workload:
    """build(seed) -> (operation list, warm-up callable)."""

    name: str
    build: Callable[[int], tuple[list[Op], Callable[[], None]]]


# ---------------------------------------------------------------------------
# light-n3: 48 random 3-qubit states, q cycling through LIGHT_Q (one q per
# state, so the states' differences average over 48 draws); each op runs one
# q_gqd and one one-sided solve at 4 starts x 400 evaluations

LIGHT_Q = (0.25, 0.5, 0.75, 1.0)
LIGHT_STATES = 48
LIGHT_OPT = discord.OptimizerConfig(starts=4, max_evals=400)
WARM_OPT = discord.OptimizerConfig(starts=1, max_evals=50)


def _light_solve(rho, q):
    g = discord.q_gqd(rho, q, LIGHT_OPT)
    s = discord.q_qd_one_sided(rho, (2,), q, LIGHT_OPT)
    return g.raw_value, s.raw_value


def _check_nonnegative(raw):
    low = min(raw)
    return low >= NONNEG_FLOOR, {"raw_min": low}


def _build_light(seed):
    rng = np.random.default_rng(seed)
    rhos = [states.random_density_matrix(3, rng) for _ in range(LIGHT_STATES)]
    ops = [
        Op("light", functools.partial(_light_solve, rho, LIGHT_Q[k % len(LIGHT_Q)]), _check_nonnegative)
        for k, rho in enumerate(rhos)
    ]

    def warm_up():
        discord.q_gqd(rhos[0], 0.5, WARM_OPT)
        discord.q_qd_one_sided(rhos[0], (2,), 0.5, WARM_OPT)

    return ops, warm_up


# ---------------------------------------------------------------------------
# deep-n4: 8 GHZ-dilution + 8 Pauli-diagonal 4-qubit states, q alternating
# between 0.5 and 1 (one solve per state, so the states' differences average
# over sixteen draws), default 16 x 2000 search

DEEP_Q = (0.5, 1.0)
DEEP_PER_FAMILY = 8


def _deep_solve(rho, q):
    return discord.q_gqd(rho, q).value


def _check_oracle(oracle, q, value):
    gap = abs(value - oracle(q))
    return gap <= ORACLE_GAP, {"gap": gap}


def _build_deep(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(DEEP_PER_FAMILY):
        mu = float(rng.uniform(0.0, 1.0))
        cases.append((states.werner_ghz(4, mu), lambda q, mu=mu: analytic.werner_ghz_gqd(4, mu, q).value))
    for _ in range(DEEP_PER_FAMILY):
        c = states.random_pauli_diagonal_coefficients(4, rng)
        cases.append((states.pauli_diagonal_state(4, *c), lambda q, c=c: analytic.pauli_diagonal_gqd(4, *c, q).value))
    ops = []
    for k, (rho, oracle) in enumerate(cases):
        q = DEEP_Q[k % len(DEEP_Q)]
        ops.append(Op("deep", functools.partial(_deep_solve, rho, q), functools.partial(_check_oracle, oracle, q)))

    def warm_up():
        discord.q_gqd(cases[0][0], 0.5, WARM_OPT)

    return ops, warm_up


# ---------------------------------------------------------------------------
# ledger-n4: 64 random 4-qubit states with random product measurements

LEDGER_Q = (0.5, 1.0)
LEDGER_CASES = 64


def _random_measurement(rng, n):
    pairs = [(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(n)]
    return measurement.ProductMeasurement.from_angles(pairs)


def _ledger_op(rho, phi, ghz, phi3):
    residuals = [monogamy.decompose_induced_gqd(rho, phi, q).residual for q in LEDGER_Q]
    return residuals, measurement.apply_full(phi3, ghz)


def _check_ledger(mu, phi3, result):
    residuals, measured = result
    residual = max(abs(r) for r in residuals)
    predicted = np.sort(analytic.werner_ghz_measured_spectrum(mu, phi3))[::-1]
    seen = np.linalg.eigvalsh(measured.matrix)[::-1]
    spectrum_err = float(np.abs(predicted - seen).max())
    ok = residual <= RESIDUAL_LIMIT and spectrum_err <= SPECTRUM_LIMIT
    return ok, {"residual": residual, "spectrum_err": spectrum_err}


def _build_ledger(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(LEDGER_CASES):
        rho = states.random_density_matrix(4, rng)
        phi = _random_measurement(rng, 4)
        phi3 = measurement.ProductMeasurement(phi.per_qubit[:3])
        mu = float(rng.uniform(0.0, 1.0))
        ghz = states.werner_ghz(3, mu)
        ops.append(
            Op(
                "ledger",
                functools.partial(_ledger_op, rho, phi, ghz, phi3),
                functools.partial(_check_ledger, mu, phi3),
            )
        )

    def warm_up():
        ops[0].run()

    return ops, warm_up


# ---------------------------------------------------------------------------
# cli-e2e: default sweep, then verify --suite monogamy, in-process

SWEEP_ARGS = ("sweep",)
SWEEP_ROWS = 19
VERIFY_TRIALS = 3


def _cli_run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _check_sweep(result):
    """Every cell within ORACLE_GAP of the alpha-state closed form; difference changes sign."""
    code, text = result
    rows = list(csv.reader(io.StringIO(text)))
    if code != 0 or len(rows) != SWEEP_ROWS + 1:
        return False, {}
    header, body = rows[0], rows[1:]
    alphas = [float(name.split(":", 1)[1]) for name in header[1:-1]]
    gap = 0.0
    for row in body:
        q = float(row[0])
        for a, cell in zip(alphas, row[1:-1]):
            closed = analytic.pauli_diagonal_gqd(2, a, -a, 2.0 * a - 1.0, q).value
            gap = max(gap, abs(float(cell) - closed))
    diffs = [float(row[-1]) for row in body]
    sign_change = min(diffs) < 0.0 < max(diffs)
    return len(alphas) == 2 and gap <= ORACLE_GAP and sign_change, {"gap": gap}


def _check_verify(result):
    code, text = result
    summary = json.loads(text.strip().splitlines()[-1])
    return code == 0 and summary.get("passed") is True, {}


def _build_cli(seed):
    verify_args = ("verify", "--suite", "monogamy", "--trials", str(VERIFY_TRIALS), "--seed", str(seed))
    ops = [
        Op("cli.sweep", functools.partial(_cli_run, SWEEP_ARGS), _check_sweep),
        Op("cli.verify", functools.partial(_cli_run, verify_args), _check_verify),
    ]

    def warm_up():
        _cli_run(("sweep", "--steps", "2", "--starts", "1", "--max-evals", "20"))

    return ops, warm_up


WORKLOADS = {
    w.name: w
    for w in (
        Workload("light-n3", _build_light),
        Workload("deep-n4", _build_deep),
        Workload("ledger-n4", _build_ledger),
        Workload("cli-e2e", _build_cli),
    )
}
