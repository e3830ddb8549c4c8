"""Telescoping decomposition of induced discord and monogamy checks.

The induced multiparty discord splits exactly into nested bipartite induced
discords (an algebraic identity, checked here to 1e-9). Minimizing each
piece independently gives the bounded-sum inequality, and when the nested
optimal values dominate the pairwise ones the classic monogamy inequality
whole >= sum of pairwise follows. A known rank-2 three-qubit mixture shows
the domination condition is not automatic; its audit lives here too.
Nested pieces are induced_discord and q_gqd with cut=(first k)|(k+1 th);
the cut (0)|(1) is the (0, 1) pairwise problem, so it is solved once.
Every ledger value is a row of the objective q_gqd minimizes, as
induced_discord evaluates it, so this module builds no measured state of
its own.

Every value here comes from a list of discord's (rho, q, measured, cut)
jobs, every qubit measured, which discord._blocks plans into one
objective per block of one (qubit count, measured qubits), each row with
its own state, q and parties. A ledger is one value-only pass
(discord._evaluate) over its whole state and nested cuts, each at its
slice of the angles. monogamy_report and bros_counterexample_audit each
solve their list in one discord._values call, as _audit_and_reports
solves the audit's list and many reports' together, so the monogamy
verify suite runs one lockstep for the pairs and one for the whole
states and their cuts. Each value is the solo q_gqd's, whichever jobs
share its lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discord import OptimizerConfig, _evaluate, _values
from .entropy import _check_q
from .linalg import DensityMatrix, partial_trace
from .measurement import ProductMeasurement, _angles
from .states import bros_counterexample

__all__ = [
    "INEQUALITY_TOL",
    "DecompositionLedger",
    "MonogamyReport",
    "CounterexampleAudit",
    "decompose_induced_gqd",
    "monogamy_report",
    "bros_counterexample_audit",
]

# 10x the optimizer objective tolerance; slack for comparing two optimized values.
INEQUALITY_TOL = 1e-6

# Thresholds for the counterexample audit.
VANISH_TOL = 1e-6
NONZERO_MIN = 1e-3
WHOLE_MATCH_TOL = 1e-5


def _holds(margin: float) -> bool:
    """Whether an inequality between optimized values holds, up to INEQUALITY_TOL."""
    return margin >= -INEQUALITY_TOL


@dataclass(frozen=True)
class DecompositionLedger:
    """Exact split of an induced discord into nested bipartite pieces.

    total is the multiparty induced discord of the full state, terms[k-1]
    the bipartite induced discord of the first k+1 qubits across the cut
    (first k)|(k+1 th), and residual = total - sum(terms). The identity is
    algebraic, so residual is eigensolver noise only.
    """

    total: float
    terms: tuple
    residual: float


@dataclass(frozen=True)
class MonogamyReport:
    """Whole-state discord against pairwise and nested bipartite discords.

    Qubit 0 is the distinguished party: pairwise[k-1] is the discord of the
    (0, k) marginal and nested[k-1] the discord of the first k+1 qubits
    across the cut (first k)|(k+1 th). inequality_holds tracks
    whole >= sum(pairwise) - tol. condition_holds is the nested domination
    condition: the cut (first k)|(k+1 th) dominates the pair (0, k),
    nested[k-1] >= pairwise[k-1] - tol, for every k. It is not the
    condition CounterexampleAudit tests: on bros_counterexample() at
    q = 0.9 this one holds and the audit's fails. bounded_sum_holds tracks
    whole >= sum(nested) - tol on these same values; that inequality is a
    theorem (minimize the exact decomposition term by term), so False
    signals optimizer failure rather than physics. The raw margins are kept
    alongside the booleans.

    For exact minima the condition implies the inequality, but with tol in
    each comparison (nested[0] is pairwise[0]) the condition and the
    bounded sum give only whole >= sum(pairwise) - (n - 1) tol. So
    monogamy_report raises RuntimeError, an optimizer or implementation
    fault, only when the condition holds and the inequality and the
    bounded sum fail.
    """

    whole: float
    pairwise: tuple
    nested: tuple
    inequality_holds: bool
    condition_holds: bool
    inequality_margin: float
    condition_margins: tuple
    bounded_sum_holds: bool


@dataclass(frozen=True)
class CounterexampleAudit:
    """Audit of the rank-2 mixture (|000><000| + |1+1><1+1|)/2.

    The state separates a sufficient condition from the monogamy
    inequality itself. condition_holds here is first_vs_rest >= pair_01 -
    tol: the cut {0}|{1,2} dominates the pair (0, 1). Its discord across
    {0}|{1,2} vanishes while the (0,1) pairwise discord does not, so the
    condition fails, yet inequality_holds, whole >= pair_01 + pair_02 - tol,
    still holds (with equality). This is not MonogamyReport's nested
    condition, (first k)|(k+1 th) against the pair (0, k), which holds on
    this state at q = 0.9.
    """

    q: float
    whole: float
    first_vs_rest: float
    pair_01: float
    pair_02: float
    first_vs_rest_vanishes: bool
    pair_01_nonzero: bool
    pair_02_vanishes: bool
    whole_matches_pair_01: bool
    condition_holds: bool
    inequality_holds: bool
    passed: bool


def decompose_induced_gqd(
    rho: DensityMatrix, phi: ProductMeasurement, q: float
) -> DecompositionLedger:
    """Split the induced discord of rho under phi into nested bipartite terms.

    Every value is induced_discord's float: the total on rho, and
    terms[k-1] on the first k+1 qubits across the cut (first k)|(k+1 th),
    measured by phi's first k+1 axes. The whole state and the nested cuts
    are one value-only pass, discord._evaluate, each job at its slice of
    phi's angles: one objective and one call per qubit count, 3 at n = 4,
    where the whole state and the cut (012)|(3) share one, and, being one
    state, one Pauli transform and one marginal per party. The prefix
    states are partial traces, the only states a ledger builds (two at
    n = 4); the problem constants take each party's marginal as a plain
    array (linalg._marginal).
    """
    n = rho.num_qubits
    angles = _angles(phi, n)
    jobs = [(rho, q, None, None)] + [
        (partial_trace(rho, range(k + 1)), q, None, _first_vs_last(k)) for k in range(1, n)
    ]
    total, *terms = _evaluate(jobs, [angles[: 2 * state.num_qubits] for state, *_ in jobs])
    return DecompositionLedger(total, tuple(terms), total - sum(terms))


def _first_vs_last(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cut (first k)|(k+1 th) of the first k+1 qubits."""
    return tuple(range(k)), (k,)


def _report_jobs(rho: DensityMatrix, q: float) -> list:
    """monogamy_report's jobs: the whole state, the pairs (0, k), then the nested cuts from k = 2."""
    n = rho.num_qubits
    return (
        [(rho, q, None, None)]
        + [(partial_trace(rho, (0, k)), q, None, None) for k in range(1, n)]
        + [(partial_trace(rho, range(k + 1)), q, None, _first_vs_last(k)) for k in range(2, n)]
    )


def _report_from(n: int, values) -> MonogamyReport:
    """The MonogamyReport of an n-qubit state from the values of its _report_jobs."""
    whole, pairwise = values[0], tuple(values[1:n])
    nested = pairwise[:1] + tuple(values[n:])
    inequality_margin = whole - sum(pairwise)
    condition_margins = tuple(ns - pw for ns, pw in zip(nested, pairwise))
    return MonogamyReport(
        whole=whole,
        pairwise=pairwise,
        nested=nested,
        inequality_holds=_holds(inequality_margin),
        condition_holds=all(map(_holds, condition_margins)),
        inequality_margin=inequality_margin,
        condition_margins=condition_margins,
        bounded_sum_holds=_holds(whole - sum(nested)),
    )


def _faulty(report: MonogamyReport) -> bool:
    """Whether the condition holds while the inequality and the bounded sum fail (see MonogamyReport)."""
    return report.condition_holds and not (report.inequality_holds or report.bounded_sum_holds)


def monogamy_report(
    rho: DensityMatrix, q: float, opt: OptimizerConfig | None = None
) -> MonogamyReport:
    """Evaluate the monogamy inequality and its sufficient condition.

    Every value is a fresh independent optimization (the full-state argmin
    is never reused for marginals, which would bias nested values upward);
    nested[0], the cut (0)|(1), is the pairwise[0] problem and reuses it.
    The whole state, its n - 1 pairs and its n - 2 other nested cuts are
    one job list, solved in one _values call, each value the solo
    q_gqd's; a loop then sets each pair against its nested cut.
    A report whose condition holds while both the inequality and the
    bounded sum fail raises RuntimeError (see MonogamyReport).
    """
    report = _report_from(rho.num_qubits, _values(_report_jobs(rho, q), opt))
    if _faulty(report):
        raise RuntimeError(
            "nested domination holds but the monogamy inequality failed; "
            "this indicates an optimizer or implementation fault"
        )
    return report


def _audit_jobs(q: float) -> list:
    """bros_counterexample_audit's jobs: the whole state, the cut {0}|{1,2}, the pairs (0, 1) and (0, 2)."""
    rho = bros_counterexample()
    return [
        (rho, q, None, None),
        (rho, q, None, ((0,), (1, 2))),
        (partial_trace(rho, (0, 1)), q, None, None),
        (partial_trace(rho, (0, 2)), q, None, None),
    ]


def _audit_from(q: float, values) -> CounterexampleAudit:
    """The CounterexampleAudit at a checked q from the values of its _audit_jobs."""
    whole, first_vs_rest, pair_01, pair_02 = values
    first_vs_rest_vanishes = first_vs_rest <= VANISH_TOL
    pair_01_nonzero = pair_01 >= NONZERO_MIN
    pair_02_vanishes = pair_02 <= VANISH_TOL
    whole_matches_pair_01 = abs(whole - pair_01) <= WHOLE_MATCH_TOL
    return CounterexampleAudit(
        q=q,
        whole=whole,
        first_vs_rest=first_vs_rest,
        pair_01=pair_01,
        pair_02=pair_02,
        first_vs_rest_vanishes=first_vs_rest_vanishes,
        pair_01_nonzero=pair_01_nonzero,
        pair_02_vanishes=pair_02_vanishes,
        whole_matches_pair_01=whole_matches_pair_01,
        condition_holds=_holds(first_vs_rest - pair_01),
        inequality_holds=_holds(whole - (pair_01 + pair_02)),
        passed=(
            first_vs_rest_vanishes
            and pair_01_nonzero
            and pair_02_vanishes
            and whole_matches_pair_01
        ),
    )


def bros_counterexample_audit(
    q: float, opt: OptimizerConfig | None = None
) -> CounterexampleAudit:
    """Audit the counterexample state's discord pattern at one q.

    Checks the four facts that make it a counterexample to the domination
    condition without violating monogamy: vanishing discord across {0}|{1,2}
    and on the (0,2) marginal, nonvanishing (0,1) pairwise discord, and
    whole-state discord equal to that pairwise value. The whole state, the
    cut and both pairs are one job list, solved in one _values call, each
    value the solo q_gqd's.
    """
    q = _check_q(q)
    return _audit_from(q, _values(_audit_jobs(q), opt))


def _audit_and_reports(audit_q: float, rhos, q: float, opt: OptimizerConfig | None):
    """bros_counterexample_audit(audit_q, opt) and each rho's monogamy_report(rho, q, opt), solved together.

    The jobs of the audit and of every report go to one _values call, so
    each qubit count runs one lockstep (up to the lockstep's row bound),
    not one per report or per cut. The reports come back in rhos' order
    and none raises, so a caller counts the faulty ones with _faulty and
    still sees their bounded sums, while a solver error raises here. Every
    value is the solo call's.
    """
    audit_q = _check_q(audit_q)
    lists = [_audit_jobs(audit_q)] + [_report_jobs(rho, q) for rho in rhos]
    values = iter(_values([job for jobs in lists for job in jobs], opt))
    audit_values, *report_values = ([next(values) for _ in jobs] for jobs in lists)
    reports = [_report_from(rho.num_qubits, v) for rho, v in zip(rhos, report_values)]
    return _audit_from(audit_q, audit_values), reports
