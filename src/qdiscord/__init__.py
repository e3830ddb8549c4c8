"""Tsallis-q discord toolkit for small multi-qubit states.

Entropy kernels, state families, projective product measurements, a
multi-start discord minimizer, closed-form oracles for two solvable
families, and monogamy bookkeeping, all at desk scale (up to 4 qubits).
"""

from .analytic import (
    ClosedFormResult,
    optimal_measured_entropy,
    pauli_diagonal_gqd,
    pauli_diagonal_measured_spectrum,
    werner_ghz_gqd,
    werner_ghz_measured_spectrum,
    werner_ghz_optimal_measured_spectrum,
)
from .discord import (
    DiscordReport,
    OptimizerConfig,
    induced_discord,
    mutual_information_q,
    q_gqd,
    q_qd_one_sided,
)
from .entropy import (
    majorizes,
    q_log,
    schur_concavity_witness,
    tsallis_entropy,
    tsallis_entropy_probs,
    von_neumann_entropy,
)
from .linalg import (
    DensityMatrix,
    Spectrum,
    partial_trace,
    permute_qubits,
    state_spectrum,
)
from .measurement import (
    BlochMeasurement,
    ProductMeasurement,
    apply_full,
    outcome_probabilities,
    projectors,
)
from .monogamy import (
    CounterexampleAudit,
    DecompositionLedger,
    MonogamyReport,
    bounded_sum_check,
    bros_counterexample_audit,
    decompose_induced_gqd,
    monogamy_report,
)
from .states import (
    StateFormatError,
    alpha_state,
    bros_counterexample,
    haar_random_unitary,
    load_state,
    pauli_diagonal_state,
    random_density_matrix,
    random_pauli_diagonal_coefficients,
    save_state,
    state_from_json_dict,
    state_to_json_dict,
    werner_ghz,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ClosedFormResult",
    "optimal_measured_entropy",
    "pauli_diagonal_gqd",
    "pauli_diagonal_measured_spectrum",
    "werner_ghz_gqd",
    "werner_ghz_measured_spectrum",
    "werner_ghz_optimal_measured_spectrum",
    "DiscordReport",
    "OptimizerConfig",
    "induced_discord",
    "mutual_information_q",
    "q_gqd",
    "q_qd_one_sided",
    "majorizes",
    "q_log",
    "schur_concavity_witness",
    "tsallis_entropy",
    "tsallis_entropy_probs",
    "von_neumann_entropy",
    "DensityMatrix",
    "Spectrum",
    "partial_trace",
    "permute_qubits",
    "state_spectrum",
    "BlochMeasurement",
    "ProductMeasurement",
    "apply_full",
    "outcome_probabilities",
    "projectors",
    "CounterexampleAudit",
    "DecompositionLedger",
    "MonogamyReport",
    "bounded_sum_check",
    "bros_counterexample_audit",
    "decompose_induced_gqd",
    "monogamy_report",
    "StateFormatError",
    "alpha_state",
    "bros_counterexample",
    "haar_random_unitary",
    "load_state",
    "pauli_diagonal_state",
    "random_density_matrix",
    "random_pauli_diagonal_coefficients",
    "save_state",
    "state_from_json_dict",
    "state_to_json_dict",
    "werner_ghz",
]
