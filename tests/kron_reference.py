"""Kronecker-structured tables as loops, a test-side reference.

_pauli_step, _pauli_blocks, _signs and _sign_product are kept here as
they stood before measurement._kron_steps became the one loop for both
tables: the Pauli transform applies its first group first and rotates
the new index to the back, and the sign product applies its last group
first, in place. The library must give the Pauli blocks bit for bit, and
the sign product bit for bit at m <= 4, where it is one matmul with X.
_marginal_table is kept as it stood before discord._marginal_table became
a stack of Kronecker products: a loop over outcomes' bits, which the
library must match byte for byte.
"""

import functools

import numpy as np

_PAULI_PAIR = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_PAULI_PAIR.setflags(write=False)


@functools.cache
def _pauli_step(k: int) -> np.ndarray:
    """The k-th Kronecker power of _PAULI_PAIR, read-only: k qubits' pairs in one matmul."""
    step = np.ones((1, 1))
    for _ in range(k):
        step = np.kron(step, _PAULI_PAIR)
    step.setflags(write=False)
    return step


def _pauli_blocks(matrices: np.ndarray, n: int, measured) -> np.ndarray:
    """The Pauli blocks R_mu = tr_M[(sigma_mu (x) I_U) rho] of each n-qubit matrix of a stack."""
    s = len(matrices)
    m = len(measured)
    unmeasured = [i for i in range(n) if i not in measured]
    dim_u = 2 ** len(unmeasured)
    pairs = [axis for i in measured for axis in (1 + i, 1 + n + i)]
    t = np.asarray(matrices).reshape((s,) + (2,) * (2 * n))
    t = t.transpose([0] + pairs + [1 + i for i in unmeasured] + [1 + n + i for i in unmeasured])
    steps = -(-m // 3)
    for k in range(steps):
        step = _pauli_step(m // steps + (k < m % steps))
        t = (step @ t.reshape(s, len(step), -1)).swapaxes(1, 2)  # the next pairs lead, mu goes last
    return t.reshape(s, dim_u, dim_u, 4**m).transpose(0, 3, 1, 2)


_SIGN_QUBITS = 4  # most qubits of one sign table (8^4 entries): one product for every search, m <= 4


@functools.cache
def _signs(m: int) -> np.ndarray:
    """The read-only sign table X of m <= _SIGN_QUBITS measured qubits, shape (4^m, 2^m)."""
    x = np.ones((1, 1))
    for _ in range(m):
        x = np.kron(x, [[0.5, 0.5], [0.5, -0.5], [0.5, -0.5], [0.5, -0.5]])
    x.setflags(write=False)
    return x


def _sign_product(y: np.ndarray, m: int, transpose: bool) -> np.ndarray:
    """X^T y (4^m -> 2^m rows, transpose) or X y (2^m -> 4^m) for each y[k] of y (K, D, F)."""
    if m <= _SIGN_QUBITS:
        x = _signs(m)
        return (x.T if transpose else x) @ y
    k, f = len(y), y.shape[2]
    steps, done = -(-m // _SIGN_QUBITS), f
    for i in reversed(range(steps)):
        x = _signs(m // steps + (i < m % steps))
        table = x.T if transpose else x
        y = table @ y.reshape(-1, table.shape[1], done)
        done *= len(table)
    return y.reshape(k, -1, f)


def _marginal_table(measured: tuple[int, ...], parties: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """0/1 table M taking outcome probabilities to the parties' marginals, built bit by bit."""
    m = len(measured)
    outcomes = np.arange(2**m)
    table = np.zeros((2**m, sum(2 ** len(g) for g in parties)))
    start = 0
    for g in parties:
        entry = np.zeros_like(outcomes)
        for pos, i in enumerate(measured):
            if i in g:
                entry = 2 * entry + ((outcomes >> (m - 1 - pos)) & 1)
        table[outcomes, start + entry] = 1.0
        start += 2 ** len(g)
    table.setflags(write=False)
    return table
