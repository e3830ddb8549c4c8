"""The rotated product basis W, a test-side reference for the lift.

Column j of W is the common eigenvector of outcome j of the product
measurement at angles (theta_0, phi_0, theta_1, phi_1, ...), qubit 0 the
high bit of j and bit value 0 for the + outcome, so the outcome projectors
are P_j = W[:, j] W[:, j]^dagger. The library measures through the lift
(1, n_0) (x) (1, n_1) (x) ... and builds no W; this one shares no code
with it.
"""

import numpy as np


def rotated_basis(angles) -> np.ndarray:
    """W for angles of shape (2m,), or one W per row for angles of shape (K, 2m).

    W is the np.kron chain of each qubit's eigenvector pair: with
    ct, st = cos, sin(theta/2), the columns of [[ct, -st], [e^(i phi) st,
    e^(i phi) ct]] are the + and - eigenvectors of n.sigma.
    """
    a = np.asarray(angles, dtype=float)
    if a.ndim > 1:
        return np.array([rotated_basis(row) for row in a])
    w = np.ones((1, 1))
    for theta, phi in a.reshape(-1, 2):
        ct, st, e = np.cos(theta / 2), np.sin(theta / 2), np.exp(1j * phi)
        w = np.kron(w, [[ct, -st], [e * st, e * ct]])
    return w
