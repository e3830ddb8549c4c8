"""The rows-last lift, a test-side reference for measurement._lift.

This builds the lift v = (1, n_0) (x) (1, n_1) (x) ... and its pullback
with the same products in the same order as measurement._lift, on arrays
that hold the rows last: factors (m, 4, K) and prefixes (4^i, K), each
transposed to rows first for the pullback's per-row matmuls. The library
holds them rows first, so the two must agree bit for bit.
"""

import numpy as np


def rows_last_lift(angles, gradient: bool = False):
    """The lifts of angles (K, 2m), shape (K, 4^m), or (v, pullback) with gradient."""
    a = np.asarray(angles, dtype=float)
    k, m = len(a), a.shape[1] // 2
    c, s = np.cos(a), np.sin(a)
    ct, cp, st, sp = c[:, 0::2], c[:, 1::2], s[:, 0::2], s[:, 1::2]
    factors = np.empty((m, 4, k))
    factors[:, 0] = 1.0
    factors[:, 1] = (st * cp).T
    factors[:, 2] = (st * sp).T
    factors[:, 3] = ct.T
    prefixes = [factors[0]]
    for i in range(1, m):
        prefixes.append((prefixes[-1][:, None, :] * factors[i, None]).reshape(-1, k))
    v = prefixes[-1].T
    if not gradient:
        return v

    def pullback(g):
        rows = np.ascontiguousarray(factors.transpose(2, 0, 1))
        df = np.empty((k, m, 4))
        for i in range(m - 1, 0, -1):
            g = g.reshape(k, -1, 4)
            prefix = rows[:, 0] if i == 1 else np.ascontiguousarray(prefixes[i - 1].T)
            df[:, i] = (prefix[:, None, :] @ g)[:, 0]
            g = (g @ rows[:, i, :, None])[:, :, 0]
        df[:, 0] = g
        grad = np.empty((k, 2 * m))
        grad[:, 0::2] = ct * (cp * df[..., 1] + sp * df[..., 2]) - st * df[..., 3]
        grad[:, 1::2] = st * (cp * df[..., 2] - sp * df[..., 1])
        return grad

    return v, pullback
