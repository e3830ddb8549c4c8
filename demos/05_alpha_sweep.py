"""Sweep the two alpha states over q and watch the difference change sign.

At small q the alpha=0.3 state carries more global discord; past the
crossover the alpha=0.58 state takes over. Neither ordering is uniform
in q, which is the point of sweeping.
"""

import numpy as np

from qdiscord.discord import OptimizerConfig, q_gqd_many
from qdiscord.states import alpha_state

opt = OptimizerConfig(starts=8, max_evals=800)
first = alpha_state(0.58)
second = alpha_state(0.3)
qs = [float(q) for q in np.linspace(0.05, 0.95, 19)]

# All 38 (state, q) cells are solved together, each as q_gqd would solve it.
reports = q_gqd_many([(rho, q) for q in qs for rho in (first, second)], opt)

print(f"{'q':>6} {'alpha=0.58':>12} {'alpha=0.3':>12} {'difference':>12}")
for i, q in enumerate(qs):
    a, b = reports[2 * i].value, reports[2 * i + 1].value
    print(f"{q:>6.2f} {a:>12.8f} {b:>12.8f} {a - b:>+12.8f}")

print()
print("The same table comes from the command line:")
print("  qdiscord sweep --out sweep.csv")
