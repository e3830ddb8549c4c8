"""Tsallis-q discord toolkit for small multi-qubit states.

Entropy kernels, state families, projective product measurements, a
multi-start discord minimizer, closed-form oracles for two solvable
families, and monogamy bookkeeping, all at desk scale (up to 4 qubits).
Each library module's __all__ is the one list of its public names, and
every one of them is also a name of the package; cli and __main__ stay
out of the package namespace.
"""

from . import analytic, discord, entropy, linalg, measurement, monogamy, states
from .analytic import *
from .discord import *
from .entropy import *
from .linalg import *
from .measurement import *
from .monogamy import *
from .states import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (analytic, discord, entropy, linalg, measurement, monogamy, states)
    for name in module.__all__
]
