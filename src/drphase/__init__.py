"""Exact evolution and phase classification for the clipped-sum recursion
X' = (sum of a random number N of independent copies of X, minus a)+.

The package tracks the full law of X_n exactly (with audited truncation
leak), brackets the free energy Q = lim E X_n / (E N)^n between bounds that
are monotone on leak-free rows, applies the two sufficient phase criteria,
audits the inequality chain behind them numerically, and cross-checks
everything against reproducible Monte Carlo.  The package namespace holds
the names of the README's example; everything else lives in its module
(`drphase.criteria`, `drphase.dists`, `drphase.evolution`,
`drphase.montecarlo`, `drphase.scan`).
"""

from .criteria import classify
from .dists import FinitePmf, ModelSpec, OffspringLaw
from .evolution import evolve

__version__ = "0.1.0"

__all__ = ["FinitePmf", "ModelSpec", "OffspringLaw", "classify", "evolve",
           "__version__"]
