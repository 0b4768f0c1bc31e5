"""Exact evolution and phase classification for the clipped-sum recursion
X' = (sum of a random number N of independent copies of X, minus a)+.

The package tracks the full law of X_n exactly (with audited truncation
leak), brackets the free energy Q = lim E X_n / (E N)^n between monotone
bounds, applies the two sufficient phase criteria, audits the inequality
chain behind them numerically, and cross-checks everything against
reproducible Monte Carlo.
"""

from .criteria import (
    SUBCRITICAL,
    SUPERCRITICAL,
    UNDETERMINED,
    ContractionRow,
    GrowthRow,
    PhaseVerdict,
    classify,
    d0,
    lemma1_growth_check,
    lemma2_tail_check,
    lemma3_contraction_check,
    lemma4_association_check,
    lemma4_association_check_log,
    offspring_association_check,
)
from .dists import (
    FinitePmf,
    GeometricPmf,
    ModelSpec,
    OffspringLaw,
    convolve,
    geometric_x0_pmf,
    log_pgf_deriv,
    log_pgf_eval,
    mean,
    pgf_deriv,
    pgf_eval,
    truncate,
)
from .evolution import (
    EvolutionStopped,
    EvolutionTrace,
    LeakBudgetExceeded,
    SupportCapExceeded,
    TraceRow,
    evolve,
    q_bounds,
    step,
)
from .kernels import get_backend
from .logreal import LogReal
from .montecarlo import (
    Population,
    QEstimate,
    ancestor_counts,
    init_population,
    mc_estimate_q,
    mc_step,
    tree_sample,
)
from .scan import (
    BoundaryReport,
    CriterionUnavailable,
    Family,
    GeometricX0Family,
    NoSignChange,
    TwoPointFamily,
    bisect_boundary,
    boundary_report,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "SUBCRITICAL", "SUPERCRITICAL", "UNDETERMINED",
    "ContractionRow", "GrowthRow", "PhaseVerdict",
    "classify", "d0",
    "lemma1_growth_check", "lemma2_tail_check", "lemma3_contraction_check",
    "lemma4_association_check", "lemma4_association_check_log",
    "offspring_association_check",
    "FinitePmf", "GeometricPmf", "ModelSpec", "OffspringLaw",
    "convolve", "truncate", "mean",
    "pgf_eval", "pgf_deriv", "log_pgf_eval", "log_pgf_deriv",
    "EvolutionTrace", "TraceRow",
    "EvolutionStopped", "LeakBudgetExceeded", "SupportCapExceeded",
    "step", "evolve", "q_bounds",
    "get_backend",
    "LogReal",
    "Population", "QEstimate",
    "init_population", "mc_step", "mc_estimate_q",
    "ancestor_counts", "tree_sample",
    "BoundaryReport", "Family", "TwoPointFamily", "GeometricX0Family",
    "NoSignChange", "CriterionUnavailable",
    "scan", "bisect_boundary", "boundary_report", "geometric_x0_pmf",
    "__version__",
]
