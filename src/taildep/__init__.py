"""Paths and indices of maximal tail dependence in bivariate copulas.

The package answers three questions about a bivariate copula C:

* along which path does the probability of a shrinking area-u^2 rectangle
  stay largest (``taildep.paths``);
* how fast does that maximal probability decay, and how does it compare
  with the classical diagonal decay (``taildep.indices``);
* what do the corresponding tail risk measures of a coupled loss sum look
  like under heavy-tailed marginals (``taildep.risk``).

See README.md for the CLI and the acceptance suite.
"""

from taildep.copulas import (
    FGM,
    Archimedean,
    AxiomReport,
    Clayton,
    Copula,
    FrechetUpper,
    GeneralizedClayton,
    Generator,
    Independence,
    MarshallOlkin,
    MixtureMO,
    SurvivalCopula,
    archimedean_diagonal_check,
    check_axioms,
    clayton_generator,
    zeta,
    zeta_root,
)
from taildep.config import copula_from_config, copula_from_mapping, parse_config
from taildep.errors import (
    BracketError,
    ConfigError,
    DegenerateTailError,
    EvaluationOverflowError,
    GeneratorError,
    InsufficientTailError,
    NoAdmissiblePathError,
    NumericError,
    ParameterError,
    TailDepError,
    UnsupportedMethodError,
)
from taildep.indices import (
    ComparisonReport,
    PathKind,
    TailIndexReport,
    Verdict,
    classical_indices,
    closed_form_kappa_star,
    compare,
    default_u_grid,
    star_indices,
)
from taildep.paths import (
    PathPoint,
    PathSolution,
    pi_phi,
    pointwise_max,
    solve_path,
)
from taildep.risk import (
    ParetoII,
    RiskReport,
    RiskTable,
    RiskTableRow,
    reference_table,
    risk_measures,
    sample_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "Copula", "Independence", "FrechetUpper", "MarshallOlkin", "MixtureMO",
    "FGM", "GeneralizedClayton", "zeta", "zeta_root", "Clayton", "Generator",
    "Archimedean", "SurvivalCopula", "clayton_generator", "AxiomReport",
    "check_axioms",
    "parse_config", "copula_from_mapping", "copula_from_config",
    "PathPoint", "PathSolution", "pi_phi", "pointwise_max",
    "solve_path",
    "archimedean_diagonal_check",
    "PathKind", "TailIndexReport", "Verdict", "ComparisonReport",
    "default_u_grid", "classical_indices", "star_indices",
    "closed_form_kappa_star", "compare",
    "ParetoII", "RiskReport", "RiskTable", "RiskTableRow",
    "sample_pairs", "risk_measures", "reference_table",
    "TailDepError", "ParameterError", "ConfigError", "UnsupportedMethodError",
    "GeneratorError", "NumericError", "BracketError",
    "EvaluationOverflowError", "DegenerateTailError", "NoAdmissiblePathError",
    "InsufficientTailError",
]
