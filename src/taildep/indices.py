"""Tail-dependence indices from diagonal and maximal-probability decay.

Given values of either C(u, u) (diagonal) or the per-level maximum Pi*(u)
on a decreasing grid of levels, three indices are estimated:

* kappa -- the power-law exponent of the decay, from pairwise log-log
  slopes extrapolated to u -> 0;
* lambda -- the limit of value/u, nonzero only when kappa = 1;
* chi -- the limit of 2 log u / log value - 1.

The limits are defined at u -> 0 but have to be estimated from a finite
grid.  The estimator takes pairwise slopes (exact for pure power laws) and
applies one Aitken delta-squared step to the slope sequence, which removes
a geometrically decaying correction of unknown rate -- exactly the 1 + o(1)
shape that mixtures produce.  The reported residual is the last raw slope
delta, so downstream consumers can tie their tolerances to the achieved
accuracy instead of a magic constant.

``compare`` orders two copulas by their maximal-probability decay: equal
exponents are separated by the limiting ratio Pi*(u|C1)/Pi*(u|C2) (the
strong ordering), unequal ones by the log-ratio index (the weak ordering).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from taildep.copulas import Copula
from taildep.errors import DegenerateTailError, NoAdmissiblePathError, ParameterError
from taildep.paths import PathSolution, _check_grid, solve_path

__all__ = [
    "PathKind",
    "TailIndexReport",
    "Verdict",
    "ComparisonReport",
    "default_u_grid",
    "classical_indices",
    "star_indices",
    "closed_form_kappa_star",
    "compare",
]

# lambda is reported as exactly 0 once kappa exceeds 1 by more than this
# (scaled by the achieved residual): the limit is then 0 by regular
# variation, and the raw ratio at u = 1e-6 would print misleading noise.
_LAMBDA_DEGENERACY_FLOOR = 1e-3


class PathKind(str, enum.Enum):
    DIAGONAL = "diagonal"
    MAXIMAL = "maximal"


class Verdict(str, enum.Enum):
    MORE_LTMD = "more_ltmd"
    LESS_LTMD = "less_ltmd"
    EQUALLY_LTMD = "equally_ltmd"
    MORE_WLTMD = "more_wltmd"
    LESS_WLTMD = "less_wltmd"
    EQUALLY_WLTMD = "equally_wltmd"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class TailIndexReport:
    """Index estimates plus the diagnostics behind them."""

    kappa: float
    lam: float
    chi: float
    local_slopes: tuple[float, ...]
    residual: float
    path_kind: PathKind
    lambda_degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "lambda": self.lam,
            "chi": self.chi,
            "local_slopes": list(self.local_slopes),
            "residual": self.residual,
            "path_kind": self.path_kind.value,
            "lambda_degenerate": self.lambda_degenerate,
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Pairwise tail ordering of two copulas."""

    lambda_pair: float | None
    chi_pair: float | None
    verdict: Verdict
    kappa_1: float
    kappa_2: float

    def to_json_dict(self) -> dict:
        return {
            "lambda_pair": self.lambda_pair,
            "chi_pair": self.chi_pair,
            "verdict": self.verdict.value,
            "kappa_1": self.kappa_1,
            "kappa_2": self.kappa_2,
        }


def default_u_grid(min_exponent: int = 6, max_exponent: int = 1,
                   per_decade: int = 1) -> np.ndarray:
    """Decreasing levels 10^-max_exponent down to 10^-min_exponent."""
    if max_exponent < 1 or min_exponent < max_exponent:
        raise ParameterError(
            f"need min_exponent >= max_exponent >= 1, got "
            f"({min_exponent}, {max_exponent})")
    if per_decade < 1:
        raise ParameterError(f"per_decade must be >= 1, got {per_decade}")
    n = (min_exponent - max_exponent) * per_decade + 1
    exponents = np.linspace(float(max_exponent), float(min_exponent), n)
    return 10.0 ** (-exponents)


def pairwise_log_slopes(log_u: np.ndarray, log_vals: np.ndarray) -> np.ndarray:
    """Slopes of log value against log u between consecutive grid levels."""
    return np.diff(log_vals) / np.diff(log_u)


def extrapolate_sequence(seq) -> tuple[float, float]:
    """Limit of a convergent sequence via one Aitken delta-squared step.

    Exact for s_k = s + c r^k (geometric error of unknown ratio), which is
    the leading correction both slope and ratio sequences carry here.  The
    returned residual is the last raw delta |s_n - s_(n-1)|; when the
    second difference is numerically zero (pure power law) or the
    acceleration is untrustworthy (correction larger than the last step
    should allow), the last element is returned unchanged.
    """
    s = np.asarray(seq, dtype=float)
    if s.size == 0:
        raise ParameterError("cannot extrapolate an empty sequence")
    if s.size == 1:
        return float(s[-1]), math.inf
    residual = float(abs(s[-1] - s[-2]))
    if s.size == 2:
        return float(s[-1]), residual
    d1 = s[-2] - s[-3]
    d2 = s[-1] - s[-2]
    dd = d2 - d1
    scale = max(1.0, abs(float(s[-1])))
    if abs(dd) <= 1e-13 * scale:
        return float(s[-1]), residual
    accel = float(s[-1] - d2 * d2 / dd)
    if abs(accel - s[-1]) > 10.0 * abs(d2):
        return float(s[-1]), residual
    return accel, residual


def _indices_from_logs(u: np.ndarray, log_vals: np.ndarray,
                       path_kind: PathKind) -> TailIndexReport:
    log_u = np.log(u)
    slopes = pairwise_log_slopes(log_u, log_vals)
    kappa, residual = extrapolate_sequence(slopes)

    degenerate = kappa > 1.0 + max(10.0 * residual, _LAMBDA_DEGENERACY_FLOOR)
    if degenerate:
        lam = 0.0
    else:
        lam, _ = extrapolate_sequence(np.exp(log_vals - log_u))

    chi, _ = extrapolate_sequence(2.0 * log_u / log_vals - 1.0)

    return TailIndexReport(
        kappa=float(kappa), lam=float(lam), chi=float(chi),
        local_slopes=tuple(float(v) for v in slopes),
        residual=float(residual), path_kind=path_kind,
        lambda_degenerate=bool(degenerate))


def _check_index_grid(u_grid) -> np.ndarray:
    u = np.asarray(u_grid, dtype=float)
    if u.size < 4:
        raise ParameterError(
            f"index estimation needs >= 4 grid levels, got {u.size}")
    _check_grid(u)
    return u


def classical_indices(cop: Copula, u_grid) -> TailIndexReport:
    """Diagonal-path indices from the decay of C(u, u)."""
    u = _check_index_grid(u_grid)
    log_c = np.asarray(cop.log_cdf(u, u), dtype=float)
    if np.any(np.isneginf(log_c)):
        raise DegenerateTailError(
            "C(u, u) vanished on the grid; the diagonal carries no tail mass")
    return _indices_from_logs(u, log_c, PathKind.DIAGONAL)


def star_indices(path: PathSolution) -> TailIndexReport:
    """Maximal-path indices from the decay of the per-level maximum."""
    flagged = [p for p in path.points if p.boundary_attained]
    if flagged and len(flagged) == len(path.points):
        raise NoAdmissiblePathError(
            "every level attains its maximum only on the boundary; "
            "no admissible path exists")
    if flagged:
        raise ParameterError(
            f"{len(flagged)} of {len(path.points)} levels are "
            "boundary-attained; solve on a grid without boundary flags")
    u = _check_index_grid([p.u for p in path.points])
    log_pi = np.asarray([p.log_pi_star for p in path.points], dtype=float)
    return _indices_from_logs(u, log_pi, PathKind.MAXIMAL)


def closed_form_kappa_star(cop: Copula) -> float | None:
    """Known maximal-path exponent, or None for families without one."""
    return cop.kappa_star()


def compare(spec1: Copula, spec2: Copula, u_grid=None) -> ComparisonReport:
    """Order two copulas by the decay of their per-level maxima.

    When the estimated exponents agree (within 10x the larger residual,
    floored at 1e-4, so the test tracks achieved accuracy), the strong
    ordering applies: the extrapolated ratio Pi*(u|C1)/Pi*(u|C2) above /
    below / at 1 decides the verdict.  Otherwise the weak ordering applies
    through the extrapolated log-ratio index, decided by its sign.  Both
    maximal paths come from :func:`solve_path` and its fixed tolerances.
    """
    u = _check_index_grid(default_u_grid() if u_grid is None else u_grid)
    path1 = solve_path(spec1, u)
    path2 = solve_path(spec2, u)
    rep1 = star_indices(path1)
    rep2 = star_indices(path2)

    log_pi1 = np.asarray([p.log_pi_star for p in path1.points])
    log_pi2 = np.asarray([p.log_pi_star for p in path2.points])

    kappa_tol = max(1e-4, 10.0 * max(rep1.residual, rep2.residual))
    if abs(rep1.kappa - rep2.kappa) <= kappa_tol:
        ratio, res = extrapolate_sequence(np.exp(log_pi1 - log_pi2))
        tol = max(1e-3, res)
        if ratio > 1.0 + tol:
            verdict = Verdict.MORE_LTMD
        elif ratio < 1.0 - tol:
            verdict = Verdict.LESS_LTMD
        else:
            verdict = Verdict.EQUALLY_LTMD
        return ComparisonReport(lambda_pair=float(ratio), chi_pair=None,
                                verdict=verdict,
                                kappa_1=rep1.kappa, kappa_2=rep2.kappa)

    chi_pair, res = extrapolate_sequence(log_pi2 / log_pi1 - 1.0)
    tol = max(1e-3, res)
    if chi_pair > tol:
        verdict = Verdict.MORE_WLTMD
    elif chi_pair < -tol:
        verdict = Verdict.LESS_WLTMD
    else:
        verdict = Verdict.EQUALLY_WLTMD
    return ComparisonReport(lambda_pair=None, chi_pair=float(chi_pair),
                            verdict=verdict,
                            kappa_1=rep1.kappa, kappa_2=rep2.kappa)
