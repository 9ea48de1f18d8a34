"""Per-level maximization of C(x, u^2/x) over the admissible range [u^2, 1].

For a level u, sliding a rectangle of fixed area u^2 along the hyperbola
(x, u^2/x) sweeps every admissible tail path through level u.  The solver
finds every global maximizer of x -> C(x, u^2/x):

* scan a log-spaced grid over [u^2, 1] (tail maximizers such as
  u^(2b/(a+b)) cluster near 0, so uniform-in-x grids would miss them);
* bracket each local maximum and refine the brackets of all levels at once
  by golden-section in log x, each bracket with its own stop rule;
* report *all* refined maxima within a relative tie window of the best --
  symmetric mixtures genuinely carry two global maximizers and a
  single-optimum solver would silently drop one.

Maxima attained only at x = u^2 or x = 1 are flagged
(``boundary_attained``) rather than treated as paths: the corresponding
rectangle does not shrink to the corner, so it carries no tail meaning.
A scan that is flat to within the tie window (independence-like) sets
``all_paths_maximal``.

The module also carries the closed-form machinery that exists for specific
families: the known maximizer formulas (``closed_form_path``), the
root-characterization of the generalized Clayton maximizer (``zeta``,
``zeta_root``) and the diagonal criterion for strict Archimedean copulas
(``archimedean_diagonal_check``).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from taildep.copulas import (
    FGM,
    Archimedean,
    Copula,
    FrechetUpper,
    Generator,
    GeneralizedClayton,
    Independence,
    MarshallOlkin,
    MixtureMO,
)
from taildep.errors import (
    BracketError,
    EvaluationOverflowError,
    GeneratorError,
    NumericError,
    ParameterError,
)
from taildep.serialize import format_float

__all__ = [
    "SolverOptions",
    "PathPoint",
    "PathSolution",
    "pi_phi",
    "pointwise_max",
    "solve_path",
    "zeta",
    "zeta_root",
    "DiagonalCheck",
    "archimedean_diagonal_check",
    "closed_form_path",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the per-level scan-and-refine maximizer search.

    scan_n:   points of the initial log-spaced scan grid.
    xtol:     relative width to which each bracket is refined (golden
              section runs in log x, where this is the absolute width).
    tie_tol:  relative value window within which refined maxima count as
              co-maximizers of the best one.
    max_iter: golden-section steps allowed per bracket; a bracket still
              wider than xtol after them raises NumericError.
    """

    scan_n: int = 4096
    xtol: float = 1e-12
    tie_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        if self.scan_n < 16:
            raise ParameterError(f"scan_n must be >= 16, got {self.scan_n}")
        if not (0.0 < self.xtol < 1.0):
            raise ParameterError(f"xtol must be in (0, 1), got {self.xtol}")
        if not (0.0 < self.tie_tol < 1.0):
            raise ParameterError(f"tie_tol must be in (0, 1), got {self.tie_tol}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class PathPoint:
    """Maximizer set and maximal probability at one level u."""

    u: float
    maximizers: tuple[float, ...]
    pi_star: float
    log_pi_star: float
    boundary_attained: bool
    all_paths_maximal: bool


@dataclass(frozen=True)
class PathSolution:
    """Maximal-dependence record over a decreasing grid of levels."""

    u_grid: tuple[float, ...]
    points: tuple[PathPoint, ...]
    options: SolverOptions = field(default_factory=SolverOptions)

    def to_csv(self) -> str:
        """CSV with variable-width maximizer columns, padded empty."""
        width = max(len(p.maximizers) for p in self.points)
        header = ["u"]
        header += [f"x_star_{k + 1}" for k in range(width)]
        header += ["pi_star", "boundary_attained", "all_paths_maximal"]
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for p in self.points:
            cells = [format_float(p.u)]
            cells += [format_float(x) for x in p.maximizers]
            cells += [""] * (width - len(p.maximizers))
            cells += [format_float(p.pi_star),
                      "true" if p.boundary_attained else "false",
                      "true" if p.all_paths_maximal else "false"]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def _check_level(u: float) -> float:
    if not (np.isfinite(u) and 0.0 < u < 1.0):
        raise ParameterError(f"level u must lie in (0, 1), got {u!r}")
    return float(u)


def pi_phi(cop: Copula, u: float, x) -> float | np.ndarray:
    """Probability C(x, u^2/x) of the area-u^2 rectangle anchored at x.

    x must lie in the admissible range [u^2, 1].  Subtracting u^2 turns this
    into the distance from the independence copula along the same path.
    """
    u = _check_level(u)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < u * u) or np.any(xa > 1.0):
        raise ParameterError(
            f"x must lie in [u^2, 1] = [{u * u!r}, 1], got {x!r}")
    out = cop.cdf(xa, u * u / xa)
    return float(out) if np.ndim(x) == 0 else out


def _log_pi(cop: Copula, log_u: float | np.ndarray,
            t: np.ndarray) -> np.ndarray:
    """log C(e^t, u^2 e^-t) for log-abscissas t in [2 log u, 0]."""
    x = np.exp(t)
    v = np.exp(2.0 * log_u - t)
    # roundoff can push the hyperbola coordinate a hair past 1
    return cop._log_cdf(np.minimum(x, 1.0), np.minimum(v, 1.0))


def _scan(cop: Copula, u: float, opts: SolverOptions
          ) -> tuple[np.ndarray, np.ndarray, Callable[..., PathPoint]]:
    """Scan level u on a log-spaced grid.

    Returns the brackets [lo, hi] in log x around the scan's interior local
    maxima, and a function that turns their refined (t, log pi) into the
    level's PathPoint.  Only scalars outlive the scan itself.
    """
    t_lo, t_hi = 2.0 * math.log(u), 0.0
    ts = np.linspace(t_lo, t_hi, opts.scan_n)
    # the diagonal x = u is always admissible; pin it into the scan so the
    # reported maximum can never fall below C(u, u)
    ts = np.sort(np.append(ts, math.log(u)))
    fs = _log_pi(cop, math.log(u), ts)

    # tie window in log space: |log(1 - tie_tol)| ~ tie_tol
    tie_log = -math.log1p(-opts.tie_tol)

    if float(np.max(fs) - np.min(fs)) <= tie_log:
        # independence-like plateau: every admissible x is a maximizer
        log_pi = float(np.max(fs))
        plateau = PathPoint(u=u, maximizers=(u,), pi_star=math.exp(log_pi),
                            log_pi_star=log_pi, boundary_attained=False,
                            all_paths_maximal=True)
        return np.empty(0), np.empty(0), lambda t_ref, f_ref: plateau

    # interior local maxima of the scan, collapsing flat runs to one bracket
    interior = np.flatnonzero((fs[1:-1] >= fs[:-2]) & (fs[1:-1] >= fs[2:])) + 1
    run_start = np.diff(interior, prepend=-2) != 1
    f_lo, f_hi = float(fs[0]), float(fs[-1])

    def finish(t_ref: list[float], f_ref: list[float]) -> PathPoint:
        candidates = [(t_lo, f_lo), (t_hi, f_hi), *zip(t_ref, f_ref)]
        interior_best = max([-math.inf, *f_ref])
        best = max(f for _, f in candidates)
        kept = sorted((t, f) for t, f in candidates if best - f <= tie_log)

        # merge candidates closer than the refinement resolution
        edge = max(10.0 * opts.xtol, 1e-11)
        merged: list[tuple[float, float]] = []
        for t, f in kept:
            if merged and t - merged[-1][0] <= edge:
                if f > merged[-1][1]:
                    merged[-1] = (t, f)
                continue
            merged.append((t, f))

        on_boundary = [t <= t_lo + edge or t >= t_hi - edge for t, _ in merged]
        boundary_attained = all(on_boundary) and interior_best < best - tie_log

        maximizers = tuple(min(math.exp(t), 1.0) for t, _ in merged)
        return PathPoint(u=u, maximizers=maximizers, pi_star=math.exp(best),
                         log_pi_star=best, boundary_attained=boundary_attained,
                         all_paths_maximal=False)

    return (ts[interior[run_start] - 1],
            ts[interior[np.roll(run_start, -1)] + 1], finish)


def _refine(cop: Copula, log_u: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            opts: SolverOptions) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization of every bracket [lo, hi] at once.

    Each bracket takes the scalar golden-section steps until its width is at
    most xtol, then leaves the batch, so its iterates do not depend on the
    other brackets.  Returns the best evaluated (t, log pi) of each.
    """
    n = lo.size
    if n == 0:
        return lo, hi
    t_out, f_out = np.empty(n), np.empty(n)
    a, b, lu, pos = lo, hi, log_u, np.arange(n)
    w = b - a
    x1, x2 = b - _INVPHI * w, a + _INVPHI * w
    f1, f2 = np.split(_log_pi(cop, np.tile(lu, 2), np.concatenate((x1, x2))), 2)
    for step in range(opts.max_iter + 1):
        done = w <= opts.xtol
        if done.any():
            first = f1[done] >= f2[done]
            t_out[pos[done]] = np.where(first, x1[done], x2[done])
            f_out[pos[done]] = np.where(first, f1[done], f2[done])
            a, b, w, x1, x2, f1, f2, lu, pos = (
                arr[~done] for arr in (a, b, w, x1, x2, f1, f2, lu, pos))
        if pos.size == 0:
            return t_out, f_out
        if step == opts.max_iter:
            raise NumericError(
                f"golden-section refinement at u={math.exp(lu[0]):.6g} left a "
                f"bracket of width {w[0]:.3g} > xtol={opts.xtol!r} after "
                f"max_iter={opts.max_iter} steps")
        up = f1 < f2
        a, b = np.where(up, x1, a), np.where(up, b, x2)
        w = b - a
        t_new = np.where(up, a + _INVPHI * w, b - _INVPHI * w)
        f_new = _log_pi(cop, lu, t_new)
        x1, x2 = np.where(up, x2, t_new), np.where(up, t_new, x1)
        f1, f2 = np.where(up, f2, f_new), np.where(up, f_new, f1)


def pointwise_max(cop: Copula, u: float,
                  opts: SolverOptions = SolverOptions()) -> PathPoint:
    """All global maximizers of x -> C(x, u^2/x) on [u^2, 1] at level u."""
    return solve_path(cop, [_check_level(u)], opts).points[0]


def _check_grid(u_grid) -> tuple[float, ...]:
    """A nonempty, strictly decreasing grid of levels in (0, 1)."""
    levels = np.asarray(u_grid, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ParameterError(
            f"u_grid must be a nonempty 1-d sequence, got shape {levels.shape}")
    inside = (levels > 0.0) & (levels < 1.0)  # False for nan
    if not inside.all():
        _check_level(float(levels[~inside][0]))
    if np.any(np.diff(levels) >= 0.0):
        raise ParameterError("u_grid must be strictly decreasing")
    return tuple(levels.tolist())


def solve_path(cop: Copula, u_grid,
               opts: SolverOptions = SolverOptions()) -> PathSolution:
    """Maximal-dependence record over a strictly decreasing grid of levels.

    Levels are scanned one at a time; the brackets of all of them are then
    refined in one batched golden-section solve, so ``points[k]`` equals
    ``pointwise_max(cop, u_grid[k])`` exactly.
    """
    grid = _check_grid(u_grid)
    # the golden-section width in t = log x can shrink no further than a few
    # ulps of |t|, which is largest at t = 2 log(min u)
    xtol_floor = 2.0 * float(np.spacing(-2.0 * math.log(grid[-1])))
    if opts.xtol < xtol_floor:
        raise ParameterError(
            f"xtol={opts.xtol!r} is below {xtol_floor!r}, two ulps of "
            f"|2 log u| at u={grid[-1]!r}; the refinement cannot reach it")
    levels = [_scan(cop, u, opts) for u in grid]
    sizes = [lo.size for lo, _, _ in levels]
    t_ref, f_ref = _refine(cop, np.repeat([math.log(u) for u in grid], sizes),
                           np.concatenate([lo for lo, _, _ in levels]),
                           np.concatenate([hi for _, hi, _ in levels]), opts)
    cut = np.cumsum(sizes)[:-1]
    points = tuple(finish(t.tolist(), f.tolist()) for (_, _, finish), t, f
                   in zip(levels, np.split(t_ref, cut), np.split(f_ref, cut)))
    return PathSolution(u_grid=grid, points=points, options=opts)


# ---------------------------------------------------------------------------
# generalized Clayton: root characterization of the maximizer
# ---------------------------------------------------------------------------

def _zeta_params(gamma0: float, gamma1: float, u: float) -> tuple[float, float]:
    if not (np.isfinite(gamma0) and gamma0 > 0.0):
        raise ParameterError(f"gamma0 must be positive, got {gamma0!r}")
    if not (np.isfinite(gamma1) and gamma1 >= 0.0):
        raise ParameterError(f"gamma1 must be nonnegative, got {gamma1!r}")
    _check_level(u)
    return gamma0 + gamma1, float(u)


def _zeta_logs(gamma0: float, gamma1: float, u: float, x) -> tuple[np.ndarray, float]:
    """Logs of the two positive parts of the maximizer equation.

    The equation for the interior maximizer of the generalized Clayton level
    function reads  x^(-1/g0) (x^(-1/gt) - g1/gt) = (g0/gt) u^(-2/g0); both
    sides are positive on [u^2, 1], so their logs subtract stably where the
    raw values would overflow (u^(-2/g0) blows past double range for small
    g0 and u).
    """
    gt, u = _zeta_params(gamma0, gamma1, u)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < u * u * (1.0 - 1e-12)) or np.any(xa > 1.0 + 1e-12):
        raise ParameterError(f"x must lie in [u^2, 1], got {x!r}")
    lx = np.log(np.clip(xa, u * u, 1.0))
    lhs = -(1.0 / gamma0 + 1.0 / gt) * lx + np.log1p(
        -(gamma1 / gt) * np.exp(lx / gt))
    rhs = math.log(gamma0 / gt) - (2.0 / gamma0) * math.log(u)
    return lhs, rhs


def zeta(gamma0: float, gamma1: float, u: float, x) -> float | np.ndarray:
    """Stationarity function whose unique root is the interior maximizer.

    zeta(x) = x^(-1/g0) (x^(-1/gt) - g1/gt) - (1 - g1/gt) u^(-2/g0), with
    gt = g0 + g1.  It is positive at x = u^2, negative at x = 1 and strictly
    decreasing in between.  Evaluated in log-stabilized form; raises
    :class:`EvaluationOverflowError` when the value itself exceeds double
    range (tiny gamma0 together with tiny u).
    """
    lhs, rhs = _zeta_logs(gamma0, gamma1, u, x)
    with np.errstate(over="ignore"):
        out = np.exp(rhs) * np.expm1(lhs - rhs)
    if np.any(np.isinf(out)):
        raise EvaluationOverflowError(
            f"zeta overflowed: u^(-2/gamma0) = exp({rhs - math.log(gamma0 / (gamma0 + gamma1)):.1f}) "
            "exceeds double-precision range; work with zeta_root instead")
    return float(out) if np.ndim(x) == 0 else out


def zeta_root(gamma0: float, gamma1: float, u: float,
              xtol: float = 1e-9, method: str = "bisection") -> float:
    """Unique root of ``zeta`` on [u^2, 1].

    ``bisection`` is the reference: the sign change at the endpoints plus
    strict monotonicity make it unconditionally correct.  ``fixed_point``
    iterates the rearranged stationarity equation
    x = (u^(2/g0) (1 - (g1/gt) x^(1/gt)) / (g0/gt))^(gt g0/(gt+g0)),
    which converges much faster but is offered as an accelerator only.
    """
    gt, u = _zeta_params(gamma0, gamma1, u)
    if not (0.0 < xtol < 1.0):
        raise ParameterError(f"xtol must be in (0, 1), got {xtol!r}")

    def margin(x: float) -> float:
        lhs, rhs = _zeta_logs(gamma0, gamma1, u, x)
        return float(lhs) - rhs

    lo, hi = u * u, 1.0
    if method == "bisection":
        m_lo, m_hi = margin(lo), margin(hi)
        if not (m_lo > 0.0 and m_hi < 0.0):
            raise BracketError(
                f"zeta sign conditions failed on [{lo!r}, 1]: "
                f"margins ({m_lo!r}, {m_hi!r}); parameters may be "
                "underflowing")
        while hi - lo > xtol:
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    if method == "fixed_point":
        expo = gt * gamma0 / (gt + gamma0)
        x = u  # the symmetric (gamma1 = 0) solution is a natural start
        for _ in range(500):
            lx = (2.0 / gamma0) * math.log(u) + math.log1p(
                -(gamma1 / gt) * x ** (1.0 / gt)) - math.log(gamma0 / gt)
            x_new = min(max(math.exp(expo * lx), u * u), 1.0)
            if abs(x_new - x) <= xtol:
                return x_new
            x = x_new
        raise NumericError(
            f"fixed-point iteration did not reach xtol={xtol!r} in 500 steps")

    raise ParameterError(
        f"unknown method {method!r}; expected 'bisection' or 'fixed_point'")


# ---------------------------------------------------------------------------
# Archimedean diagonal criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalCheck:
    increasing: bool
    diagonal_is_maximal: bool


# A strict generator diverges at 0; a non-strict one plateaus at psi(0).
_STRICT_PROBE = 1e-10
_STRICT_THRESHOLD = 50.0


def _require_strict(gen: Generator) -> None:
    with np.errstate(divide="ignore", over="ignore"):
        near = float(gen.psi(_STRICT_PROBE))
        if not (near > _STRICT_THRESHOLD):
            # slowly diverging generators (e.g. logarithmic growth) still
            # roughly double between 1e-10 and 1e-20; a finite psi(0) does not
            farther = float(gen.psi(_STRICT_PROBE ** 2))
            if not (farther > 1.9 * near):
                raise GeneratorError(
                    f"generator {gen.name!r} is not strict: psi({_STRICT_PROBE}) "
                    f"= {near!r} shows no divergence at 0", component="psi")


def archimedean_diagonal_check(generator: Generator, u: float,
                               grid_n: int = 128) -> DiagonalCheck:
    """Check whether x psi'(x) is nondecreasing on [u^2, 1].

    When it is, the diagonal maximizes C(x, u^2/x) for the Archimedean
    copula built on ``generator``; the generator must be strict, otherwise
    no admissible path exists at all and :class:`GeneratorError` is raised.
    """
    u = _check_level(u)
    if grid_n < 8:
        raise ParameterError(f"grid_n must be >= 8, got {grid_n}")
    _require_strict(generator)
    x = np.exp(np.linspace(2.0 * math.log(u), 0.0, grid_n))
    g = x * np.asarray(generator.psi_prime(x), dtype=float)
    if np.any(~np.isfinite(g)):
        raise GeneratorError(
            f"generator {generator.name!r}: x psi'(x) not finite on [u^2, 1]",
            component="psi_prime")
    slack = 1e-9 * float(np.max(np.abs(g)))
    increasing = bool(np.all(np.diff(g) >= -slack))
    return DiagonalCheck(increasing=increasing, diagonal_is_maximal=increasing)


# ---------------------------------------------------------------------------
# closed-form maximizers, where they exist
# ---------------------------------------------------------------------------

def closed_form_path(cop: Copula, u: float) -> tuple[float, ...] | None:
    """Known maximizer set at level u, or None when no closed form applies.

    Marshall-Olkin has the single maximizer u^(2b/(a+b)); its symmetric
    mixture has the pair {u^(2b/(a+b)), u^(2a/(a+b))}; the comonotone
    copula, positively-dependent FGM, and Archimedean copulas passing the
    diagonal criterion all maximize on the diagonal.  Returns None for the
    FGM with alpha <= 0 (no admissible maximum / all paths maximal), for
    the generalized Clayton (use :func:`zeta_root`), and for
    parameter corners that degenerate to independence.
    """
    u = _check_level(u)
    if isinstance(cop, FrechetUpper):
        return (u,)
    if isinstance(cop, Independence):
        return None
    if isinstance(cop, MarshallOlkin):
        if cop.a == 0.0 or cop.b == 0.0:  # degenerates to independence
            return None
        return (u ** (2.0 * cop.b / (cop.a + cop.b)),)
    if isinstance(cop, MixtureMO):
        if cop.a == 0.0 or cop.b == 0.0:
            return None
        s = cop.a + cop.b
        x1 = u ** (2.0 * cop.b / s)
        x2 = u ** (2.0 * cop.a / s)
        return (x1,) if cop.a == cop.b else tuple(sorted((x1, x2)))
    if isinstance(cop, FGM):
        return (u,) if cop.alpha > 0.0 else None
    if isinstance(cop, Archimedean):
        check = archimedean_diagonal_check(cop.generator, u)
        return (u,) if check.diagonal_is_maximal else None
    return None
