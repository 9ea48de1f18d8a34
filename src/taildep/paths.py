"""Per-level maximization of C(x, u^2/x) over the admissible range [u^2, 1].

For a level u, sliding a rectangle of fixed area u^2 along the hyperbola
(x, u^2/x) sweeps every admissible tail path through level u.  The solver
finds every global maximizer of x -> C(x, u^2/x):

* scan a log-spaced grid over [u^2, 1] (tail maximizers such as
  u^(2b/(a+b)) cluster near 0, so uniform-in-x grids would miss them);
* bracket each local maximum and refine the brackets of all levels at once
  by batched zoom steps in log x, each bracket with its own stop rule;
* report *all* refined maxima within a relative tie window of the best --
  symmetric mixtures genuinely carry two global maximizers and a
  single-optimum solver would silently drop one.

Maxima attained only at x = u^2 or x = 1 are flagged
(``boundary_attained``) rather than treated as paths: the corresponding
rectangle does not shrink to the corner, so it carries no tail meaning.
A scan that is flat to within the tie window (independence-like) sets
``all_paths_maximal``.

A level whose scan finds C(x, u^2/x) zero at every x raises
:class:`DegenerateTailError` rather than returning an empty answer.

The module also carries the closed-form machinery that exists for specific
families: the known maximizer formulas (``closed_form_path``, which asks
the family's ``maximizers``) and the root-characterization of the
generalized Clayton maximizer (``zeta``, ``zeta_root``).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from taildep.copulas import Copula, GeneralizedClayton, _check_level
from taildep.errors import (
    BracketError,
    DegenerateTailError,
    EvaluationOverflowError,
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
    "closed_form_path",
]

# points of a zoom step, ends included: a step shrinks a bracket to 2/33
_ZOOM = 34
_ZOOM_GRID = np.arange(_ZOOM) / (_ZOOM - 1)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the per-level scan-and-refine maximizer search.

    scan_n:   points of the initial log-spaced scan grid.
    xtol:     relative width to which each bracket is refined (the zoom
              steps run in log x, where this is the absolute width).
    tie_tol:  relative value window within which refined maxima count as
              co-maximizers of the best one.
    max_iter: zoom steps allowed per bracket; a bracket still wider than
              xtol after them raises NumericError.
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
    """Maximizer set and maximal probability at one level u, and their logs,
    which stay exact where u^2 and the values underflow."""

    u: float
    maximizers: tuple[float, ...]
    pi_star: float
    log_pi_star: float
    boundary_attained: bool
    all_paths_maximal: bool
    log_maximizers: tuple[float, ...]


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


def pi_phi(cop: Copula, u: float, x) -> float | np.ndarray:
    """Probability C(x, u^2/x) of the area-u^2 rectangle anchored at x.

    x must lie in the admissible range [u^2, 1] (x = u * u counts as its
    lower end); log coordinates keep it exact where u^2 is subnormal.
    Subtracting u^2 turns this into the distance from the independence
    copula along the same path.
    """
    u = _check_level(u)
    xa = np.asarray(x, dtype=float)
    log_uu = 2.0 * math.log(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.where(xa == u * u, log_uu, np.log(xa))
    if not np.all((lx >= log_uu) & (lx <= 0.0)):
        raise ParameterError(
            f"x must lie in [u^2, 1] = [exp({log_uu!r}), 1], got {x!r}")
    out = np.exp(cop._log_cdf(lx, log_uu - lx))
    return float(out) if np.ndim(x) == 0 else out


def _log_pi(cop: Copula, log_u: float | np.ndarray,
            t: np.ndarray) -> np.ndarray:
    """log C(e^t, u^2 e^-t) for log-abscissas t in [2 log u, 0]."""
    return cop._log_cdf(t, 2.0 * log_u - t)


def _scan(cop: Copula, u: float, opts: SolverOptions
          ) -> tuple[np.ndarray, np.ndarray, Callable[..., PathPoint]]:
    """Scan level u on a log-spaced grid.

    Returns the brackets [lo, hi] in log x around the scan's interior local
    maxima, and a function that turns their refined (t, log pi) into the
    level's PathPoint.  Only scalars outlive the scan itself.
    """
    log_u = math.log(u)
    t_lo, t_hi = 2.0 * log_u, 0.0
    ts = np.linspace(t_lo, t_hi, opts.scan_n)
    # the diagonal x = u is always admissible; pin it into the scan so the
    # reported maximum can never fall below C(u, u)
    at = np.searchsorted(ts, log_u)
    ts = np.concatenate((ts[:at], [log_u], ts[at:]))
    fs = _log_pi(cop, log_u, ts)
    if not np.isfinite(fs).any():
        raise DegenerateTailError(
            f"C(x, u^2/x) vanished at every scanned x at level u={u!r}; "
            "the level carries no tail mass in double precision")

    # tie window in log space: |log(1 - tie_tol)| ~ tie_tol
    tie_log = -math.log1p(-opts.tie_tol)

    if float(np.max(fs) - np.min(fs)) <= tie_log:
        # independence-like plateau: every admissible x is a maximizer
        log_pi = float(np.max(fs))
        plateau = PathPoint(u=u, maximizers=(u,), pi_star=math.exp(log_pi),
                            log_pi_star=log_pi, boundary_attained=False,
                            all_paths_maximal=True, log_maximizers=(log_u,))
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

        log_maximizers = tuple(t for t, _ in merged)
        return PathPoint(u=u, maximizers=tuple(map(math.exp, log_maximizers)),
                         pi_star=math.exp(best), log_pi_star=best,
                         boundary_attained=boundary_attained,
                         all_paths_maximal=False, log_maximizers=log_maximizers)

    run_end = np.concatenate((run_start[1:], run_start[:1]))  # np.roll(-1)
    return ts[interior[run_start] - 1], ts[interior[run_end] + 1], finish


def _refine(cop: Copula, log_u: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            opts: SolverOptions) -> tuple[np.ndarray, np.ndarray]:
    """Zoom-step maximization of every bracket [lo, hi] at once.

    Each step evaluates ``_ZOOM`` evenly spaced points across every bracket,
    ends included, in one kernel call, and keeps the grid neighbours of each
    bracket's best point.  A bracket leaves the batch once its width is at
    most xtol, so its iterates do not depend on the others.  Slices of
    scan_n // _ZOOM brackets keep each step within the size of a scan.
    Returns the best (t, log pi) of each bracket's last step.
    """
    t_out, f_out = np.empty(lo.size), np.empty(lo.size)
    size = max(1, opts.scan_n // _ZOOM)
    for start in range(0, lo.size, size):
        pos = np.arange(start, min(start + size, lo.size))
        a, w, lu = lo[pos], hi[pos] - lo[pos], log_u[pos]
        for _ in range(opts.max_iter):
            ts = a[:, None] + w[:, None] * _ZOOM_GRID
            fs = _log_pi(cop, lu[:, None], ts)
            rows = np.arange(a.size)
            best = fs.argmax(axis=1)
            a = ts[rows, np.maximum(best - 1, 0)]
            w = ts[rows, np.minimum(best + 1, _ZOOM - 1)] - a
            done = w <= opts.xtol
            if done.any():
                t_out[pos[done]] = ts[rows[done], best[done]]
                f_out[pos[done]] = fs[rows[done], best[done]]
                a, w, lu, pos = (arr[~done] for arr in (a, w, lu, pos))
                if pos.size == 0:
                    break
        else:
            raise NumericError(
                f"zoom refinement at u={math.exp(lu[0]):.6g} left a bracket "
                f"of width {w[0]:.3g} > xtol={opts.xtol!r} after "
                f"max_iter={opts.max_iter} steps")
    return t_out, f_out


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
    refined together by batched zoom steps, so ``points[k]`` equals
    ``pointwise_max(cop, u_grid[k])`` exactly.
    """
    grid = _check_grid(u_grid)
    # the bracket width in t = log x can shrink no further than a few ulps
    # of |t|, which is largest at t = 2 log(min u)
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

def _zeta_logs(cop: GeneralizedClayton, u: float, x) -> tuple[np.ndarray, float]:
    """Logs of the two positive parts of the maximizer equation.

    The equation for the interior maximizer of the generalized Clayton level
    function reads  x^(-1/g0) (x^(-1/gt) - g1/gt) = (g0/gt) u^(-2/g0); both
    sides are positive on [u^2, 1], so their logs subtract stably where the
    raw values would overflow (u^(-2/g0) blows past double range for small
    g0 and u).
    """
    gamma0, gamma1, gt = cop.gamma0, cop.gamma1, cop.gamma1_tilde
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
    lhs, rhs = _zeta_logs(GeneralizedClayton(gamma0, gamma1), _check_level(u), x)
    with np.errstate(over="ignore"):
        out = np.exp(rhs) * np.expm1(lhs - rhs)
    if np.any(np.isinf(out)):
        raise EvaluationOverflowError(
            f"zeta overflowed: u^(-2/gamma0) = exp({rhs - math.log(gamma0 / (gamma0 + gamma1)):.1f}) "
            "exceeds double-precision range; work with zeta_root instead")
    return float(out) if np.ndim(x) == 0 else out


def zeta_root(gamma0: float, gamma1: float, u: float,
              xtol: float = 1e-9) -> float:
    """Unique root of ``zeta`` on [u^2, 1], by bisection.

    The sign change at the endpoints plus strict monotonicity make
    bisection unconditionally correct.
    """
    cop, u = GeneralizedClayton(gamma0, gamma1), _check_level(u)
    if not (0.0 < xtol < 1.0):
        raise ParameterError(f"xtol must be in (0, 1), got {xtol!r}")

    def margin(x: float) -> float:
        lhs, rhs = _zeta_logs(cop, u, x)
        return float(lhs) - rhs

    lo, hi = u * u, 1.0
    m_lo, m_hi = margin(lo), margin(hi)
    if not (m_lo > 0.0 and m_hi < 0.0):
        raise BracketError(
            f"zeta sign conditions failed on [{lo!r}, 1]: "
            f"margins ({m_lo!r}, {m_hi!r}); parameters may be "
            "underflowing")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent doubles: xtol is below their spacing
            break
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    return cop.maximizers(_check_level(u))
