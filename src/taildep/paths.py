"""Per-level maximization of C(x, u^2/x) over the admissible range [u^2, 1].

For a level u, sliding a rectangle of fixed area u^2 along the hyperbola
(x, u^2/x) sweeps every admissible tail path through level u.  The solver
finds every global maximizer of f(t) = log C(e^t, u^2 e^-t), t = log x in
[2 log u, 0].  One of three routes evaluates each level and passes on
brackets around its maxima; the routes differ only in what they evaluate
and which brackets they pass on.  The brackets of all levels are then
refined at once, and one ``_select`` decides every level.

Two facts of the family's class (:mod:`taildep.copulas`) pick the route:
its proven ``shape()`` and whether it is ``exchangeable()``, C(u, v) =
C(v, u), so that f(2 log u - t) = f(t) and the searched range is
[2 log u, log u] rather than [2 log u, 0].

* ``"diagonal"``: f is nondecreasing up to log u, so nothing is scanned or
  refined.  One kernel call evaluates every level's ends and diagonal, and
  the maximizer is the diagonal x = u.
* ``"peak"``: f rises strictly, then falls strictly, or is constant, on the
  searched range, so zoom steps over that range find its maximum
  (Kiefer's sequential search for the maximum of a unimodal function).
  Nothing is scanned: the ends and diagonals come from one kernel call, and
  each level's one bracket is the searched range itself.
* None, full scan: 4097 points evenly spaced in log x over [u^2, 1] (tail
  maximizers such as u^(2b/(a+b)) cluster near 0, so uniform-in-x grids
  would miss them), ``np.linspace(2 log u, 0, 4097)``.  Point 2048 is the
  diagonal log u exactly, as the step -log u / 2048 is a division by a
  power of two.  Each interior local maximum gets a bracket, and a scan
  flat to within the tie window gets none.  An exchangeable family's scan
  is a half scan, the first 2049 points: it stops at the diagonal, and so
  do its brackets.

An exchangeable family's maxima refined over [2 log u, log u] are mirrored.

Refinement: batched zoom steps in log x take each bracket to a width of
1e-12 (relative in x) within 200 steps, else :class:`NumericError`.

Selection, the same rules for every route:

* plateau: a level whose best value is within the tie window, a relative
  1e-9, of its lower bound (the scan's minimum, or on an unscanned level the
  smaller value at the ends of the searched range, as f is at least that
  everywhere) is flat and sets ``all_paths_maximal``;
* ends: a refined maximum exactly at x = u^2 or x = 1 is that end;
* mirror: each maximum refined over [2 log u, log u] is reported with its
  mirror 2 log u - t, unless it is the diagonal: then x = u is the
  maximizer.  On a ``"peak"`` level that is a maximum within the merge
  distance, 1e-11 in log x, of log u: f falls strictly from its peak, so a
  peak refined away from the diagonal lies away from it, however close
  their values.  On a scanned level it is a maximum that the diagonal ties
  in the diagonal's own bracket: with no proven shape, that is how a
  smooth peak at x = u looks once rounding moves its refined point off it;
* diagonal: a ``"diagonal"`` level's one inner maximum is x = u;
* *all* maxima in the tie window of the best are reported, among the ends
  and the inner maxima, merging neighbours within 1e-11 in log x into the
  higher -- symmetric mixtures genuinely carry two global maximizers and a
  single-optimum solver would drop one;
* floor: the reported maximum is never below the diagonal's C(u, u).

A level with no inner maximum in the tie window attains its maximum only
at x = u^2 or x = 1: it is flagged (``boundary_attained``) rather than
treated as a path, as its rectangle does not shrink to the corner and
carries no tail meaning.

A level whose values of C(x, u^2/x) are zero at every evaluated x raises
:class:`DegenerateTailError` rather than returning an empty answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from taildep.copulas import Copula, _check_level
from taildep.errors import DegenerateTailError, NumericError, ParameterError
from taildep.serialize import dumps_csv

__all__ = [
    "PathPoint",
    "PathSolution",
    "pi_phi",
    "pointwise_max",
    "solve_path",
]

# points of a zoom step, ends included: a step shrinks a bracket to 2/33
_ZOOM = 34
_ZOOM_GRID = np.arange(_ZOOM) / (_ZOOM - 1)
_SCAN_N = 4096  # steps of the log-spaced scan of each level
_SCAN_MID = _SCAN_N // 2  # the scan's point at the diagonal
_SLICE = _SCAN_N // _ZOOM  # brackets per zoom batch, a scan's worth of points
# flat offset of each row of a batch's (rows, _ZOOM) grid, and the flat
# index of the lower and upper grid neighbour of each flat index, ends clamped
_ROW_OFF = np.arange(_SLICE)[:, None] * _ZOOM
_LO_NB = (_ROW_OFF + np.maximum(np.arange(_ZOOM) - 1, 0)).ravel()
_HI_NB = (_ROW_OFF + np.minimum(np.arange(_ZOOM) + 1, _ZOOM - 1)).ravel()
_XTOL = 1e-12  # refined bracket width in log x, a relative width in x
_MERGE = 10.0 * _XTOL  # maxima closer in log x are one
_VALUE = itemgetter(1)  # the log pi of a (log x, log pi) pair
_TIE_LOG = -math.log1p(-1e-9)  # log of the relative 1e-9 tie window
_MAX_ITER = 200  # zoom steps per bracket before NumericError
_TINY = np.finfo(float).tiny  # smallest normal double


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

    def _check_printable(self) -> None:
        """Raise :class:`NumericError` where a printed maximizer or pi_star
        has underflowed below the normal double range while its log is
        finite (a level below u ~ 1e-154, say)."""
        for p in self.points:
            for x, log_x in zip((*p.maximizers, p.pi_star),
                                (*p.log_maximizers, p.log_pi_star)):
                if x < _TINY and math.isfinite(log_x):
                    raise NumericError(
                        f"at u={p.u:.6g} a maximizer or pi_star is "
                        f"exp({log_x:.6g}), below the double range; "
                        "read log_maximizers and log_pi_star instead")

    def to_json_dict(self) -> dict:
        """The path as JSON-ready data, without the log fields."""
        self._check_printable()
        return {
            "u_grid": list(self.u_grid),
            "points": [
                {
                    "u": p.u,
                    "maximizers": list(p.maximizers),
                    "pi_star": p.pi_star,
                    "boundary_attained": p.boundary_attained,
                    "all_paths_maximal": p.all_paths_maximal,
                }
                for p in self.points
            ],
        }

    def to_csv(self) -> str:
        """CSV with variable-width maximizer columns, padded empty."""
        self._check_printable()
        width = max(len(p.maximizers) for p in self.points)
        header = ["u", *(f"x_star_{k + 1}" for k in range(width)),
                  "pi_star", "boundary_attained", "all_paths_maximal"]
        return dumps_csv(header, (
            (p.u, *p.maximizers, *[""] * (width - len(p.maximizers)),
             p.pi_star, p.boundary_attained, p.all_paths_maximal)
            for p in self.points))


def pi_phi(cop: Copula, u: float, x) -> float | np.ndarray:
    """Probability C(x, u^2/x) of the area-u^2 rectangle anchored at x.

    x must lie in the admissible range [u^2, 1] (x = u * u counts as its
    lower end); log coordinates keep it exact where u^2 is subnormal.
    Subtracting u^2 turns this into the distance from the independence
    copula along the same path.
    """
    u = _check_level(u)
    xa = np.asarray(x, dtype=float)
    log_u = float(np.log(u))
    log_uu = 2.0 * log_u
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.where(xa == u * u, log_uu, np.log(xa))
    if not np.all((lx >= log_uu) & (lx <= 0.0)):
        raise ParameterError(
            f"x must lie in [u^2, 1] = [exp({log_uu!r}), 1], got {x!r}")
    out = np.exp(_log_pi(cop, log_u, lx))
    return float(out) if np.ndim(x) == 0 else out


def _log_pi(cop: Copula, log_u: float | np.ndarray,
            t: np.ndarray) -> np.ndarray:
    """log C(e^t, u^2 e^-t) for log-abscissas t in [2 log u, 0]."""
    return cop._log_cdf(t, 2.0 * log_u - t)


# a level's brackets [lo, hi] in log x, and its scalars: u, log u, f at
# x = u^2, at x = u and at x = 1, a lower bound of f on the level, and the
# highest f evaluated
_Level = tuple[np.ndarray, np.ndarray, tuple[float, ...]]


def _flat(f_top: float, f_floor: float) -> bool:
    """Whether a level whose values run from f_floor up to f_top is a
    plateau: every value in the tie window of the best."""
    return f_top - f_floor <= _TIE_LOG


def _select(level: _Level, t_ref: list[float], f_ref: list[float],
            mirror: bool, shape: str | None) -> PathPoint:
    """The PathPoint of a level from its brackets and scalars and the
    refined maxima (t, log pi) of its brackets, in bracket order.

    Every route's level is decided here, by the selection rules of the
    module docstring; ``mirror`` switches on the rule of that name, and the
    family's ``shape`` names the route.  Candidates closer than the
    refinement resolution merge into the higher; log x = log u is reported
    as x = u itself.
    """
    _, hi, (u, log_u, f_lo, f_diag, f_hi, f_floor, f_top) = level
    top = max([f_top, *f_ref])
    if _flat(top, f_floor):
        return PathPoint(u=u, maximizers=(u,), pi_star=math.exp(top),
                         log_pi_star=top, boundary_attained=False,
                         all_paths_maximal=True, log_maximizers=(log_u,))
    t_lo = 2.0 * log_u
    inner = [(log_u, f_diag)] if shape == "diagonal" else []
    for t, f, t_hi in zip(t_ref, f_ref, hi.tolist()):
        if mirror and (log_u - t <= _MERGE if shape else
                       t_hi == log_u and f - f_diag <= _TIE_LOG):
            inner.append((log_u, max(f, f_diag)))
        elif t_lo < t < 0.0:
            inner += [(t, f), (t_lo - t, f)] if mirror else [(t, f)]
    # best - f is monotone in f: every interior f is out of the tie window
    # exactly when the highest is.  best is floored at the diagonal's f: x = u
    # is always admissible, and a refined smooth peak may sit a little off it
    f_inner = max(map(_VALUE, inner), default=-math.inf)
    best = max(f_lo, f_diag, f_hi, f_inner)
    log_x: list[float] = []
    log_f: list[float] = []
    for t, f in sorted([(t_lo, f_lo), (0.0, f_hi), *inner]):
        if best - f > _TIE_LOG:
            continue
        if log_x and t - log_x[-1] <= _MERGE:
            if f > log_f[-1]:
                log_x[-1], log_f[-1] = t, f
        else:
            log_x.append(t)
            log_f.append(f)

    return PathPoint(u=u, maximizers=tuple([u if t == log_u else math.exp(t)
                                            for t in log_x]),
                     pi_star=math.exp(best), log_pi_star=best,
                     boundary_attained=best - f_inner > _TIE_LOG,
                     all_paths_maximal=False, log_maximizers=tuple(log_x))


def _vanished(u: float) -> DegenerateTailError:
    return DegenerateTailError(
        f"C(x, u^2/x) vanished at every evaluated x at level u={u!r}; "
        "the level carries no tail mass in double precision")


def _shaped_levels(cop: Copula, grid: tuple[float, ...], diagonal: bool,
                   mirror: bool) -> list[_Level]:
    """The levels of a family with a proven shape, unscanned (module
    docstring): one kernel call for every level's ends and diagonal, and one
    bracket per level, the searched range, [2 log u, log u] if ``mirror``
    and [2 log u, 0] otherwise; none on the ``diagonal`` route.  f is at
    least its smaller value at the ends of the searched range everywhere,
    the level's lower bound.
    """
    log_u = np.log(grid)
    ts = np.zeros((log_u.size, 3))
    ts[:, 0], ts[:, 1] = 2.0 * log_u, log_u
    fs = _log_pi(cop, log_u[:, None], ts)
    none = np.empty(0)
    levels = []
    for u, lu, (f_lo, f_diag, f_hi) in zip(grid, log_u.tolist(), fs.tolist()):
        f_top = max(f_lo, f_diag, f_hi)
        if not math.isfinite(f_top):
            raise _vanished(u)
        if diagonal:
            lo = hi = none
        else:
            lo, hi = np.array([2.0 * lu]), np.array([lu if mirror else 0.0])
        f_end = f_diag if mirror else f_hi
        levels.append((lo, hi, (u, lu, f_lo, f_diag, f_hi, min(f_lo, f_end),
                                f_top)))
    return levels


def _scan(cop: Copula, u: float) -> _Level:
    """Scan level u at log x = ``np.linspace(2 log u, 0, 4097)``.  An
    exchangeable family's scan is its first 2049 points, which end at the
    diagonal: ``np.linspace(2 log u, log u, 2049)`` takes the same step,
    -log u / 2048, so the same values (module docstring).  Returns the
    brackets [lo, hi] in log x around the scan's interior local maxima, none
    if the scan is flat, and the level's scalars, its lower bound the scan's
    minimum.  Only scalars outlive the scan itself.
    """
    log_u = float(np.log(u))
    half = cop.exchangeable()
    ts = np.linspace(2.0 * log_u, log_u if half else 0.0,
                     (_SCAN_MID if half else _SCAN_N) + 1)
    fs = _log_pi(cop, log_u, ts)
    f_floor, f_top = float(fs.min()), float(fs.max())
    if not math.isfinite(f_top) and not np.isfinite(fs).any():
        raise _vanished(u)
    level = (u, log_u, float(fs[0]), float(fs[_SCAN_MID]),
             float(fs[0 if half else -1]), f_floor, f_top)
    if _flat(f_top, f_floor):
        return np.empty(0), np.empty(0), level

    # interior local maxima of the scan, collapsing flat runs to one bracket:
    # peak is False at both ends, so it rises into a run and falls after it.
    # The half scan's diagonal is a peak when it is no lower than its left
    # neighbour, the mirror of its right one; a False slot closes its run,
    # whose bracket then ends at the diagonal (take's clip).
    n = fs.size
    peak = np.zeros(n + half, dtype=bool)
    np.greater_equal(fs[1:-1], fs[:-2], out=peak[1:n - 1])
    peak[1:n - 1] &= fs[1:-1] >= fs[2:]
    if half:
        peak[n - 1] = fs[-1] >= fs[-2]
    edges = (peak[1:] != peak[:-1]).nonzero()[0]
    return ts[edges[::2]], ts.take(edges[1::2] + 1, mode="clip"), level


def _refine(cop: Copula, log_u: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zoom-step maximization of every bracket [lo, hi] at once.

    Each step evaluates ``_ZOOM`` evenly spaced points across every bracket,
    ends included, in one kernel call, and keeps the grid neighbours of each
    bracket's best point.  A bracket leaves the batch once its width is at
    most _XTOL, so its iterates do not depend on the others.  Slices of
    _SLICE brackets keep each step within the size of a scan.  Returns the
    best (t, log pi) of each bracket's last step.
    """
    t_out, f_out = np.empty(lo.size), np.empty(lo.size)
    for start in range(0, lo.size, _SLICE):
        pos = np.arange(start, min(start + _SLICE, lo.size))
        # columns, so that each row broadcasts against the zoom grid
        a, lu = lo[pos, None], log_u[pos, None]
        w = hi[pos, None] - a
        for _ in range(_MAX_ITER):
            ts = w * _ZOOM_GRID
            ts += a
            fs = _log_pi(cop, lu, ts)
            best = fs.argmax(axis=1, keepdims=True)
            best += _ROW_OFF[:best.size]  # flat index into ts and fs
            a = ts.take(_LO_NB.take(best))
            w = ts.take(_HI_NB.take(best)) - a
            done = w[:, 0] <= _XTOL
            if done.any():
                t_out[pos[done]] = ts.take(best[done, 0])
                f_out[pos[done]] = fs.take(best[done, 0])
                a, w, lu, pos = (arr[~done] for arr in (a, w, lu, pos))
                if pos.size == 0:
                    break
        else:
            raise NumericError(
                f"zoom refinement at u={math.exp(lu[0, 0]):.6g} left a bracket "
                f"of width {w[0, 0]:.3g} > {_XTOL!r} after {_MAX_ITER} steps")
    return t_out, f_out


def pointwise_max(cop: Copula, u: float) -> PathPoint:
    """All global maximizers of x -> C(x, u^2/x) on [u^2, 1] at level u."""
    return solve_path(cop, [_check_level(u)]).points[0]


def _check_grid(u_grid) -> tuple[float, ...]:
    """A nonempty, strictly decreasing grid of levels in (0, 1)."""
    levels = np.asarray(u_grid, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ParameterError(
            f"u_grid must be a nonempty 1-d sequence, got shape {levels.shape}")
    inside = (levels > 0.0) & (levels < 1.0)  # False for nan
    if not inside.all():
        _check_level(float(levels[~inside][0]))
    if (levels[1:] >= levels[:-1]).any():
        raise ParameterError("u_grid must be strictly decreasing")
    return tuple(levels.tolist())


def solve_path(cop: Copula, u_grid) -> PathSolution:
    """Maximal-dependence record over a strictly decreasing grid of levels.

    Each level takes one route (module docstring): the levels of a family
    with a proven ``shape()`` are not scanned, their ends and diagonals
    coming from one kernel call; other families scan one level at a time,
    an exchangeable one over [2 log u, log u] only.  The routes differ only
    in what they evaluate and which brackets they pass on.  The brackets of
    all levels are refined together by batched zoom steps, so ``points[k]``
    equals ``pointwise_max(cop, u_grid[k])`` exactly, and one ``_select``
    decides every level.  The tolerances are fixed (module docstring); a
    starved bracket raises :class:`NumericError`.
    """
    grid = _check_grid(u_grid)
    shape = cop.shape()
    diagonal = shape == "diagonal"
    mirror = cop.exchangeable() and not diagonal
    if shape is None:
        levels = [_scan(cop, u) for u in grid]
    else:
        levels = _shaped_levels(cop, grid, diagonal, mirror)
    sizes = [lo.size for lo, _, _ in levels]
    t_ref, f_ref = _refine(cop, np.repeat([s[1] for _, _, s in levels], sizes),
                           np.concatenate([lo for lo, _, _ in levels]),
                           np.concatenate([hi for _, hi, _ in levels]))
    t_ref, f_ref = t_ref.tolist(), f_ref.tolist()
    cut = np.cumsum([0, *sizes]).tolist()
    points = tuple(_select(level, t_ref[i:j], f_ref[i:j], mirror, shape)
                   for level, i, j in zip(levels, cut, cut[1:]))
    return PathSolution(u_grid=grid, points=points)
