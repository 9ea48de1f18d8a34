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
  would miss them), ``np.linspace(2 log u, 0, 4097)``, point k computed as
  linspace computes it, k * step + 2 log u.  The step -log u / 2048 is a
  division by a power of two, so 2048 steps are -log u and 4096 steps
  -2 log u exactly: point 2048 is the diagonal log u and point 4096 the end
  0, both exact, as linspace sets its end.  Each interior local maximum
  gets a bracket, and a scan flat to within the tie window gets none.  An
  exchangeable family's scan is a half scan, the first 2049 points: it
  stops at the diagonal, and so do its brackets.

The scan evaluates only the cells that can hold a maximum.  A copula is
nondecreasing in each argument (Nelsen, *An Introduction to Copulas*, 2006,
section 2.2), so on t in [t_a, t_b], f(t) <= log C(e^t_b, u^2 e^-t_a): one
kernel call bounds f on a whole cell.  Cells are ``_CELL`` = 32 steps, 64
to a half scan and 128 to a full one.  One kernel call evaluates every
level's cell corners, every 32nd point, and each cell's bound.  A cell is
dropped where its bound, raised by the kernel's rounding (``_SLACK``, a
relative and an absolute 1e-12 in log, and twice the kernel's absolute
error in C, ``Copula._cdf_abs_error``), is below the tie window of the
level's best corner.  A second kernel call evaluates the kept cells, each
with one more point on either side, so that every point of a kept cell
has both neighbours, and the bracket rule runs on those runs of points
(``_brackets``).  Where a run's end point, in a dropped cell, equals its
neighbour and that is no lower than the next, a flat run of maxima may go
on into the dropped cell: the cell is kept too, and the second call
repeats.  That changes no answer.  Every run of maxima then lies either in
kept cells, where the scan sees it as the full scan does, or in dropped
cells, and so does its bracket, which reaches one point past the run, at
most to the dropped cells' corners.  Such a bracket refines to a value
below the tie window of the best corner, whose own peak refines to no
less, and ``_select`` drops it; the dropped cells' corners lie below that
window too, so the level is no plateau, scanned in full or not.  Every
level comes out as on the full scan, bit for bit.  On the survival
mixture the two calls evaluate about 11% as many points as the full scan,
the second about 5%.

An exchangeable family's maxima refined over [2 log u, log u] are mirrored.

Refinement: batched zoom steps in log x take each bracket to a width of
1e-12 (relative in x) within 200 steps, else :class:`NumericError`.

Selection, the same rules for every route:

* plateau: a level whose best value is within the tie window, a relative
  1e-9, of its lower bound (the least value the scan evaluated, or on an
  unscanned level the smaller value at the ends of the searched range, as
  f is at least that everywhere) is flat and sets ``all_paths_maximal``;
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

Vanished levels, the same rule for every route: each route returns, per
level, f at x = u^2, x = u and x = 1, its lower bound and its highest value
evaluated, and ``solve_path`` builds each level's record from them.  Before
refinement, a level none of whose values is finite, C(x, u^2/x) = 0 at
every evaluated x, raises :class:`DegenerateTailError` rather than
returning an empty answer.

Records: each level's :class:`PathPoint` holds its maximizers and pi_star,
each followed by its log.  Below u ~ 1e-154, where u^2 underflows, the logs
stay exact, and a maximizer or pi_star below the normal doubles is None;
``PathSolution`` prints every field, None as JSON null or an empty CSV cell.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import itemgetter

import numpy as np

from taildep.copulas import Copula, _check_level, _scalar_like
from taildep.errors import DegenerateTailError, NumericError, ParameterError
from taildep.serialize import dumps_csv, normal

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
_CELL = 32  # scan steps per cell of the monotone bound
# a cell bound's allowance for kernel rounding, relative and absolute in log
_SLACK = 1e-12
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


@dataclass(frozen=True)
class PathPoint:
    """Maximizer set and maximal probability at one level u, each value
    followed by its log.  The logs stay exact where u^2 and the values
    underflow; a maximizer or pi_star below the normal doubles is None
    (``serialize.normal``), so nothing prints 0.0 for a positive value."""

    u: float
    maximizers: tuple[float | None, ...]
    log_maximizers: tuple[float, ...]
    pi_star: float | None
    log_pi_star: float
    boundary_attained: bool
    all_paths_maximal: bool


@dataclass(frozen=True)
class PathSolution:
    """Maximal-dependence record over a decreasing grid of levels."""

    u_grid: tuple[float, ...]
    points: tuple[PathPoint, ...]

    def to_json_dict(self) -> dict:
        """The fields as JSON-ready data, tuples as lists."""
        return asdict(self, dict_factory=lambda fields: {
            k: list(v) if isinstance(v, tuple) else v for k, v in fields})

    def to_csv(self) -> str:
        """CSV with variable-width maximizer columns, padded empty, and the
        logs after the other columns, which keep their places: log_pi_star,
        then log_x_star_k."""
        width = max(len(p.maximizers) for p in self.points)
        stars = [f"x_star_{k + 1}" for k in range(width)]
        header = ["u", *stars, "pi_star", "boundary_attained",
                  "all_paths_maximal", "log_pi_star", *("log_" + x for x in stars)]
        pad = (None,) * width
        return dumps_csv(header, (
            (p.u, *(p.maximizers + pad)[:width], p.pi_star, p.boundary_attained,
             p.all_paths_maximal, p.log_pi_star, *(p.log_maximizers + pad)[:width])
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
    return _scalar_like(np.exp(_log_pi(cop, log_u, lx)), x)


def _log_pi(cop: Copula, log_u: float | np.ndarray, t: np.ndarray,
            s: np.ndarray | None = None) -> np.ndarray:
    """log C(e^t, u^2 e^-t) for log-abscissas t in [2 log u, 0]; with s,
    log C(e^t, u^2 e^-s), which bounds f on [s, t] (module docstring)."""
    return cop._log_cdf(t, 2.0 * log_u - (t if s is None else s))


# a route's scalars of a level, as Python floats: f at x = u^2, at x = u and
# at x = 1, a lower bound of f on the level, and the highest f evaluated
_Scalars = tuple[float, float, float, float, float]
# the brackets [lo, hi] in log x of every level, level after level, the
# number of each level's brackets, and each level's scalars
_Levels = tuple[np.ndarray, np.ndarray, np.ndarray, list[_Scalars]]


def _flat(f_top: float | np.ndarray,
          f_floor: float | np.ndarray) -> bool | np.ndarray:
    """Whether a level whose values run from f_floor up to f_top is a
    plateau: every value in the tie window of the best; elementwise on
    arrays."""
    return f_top - f_floor <= _TIE_LOG


def _select(level: tuple[float, ...], hi: list[float], t_ref: list[float],
            f_ref: list[float], mirror: bool, shape: str | None) -> PathPoint:
    """The PathPoint of a level from its record, u, log u and its scalars,
    the upper ends of its brackets and their refined maxima (t, log pi), in
    bracket order.

    Every route's level is decided here, by the selection rules of the
    module docstring; ``mirror`` switches on the rule of that name, and the
    family's ``shape`` names the route.  Candidates closer than the
    refinement resolution merge into the higher; log x = log u is reported
    as x = u itself, and a maximizer or pi_star below the normal doubles as
    None beside its exact log.
    """
    u, log_u, f_lo, f_diag, f_hi, f_floor, f_top = level
    top = max([f_top, *f_ref])
    if _flat(top, f_floor):
        return PathPoint(u=u, maximizers=(u,), log_maximizers=(log_u,),
                         pi_star=normal(math.exp(top), top), log_pi_star=top,
                         boundary_attained=False, all_paths_maximal=True)
    t_lo = 2.0 * log_u
    inner = [(log_u, f_diag)] if shape == "diagonal" else []
    for t, f, t_hi in zip(t_ref, f_ref, hi):
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

    maximizers = [u if t == log_u else normal(math.exp(t), t) for t in log_x]
    return PathPoint(u=u, maximizers=tuple(maximizers),
                     log_maximizers=tuple(log_x),
                     pi_star=normal(math.exp(best), best), log_pi_star=best,
                     boundary_attained=best - f_inner > _TIE_LOG,
                     all_paths_maximal=False)


def _vanished(u: float) -> DegenerateTailError:
    return DegenerateTailError(
        f"C(x, u^2/x) vanished at every evaluated x at level u={u!r}; "
        "the level carries no tail mass in double precision")


def _shaped_levels(cop: Copula, log_u: np.ndarray, diagonal: bool,
                   mirror: bool) -> _Levels:
    """The levels of a family with a proven shape, unscanned (module
    docstring): one kernel call for every level's ends and diagonal, and one
    bracket per level, the searched range, [2 log u, log u] if ``mirror``
    and [2 log u, 0] otherwise; none on the ``diagonal`` route.  f is at
    least its smaller value at the ends of the searched range everywhere,
    the level's lower bound.
    """
    ts = np.zeros((log_u.size, 3))
    ts[:, 0], ts[:, 1] = 2.0 * log_u, log_u
    scalars = []
    for f_lo, f_diag, f_hi in _log_pi(cop, log_u[:, None], ts).tolist():
        f_end = f_diag if mirror else f_hi
        scalars.append((f_lo, f_diag, f_hi, min(f_lo, f_end),
                        max(f_lo, f_diag, f_hi)))
    if diagonal:
        return np.empty(0), np.empty(0), np.zeros(log_u.size, int), scalars
    return (ts[:, 0], ts[:, 1 if mirror else 2], np.ones(log_u.size, int),
            scalars)


def _brackets(t: np.ndarray, f: np.ndarray, joined: np.ndarray,
              diagonal: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brackets [lo, hi] in log x around the interior local maxima of runs
    of scan points.

    t and f hold the points, run after run; ``joined[k]`` says whether point
    k + 1 is the scan point after point k.  A point whose two scan
    neighbours are both there and no higher is a maximum, and a run of
    maxima, flat by definition, gets one bracket, from the point before it
    to the point after it.  ``diagonal`` marks the diagonal points of half
    scans: such a point is a maximum when it is no lower than its left
    neighbour, the mirror of its right one, and a bracket that reaches it
    ends there.  Returns lo, hi and the position of each bracket's last
    maximum.
    """
    peak = np.zeros(f.size + 1, dtype=bool)  # False past the end closes a run
    up = f[1:] >= f[:-1]
    peak[1:-2] = joined[:-1] & joined[1:] & up[:-1] & (f[1:-1] >= f[2:])
    if diagonal is not None:
        at = diagonal.nonzero()[0]
        peak[at] = up[at - 1]
    edges = (peak[1:] != peak[:-1]).nonzero()[0]
    last = edges[1::2]
    hi = last + 1
    if diagonal is not None:
        hi -= diagonal[last]
    return t[edges[::2]], t[hi], last


def _scan_levels(cop: Copula, log_u: np.ndarray, half: bool) -> _Levels:
    """Scan every level at log x = ``np.linspace(2 log u, 0, 4097)``, or at
    its first 2049 points, ``np.linspace(2 log u, log u, 2049)``, if
    ``half`` (the same step, -log u / 2048, so the same points, the ends
    exact), evaluating only the cells that can hold a maximum (module
    docstring): one kernel call for the cell corners and bounds, and one
    for the kept cells.
    Returns the brackets around the interior local maxima of each level's
    scan, none on a flat level, and each level's scalars, its lower bound
    the least value evaluated.
    """
    n = _SCAN_MID if half else _SCAN_N
    cells = n // _CELL
    start = 2.0 * log_u
    step = -log_u / _SCAN_MID
    # the corners, then each cell's bound: x at its end, y at its start
    tc = np.arange(0, n + 1, _CELL) * step[:, None] + start[:, None]
    fc = _log_pi(cop, log_u[:, None], np.concatenate((tc, tc[:, 1:]), axis=1),
                 np.concatenate((tc, tc[:, :-1]), axis=1))
    corner, bound = fc[:, :cells + 1], fc[:, cells + 1:]
    with np.errstate(invalid="ignore"):  # inf - inf, a nan that keeps a cell
        bound = bound * (1.0 - _SLACK) + _SLACK
        if cop._cdf_abs_error:
            bound = np.logaddexp(bound, math.log(2.0 * cop._cdf_abs_error))
        keep = ~(corner.max(axis=1, keepdims=True) - bound > _TIE_LOG)
    # the best corner keeps a cell, whatever the rounding
    top_cell = np.minimum(corner.argmax(axis=1), cells - 1)
    keep[np.arange(log_u.size), top_cell] = True
    pad = np.zeros((log_u.size, cells + 2), dtype=bool)
    while True:
        # each run [c, d) of kept cells, with the point before it and the
        # point after it, so that each of its points has both neighbours
        pad[:, 1:-1] = keep
        lev, c = (pad[:, 1:] != pad[:, :-1]).nonzero()
        lev, c, d = lev[::2], c[::2], c[1::2]
        k0 = np.maximum(_CELL * c - 1, 0)
        size = np.minimum(_CELL * d + 1, n) - k0 + 1
        last = size.cumsum() - 1
        first = last - size + 1
        k = np.arange(last[-1] + 1) + np.repeat(k0 - first, size)
        row = np.repeat(lev, size)
        t = k * step[row] + start[row]
        f = _log_pi(cop, log_u[row], t)
        # an end point in a dropped cell, equal to its neighbour and that no
        # lower than the next, may extend a flat run of maxima into the cell
        left = ((c > 0) & (f[first] == f[first + 1])
                & (f[first + 1] >= f[first + 2]))
        right = ((d < cells) & (f[last] == f[last - 1])
                 & (f[last - 1] >= f[last - 2]))
        if not (left.any() or right.any()):
            break
        keep[lev[left], c[left] - 1] = True
        keep[lev[right], d[right]] = True

    joined = np.ones(f.size - 1, dtype=bool)
    joined[last[:-1]] = False
    lo, hi, at = _brackets(t, f, joined, k == n if half else None)
    cut = first[np.searchsorted(lev, np.arange(log_u.size))]
    f_floor = np.minimum(np.minimum.reduceat(f, cut), corner.min(axis=1))
    f_top = np.maximum.reduceat(f, cut)
    with np.errstate(invalid="ignore"):  # -inf - -inf on a vanished level
        sloped = ~_flat(f_top, f_floor)[row[at]]
    counts = np.bincount(row[at][sloped], minlength=log_u.size)
    scalars = list(zip(corner[:, 0].tolist(),
                       corner[:, -1 if half else cells // 2].tolist(),
                       corner[:, 0 if half else -1].tolist(),
                       f_floor.tolist(), f_top.tolist()))
    return lo[sloped], hi[sloped], counts, scalars


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
    coming from one kernel call; other families scan all levels at once,
    only in the cells that can hold a maximum, an exchangeable one over
    [2 log u, log u] only.  The routes differ only in what they evaluate
    and which brackets they pass on.  The brackets of all levels are
    refined together by batched zoom steps, so ``points[k]`` equals
    ``pointwise_max(cop, u_grid[k])`` exactly, and one ``_select`` decides
    every level.  The tolerances are fixed (module docstring); a starved
    bracket raises :class:`NumericError`, and a level whose values all
    vanished, before any refinement, :class:`DegenerateTailError`.
    """
    grid = _check_grid(u_grid)
    shape = cop.shape()
    diagonal = shape == "diagonal"
    mirror = not diagonal and cop.exchangeable()
    log_u = np.log(grid)
    if shape is None:
        lo, hi, counts, scalars = _scan_levels(cop, log_u, mirror)
    else:
        lo, hi, counts, scalars = _shaped_levels(cop, log_u, diagonal, mirror)
    levels = []
    for u, lu, level in zip(grid, log_u.tolist(), scalars):
        if not any(map(math.isfinite, level)):
            raise _vanished(u)
        levels.append((u, lu, *level))
    t_ref, f_ref = _refine(cop, np.repeat(log_u, counts), lo, hi)
    t_ref, f_ref, hi = t_ref.tolist(), f_ref.tolist(), hi.tolist()
    cut = [0, *np.cumsum(counts).tolist()]
    points = tuple(_select(level, hi[i:j], t_ref[i:j], f_ref[i:j], mirror,
                           shape)
                   for level, i, j in zip(levels, cut, cut[1:]))
    return PathSolution(u_grid=grid, points=points)
