"""Bivariate copula families evaluated through their CDFs.

Each family is a small frozen dataclass that validates its parameters on
construction, each with ``_check_param`` (a finite real number in the
family's interval; a bool is not a number), and defines one kernel,
``_log_cdf(lu, lv)`` = log C(e^lu, e^lv), which takes log coordinates.  Both
evaluation routes go through it, vectorized over numpy arrays:

* ``log_cdf(u, v)`` -- log C(u, v), -inf where u or v is 0;
* ``cdf(u, v)``   -- the copula value C(u, v), the exp of ``log_cdf``.

Each named family evaluates its kernel from the logs, which keeps the tail
machinery in :mod:`taildep.paths` exact down to u ~ 1e-300; so does the
survival copula of a family with an exact ``_log_survival`` (below).
``Archimedean`` evaluates nothing itself: its :class:`Generator` checks
the Archimedean contract when it is built and evaluates the kernel, the
log of psi_inv(psi(u) + psi(v)), or an exact log kernel where the generator
has one, as :func:`clayton_generator`'s has Clayton's.  Any other survival
copula takes the log of a linear sum with a stated cancellation floor (last
paragraph).

Every other fact about a family is an optional method of its class, by
default None or :class:`UnsupportedMethodError`: ``maximizers``,
``kappa_star``, ``tau`` and ``sampler``.  Two facts about the level
function f(t) = log C(e^t, u^2 e^-t) steer the solver in
:mod:`taildep.paths`: ``shape()``, None by default, is ``"diagonal"`` or
``"peak"`` where a proof in the family's class says so, and
``exchangeable()``, C(u, v) = C(v, u), makes f symmetric about log u.  A
``"diagonal"`` shape implies two facts: ``exchangeable()``, which its
contract requires, and ``maximizers``, the diagonal x = u.  So a family
writes ``exchangeable()`` only where it holds without that shape, and
``maximizers`` only for its other closed forms.

Two more optional facts, None by default, make a survival copula exact:
``_log_survival(lu, lv)``, the log of the survival copula
C^(u, v) = u + v - 1 + C(1-u, 1-v) in a closed form whose terms do not
cancel, and ``survival_shape()``, the ``shape()`` of the survival copula,
proven on that kernel.  One more, ``_corner(w, t, upper=False)``, None by
default, tells from a sampler's uniforms w alone which pairs land in the
corner [0, t]^2 (or [1 - t, 1]^2), with thresholds moved inwards by a
relative margin ``_MARGIN`` = 1e-9 that covers the rounding of ** and of
1 - x; :mod:`taildep.risk` skips the transform of those draws.
Marshall-Olkin and the mixture have it, and a survival copula flips its
base's.

Each closed form is written once:
the generalized Clayton maximizer is the root of ``zeta`` (``zeta_root``),
beside its class, and the mixture calls the Marshall-Olkin kernels and
sampler.  ``FAMILIES`` maps each config family name to its constructor and
parameter keys.

``survival()`` wraps any copula into its survival copula
``u + v - 1 + C(1-u, 1-v)``, mapping upper-tail questions onto the lower-tail
machinery.  Its kernel is the base's ``_log_survival`` where there is one.
Otherwise it is the log of that linear sum, whose terms are of order 1: a sum
at or below the cancellation floor ``_CANCEL`` = 4 eps, about 8.9e-16, is
rounding noise and counts as 0, so a level whose rectangles all lie below it
raises :class:`DegenerateTailError` in :mod:`taildep.paths`.  That sum's
absolute error in C, a few ``_CANCEL``, is the copula's ``_cdf_abs_error``
(0 for a log kernel), which :mod:`taildep.paths` adds to its scan bounds.
``check_axioms`` verifies groundedness, uniform marginals and the
two-increasing property on a lattice.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, ClassVar

import numpy as np

from taildep.errors import (
    BracketError,
    EvaluationOverflowError,
    GeneratorError,
    NumericError,
    ParameterError,
    UnsupportedMethodError,
)

__all__ = [
    "Copula",
    "Independence",
    "FrechetUpper",
    "MarshallOlkin",
    "MixtureMO",
    "FGM",
    "GeneralizedClayton",
    "zeta",
    "zeta_root",
    "Clayton",
    "Generator",
    "Archimedean",
    "SurvivalCopula",
    "clayton_generator",
    "archimedean_diagonal_check",
    "FAMILIES",
    "AxiomReport",
    "check_axioms",
]

def _as_unit(x, name: str, hi_open: bool = False) -> np.ndarray:
    """Coerce to float array and reject anything outside [0, 1] (or [0, 1)
    with ``hi_open``), nan too: the one rule for probability arrays."""
    arr = np.asarray(x, dtype=float)
    below = arr < 1.0 if hi_open else arr <= 1.0
    if not ((arr >= 0.0) & below).all():
        raise ParameterError(
            f"{name} must lie in {_interval(0, 1, hi_open=hi_open)}, got {x!r}")
    return arr


def _scalar_like(result: np.ndarray, *inputs) -> np.ndarray | float:
    """The one scalar-in, scalar-out rule: result as a float where every
    input is a scalar."""
    if all(np.ndim(i) == 0 for i in inputs):
        return float(result)
    return result


def _interval(lo, hi, lo_open: bool = False, hi_open: bool = False) -> str:
    """lo and hi in brackets, round at an open or infinite end."""
    left = "(" if lo_open or lo == -math.inf else "["
    right = ")" if hi_open or hi == math.inf else "]"
    return f"{left}{lo}, {hi}{right}"


def _is_real(x) -> bool:
    """Whether x is a real number, bool excluded: a bool is not a number."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_param(value, name: str, lo: float, hi: float,
                 lo_open: bool = False, hi_open: bool = False) -> float:
    """The one rule for real arguments: value as a float, if it is a finite
    real number between lo and hi, each end closed unless marked open."""
    if not (_is_real(value) and math.isfinite(value)
            and (lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)):
        raise ParameterError(f"{name} must lie in "
                             f"{_interval(lo, hi, lo_open, hi_open)}, got {value!r}")
    return float(value)


def _check_int(value, name: str, lo: int, hi: float = math.inf) -> int:
    """The one rule for integer arguments: value as an int, if it is an
    integer in [lo, hi]."""
    if not (_is_real(value) and isinstance(value, numbers.Integral)
            and lo <= value <= hi):
        raise ParameterError(f"{name} must be an integer in "
                             f"{_interval(lo, hi)}, got {value!r}")
    return int(value)


def _check_level(u) -> float:
    return _check_param(u, "level u", 0, 1, lo_open=True, hi_open=True)


class Copula:
    """Common interface: a bivariate CDF on the unit square.

    A family defines one kernel, ``_log_cdf(lu, lv)``; ``log_cdf`` evaluates
    it and ``cdf`` takes its exp.  Where a base has no exact
    ``_log_survival``, its survival copula's kernel is the log of a linear
    sum that cancels in the tail, and a sum at or below ``_CANCEL`` = 4 eps
    counts as 0.
    """

    family: ClassVar[str] = "abstract"

    def _log_cdf(self, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
        """log C(e^lu, e^lv) for finite lu, lv <= 0: each family's kernel."""
        raise NotImplementedError(
            f"{type(self).__name__} defines no kernel _log_cdf")

    def _log_cdf_unit(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """log C(u, v) on [0, 1]: zeros enter the kernel as 1, leave as -inf."""
        if u.all() and v.all():
            return self._log_cdf(np.log(u), np.log(v))
        zero = (u == 0.0) | (v == 0.0)
        out = self._log_cdf(np.log(np.where(zero, 1.0, u)),
                            np.log(np.where(zero, 1.0, v)))
        return np.where(zero, -np.inf, out)

    def cdf(self, u, v):
        """Evaluate C(u, v), the exp of the kernel; scalars in, scalar out."""
        ua = _as_unit(u, "u")
        va = _as_unit(v, "v")
        return _scalar_like(np.exp(self._log_cdf_unit(ua, va)), u, v)

    def log_cdf(self, u, v):
        """Evaluate log C(u, v), -inf where u or v is 0."""
        ua = _as_unit(u, "u")
        va = _as_unit(v, "v")
        return _scalar_like(self._log_cdf_unit(ua, va), u, v)

    def survival(self) -> "Copula":
        """The survival copula u + v - 1 + C(1-u, 1-v)."""
        return SurvivalCopula(self)

    def params(self) -> dict:
        """Config-style mapping describing this copula: family and fields."""
        names = [f.name for f in fields(self)] if is_dataclass(self) else []
        return {"family": self.family, **{k: getattr(self, k) for k in names}}

    def maximizers(self, u: float) -> tuple[float, ...] | None:
        """Known maximizers of x -> C(x, u^2/x) at level u, or None: the
        diagonal x = u where ``shape()`` proves it, so a family writes only
        its other closed forms."""
        return (u,) if self.shape() == "diagonal" else None

    def kappa_star(self) -> float | None:
        """Known maximal-path exponent, or None."""
        return None

    def shape(self) -> str | None:
        """The shape of every level function f(t) = log C(e^t, u^2 e^-t),
        proven for the family, which picks its route in :mod:`taildep.paths`:

        * ``"diagonal"``: the family is exchangeable (so ``exchangeable()``
          follows) and f is nondecreasing on [2 log u, log u], so x = u is
          a maximizer;
        * ``"peak"``: f rises strictly, then falls strictly, or is constant,
          on the searched range, [2 log u, log u] for an exchangeable family
          and [2 log u, 0] otherwise, so zooming that range finds the
          maximum (a concave f whose maximum is one point or all the range
          qualifies);
        * None: nothing is proven, and the solver scans.
        """
        return None

    def exchangeable(self) -> bool:
        """Whether C(u, v) = C(v, u): then f(2 log u - t) = f(t), and
        :mod:`taildep.paths` searches [2 log u, log u] only and mirrors.
        Implied by ``"diagonal"``, whose contract requires it; a family
        exchangeable without that shape overrides this."""
        return self.shape() == "diagonal"

    # The absolute error of the kernel's C = exp(_log_cdf), beyond a relative
    # error of a few ulp: 0 for a kernel evaluated in log space.
    _cdf_abs_error = 0.0

    # The exact log kernel of the survival copula, _log_survival(lu, lv) =
    # log C^(e^lu, e^lv), where the family has one whose terms do not cancel;
    # None: SurvivalCopula takes the log of the linear sum.
    _log_survival = None

    def survival_shape(self) -> str | None:
        """``shape()`` of the survival copula, proven in the family's
        docstring on its exact ``_log_survival``; None by default."""
        return None

    def tau(self) -> float:
        """Kendall's tau in closed form."""
        raise UnsupportedMethodError(
            f"no closed-form Kendall tau for family {self.family!r}")

    def sampler(self) -> tuple[int, Callable[..., None]]:
        """Uniforms per pair, ncols, and ``fill(w, uv)``, which writes the pairs
        of ncols rows w of uniforms into rows uv in place; it may overwrite w."""
        raise UnsupportedMethodError(f"no sampler for family {self.family!r}")

    # The corner test of the sampler, _corner(w, t, upper=False): for rows w
    # of uniforms, as ``fill`` takes them, and a level t in [0, 1), a mask of
    # draws whose pair, as ``fill`` computes it, lies in [0, t]^2, or has
    # fl(1 - x) <= t in both coordinates with ``upper``; it may miss some.
    # Its thresholds carry a relative margin of at least 1e-9, which covers
    # the rounding of ** and of 1 - x.  None: no test.
    _corner = None


@dataclass(frozen=True)
class Independence(Copula):
    """C(u, v) = u v."""

    family: ClassVar[str] = "independence"

    def _log_cdf(self, lu, lv):
        return lu + lv

    def maximizers(self, u):
        """None: f is constant, so every x is a maximizer, not x = u alone."""
        return None

    def kappa_star(self):
        return 2.0

    def shape(self):
        """f(t) = 2 log u is constant."""
        return "diagonal"

    def sampler(self):
        return 2, lambda w, uv: np.copyto(uv, w)


@dataclass(frozen=True)
class FrechetUpper(Copula):
    """Comonotone copula C(u, v) = min(u, v)."""

    family: ClassVar[str] = "frechet_upper"

    def _log_cdf(self, lu, lv):
        return np.minimum(lu, lv)

    def kappa_star(self):
        return 1.0

    def shape(self):
        """f(t) = min(t, 2 log u - t) rises up to log u."""
        return "diagonal"

    # the survival copula u + v - 1 + min(1-u, 1-v) is min(u, v) itself
    _log_survival = _log_cdf
    survival_shape = shape

    def sampler(self):
        return 1, lambda w, uv: np.copyto(uv, w)  # the one row to both


@dataclass(frozen=True)
class _ShockPair(Copula):
    """Marshall-Olkin-type copula with shock parameters a, b in [0, 1]."""

    a: float
    b: float

    def __post_init__(self):
        _check_param(self.a, "a", 0.0, 1.0)
        _check_param(self.b, "b", 0.0, 1.0)

    def shape(self):
        """One peak, the diagonal when a = b, for Marshall-Olkin and its
        mixture alike: proven in each class's docstring."""
        return "diagonal" if self.a == self.b else "peak"

    def kappa_star(self):
        """2 - 2 a b / (a + b), for Marshall-Olkin and its mixture alike."""
        s = self.a + self.b
        if s == 0.0:  # independence corner
            return 2.0
        return 2.0 - 2.0 * self.a * self.b / s

    def _log_survival(self, lu, lv):
        """log C^(u, v) = log(u v + (1-u)(1-v) E(P, Q)), with P = -log1p(-u),
        Q = -log1p(-v) and E the family's ``_excess``: as
        C(1-u, 1-v) = (1-u)(1-v) (1 + E) and u + v - 1 + (1-u)(1-v) = u v,
        both terms are >= 0 and nothing cancels.  Each element takes log E
        from its own E: directly where E >= 2^-969, 53 bits above the normal
        doubles, and elsewhere from the family's ``_log_excess``, the log of
        the linearised excess, as there the shock m < e^-37 and
        expm1(m) = m to the last bit, while P, Q or E itself may have lost
        digits below the normal doubles (u or v below 2.2e-308, say)."""
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            p = -np.log1p(-np.exp(lu))  # inf at u = 1
            q = -np.log1p(-np.exp(lv))
            e = self._excess(p, q)
            g = np.log(e)
            # the least E first: cheaper than the mask where none is tiny
            if np.fmin.reduce(e, axis=None, initial=np.inf) < 2.0 ** -969:
                tiny = e < 2.0 ** -969
                # below -37, P = e^lu to the last bit, so log P = lu, where P
                # itself may have lost digits or be 0
                lp = np.where(lu < -37.0, lu, np.log(p))
                lq = np.where(lv < -37.0, lv, np.log(q))
                g = np.where(tiny, self._log_excess(lp, lq), g)
            return _log_uv_plus(lu, lv, g - p - q)


def _log_uv_plus(lu, lv, g):
    """log(u v + e^g), the survival kernel's sum of two terms >= 0."""
    # np.logaddexp(lu + lv, g), whose scalar loop would take half the
    # kernel's time: the same max + log1p(e^-|difference|)
    s = lu + lv
    out = np.log1p(np.exp(-np.abs(g - s)))
    out += np.maximum(s, g)
    # nan only where u = v = 1, or u = 1 meets a zero shock: there
    # C^ = min(u, v), the Frechet bound, which fmin takes for nan
    return np.fmin(out, np.minimum(lu, lv))


def _root(s: float) -> float:
    # x ** inf = 0 on [0, 1): at a = 0 a margin is its own draw, at a = 1 the shock
    return 1.0 / s if s > 0.0 else math.inf


# the relative margin of a corner threshold (Copula._corner)
_MARGIN = 1e-9


@dataclass(frozen=True)
class MarshallOlkin(_ShockPair):
    """C(u, v) = min(u^(1-a) v, u v^(1-b)) with a, b in [0, 1].

    One peak on the level (``shape``): f(t) = min((1-a) t + lv, t + (1-b) lv)
    with lv = 2 log u - t, that is min(2 log u - a t, b t + 2 (1-b) log u),
    rises with slope b up to t = 2 b log u / (a + b), then falls with slope
    -a, and is constant when a or b is 0.  With a = b the peak is log u.
    """

    family: ClassVar[str] = "marshall_olkin"

    def _log_cdf(self, lu, lv):
        return np.minimum((1.0 - self.a) * lu + lv, lu + (1.0 - self.b) * lv)

    def maximizers(self, u):
        if self.a == 0.0 or self.b == 0.0:  # degenerates to independence
            return None
        return (u ** (2.0 * self.b / (self.a + self.b)),)

    def kappa_diag(self) -> float:
        """Exponent of the diagonal decay C(u, u) = u^(2 - min(a, b))."""
        return 2.0 - min(self.a, self.b)

    def _excess(self, p, q):
        """expm1(min(a P, b Q)): C(e^-P, e^-Q) = e^(-P-Q) e^min(aP, bQ)."""
        return np.expm1(np.minimum(self.a * p, self.b * q))

    def _log_excess(self, lp, lq):
        """The log of the linearised ``_excess`` from lp = log P and
        lq = log Q: log m = min(log a + lp, log b + lq), where expm1(m) = m."""
        return np.minimum(np.log(self.a) + lp, np.log(self.b) + lq)

    def survival_shape(self):
        """One peak, the diagonal when a = b.  On the level x y = u^2, so
        f = log(u^2 + G) with G = min(G_a, G_b), G_a = e^(-P-Q) expm1(a P)
        and G_b = e^(-P-Q) expm1(b Q), where P = -log1p(-x) rises strictly
        in t = log x and Q = -log1p(-y) falls strictly.  As dP/dt = e^P - 1
        and dQ/dt = 1 - e^Q, d log G_a / dt = e^Q + phi(P) with
        phi(P) = a expm1(P) / (1 - e^(-aP)) - e^P.  And phi' <= 0: with
        E = e^(-aP) in (0, 1) it is equivalent to psi(E) = (1-E) - (1-E)^2/a
        - a E + a E^(1+1/a) <= 0, which holds as psi(1) = psi'(1) = 0 and
        psi'' = ((1+a) E^((1-a)/a) - 2) / a <= 0.  So d log G_a / dt falls
        strictly, with e^Q, and log G_a is strictly concave; log G_b is its
        mirror image (x and y, a and b traded), and a min of strictly
        concave functions is strictly concave.  f, an increasing function of
        log G, rises strictly, then falls strictly; it is constant when a or
        b is 0 (G = 0).  With a = b, f is symmetric about log u, its peak.
        The peak need not be the kink a P = b Q, where G_a = G_b."""
        return "diagonal" if self.a == self.b else "peak"

    def tau(self):
        denom = self.a + self.b - self.a * self.b
        if denom == 0.0:  # a = b = 0 is the independence copula
            return 0.0
        return self.a * self.b / denom

    def sampler(self):
        return 3, self._fill

    def _fill(self, w, uv):
        # u = max(w0^(1/(1-a)), w2^(1/a)), v alike; **= dispatches as ** does
        w[0] **= _root(1.0 - self.a)
        w[1] **= _root(1.0 - self.b)
        np.copyto(uv, w[2])
        uv[0] **= _root(self.a)
        uv[1] **= _root(self.b)
        np.maximum(w[:2], uv, out=uv)

    def _corner(self, w, t, upper=False):
        """u = max(W0^r, W2^s), r = 1/(1-a) and s = 1/a, rises with each
        uniform, so u <= t where W0 <= t^(1-a) and W2 <= t^a, and u >= c
        where W0 >= c^(1-a) or W2 >= c^a; v alike with b and W1.  The upper
        corner takes c = 1 - t, as u >= 1 - t gives fl(1 - u) <= t.  Each
        threshold is moved inwards by ``_MARGIN``, relative: as r, s >= 1,
        the power keeps that margin, which covers the threshold's own
        rounding and that of the power (at r = inf the threshold is 1)."""
        a1, b1 = 1.0 - self.a, 1.0 - self.b
        if not upper:
            lo = 1.0 - _MARGIN
            out = w[0] <= t ** a1 * lo
            out &= w[1] <= t ** b1 * lo
            out &= w[2] <= min(t ** self.a, t ** self.b) * lo
            return out
        c, hi = 1.0 - t, 1.0 + _MARGIN
        out = w[0] >= c ** a1 * hi
        out |= w[2] >= c ** self.a * hi
        v = w[1] >= c ** b1 * hi
        v |= w[2] >= c ** self.b * hi
        out &= v
        return out


@dataclass(frozen=True)
class MixtureMO(_ShockPair):
    """Symmetric half-half mixture of Marshall-Olkin copulas (a,b) and (b,a).

    The (b, a) component is the (a, b) one transposed, C(v, u), so every
    kernel and the sampler are those of :class:`MarshallOlkin` (a, b).

    One peak on each half of the level (``shape``).  Let L = log u.  The
    (a, b) component's level function is f1(t) = min(2L - a t,
    b t + 2 (1-b) L): it rises with slope b up to t1 = 2 b L / (a + b),
    then falls with slope -a.  The (b, a) one is f2(t) = f1(2L - t).  For
    a, b > 0 take a <= b, so t1 <= L; a > b is the mirror image.  On
    [2L, t1] both components rise strictly.  On [t1, L], e^f1 + e^f2 =
    A e^(-a t) + B e^(a t) is strictly convex, and its derivative at L is
    a (e^f2(L) - e^f1(L)) = 0, so it falls strictly.  So f rises strictly
    up to t1 and falls strictly from t1 to L: one peak on [2L, L], at the
    closed form u^(2b/(a+b)).  With a = b, t1 = L and f rises up to the
    diagonal.  With a or b = 0, C(u, v) = u v and f is constant.
    """

    family: ClassVar[str] = "mixture_mo"

    @functools.cached_property
    def _mo(self) -> MarshallOlkin:
        return MarshallOlkin(self.a, self.b)

    def _log_cdf(self, lu, lv):
        return np.logaddexp(self._mo._log_cdf(lu, lv),
                            self._mo._log_cdf(lv, lu)) - math.log(2.0)

    def _excess(self, p, q):
        """The mean of the (a, b) excess and its transpose: the survival
        kernel is one call, P and Q computed once."""
        return 0.5 * (self._mo._excess(p, q) + self._mo._excess(q, p))

    def _log_excess(self, lp, lq):
        """The log of the linearised ``_excess`` from lp = log P and
        lq = log Q, the log-mean of the two orderings; with a = b, the (a, b)
        one itself, as its transpose is the same."""
        if self.a == self.b:
            return self._mo._log_excess(lp, lq)
        return np.logaddexp(self._mo._log_excess(lp, lq),
                            self._mo._log_excess(lq, lp)) - math.log(2.0)

    def survival_shape(self):
        """The diagonal when a = b, None otherwise.  With a = b both
        components are MO(a, a), whose excess is its own transpose, and
        0.5 * (E + E) = E exactly: the survival kernel is survival
        MO(a, a)'s bit for bit (``MarshallOlkin.survival_shape``).  For
        a != b the sum of the two log-concave excesses has no proof of one
        peak on [2 log u, log u], and the survival mixture is scanned."""
        return "diagonal" if self.a == self.b else None

    def exchangeable(self):
        """The (a, b) and (b, a) components trade places under (u, v) -> (v, u)."""
        return True

    def maximizers(self, u):
        """The maximizers of both orderings, one point when a = b."""
        ab = self._mo.maximizers(u)
        if ab is None or self.a == self.b:
            return ab
        return tuple(sorted(ab + MarshallOlkin(self.b, self.a).maximizers(u)))

    def sampler(self):
        return 4, self._fill

    def _fill(self, w, uv):
        # an (a, b) draw, its pair swapped where w3 < 0.5 for the (b, a) one:
        # a select of the bits, u ^= d and v ^= d with d = (u ^ v) & mask;
        # mask, the int64 bits of w3 - 0.5 shifted right by 63, is all ones
        # where that difference is negative
        self._mo._fill(w, uv)
        bits, mask = uv.view(np.uint64), w[3].view(np.int64)
        np.subtract(w[3], 0.5, out=w[3])
        mask >>= 63
        d = np.bitwise_xor(bits[0], bits[1], out=w[0].view(np.uint64))
        d &= mask.view(np.uint64)
        bits ^= d

    def _corner(self, w, t, upper=False):
        """The (a, b) draw's: the swap keeps a pair in a square corner."""
        return self._mo._corner(w, t, upper)


def _fgm_conditional_inverse(w: np.ndarray, uv: np.ndarray, alpha: float) -> None:
    # Solve w1 = v (1 + A (1 - v)) for v, A = alpha (1 - 2 w0), and u = w0;
    # the stable quadratic root 2 w1 / (1 + A + sqrt((1+A)^2 - 4 A w1))
    # degrades gracefully to v = w1 as A -> 0.  u holds A, then 1 + A.
    u, v = uv
    np.subtract(1.0, np.multiply(w[0], 2.0, out=u), out=u)
    u *= alpha
    np.square(np.add(u, 1.0, out=v), out=v)  # what ** 2 runs
    t = np.multiply(u, 4.0)
    t *= w[1]
    v -= t
    np.add(np.add(u, 1.0, out=u), np.sqrt(v, out=v), out=u)
    np.divide(np.multiply(w[1], 2.0, out=v), u, out=v)
    np.copyto(u, w[0])


@dataclass(frozen=True)
class FGM(Copula):
    """Farlie-Gumbel-Morgenstern copula u v (1 + alpha (1-u)(1-v))."""

    alpha: float

    family: ClassVar[str] = "fgm"

    def __post_init__(self):
        _check_param(self.alpha, "alpha", -1.0, 1.0)

    def _log_cdf(self, lu, lv):
        # 1 + alpha (1-u)(1-v) = (1 + alpha) - alpha s with s = 1 - (1-u)(1-v):
        # for alpha < 0 both terms are >= 0, so nothing cancels as alpha -> -1
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf at u = 1
            s = -np.expm1(np.log1p(-np.exp(lu)) + np.log1p(-np.exp(lv)))
        return lu + lv + np.log((1.0 + self.alpha) - self.alpha * s)

    def kappa_star(self):
        return 2.0 if self.alpha > 0.0 else None

    def shape(self):
        """For alpha > 0, f(t) = 2 log u + log1p(alpha h(t)) with
        h(t) = (1 - e^t)(1 - u^2 e^-t) >= 0, whose second derivative
        -e^t - u^2 e^-t is negative: a concave increasing function of a
        strictly concave h is strictly concave, and f, symmetric about
        log u, rises up to it.  No proof is claimed for alpha <= 0 (alpha < 0
        peaks at both ends)."""
        return "diagonal" if self.alpha > 0.0 else None

    def exchangeable(self):
        return True

    def sampler(self):
        return 2, lambda w, uv: _fgm_conditional_inverse(w, uv, self.alpha)


def _log_exp_sum_m1(a, b):
    """log(e^a + e^b - 1) for a, b >= 0, shifted by m = max(a, b) so no huge
    power materializes, however deep the level; expm1 keeps the small terms
    of tiny a and b, the Clayton kernels near independence."""
    m = np.maximum(a, b)
    return m + np.log1p(np.expm1(a - m) + np.expm1(b - m) - np.expm1(-m))


def _clayton_log_cdf(theta, lu, lv):
    """log (u^-theta + v^-theta - 1)^(-1/theta) at u = e^lu, v = e^lv: the
    kernel of :class:`Clayton` and of the Archimedean copula on
    :func:`clayton_generator`."""
    return -_log_exp_sum_m1(-theta * lu, -theta * lv) / theta


@dataclass(frozen=True)
class GeneralizedClayton(Copula):
    """Asymmetric Clayton-type copula.

    C(u, v) = u^(g1/gt) * (u^(-1/gt) + v^(-1/g0) - 1)^(-g0) with g0 > 0,
    g1 >= 0 and gt = g0 + g1.  g1 = 0 recovers :class:`Clayton`, theta = 1/g0.
    """

    gamma0: float
    gamma1: float

    family: ClassVar[str] = "generalized_clayton"

    def __post_init__(self):
        _check_param(self.gamma0, "gamma0", 0.0, math.inf, lo_open=True)
        _check_param(self.gamma1, "gamma1", 0.0, math.inf)

    @property
    def gamma1_tilde(self) -> float:
        return self.gamma0 + self.gamma1

    def _log_cdf(self, lu, lv):
        g0, gt = self.gamma0, self.gamma1_tilde
        return (self.gamma1 / gt) * lu - g0 * _log_exp_sum_m1(-lu / gt, -lv / g0)

    def maximizers(self, u):
        """The diagonal where g1 = 0 (``shape``), else the unique root of
        :func:`zeta`, to a relative 1e-12."""
        return Copula.maximizers(self, u) or (
            zeta_root(self.gamma0, self.gamma1, u, xtol=1e-12),)

    def kappa_star(self):
        return 1.0 + self.gamma1 / (self.gamma1 + 2.0 * self.gamma0)

    def shape(self):
        """f(t) = (g1/gt) t - g0 g(t) with g = log S, S = e^A + e^B - 1,
        A = -t/gt and B = -(2 log u - t)/g0, both affine in t and >= 0.
        Then S^2 g'' = e^(A+B) ((A' - B')^2 - A'^2 e^-B - B'^2 e^-A), and
        since A' = -1/gt and B' = 1/g0 have opposite signs,
        (A' - B')^2 > A'^2 + B'^2, which e^-A, e^-B <= 1 make more than the
        subtracted terms: g is strictly convex and f strictly concave, one
        peak.  With g1 = 0, f is symmetric about log u, its peak.  Clayton
        is g1 = 0."""
        return "diagonal" if self.gamma1 == 0.0 else "peak"


def _zeta_logs(cop: GeneralizedClayton, log_u: float,
               lx) -> tuple[np.ndarray, float]:
    """Logs of the two positive parts of the maximizer equation at log x.

    The equation for the interior maximizer of the generalized Clayton level
    function reads  x^(-1/g0) (x^(-1/gt) - g1/gt) = (g0/gt) u^(-2/g0); both
    sides are positive on [u^2, 1], so their logs subtract stably where the
    raw values would overflow (u^(-2/g0) blows past double range for small
    g0 and u).
    """
    gamma0, gamma1, gt = cop.gamma0, cop.gamma1, cop.gamma1_tilde
    lhs = -(1.0 / gamma0 + 1.0 / gt) * lx + np.log1p(
        -(gamma1 / gt) * np.exp(lx / gt))
    rhs = math.log(gamma0 / gt) - (2.0 / gamma0) * log_u
    return lhs, rhs


def zeta(gamma0: float, gamma1: float, u: float, x) -> float | np.ndarray:
    """Stationarity function whose unique root is the interior maximizer.

    zeta(x) = x^(-1/g0) (x^(-1/gt) - g1/gt) - (1 - g1/gt) u^(-2/g0), with
    gt = g0 + g1.  It is positive at x = u^2, negative at x = 1 and strictly
    decreasing in between.  Evaluated in log-stabilized form; raises
    :class:`EvaluationOverflowError` when the value itself exceeds double
    range (tiny gamma0 together with tiny u).
    """
    cop, u = GeneralizedClayton(gamma0, gamma1), _check_level(u)
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= u * u * (1.0 - 1e-12)) & (xa <= 1.0 + 1e-12)):
        raise ParameterError(f"x must lie in [u^2, 1], got {x!r}")
    lhs, rhs = _zeta_logs(cop, math.log(u), np.log(np.clip(xa, u * u, 1.0)))
    with np.errstate(over="ignore"):
        out = np.exp(rhs) * np.expm1(lhs - rhs)
    if np.any(np.isinf(out)):
        raise EvaluationOverflowError(
            f"zeta overflowed: u^(-2/gamma0) = exp({rhs - math.log(gamma0 / (gamma0 + gamma1)):.1f}) "
            "exceeds double-precision range; work with zeta_root instead")
    return _scalar_like(out, x)


def zeta_root(gamma0: float, gamma1: float, u: float,
              xtol: float = 1e-9) -> float:
    """Unique root of ``zeta`` on [u^2, 1], by bisection in t = log x.

    The sign change at the endpoints plus strict monotonicity make bisection
    unconditionally correct.  ``xtol`` is a width in log x (relative in x); a
    root below the normal double range raises :class:`NumericError`.
    """
    cop, u = GeneralizedClayton(gamma0, gamma1), _check_level(u)
    _check_param(xtol, "xtol", 0, 1, lo_open=True, hi_open=True)
    log_u = math.log(u)

    def margin(t: float) -> float:
        lhs, rhs = _zeta_logs(cop, log_u, t)
        return float(lhs) - rhs

    lo, hi = 2.0 * log_u, 0.0
    m_lo, m_hi = margin(lo), margin(hi)
    if not (m_lo > 0.0 and m_hi < 0.0):
        raise BracketError(
            f"zeta sign conditions failed on [exp({lo!r}), 1]: "
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
    root = math.exp(0.5 * (lo + hi))
    if root < np.finfo(float).tiny:
        raise NumericError(f"zeta root at u={u!r} is below the double range")
    return root


@dataclass(frozen=True)
class Clayton(Copula):
    """Clayton copula (u^(-theta) + v^(-theta) - 1)^(-1/theta), theta > 0."""

    theta: float

    family: ClassVar[str] = "clayton"

    def __post_init__(self):
        _check_param(self.theta, "theta", 0.0, math.inf, lo_open=True)

    def _log_cdf(self, lu, lv):
        return _clayton_log_cdf(self.theta, lu, lv)

    def kappa_star(self):
        return 1.0

    def shape(self):
        """f(t) = -log(e^A + e^B - 1)/theta with A = -theta t and
        B = -theta (2 log u - t): the generalized Clayton argument
        (``GeneralizedClayton.shape``) with A' = -theta, B' = theta."""
        return "diagonal"


# the points of the generator's validation sweep (``Generator.__post_init__``)
_GENERATOR_CHECK_GRID = np.linspace(0.05, 0.95, 19)


@dataclass(frozen=True, eq=False)
class Generator:
    """Handle for an Archimedean generator psi, which states the whole
    Archimedean contract: it checks itself when it is built, and its
    ``_log_cdf`` is the kernel of its copula psi_inv(psi(u) + psi(v)).

    All four callables must be explicit and vectorized; inverting psi
    numerically is deliberately unsupported because inversion error would
    contaminate CDF values at tail levels around 1e-6.  Construction sweeps
    ``_GENERATOR_CHECK_GRID`` and raises :class:`GeneratorError`, naming the
    callable, unless psi(1) = 0, psi' < 0, psi'' > 0, psi > 0 and
    psi_inv(psi(t)) = t hold there.  A NaN fails every check; an infinity
    of the required sign, an overflow of a valid value, passes.  Handles
    compare by identity: the name alone does not tell two generators apart,
    and ``params``, the generator's parameters by name, tell them apart in
    print.
    """

    name: str
    psi: Callable
    psi_prime: Callable
    psi_second: Callable
    psi_inv: Callable
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        t = _GENERATOR_CHECK_GRID
        try:
            # an overflow leaves an infinity, which passes a check below where
            # its sign is the required one
            with np.errstate(over="ignore"):
                at_one = float(self.psi(1.0))
                d1 = np.asarray(self.psi_prime(t), dtype=float)
                d2 = np.asarray(self.psi_second(t), dtype=float)
                s = np.asarray(self.psi(t), dtype=float)
                finite = (s > 0.0) & (s < np.inf)  # psi = +inf: no round trip
                back = np.asarray(self.psi_inv(s[finite]), dtype=float)
        except (OverflowError, FloatingPointError) as exc:
            raise GeneratorError(
                f"generator {self.name!r} failed its validation sweep: {exc}",
                component="psi") from exc
        # (component, what must hold, message), in order
        for component, holds, message in (
                ("psi", abs(at_one) <= 1e-9, f"psi(1) = {at_one!r}, expected 0"),
                ("psi_prime", d1 < 0.0, "psi' must be negative on (0, 1)"),
                ("psi_second", d2 > 0.0, "psi'' must be positive on (0, 1)"),
                ("psi", s > 0.0, "psi must be positive on (0, 1)"),
                ("psi_inv", np.abs(back - t[finite]) <= 1e-8,
                 "psi_inv(psi(t)) != t on the check grid")):
            if not np.all(holds):
                raise GeneratorError(f"generator {self.name!r}: {message}",
                                     component=component)

    def _log_cdf(self, lu, lv):
        """log C(e^lu, e^lv) = log psi_inv(psi(u) + psi(v)) of the
        Archimedean copula on this generator, where a NaN raises
        :class:`GeneratorError` naming the callable that returned it.  A
        generator with an exact log kernel overrides it."""
        with np.errstate(divide="ignore", over="ignore"):
            s = np.asarray(self.psi(np.exp(lu)) + self.psi(np.exp(lv)), dtype=float)
            out = np.asarray(self.psi_inv(s), dtype=float)
        for component, value in (("psi", s), ("psi_inv", out)):
            if np.any(np.isnan(value)):
                raise GeneratorError(
                    f"generator {self.name!r}: {component} returned NaN during "
                    "CDF evaluation", component=component)
        with np.errstate(divide="ignore"):
            return np.log(out)

    def slope_nondecreasing(self) -> bool:
        """Whether h(x) = x psi'(x) is proven nondecreasing on (0, 1]; then
        the diagonal is the maximal path of the Archimedean copula at every
        level (``Archimedean.shape``).  False unless a generator with a
        proof says otherwise: :func:`archimedean_diagonal_check` samples h,
        which proves nothing."""
        return False


class _ClaytonGenerator(Generator):
    def _log_cdf(self, lu, lv):
        return _clayton_log_cdf(self.params["theta"], lu, lv)

    def slope_nondecreasing(self):
        """h(x) = x psi'(x) = -x^(-theta) rises strictly for theta > 0."""
        return True


def clayton_generator(theta: float) -> Generator:
    """Strict Clayton generator psi(t) = (t^(-theta) - 1) / theta, theta > 0."""
    theta = _check_param(theta, "theta", 0.0, math.inf, lo_open=True)
    return _ClaytonGenerator(
        name="clayton",
        psi=lambda t: (np.power(t, -theta) - 1.0) / theta,
        psi_prime=lambda t: -np.power(t, -theta - 1.0),
        psi_second=lambda t: (theta + 1.0) * np.power(t, -theta - 2.0),
        psi_inv=lambda s: np.power(1.0 + theta * s, -1.0 / theta),
        params={"theta": theta},
    )


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


def archimedean_diagonal_check(generator: Generator, u: float) -> bool:
    """Whether x psi'(x) is nondecreasing on [u^2, 1].

    When it is, the diagonal maximizes C(x, u^2/x) for the Archimedean
    copula built on ``generator``; the generator must be strict, otherwise
    no admissible path exists at all and :class:`GeneratorError` is raised.
    The check samples 128 log-spaced points of [u^2, 1].  A sample is no
    proof, so the answer picks neither a solver route nor
    ``Archimedean.maximizers``: only ``Generator.slope_nondecreasing`` does.
    """
    u = _check_level(u)
    _require_strict(generator)
    x = np.exp(np.linspace(2.0 * math.log(u), 0.0, 128))
    g = x * np.asarray(generator.psi_prime(x), dtype=float)
    if np.any(~np.isfinite(g)):
        raise GeneratorError(
            f"generator {generator.name!r}: x psi'(x) not finite on [u^2, 1]",
            component="psi_prime")
    slack = 1e-9 * float(np.max(np.abs(g)))
    return bool(np.all(np.diff(g) >= -slack))


@dataclass(frozen=True)
class Archimedean(Copula):
    """Archimedean copula psi_inv(psi(u) + psi(v)) on a :class:`Generator`,
    which has checked its contract when it was built and evaluates the
    kernel."""

    generator: Generator

    family: ClassVar[str] = "archimedean"

    def _log_cdf(self, lu, lv):
        return self.generator._log_cdf(lu, lv)

    def exchangeable(self):
        """psi(u) + psi(v) is symmetric in u and v."""
        return True

    def shape(self):
        """The paper's criterion: with h(x) = x psi'(x) and
        g(t) = psi(e^t) + psi(u^2 e^-t), g'(t) = h(x) - h(u^2/x) at x = e^t.
        If h is nondecreasing, g' <= 0 for x <= u, and f = log psi_inv(g),
        psi_inv decreasing, rises up to the diagonal.  Proven only where the
        generator proves h nondecreasing (``Generator.slope_nondecreasing``).
        """
        return "diagonal" if self.generator.slope_nondecreasing() else None

    def params(self):
        """The family, the generator's name and its ``params``.  The mapping
        does not re-enter ``copula_from_mapping``, which rejects it:
        ``archimedean`` is not a config family, as a generator's callables
        have no text form."""
        g = self.generator
        return {"family": self.family, "generator": g.name, **g.params}


# the survival sum's cancellation floor: four ulp of 1
_CANCEL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True, repr=False)
class SurvivalCopula(Copula):
    """Survival copula of a base copula: u + v - 1 + C(1-u, 1-v)."""

    base: Copula

    family: ClassVar[str] = "survival"

    def _log_cdf(self, lu, lv):
        """The base's exact ``_log_survival`` where it has one.  Otherwise the
        log of the linear sum, whose terms are of order 1, so that a sum at or
        below ``_CANCEL``, a few ulp of 1, is rounding noise and counts as 0."""
        if self.base._log_survival is not None:
            return self.base._log_survival(lu, lv)
        u, v = np.exp(lu), np.exp(lv)
        raw = u + v - 1.0 + np.exp(self.base._log_cdf_unit(1.0 - u, 1.0 - v))
        with np.errstate(divide="ignore"):
            return np.log(np.where(raw > _CANCEL, np.minimum(raw, 1.0), 0.0))

    @property
    def _cdf_abs_error(self) -> float:
        """0 for the base's exact kernel.  The linear sum is off by up to
        ``_CANCEL`` where it counts as 0, and by the rounding of its order-1
        terms elsewhere, which the kernel tests hold within 2e-15: 4
        ``_CANCEL`` covers both."""
        return 0.0 if self.base._log_survival is not None else 4.0 * _CANCEL

    def survival(self) -> Copula:
        return self.base  # reflecting twice is the identity

    def shape(self):
        """The base's ``survival_shape``: a shape is proven only on an exact
        kernel, as the linear sum's cancellation noise has no one peak."""
        return self.base.survival_shape()

    def exchangeable(self):
        """The reflection (u, v) -> (1-u, 1-v) commutes with the swap."""
        return self.base.exchangeable()

    def params(self):
        return {"family": self.family, "base": self.base.params()}

    def sampler(self):
        """The reflection (1-U, 1-V) of a base draw."""
        ncols, base = self.base.sampler()
        return ncols, lambda w, uv: (base(w, uv), np.subtract(1.0, uv, out=uv))

    @property
    def _corner(self):
        """The base's test with the corner flipped, or None where it has none.
        The reflection maps the base's upper corner onto the lower one.  The
        reflection of a reflection, fl(1 - fl(1 - x)), is within 2^-54 of x,
        so the upper corner asks the base's lower one 2^-53 lower."""
        corner = self.base._corner
        if corner is None:
            return None
        return lambda w, t, upper=False: (
            corner(w, max(t - 2.0 ** -53, 0.0), False) if upper
            else corner(w, t, True))

    def __repr__(self):
        return f"SurvivalCopula({self.base!r})"


# config family name -> (constructor, parameter keys): the dataclass fields
FAMILIES: dict[str, tuple[Callable[..., Copula], tuple[str, ...]]] = {
    cls.family: (cls, tuple(f.name for f in fields(cls)))
    for cls in (Independence, FrechetUpper, MarshallOlkin, MixtureMO, FGM,
                GeneralizedClayton, Clayton)}


@dataclass(frozen=True)
class AxiomReport:
    """Result of a lattice check of the three copula axioms."""

    grid_n: int
    tol: float
    grounded_ok: bool
    marginals_ok: bool
    max_marginal_dev: float
    two_increasing_ok: bool
    min_rectangle_mass: float
    worst_rectangle: tuple[float, float, float, float]

    @property
    def all_ok(self) -> bool:
        return self.grounded_ok and self.marginals_ok and self.two_increasing_ok


def check_axioms(cop: Copula, grid_n: int = 100, tol: float = 1e-10) -> AxiomReport:
    """Verify groundedness, uniform marginals and rectangle masses >= -tol.

    Evaluates C on a (grid_n+1)^2 lattice.  Failures are reported through the
    flags, never raised, so a deliberately corrupted copula can be used as a
    negative control.
    """
    _check_int(grid_n, "grid_n", 2)
    _check_param(tol, "tol", 0.0, math.inf)
    g = np.linspace(0.0, 1.0, grid_n + 1)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    c = np.asarray(cop.cdf(uu, vv), dtype=float)

    grounded = max(np.max(np.abs(c[0, :])), np.max(np.abs(c[:, 0])))
    marg = max(np.max(np.abs(c[:, -1] - g)), np.max(np.abs(c[-1, :] - g)))

    mass = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    i, j = np.unravel_index(np.argmin(mass), mass.shape)
    worst = (float(g[i]), float(g[i + 1]), float(g[j]), float(g[j + 1]))

    return AxiomReport(
        grid_n=grid_n,
        tol=tol,
        grounded_ok=bool(grounded <= tol),
        marginals_ok=bool(marg <= tol),
        max_marginal_dev=float(max(grounded, marg)),
        two_increasing_ok=bool(np.min(mass) >= -tol),
        min_rectangle_mass=float(np.min(mass)),
        worst_rectangle=worst,
    )
