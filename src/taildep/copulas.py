"""Bivariate copula families evaluated through their CDFs.

Each family is a small frozen dataclass that validates its parameters on
construction and exposes two evaluation routes:

* ``cdf(u, v)``   -- the copula value C(u, v), vectorized over numpy arrays;
* ``log_cdf(u, v)`` -- log C(u, v) through the kernel ``_log_cdf(lu, lv)``,
  which takes log coordinates.  All families but the Archimedean and
  survival copulas evaluate it from the logs without exponentiating, which
  keeps the tail machinery in :mod:`taildep.paths` exact down to u ~ 1e-300.

Every other fact about a family is an optional method of its class, by
default None or :class:`UnsupportedMethodError`: ``maximizers``,
``kappa_star``, ``tau`` and ``sampler``.  ``FAMILIES`` maps each config
family name to its constructor and parameter keys.

``survival()`` wraps any copula into its survival copula
``u + v - 1 + C(1-u, 1-v)``, mapping upper-tail questions onto the lower-tail
machinery.  ``check_axioms`` verifies groundedness, uniform marginals and the
two-increasing property on a lattice; ``kendall_tau`` gives Kendall's tau
in closed form (Marshall-Olkin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, ClassVar

import numpy as np

from taildep.errors import (
    GeneratorError,
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
    "Generator",
    "Archimedean",
    "SurvivalCopula",
    "clayton_generator",
    "DiagonalCheck",
    "archimedean_diagonal_check",
    "FAMILIES",
    "AxiomReport",
    "check_axioms",
    "kendall_tau",
]

_Pair = tuple[np.ndarray, np.ndarray]


def _as_unit(x, name: str) -> np.ndarray:
    """Coerce to float array and reject anything outside [0, 1], nan too."""
    arr = np.asarray(x, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise ParameterError(f"{name} must lie in [0, 1], got {x!r}")
    return arr


def _scalar_like(result: np.ndarray, *inputs) -> np.ndarray | float:
    if all(np.ndim(i) == 0 for i in inputs):
        return float(result)
    return result


def _check_param(value: float, name: str, lo: float, hi: float,
                 lo_open: bool = False) -> None:
    ok = np.isfinite(value) and lo <= value <= hi
    if ok and lo_open and value == lo:
        ok = False
    if not ok:
        bracket = "(" if lo_open else "["
        raise ParameterError(
            f"{name} must lie in {bracket}{lo}, {hi}], got {value!r}")


def _check_level(u: float) -> float:
    if not (np.isfinite(u) and 0.0 < u < 1.0):
        raise ParameterError(f"level u must lie in (0, 1), got {u!r}")
    return float(u)


class Copula:
    """Common interface: a bivariate CDF on the unit square."""

    family: ClassVar[str] = "abstract"

    def _cdf(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log_cdf(self, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
        """log C(e^lu, e^lv) for finite lu, lv <= 0."""
        with np.errstate(divide="ignore"):
            return np.log(self._cdf(np.exp(lu), np.exp(lv)))

    def _log_cdf_unit(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """log C(u, v) on [0, 1]: zeros enter the kernel as 1, leave as -inf."""
        if u.all() and v.all():
            return self._log_cdf(np.log(u), np.log(v))
        zero = (u == 0.0) | (v == 0.0)
        out = self._log_cdf(np.log(np.where(zero, 1.0, u)),
                            np.log(np.where(zero, 1.0, v)))
        return np.where(zero, -np.inf, out)

    def cdf(self, u, v):
        """Evaluate C(u, v); scalars in, scalar out."""
        ua = _as_unit(u, "u")
        va = _as_unit(v, "v")
        return _scalar_like(self._cdf(ua, va), u, v)

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
        """Known maximizers of x -> C(x, u^2/x) at level u, or None."""
        return None

    def kappa_star(self) -> float | None:
        """Known maximal-path exponent, or None."""
        return None

    def tau(self) -> float:
        """Kendall's tau in closed form."""
        raise UnsupportedMethodError(
            f"no closed-form Kendall tau for family {self.family!r}")

    def sampler(self) -> tuple[int, Callable[[np.ndarray], _Pair]]:
        """Uniform columns per pair, and the map from a block of them to (u, v)."""
        raise UnsupportedMethodError(f"no sampler for family {self.family!r}")


@dataclass(frozen=True)
class Independence(Copula):
    """C(u, v) = u v."""

    family: ClassVar[str] = "independence"

    def _cdf(self, u, v):
        return u * v

    def _log_cdf(self, lu, lv):
        return lu + lv

    def kappa_star(self):
        return 2.0

    def sampler(self):
        return 2, lambda w: (w[:, 0], w[:, 1])


@dataclass(frozen=True)
class FrechetUpper(Copula):
    """Comonotone copula C(u, v) = min(u, v)."""

    family: ClassVar[str] = "frechet_upper"

    def _cdf(self, u, v):
        return np.minimum(u, v)

    def _log_cdf(self, lu, lv):
        return np.minimum(lu, lv)

    def maximizers(self, u):
        return (u,)

    def kappa_star(self):
        return 1.0

    def sampler(self):
        return 1, lambda w: (w[:, 0], w[:, 0])


@dataclass(frozen=True)
class _ShockPair(Copula):
    """Marshall-Olkin-type copula with shock parameters a, b in [0, 1]."""

    a: float
    b: float

    def __post_init__(self):
        _check_param(self.a, "a", 0.0, 1.0)
        _check_param(self.b, "b", 0.0, 1.0)

    def kappa_star(self):
        """2 - 2 a b / (a + b), for Marshall-Olkin and its mixture alike."""
        s = self.a + self.b
        if s == 0.0:  # independence corner
            return 2.0
        return 2.0 - 2.0 * self.a * self.b / s


def _shock(w_shock: np.ndarray, a: float) -> np.ndarray:
    """The shock term W^(1/a) of a Marshall-Olkin margin (W itself at a >= 1)."""
    return w_shock if a <= 0.0 or a >= 1.0 else w_shock ** (1.0 / a)


def _mo_component(w_own: np.ndarray, shock: np.ndarray, a: float) -> np.ndarray:
    # a = 0 removes the shock entirely; a = 1 makes the margin pure shock
    if a <= 0.0:
        return w_own
    if a >= 1.0:
        return shock
    return np.maximum(w_own ** (1.0 / (1.0 - a)), shock)


@dataclass(frozen=True)
class MarshallOlkin(_ShockPair):
    """C(u, v) = min(u^(1-a) v, u v^(1-b)) with a, b in [0, 1]."""

    family: ClassVar[str] = "marshall_olkin"

    def _cdf(self, u, v):
        return np.minimum(u ** (1.0 - self.a) * v, u * v ** (1.0 - self.b))

    def _log_cdf(self, lu, lv):
        return np.minimum((1.0 - self.a) * lu + lv, lu + (1.0 - self.b) * lv)

    def maximizers(self, u):
        if self.a == 0.0 or self.b == 0.0:  # degenerates to independence
            return None
        return (u ** (2.0 * self.b / (self.a + self.b)),)

    def kappa_diag(self) -> float:
        """Exponent of the diagonal decay C(u, u) = u^(2 - min(a, b))."""
        return 2.0 - min(self.a, self.b)

    def tau(self):
        denom = self.a + self.b - self.a * self.b
        if denom == 0.0:  # a = b = 0 is the independence copula
            return 0.0
        return self.a * self.b / denom

    def sampler(self):
        a, b = self.a, self.b
        return 3, lambda w: (_mo_component(w[:, 0], _shock(w[:, 2], a), a),
                             _mo_component(w[:, 1], _shock(w[:, 2], b), b))


def _mixture_pair(w: np.ndarray, a: float, b: float) -> _Pair:
    # a fair coin picks the (a, b) or the (b, a) Marshall-Olkin ordering;
    # both orderings share the two shock terms
    shock_a, shock_b = _shock(w[:, 2], a), _shock(w[:, 2], b)
    u_ab = _mo_component(w[:, 0], shock_a, a)
    v_ab = _mo_component(w[:, 1], shock_b, b)
    u_ba = _mo_component(w[:, 0], shock_b, b)
    v_ba = _mo_component(w[:, 1], shock_a, a)
    swap = w[:, 3] < 0.5
    return np.where(swap, u_ba, u_ab), np.where(swap, v_ba, v_ab)


@dataclass(frozen=True)
class MixtureMO(_ShockPair):
    """Symmetric half-half mixture of Marshall-Olkin copulas (a,b) and (b,a)."""

    family: ClassVar[str] = "mixture_mo"

    def _cdf(self, u, v):
        ca, cb = 1.0 - self.a, 1.0 - self.b
        return 0.5 * (np.minimum(u ** ca * v, u * v ** cb)
                      + np.minimum(u ** cb * v, u * v ** ca))

    def _log_cdf(self, lu, lv):
        ca, cb = 1.0 - self.a, 1.0 - self.b
        c1 = np.minimum(ca * lu + lv, lu + cb * lv)
        c2 = np.minimum(cb * lu + lv, lu + ca * lv)
        return np.logaddexp(c1, c2) - math.log(2.0)

    def maximizers(self, u):
        """The maximizers of both orderings, one point when a = b."""
        ab = MarshallOlkin(self.a, self.b).maximizers(u)
        if ab is None or self.a == self.b:
            return ab
        return tuple(sorted(ab + MarshallOlkin(self.b, self.a).maximizers(u)))

    def sampler(self):
        return 4, lambda w: _mixture_pair(w, self.a, self.b)


def _fgm_conditional_inverse(u: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    # Solve w = v (1 + A (1 - v)) for v, A = alpha (1 - 2u); the stable
    # quadratic root 2w / (1 + A + sqrt((1+A)^2 - 4Aw)) degrades gracefully
    # to v = w as A -> 0.
    a_coef = alpha * (1.0 - 2.0 * u)
    disc = (1.0 + a_coef) ** 2 - 4.0 * a_coef * w
    return 2.0 * w / (1.0 + a_coef + np.sqrt(disc))


@dataclass(frozen=True)
class FGM(Copula):
    """Farlie-Gumbel-Morgenstern copula u v (1 + alpha (1-u)(1-v))."""

    alpha: float

    family: ClassVar[str] = "fgm"

    def __post_init__(self):
        _check_param(self.alpha, "alpha", -1.0, 1.0)

    def _cdf(self, u, v):
        return u * v * (1.0 + self.alpha * (1.0 - u) * (1.0 - v))

    def _log_cdf(self, lu, lv):
        # (1 - u)(1 - v) = expm1(lu) expm1(lv)
        return lu + lv + np.log1p(self.alpha * np.expm1(lu) * np.expm1(lv))

    def maximizers(self, u):
        return (u,) if self.alpha > 0.0 else None

    def kappa_star(self):
        return 2.0 if self.alpha > 0.0 else None

    def sampler(self):
        return 2, lambda w: (
            w[:, 0], _fgm_conditional_inverse(w[:, 0], w[:, 1], self.alpha))


@dataclass(frozen=True)
class GeneralizedClayton(Copula):
    """Asymmetric Clayton-type copula.

    C(u, v) = u^(g1/gt) * (u^(-1/gt) + v^(-1/g0) - 1)^(-g0) with g0 > 0,
    g1 >= 0 and gt = g0 + g1.  g1 = 0 recovers the plain (symmetric) Clayton
    copula with theta = 1/g0.
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
        # log(u^{-1/gt} + v^{-1/g0} - 1) via a max-shifted exponential sum:
        # the shifted terms stay in [0, 2], so huge intermediate powers never
        # materialize, however deep the level.
        a = -lu / gt
        b = -lv / g0
        m = np.maximum(a, b)
        inner = np.exp(a - m) + np.exp(b - m) - np.exp(-m)
        return (self.gamma1 / gt) * lu - g0 * (m + np.log(inner))

    def _cdf(self, u, v):
        return np.exp(self._log_cdf_unit(u, v))

    def kappa_star(self):
        return 1.0 + self.gamma1 / (self.gamma1 + 2.0 * self.gamma0)


@dataclass(frozen=True)
class Generator:
    """Handle for an Archimedean generator psi.

    All four callables must be explicit and vectorized; inverting psi
    numerically is deliberately unsupported because inversion error would
    contaminate CDF values at tail levels around 1e-6.  Handles compare by
    name and config, so two handles built from the same parameters are equal.
    """

    name: str
    psi: Callable = field(compare=False)
    psi_prime: Callable = field(compare=False)
    psi_second: Callable = field(compare=False)
    psi_inv: Callable = field(compare=False)
    config: tuple[tuple[str, float], ...] = ()


def clayton_generator(theta: float) -> Generator:
    """Strict Clayton generator psi(t) = (t^(-theta) - 1) / theta, theta > 0."""
    if not (np.isfinite(theta) and theta > 0.0):
        raise ParameterError(f"theta must be positive, got {theta!r}")
    return Generator(
        name="clayton",
        psi=lambda t: (np.power(t, -theta) - 1.0) / theta,
        psi_prime=lambda t: -np.power(t, -theta - 1.0),
        psi_second=lambda t: (theta + 1.0) * np.power(t, -theta - 2.0),
        psi_inv=lambda s: np.power(1.0 + theta * s, -1.0 / theta),
        config=(("theta", float(theta)),),
    )


@dataclass(frozen=True)
class DiagonalCheck:
    increasing: bool


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


def archimedean_diagonal_check(generator: Generator, u: float) -> DiagonalCheck:
    """Check whether x psi'(x) is nondecreasing on [u^2, 1].

    When it is, the diagonal maximizes C(x, u^2/x) for the Archimedean
    copula built on ``generator``; the generator must be strict, otherwise
    no admissible path exists at all and :class:`GeneratorError` is raised.
    The check samples 128 log-spaced points of [u^2, 1].
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
    increasing = bool(np.all(np.diff(g) >= -slack))
    return DiagonalCheck(increasing=increasing)


_GENERATOR_CHECK_GRID = np.linspace(0.05, 0.95, 19)


@dataclass(frozen=True)
class Archimedean(Copula):
    """Archimedean copula psi_inv(psi(u) + psi(v))."""

    generator: Generator

    family: ClassVar[str] = "archimedean"

    def __post_init__(self):
        g = self.generator
        t = _GENERATOR_CHECK_GRID
        try:
            at_one = float(g.psi(1.0))
            d1 = np.asarray(g.psi_prime(t), dtype=float)
            d2 = np.asarray(g.psi_second(t), dtype=float)
            roundtrip = np.asarray(g.psi_inv(g.psi(t)), dtype=float)
        except (OverflowError, FloatingPointError) as exc:
            raise GeneratorError(
                f"generator {g.name!r} failed its validation sweep: {exc}",
                component="psi") from exc
        if abs(at_one) > 1e-9:
            raise GeneratorError(
                f"generator {g.name!r}: psi(1) = {at_one!r}, expected 0",
                component="psi")
        if np.any(~np.isfinite(d1)) or np.any(d1 >= 0.0):
            raise GeneratorError(
                f"generator {g.name!r}: psi' must be negative on (0, 1)",
                component="psi_prime")
        if np.any(~np.isfinite(d2)) or np.any(d2 <= 0.0):
            raise GeneratorError(
                f"generator {g.name!r}: psi'' must be positive on (0, 1)",
                component="psi_second")
        if np.max(np.abs(roundtrip - t)) > 1e-8:
            raise GeneratorError(
                f"generator {g.name!r}: psi_inv(psi(t)) != t on the check grid",
                component="psi_inv")

    def _cdf(self, u, v):
        g = self.generator
        with np.errstate(divide="ignore", over="ignore"):
            s = np.asarray(g.psi(u) + g.psi(v), dtype=float)
            out = np.asarray(g.psi_inv(s), dtype=float)
        if np.any(np.isnan(s)):
            raise GeneratorError(
                f"generator {g.name!r}: psi overflowed to NaN during CDF "
                "evaluation", component="psi")
        if np.any(np.isnan(out)):
            raise GeneratorError(
                f"generator {g.name!r}: psi_inv overflowed to NaN during CDF "
                "evaluation", component="psi_inv")
        return out

    def maximizers(self, u):
        check = archimedean_diagonal_check(self.generator, u)
        return (u,) if check.increasing else None

    def params(self):
        if self.generator.name == "clayton":
            out = {"family": "clayton"}
            out.update(dict(self.generator.config))
            return out
        return {"family": self.family, "generator": self.generator.name}


class SurvivalCopula(Copula):
    """Survival copula of a base copula: u + v - 1 + C(1-u, 1-v)."""

    family: ClassVar[str] = "survival"

    def __init__(self, base: Copula):
        self.base = base

    def _cdf(self, u, v):
        # Clip the tiny negative excursions that cancellation can produce.
        raw = u + v - 1.0 + self.base._cdf(1.0 - u, 1.0 - v)
        return np.clip(raw, 0.0, 1.0)

    def params(self):
        return {"family": self.family, "base": self.base.params()}

    def sampler(self):
        """The reflection (1-U, 1-V) of a base draw."""
        ncols, base = self.base.sampler()
        return ncols, lambda w: tuple(1.0 - x for x in base(w))

    def __repr__(self):
        return f"SurvivalCopula({self.base!r})"


# config family name -> (constructor, parameter keys): the dataclass fields,
# and ``clayton``, the one family built from a generator handle
FAMILIES: dict[str, tuple[Callable[..., Copula], tuple[str, ...]]] = {
    cls.family: (cls, tuple(f.name for f in fields(cls)))
    for cls in (Independence, FrechetUpper, MarshallOlkin, MixtureMO, FGM,
                GeneralizedClayton)}
FAMILIES["clayton"] = (lambda theta: Archimedean(clayton_generator(theta)),
                       ("theta",))


@dataclass(frozen=True)
class AxiomReport:
    """Result of a lattice check of the three copula axioms."""

    grid_n: int
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
    if grid_n < 2:
        raise ParameterError(f"grid_n must be >= 2, got {grid_n}")
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
        grounded_ok=bool(grounded <= tol),
        marginals_ok=bool(marg <= tol),
        max_marginal_dev=float(max(grounded, marg)),
        two_increasing_ok=bool(np.min(mass) >= -tol),
        min_rectangle_mass=float(np.min(mass)),
        worst_rectangle=worst,
    )


def kendall_tau(cop: Copula) -> float:
    """Kendall's tau in closed form (``Copula.tau``): a b / (a + b - a b) for
    Marshall-Olkin; other families raise :class:`UnsupportedMethodError`."""
    return cop.tau()
