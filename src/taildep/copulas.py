"""Bivariate copula families evaluated through their CDFs.

Each family is a small frozen dataclass that validates its parameters on
construction and exposes two evaluation routes:

* ``cdf(u, v)``   -- the copula value C(u, v), vectorized over numpy arrays;
* ``log_cdf(u, v)`` -- log C(u, v) through the kernel ``_log_cdf(lu, lv)``,
  which takes log coordinates.  All families but the Archimedean and
  survival copulas evaluate it from the logs without exponentiating, which
  keeps the tail machinery in :mod:`taildep.paths` exact down to u ~ 1e-300.

``survival()`` wraps any copula into its survival copula
``u + v - 1 + C(1-u, 1-v)``, mapping upper-tail questions onto the lower-tail
machinery.  ``check_axioms`` verifies groundedness, uniform marginals and the
two-increasing property on a lattice; ``kendall_tau`` gives Kendall's tau
either in closed form (Marshall-Olkin) or by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "AxiomReport",
    "check_axioms",
    "kendall_tau",
]


def _as_unit(x, name: str) -> np.ndarray:
    """Coerce to float array and reject anything outside [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite, got {x!r}")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
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
        """Config-style mapping describing this copula."""
        return {"family": self.family}


@dataclass(frozen=True)
class Independence(Copula):
    """C(u, v) = u v."""

    family: ClassVar[str] = "independence"

    def _cdf(self, u, v):
        return u * v

    def _log_cdf(self, lu, lv):
        return lu + lv


@dataclass(frozen=True)
class FrechetUpper(Copula):
    """Comonotone copula C(u, v) = min(u, v)."""

    family: ClassVar[str] = "frechet_upper"

    def _cdf(self, u, v):
        return np.minimum(u, v)

    def _log_cdf(self, lu, lv):
        return np.minimum(lu, lv)


@dataclass(frozen=True)
class MarshallOlkin(Copula):
    """C(u, v) = min(u^(1-a) v, u v^(1-b)) with a, b in [0, 1]."""

    a: float
    b: float

    family: ClassVar[str] = "marshall_olkin"

    def __post_init__(self):
        _check_param(self.a, "a", 0.0, 1.0)
        _check_param(self.b, "b", 0.0, 1.0)

    def _cdf(self, u, v):
        return np.minimum(u ** (1.0 - self.a) * v, u * v ** (1.0 - self.b))

    def _log_cdf(self, lu, lv):
        return np.minimum((1.0 - self.a) * lu + lv, lu + (1.0 - self.b) * lv)

    def params(self):
        return {"family": self.family, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class MixtureMO(Copula):
    """Symmetric half-half mixture of Marshall-Olkin copulas (a,b) and (b,a)."""

    a: float
    b: float

    family: ClassVar[str] = "mixture_mo"

    def __post_init__(self):
        _check_param(self.a, "a", 0.0, 1.0)
        _check_param(self.b, "b", 0.0, 1.0)

    def _cdf(self, u, v):
        ca, cb = 1.0 - self.a, 1.0 - self.b
        return 0.5 * (np.minimum(u ** ca * v, u * v ** cb)
                      + np.minimum(u ** cb * v, u * v ** ca))

    def _log_cdf(self, lu, lv):
        ca, cb = 1.0 - self.a, 1.0 - self.b
        c1 = np.minimum(ca * lu + lv, lu + cb * lv)
        c2 = np.minimum(cb * lu + lv, lu + ca * lv)
        return np.logaddexp(c1, c2) - math.log(2.0)

    def params(self):
        return {"family": self.family, "a": self.a, "b": self.b}


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

    def params(self):
        return {"family": self.family, "alpha": self.alpha}


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

    def params(self):
        return {"family": self.family,
                "gamma0": self.gamma0, "gamma1": self.gamma1}


@dataclass(frozen=True)
class Generator:
    """Handle for an Archimedean generator psi.

    All four callables must be explicit and vectorized; inverting psi
    numerically is deliberately unsupported because inversion error would
    contaminate CDF values at tail levels around 1e-6.
    """

    name: str
    psi: Callable
    psi_prime: Callable
    psi_second: Callable
    psi_inv: Callable
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

    def __repr__(self):
        return f"SurvivalCopula({self.base!r})"


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


def kendall_tau(cop: Copula, method: str = "closed_form",
                n: int = 200_000, seed: int = 0) -> float:
    """Kendall's tau of a copula.

    ``closed_form`` is available for the Marshall-Olkin family only and
    returns a b / (a + b - a b).  ``monte_carlo`` simulates ``n`` pairs and
    returns the sample concordance statistic; it requires a sampler for the
    family (see :func:`taildep.risk.sample_pairs`).
    """
    if method == "closed_form":
        if isinstance(cop, MarshallOlkin):
            denom = cop.a + cop.b - cop.a * cop.b
            if denom == 0.0:  # a = b = 0 is the independence copula
                return 0.0
            return cop.a * cop.b / denom
        raise UnsupportedMethodError(
            f"no closed-form Kendall tau for family {cop.family!r}")
    if method == "monte_carlo":
        from taildep.risk import sample_pairs  # deferred: risk builds on this module

        from scipy.stats import kendalltau as _scipy_tau

        u, v = sample_pairs(cop, n=n, seed=seed)
        return float(_scipy_tau(u, v).statistic)
    raise UnsupportedMethodError(
        f"unknown Kendall tau method {method!r}; "
        "expected 'closed_form' or 'monte_carlo'")
