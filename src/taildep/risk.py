"""Monte Carlo risk measures for sums of copula-coupled Pareto-II losses.

Samplers exist for the families with known stochastic representations:
the Marshall-Olkin copula through its common-shock max transform, the
symmetric mixture by a fair coin over component orderings, and the FGM
copula by closed-form inversion of its conditional CDF.  None of these
constructions is taken on faith -- the test suite gates every sampler on
agreement between its empirical copula and the analytic CDF.

Randomness comes from counter-based Philox streams: batch i draws from
``Philox(key=seed).jumped(i)``, so a fixed seed gives bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from taildep.copulas import (
    FGM,
    Copula,
    FrechetUpper,
    Independence,
    MarshallOlkin,
    MixtureMO,
    SurvivalCopula,
    kendall_tau,
)
from taildep.errors import (
    InsufficientTailError,
    ParameterError,
    UnsupportedMethodError,
)
from taildep.indices import closed_form_kappa_star
from taildep.serialize import format_float

__all__ = [
    "ParetoII",
    "RiskReport",
    "sample_pairs",
    "risk_measures",
    "RiskTableRow",
    "RiskTable",
    "reference_table",
]

_BATCH = 1 << 18


@dataclass(frozen=True)
class ParetoII:
    """Pareto-II (Lomax) marginal with survival ((x - mu)/sigma + 1)^-alpha."""

    mu: float = 0.0
    sigma: float = 1.0
    alpha: float = 4.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ParameterError(f"sigma must be positive, got {self.sigma!r}")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ParameterError(f"alpha must be positive, got {self.alpha!r}")
        if not np.isfinite(self.mu):
            raise ParameterError(f"mu must be finite, got {self.mu!r}")

    def sf(self, x):
        """Survival function, 1 at x = mu and decreasing."""
        xa = np.asarray(x, dtype=float)
        out = np.where(xa < self.mu, 1.0,
                       ((xa - self.mu) / self.sigma + 1.0) ** -self.alpha)
        return float(out) if np.ndim(x) == 0 else out

    def quantile(self, p):
        """Inverse CDF: mu + sigma ((1 - p)^(-1/alpha) - 1) for p in [0, 1)."""
        pa = np.asarray(p, dtype=float)
        if np.any(pa < 0.0) or np.any(pa >= 1.0):
            raise ParameterError(f"p must lie in [0, 1), got {p!r}")
        out = self.mu + self.sigma * ((1.0 - pa) ** (-1.0 / self.alpha) - 1.0)
        return float(out) if np.ndim(p) == 0 else out


@dataclass(frozen=True)
class RiskReport:
    """Monte Carlo tail risk measures of Z = X + Y with provenance."""

    q: float
    var_q: float
    cte_q: float
    mtvar_q: float
    n: int
    seed: int
    n_exceed: int
    stderr_cte: float

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "var_q": self.var_q,
            "cte_q": self.cte_q,
            "mtvar_q": self.mtvar_q,
            "n": self.n,
            "seed": self.seed,
            "n_exceed": self.n_exceed,
            "stderr_cte": self.stderr_cte,
        }


def _uniform_batches(seed: int, n: int, ncols: int) -> np.ndarray:
    """n x ncols uniforms from per-batch jumped Philox substreams."""
    out = np.empty((n, ncols))
    start = 0
    stream = 0
    while start < n:
        m = min(_BATCH, n - start)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(stream))
        out[start:start + m] = rng.random((m, ncols))
        start += m
        stream += 1
    return out


def _mo_component(w_own: np.ndarray, w_shock: np.ndarray, a: float) -> np.ndarray:
    # a = 0 removes the shock entirely; a = 1 makes the margin pure shock
    if a <= 0.0:
        return w_own
    if a >= 1.0:
        return w_shock
    return np.maximum(w_own ** (1.0 / (1.0 - a)), w_shock ** (1.0 / a))


def _fgm_conditional_inverse(u: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    # Solve w = v (1 + A (1 - v)) for v, A = alpha (1 - 2u); the stable
    # quadratic root 2w / (1 + A + sqrt((1+A)^2 - 4Aw)) degrades gracefully
    # to v = w as A -> 0.
    a_coef = alpha * (1.0 - 2.0 * u)
    disc = (1.0 + a_coef) ** 2 - 4.0 * a_coef * w
    return 2.0 * w / (1.0 + a_coef + np.sqrt(disc))


def sample_pairs(cop: Copula, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs with uniform marginals coupled by ``cop``.

    Supported families: independence, comonotone, Marshall-Olkin, its
    symmetric mixture, FGM, and the survival copula of any of these (drawn
    exactly as the reflection (1-U, 1-V) of a base draw).  Raises
    :class:`UnsupportedMethodError` otherwise (there is no sampler for the
    generalized Clayton or generic Archimedean copulas here).
    """
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if isinstance(cop, SurvivalCopula):
        u, v = sample_pairs(cop.base, n, seed)
        return 1.0 - u, 1.0 - v
    if isinstance(cop, Independence):
        w = _uniform_batches(seed, n, 2)
        return w[:, 0], w[:, 1]
    if isinstance(cop, FrechetUpper):
        w = _uniform_batches(seed, n, 1)
        return w[:, 0], w[:, 0].copy()
    if isinstance(cop, MarshallOlkin):
        w = _uniform_batches(seed, n, 3)
        u = _mo_component(w[:, 0], w[:, 2], cop.a)
        v = _mo_component(w[:, 1], w[:, 2], cop.b)
        return u, v
    if isinstance(cop, MixtureMO):
        w = _uniform_batches(seed, n, 4)
        u_ab = _mo_component(w[:, 0], w[:, 2], cop.a)
        v_ab = _mo_component(w[:, 1], w[:, 2], cop.b)
        u_ba = _mo_component(w[:, 0], w[:, 2], cop.b)
        v_ba = _mo_component(w[:, 1], w[:, 2], cop.a)
        swap = w[:, 3] < 0.5
        return np.where(swap, u_ba, u_ab), np.where(swap, v_ba, v_ab)
    if isinstance(cop, FGM):
        w = _uniform_batches(seed, n, 2)
        return w[:, 0], _fgm_conditional_inverse(w[:, 0], w[:, 1], cop.alpha)
    raise UnsupportedMethodError(
        f"no sampler for family {cop.family!r}")


def risk_measures(cop: Copula, marginal: ParetoII, q: float,
                  n: int, seed: int = 0) -> RiskReport:
    """VaR, CTE and modified tail variance of Z = X + Y by simulation.

    The empirical quantile uses the ceil(n q) order statistic; the
    conditional measures average over the exceedances strictly above it.
    """
    if not (0.0 < q < 1.0):
        raise ParameterError(f"q must lie in (0, 1), got {q!r}")
    if n < 10_000:
        raise ParameterError(f"n must be >= 10000, got {n}")
    u, v = sample_pairs(cop, n, seed)
    z = marginal.quantile(u) + marginal.quantile(v)
    z_sorted = np.sort(z)
    k = int(math.ceil(n * q - 1e-9))  # guard against float noise in n*q
    var_q = float(z_sorted[k - 1])
    exceed = z_sorted[z_sorted > var_q]
    if exceed.size < 100:
        raise InsufficientTailError(
            f"only {exceed.size} exceedances above VaR at q={q}; "
            "increase n or lower q")
    cte_q = float(exceed.mean())
    cond_var = float(exceed.var(ddof=1))
    return RiskReport(
        q=q, var_q=var_q, cte_q=cte_q,
        mtvar_q=cte_q + cond_var / cte_q,
        n=n, seed=seed, n_exceed=int(exceed.size),
        stderr_cte=float(exceed.std(ddof=1) / math.sqrt(exceed.size)),
    )


@dataclass(frozen=True)
class RiskTableRow:
    q: float
    b: float
    tau: float
    kappa_l: float
    kappa_l_star: float
    var_q: float
    cte_q: float
    mtvar_q: float


@dataclass(frozen=True)
class RiskTable:
    """Dependence indices and risk measures over a (q, b) sweep."""

    a: float
    marginal: ParetoII
    n: int
    seed: int
    rows: tuple[RiskTableRow, ...]

    def to_csv(self) -> str:
        lines = ["q,b,tau,kappa_L,kappa_L_star,VaR,CTE,MTVar"]
        for r in self.rows:
            lines.append(",".join(format_float(x) for x in (
                r.q, r.b, r.tau, r.kappa_l, r.kappa_l_star,
                r.var_q, r.cte_q, r.mtvar_q)))
        return "\n".join(lines) + "\n"


def reference_table(seed: int, n: int = 2_000_000,
                    qs: tuple[float, ...] = (0.990, 0.995),
                    bs: tuple[float, ...] = (0.75, 0.5, 0.3529),
                    a: float = 0.3529,
                    marginal: ParetoII = ParetoII(0.0, 1.0, 4.0)) -> RiskTable:
    """Sweep of tau, tail exponents and risk measures for Marshall-Olkin
    losses with Pareto-II marginals.

    The losses are coupled through their survival functions,
    P(X > x, Y > y) = C_ab(sf(x), sf(y)), the standard common-shock
    construction for Marshall-Olkin losses; equivalently the distributional
    copula of (X, Y) is the survival copula of C_ab.  This is what makes the
    sweep informative: the joint upper tail of the losses, and with it VaR
    and CTE of X + Y, is then governed by the *lower*-tail behaviour of C_ab
    that the index columns describe (smaller maximal-path exponent, larger
    risk), while Kendall's tau is reflection-invariant and unaffected.

    Every row shares the same seed, so the underlying uniforms are common
    random numbers across parameter values and the risk columns vary
    smoothly in b.
    """
    rows = []
    for q in qs:
        for b in bs:
            cop = MarshallOlkin(a, b)
            report = risk_measures(cop.survival(), marginal, q, n, seed)
            rows.append(RiskTableRow(
                q=q, b=b,
                tau=kendall_tau(cop, "closed_form"),
                kappa_l=2.0 - min(a, b),
                kappa_l_star=closed_form_kappa_star(cop),
                var_q=report.var_q,
                cte_q=report.cte_q,
                mtvar_q=report.mtvar_q,
            ))
    return RiskTable(a=a, marginal=marginal, n=n, seed=seed, rows=tuple(rows))
