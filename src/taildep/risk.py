"""Monte Carlo risk measures for sums of copula-coupled Pareto-II losses.

Samplers exist for the families with known stochastic representations:
the Marshall-Olkin copula through its common-shock max transform, the
symmetric mixture by a fair coin over component orderings, and the FGM
copula by closed-form inversion of its conditional CDF.  None of these
constructions is taken on faith -- the test suite gates every sampler on
agreement between its empirical copula and the analytic CDF.

Randomness comes from counter-based Philox streams: batch i of at most
2^18 pairs draws from ``Philox(key=seed).jumped(i)``, so a fixed seed gives
bit-identical output.  Risk is computed in streaming batches: each batch is
drawn, sent through the Pareto-II quantile, summed and dropped, and only the
largest n(1 - q) + 1 sums are kept, so memory is O(batch + n(1 - q)) rather
than O(n).  ``reference_table`` (``taildep table1``) draws once per b and
reads every q from that one buffer.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterator
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
_MIN_N = 10_000


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


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_n_seed(n, seed, n_min: int) -> tuple[int, int]:
    """n and seed as ints: n an integer >= n_min, seed a 128-bit Philox key."""
    if not (_is_int(n) and n >= n_min):
        raise ParameterError(f"n must be an integer >= {n_min}, got {n!r}")
    if not (_is_int(seed) and 0 <= seed < 2 ** 128):
        raise ParameterError(
            f"seed must be an integer in [0, 2**128), got {seed!r}")
    return int(n), int(seed)


def _check_q(q) -> None:
    if not (0.0 < q < 1.0):
        raise ParameterError(f"q must lie in (0, 1), got {q!r}")


def _mo_component(w_own: np.ndarray, w_shock: np.ndarray, a: float) -> np.ndarray:
    # a = 0 removes the shock entirely; a = 1 makes the margin pure shock
    if a <= 0.0:
        return w_own
    if a >= 1.0:
        return w_shock
    return np.maximum(w_own ** (1.0 / (1.0 - a)), w_shock ** (1.0 / a))


def _mixture_pair(w: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    # a fair coin picks the (a, b) or the (b, a) Marshall-Olkin ordering
    u_ab = _mo_component(w[:, 0], w[:, 2], a)
    v_ab = _mo_component(w[:, 1], w[:, 2], b)
    u_ba = _mo_component(w[:, 0], w[:, 2], b)
    v_ba = _mo_component(w[:, 1], w[:, 2], a)
    swap = w[:, 3] < 0.5
    return np.where(swap, u_ba, u_ab), np.where(swap, v_ba, v_ab)


def _fgm_conditional_inverse(u: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    # Solve w = v (1 + A (1 - v)) for v, A = alpha (1 - 2u); the stable
    # quadratic root 2w / (1 + A + sqrt((1+A)^2 - 4Aw)) degrades gracefully
    # to v = w as A -> 0.
    a_coef = alpha * (1.0 - 2.0 * u)
    disc = (1.0 + a_coef) ** 2 - 4.0 * a_coef * w
    return 2.0 * w / (1.0 + a_coef + np.sqrt(disc))


_Pair = tuple[np.ndarray, np.ndarray]


def _batch_sampler(cop: Copula) -> tuple[int, Callable[[np.ndarray], _Pair]]:
    """Uniform columns per pair, and the map from a block of them to (u, v)."""
    if isinstance(cop, SurvivalCopula):
        ncols, base = _batch_sampler(cop.base)

        def reflect(w: np.ndarray) -> _Pair:
            u, v = base(w)
            return 1.0 - u, 1.0 - v
        return ncols, reflect
    if isinstance(cop, Independence):
        return 2, lambda w: (w[:, 0], w[:, 1])
    if isinstance(cop, FrechetUpper):
        return 1, lambda w: (w[:, 0], w[:, 0])
    if isinstance(cop, MarshallOlkin):
        return 3, lambda w: (_mo_component(w[:, 0], w[:, 2], cop.a),
                             _mo_component(w[:, 1], w[:, 2], cop.b))
    if isinstance(cop, MixtureMO):
        return 4, lambda w: _mixture_pair(w, cop.a, cop.b)
    if isinstance(cop, FGM):
        return 2, lambda w: (
            w[:, 0], _fgm_conditional_inverse(w[:, 0], w[:, 1], cop.alpha))
    raise UnsupportedMethodError(
        f"no sampler for family {cop.family!r}")


def _pair_batches(cop: Copula, n: int, seed: int) -> Iterator[_Pair]:
    """(u, v) for n pairs, one Philox batch of at most _BATCH rows at a time.

    Batch i draws from ``Philox(key=seed).jumped(i)``, so every batch is
    drawn, used and dropped on its own.
    """
    ncols, sample = _batch_sampler(cop)
    for i, start in enumerate(range(0, n, _BATCH)):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        yield sample(rng.random((min(_BATCH, n - start), ncols)))


def sample_pairs(cop: Copula, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs with uniform marginals coupled by ``cop``.

    Supported families: independence, comonotone, Marshall-Olkin, its
    symmetric mixture, FGM, and the survival copula of any of these (drawn
    exactly as the reflection (1-U, 1-V) of a base draw).  Raises
    :class:`UnsupportedMethodError` otherwise (there is no sampler for the
    generalized Clayton or generic Archimedean copulas here).
    """
    n, seed = _check_n_seed(n, seed, 1)
    u, v = np.empty(n), np.empty(n)
    start = 0
    for ub, vb in _pair_batches(cop, n, seed):
        stop = start + ub.size
        u[start:stop], v[start:stop] = ub, vb
        start = stop
    return u, v


def _order_index(n: int, q: float) -> int:
    """k of the ceil(n q)-th order statistic, the empirical VaR_q."""
    return int(math.ceil(n * q - 1e-9))  # guard against float noise in n*q


def _top_sums(cop: Copula, marginal: ParetoII, n: int, seed: int,
              k: int) -> np.ndarray:
    """The sorted order statistics k..n of Z = X + Y over n draws.

    A running buffer keeps the m = n - k + 1 largest sums, merged batch by
    batch with ``np.partition``; once it is full, only sums above its
    minimum can enter.
    """
    m = n - k + 1
    top = np.empty(0)
    for u, v in _pair_batches(cop, n, seed):
        z = marginal.quantile(u) + marginal.quantile(v)
        if top.size == m:  # full, and top[0] is its minimum
            z = z[z > top[0]]
        if z.size:
            top = np.concatenate((top, z))
            if top.size >= m:
                top = np.partition(top, top.size - m)[top.size - m:]
    return np.sort(top)


def _report(top: np.ndarray, n: int, q: float, seed: int) -> RiskReport:
    """RiskReport at level q from the largest sorted sums ``top`` of n."""
    # position ceil(n q) - 1 of the full sort, less the sums dropped below
    var_q = float(top[_order_index(n, q) - 1 - (n - top.size)])
    exceed = top[top > var_q]
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


def risk_measures(cop: Copula, marginal: ParetoII, q: float,
                  n: int, seed: int = 0) -> RiskReport:
    """VaR, CTE and modified tail variance of Z = X + Y by simulation.

    The empirical quantile uses the ceil(n q) order statistic; the
    conditional measures average over the exceedances strictly above it.
    The sums stream through in Philox batches and only the top
    n - ceil(n q) + 1 of them are kept.
    """
    _check_q(q)
    n, seed = _check_n_seed(n, seed, _MIN_N)
    top = _top_sums(cop, marginal, n, seed, _order_index(n, q))
    return _report(top, n, q, seed)


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
    smoothly in b.  Each b is drawn once: one buffer of the top sums, sized
    for the smallest q, answers every q, and each row equals
    ``risk_measures(MarshallOlkin(a, b).survival(), marginal, q, n, seed)``.
    """
    if not qs or not bs:
        raise ParameterError(
            f"qs and bs must be nonempty, got qs={qs!r}, bs={bs!r}")
    for q in qs:
        _check_q(q)
    n, seed = _check_n_seed(n, seed, _MIN_N)
    k_min = min(_order_index(n, q) for q in qs)
    reports = {}
    for b in bs:
        top = _top_sums(MarshallOlkin(a, b).survival(), marginal, n, seed, k_min)
        for q in qs:
            reports[q, b] = _report(top, n, q, seed)
    rows = []
    for q in qs:
        for b in bs:
            cop = MarshallOlkin(a, b)
            report = reports[q, b]
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
