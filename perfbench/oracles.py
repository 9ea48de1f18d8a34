"""Reference values computed apart from taildep.

Nothing in this module imports the program.  Every value comes from one of:

* the closed forms of the source paper (maximizers, tail exponents, limits);
* high-precision root finding or maximization in mpmath, with each copula
  written out again from its formula;
* one-dimensional quadrature of the copula's conditional distribution
  function, for the law of the loss sum X + Y.

Families are named by the plain config keys (``marshall_olkin``,
``mixture_mo``, ``fgm``, ``generalized_clayton``, ``clayton``,
``independence``, ``frechet_upper``) and carry their parameters in a dict.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
from scipy import integrate, optimize

MP_DPS = 50

# The paper's published (q, b) -> (tau, VaR, CTE, MTVar) rows for
# Marshall-Olkin losses with a = 0.3529 and Pareto-II(0, 1, 4) marginals.
PUBLISHED_TABLE = {
    (0.990, 0.75): (0.3158, 3.4621, 4.8599, 5.5808),
    (0.990, 0.5): (0.2609, 3.4095, 4.7606, 5.4691),
    (0.990, 0.3529): (0.2143, 3.3612, 4.6926, 5.3951),
    (0.995, 0.75): (0.3158, 4.2925, 5.8976, 6.7004),
    (0.995, 0.5): (0.2609, 4.2114, 5.7782, 6.5552),
    (0.995, 0.3529): (0.2143, 4.1460, 5.6801, 6.4268),
}
TABLE_A = 0.3529


# ---------------------------------------------------------------------------
# copula values in mpmath
# ---------------------------------------------------------------------------

def mp_cdf(family: str, p: dict, x, y):
    """C(x, y) at mpmath precision."""
    x, y = mp.mpf(x), mp.mpf(y)
    if x == 0 or y == 0:
        return mp.mpf(0)
    if family == "independence":
        return x * y
    if family == "frechet_upper":
        return min(x, y)
    if family == "marshall_olkin":
        a, b = mp.mpf(p["a"]), mp.mpf(p["b"])
        return min(x ** (1 - a) * y, x * y ** (1 - b))
    if family == "mixture_mo":
        return (mp_cdf("marshall_olkin", p, x, y)
                + mp_cdf("marshall_olkin", {"a": p["b"], "b": p["a"]}, x, y)) / 2
    if family == "fgm":
        return x * y * (1 + mp.mpf(p["alpha"]) * (1 - x) * (1 - y))
    if family == "generalized_clayton":
        g0, g1 = mp.mpf(p["gamma0"]), mp.mpf(p["gamma1"])
        gt = g0 + g1
        return x ** (g1 / gt) * (x ** (-1 / gt) + y ** (-1 / g0) - 1) ** (-g0)
    if family == "clayton":
        th = mp.mpf(p["theta"])
        return (x ** (-th) + y ** (-th) - 1) ** (-1 / th)
    raise ValueError(f"unknown family {family!r}")


def mp_survival_cdf(family: str, p: dict, x, y):
    """Survival copula x + y - 1 + C(1 - x, 1 - y) at mpmath precision."""
    x, y = mp.mpf(x), mp.mpf(y)
    return x + y - 1 + mp_cdf(family, p, 1 - x, 1 - y)


def log_pi(family: str, p: dict, u: float, x: float, survival: bool = False) -> float:
    """log C(x, u^2/x), the log-probability of the level-u rectangle at x."""
    with mp.workdps(MP_DPS):
        y = mp.mpf(u) ** 2 / mp.mpf(x)
        c = (mp_survival_cdf if survival else mp_cdf)(family, p, x, min(y, mp.mpf(1)))
        return float(mp.log(c))


def peak_curvature(family: str, p: dict, u: float, x: float,
                   survival: bool = False) -> float:
    """-d^2/dt^2 of log C(e^t, u^2 e^-t) at t = log x.

    A smooth peak with curvature c is only located to sqrt(eps / c) in
    log x by any solver that evaluates log C in double precision.
    """
    cdf = mp_survival_cdf if survival else mp_cdf
    with mp.workdps(MP_DPS):
        U = mp.mpf(u)

        def f(t):
            return mp.log(cdf(family, p, mp.exp(t), U * U / mp.exp(t)))

        return float(-mp.diff(f, mp.log(mp.mpf(x)), 2))


# ---------------------------------------------------------------------------
# lower-tail maximizers and indices (paper closed forms, mpmath roots)
# ---------------------------------------------------------------------------

def _mp_bisect(fn, lo, hi, steps: int = 200):
    """Root of a decreasing function on [lo, hi] by bisection."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        if fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@lru_cache(maxsize=4096)
def gc_maximizer(g0: float, g1: float, u: float) -> float:
    """Generalized Clayton maximizer: the root of the stationarity equation.

    Differentiating log C(x, u^2/x) in x and clearing denominators gives
    (g0 + g1) x^(-1/(g0+g1)) - g0 (u^2/x)^(-1/g0) - g1 = 0, whose left side
    decreases from positive at x = u^2 to negative at x = 1.
    """
    with mp.workdps(MP_DPS):
        G0, G1 = mp.mpf(g0), mp.mpf(g1)
        GT = G0 + G1
        lu = mp.log(mp.mpf(u))

        def stationarity(t):
            return GT * mp.exp(-t / GT) - G0 * mp.exp(-(2 * lu - t) / G0) - G1

        return float(mp.exp(_mp_bisect(stationarity, 2 * lu, mp.mpf(0))))


def lower_maximizers(family: str, p: dict, u: float) -> tuple[float, ...] | None:
    """The maximizer set at level u; None means every path is maximal."""
    if family == "independence":
        return None
    if family == "marshall_olkin":
        return (u ** (2 * p["b"] / (p["a"] + p["b"])),)
    if family == "mixture_mo":
        s = p["a"] + p["b"]
        return tuple(sorted({u ** (2 * p["b"] / s), u ** (2 * p["a"] / s)}))
    if family == "generalized_clayton":
        return (gc_maximizer(p["gamma0"], p["gamma1"], u),)
    if family in ("fgm", "clayton", "frechet_upper"):
        # the diagonal: positive FGM, the x psi'(x) criterion for Clayton,
        # and min(x, u^2/x) peaks where the two arguments meet
        return (u,)
    raise ValueError(f"no lower-tail maximizer for {family!r}")


def lower_indices(family: str, p: dict) -> dict:
    """Diagonal and maximal-path (kappa, lambda) limits of the lower tail."""
    if family in ("marshall_olkin", "mixture_mo"):
        a, b = p["a"], p["b"]
        return {"kappa": 2 - min(a, b), "lam": 0.0,
                "kappa_star": 2 - 2 * a * b / (a + b), "lam_star": 0.0}
    if family == "generalized_clayton":
        g0, g1 = p["gamma0"], p["gamma1"]
        return {"kappa": 1 + g1 / (g0 + g1), "lam": 0.0,
                "kappa_star": 1 + g1 / (g1 + 2 * g0), "lam_star": 0.0}
    if family == "clayton":
        lam = 2 ** (-1 / p["theta"])
        return {"kappa": 1.0, "lam": lam, "kappa_star": 1.0, "lam_star": lam}
    if family in ("fgm", "independence"):
        return {"kappa": 2.0, "lam": 0.0, "kappa_star": 2.0, "lam_star": 0.0}
    if family == "frechet_upper":
        return {"kappa": 1.0, "lam": 1.0, "kappa_star": 1.0, "lam_star": 1.0}
    raise ValueError(f"no lower-tail indices for {family!r}")


# ---------------------------------------------------------------------------
# upper tail: maximizers and indices of survival copulas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def mo_survival_kink(a: float, b: float, u: float) -> float:
    """Where the two Marshall-Olkin branches of the survival copula meet.

    On the hyperbola y = u^2/x the branches (1-x)^(1-a) (1-y) and
    (1-x) (1-y)^(1-b) of C(1-x, 1-y) are equal where
    a log(1-x) = b log(1-y); the survival copula peaks at that kink.
    """
    with mp.workdps(MP_DPS):
        A, B, U = mp.mpf(a), mp.mpf(b), mp.mpf(u)

        def gap(t):
            x = mp.exp(t)
            return A * mp.log1p(-x) - B * mp.log1p(-U * U / x)

        lo = 2 * mp.log(U) + mp.mpf(10) ** -30
        hi = -mp.mpf(10) ** -30
        return float(mp.exp(_mp_bisect(gap, lo, hi)))


@lru_cache(maxsize=64)
def survival_argmax(family: str, items: tuple, u: float) -> float:
    """Maximizer of the survival copula along the hyperbola, in mpmath.

    A 400-point log scan locates the peak and golden-section search in
    log x refines it; used where no closed form is known.
    """
    p = dict(items)
    with mp.workdps(MP_DPS):
        lu = mp.log(mp.mpf(u))

        def f(t):
            x = mp.exp(t)
            return mp_survival_cdf(family, p, x, mp.mpf(u) ** 2 / x)

        n = 400
        ts = [2 * lu * (1 - mp.mpf(k) / n) for k in range(1, n)]
        vals = [f(t) for t in ts]
        k = max(range(len(vals)), key=vals.__getitem__)
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
        invphi = (mp.sqrt(5) - 1) / 2
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        f1, f2 = f(x1), f(x2)
        for _ in range(120):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = f(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = f(x1)
        return float(mp.exp((lo + hi) / 2))


def survival_maximizers(family: str, p: dict, u: float) -> tuple[float, ...] | None:
    """Maximizer set of the survival copula at level u (None: all paths)."""
    if family == "independence":
        return None
    if family == "marshall_olkin":
        return (mo_survival_kink(p["a"], p["b"], u),)
    if family == "mixture_mo":
        a, b = p["a"], p["b"]
        return tuple(sorted({mo_survival_kink(a, b, u), mo_survival_kink(b, a, u)}))
    if family in ("fgm", "clayton", "frechet_upper"):
        # FGM is radially symmetric; the Clayton survival copula is
        # exchangeable and unimodal on the hyperbola (checked by a scan in
        # the self-tests); min(x, y) peaks on the diagonal
        return (u,)
    return (survival_argmax(family, tuple(sorted(p.items())), u),)


def upper_indices(family: str, p: dict) -> dict:
    """Diagonal and maximal-path (kappa, lambda) limits of the upper tail.

    The survival Marshall-Olkin copula behaves like min(a x, b y) near the
    origin: lambda = min(a, b) on the diagonal, sqrt(a b) at the kink.  The
    mixture averages both orderings; its kinks give
    (a + b) sqrt(min(a, b) / max(a, b)) / 2.
    """
    if family == "marshall_olkin":
        a, b = p["a"], p["b"]
        return {"kappa": 1.0, "lam": min(a, b),
                "kappa_star": 1.0, "lam_star": math.sqrt(a * b)}
    if family == "mixture_mo":
        a, b = p["a"], p["b"]
        return {"kappa": 1.0, "lam": min(a, b), "kappa_star": 1.0,
                "lam_star": 0.5 * (a + b) * math.sqrt(min(a, b) / max(a, b))}
    if family == "frechet_upper":
        return {"kappa": 1.0, "lam": 1.0, "kappa_star": 1.0, "lam_star": 1.0}
    if family in ("independence", "fgm", "clayton"):
        # no upper-tail dependence: C^(u, u) ~ c u^2
        return {"kappa": 2.0, "lam": 0.0, "kappa_star": 2.0, "lam_star": 0.0}
    raise ValueError(f"no upper-tail indices for {family!r}")


def kendall_tau_mo(a: float, b: float) -> float:
    """Kendall's tau of the Marshall-Olkin copula, a b / (a + b - a b)."""
    return a * b / (a + b - a * b)


# ---------------------------------------------------------------------------
# law of X + Y for Pareto-II(0, 1, alpha) marginals
# ---------------------------------------------------------------------------

class Lomax:
    """Pareto-II with location 0 and scale 1."""

    def __init__(self, alpha: float):
        self.alpha = alpha

    def cdf(self, x: float) -> float:
        return 0.0 if x <= 0.0 else -math.expm1(-self.alpha * math.log1p(x))

    def quantile(self, p: float) -> float:
        return math.expm1(-math.log1p(-p) / self.alpha)

    def pdf(self, x: float) -> float:
        return self.alpha * (1.0 + x) ** (-self.alpha - 1.0)

    def upper_moment(self, p: float, k: int) -> float:
        """Integral of Q(u)^k over [p, 1] for k = 1, 2, in closed form."""
        r = 1.0 - p
        e = 1.0 / self.alpha
        if k == 1:
            return r ** (1 - e) / (1 - e) - r
        return r ** (1 - 2 * e) / (1 - 2 * e) - 2 * r ** (1 - e) / (1 - e) + r


def _mo_h(a, b, u, w):
    """P(V <= w | U = u) for Marshall-Olkin (a, b); branch index too."""
    if u <= 0.0 or w <= 0.0:
        return (0.0 if w <= 0.0 else w ** (1 - b)), 1
    if a * math.log(u) >= b * math.log(w):  # u^a >= w^b: C = u^(1-a) w
        return (1 - a) * u ** (-a) * w, 0
    return w ** (1 - b), 1


class Conditional:
    """Conditional distribution function of one copula.

    ``h(u, w)`` returns ``P(V <= w | U = u)``, the u-derivative of C, and the
    index of the branch of its piecewise formula, so that quadrature can
    split at the jumps.  ``swap=True`` gives ``P(U <= w | V = u)`` instead:
    the same derivative of C with its arguments exchanged.
    """

    def __init__(self, family: str, p: dict, survival: bool = False):
        self.family, self.p, self.survival = family, p, survival

    def _base(self, u, w, swap):
        f, p = self.family, self.p
        if f == "independence":
            return w, 0
        if f == "fgm":
            al = p["alpha"]
            return w * (1 + al * (1 - w) * (1 - 2 * u)), 0
        if f == "marshall_olkin":
            a, b = (p["b"], p["a"]) if swap else (p["a"], p["b"])
            return _mo_h(a, b, u, w)
        if f == "mixture_mo":
            h1, s1 = _mo_h(p["a"], p["b"], u, w)
            h2, s2 = _mo_h(p["b"], p["a"], u, w)
            return 0.5 * (h1 + h2), 2 * s1 + s2
        raise ValueError(f"no conditional law for {f!r}")

    def h(self, u, w, swap=False):
        # exchanging the arguments of Marshall-Olkin (a, b) gives (b, a);
        # the other families are exchangeable
        if self.survival:
            val, s = self._base(1.0 - u, 1.0 - w, swap)
            return 1.0 - val, s
        return self._base(u, w, swap)


class SumLaw:
    """Distribution of Z = X + Y, X, Y ~ Pareto-II(0, 1, alpha), coupled by C.

    For every family with a sampler except the comonotone one, whose law is
    that of 2 X (see ``risk_reference``).

    F_Z(z) = integral over u of P(V <= F(z - Q(u)) | U = u), a
    one-dimensional integral that is exact up to quadrature error.
    """

    def __init__(self, family: str, p: dict, survival: bool = False,
                 alpha: float = 4.0):
        self.cond = Conditional(family, p, survival)
        self.m = Lomax(alpha)
        self.family = family

    def _split_points(self, fn, hi):
        """Points in (0, hi) where the branch index of fn changes."""
        # uniform in u, plus log-spaced towards hi, where Q(u) grows fast and
        # the branch switches of large z crowd together
        grid = sorted({hi * k / 256 for k in range(1, 256)}
                      | {hi * (1.0 - 10.0 ** (-k / 16)) for k in range(8, 12 * 16)})
        pts = []
        prev_u, prev_s = grid[0], fn(grid[0])[1]
        for u in grid[1:]:
            s = fn(u)[1]
            if s != prev_s:
                lo_u, hi_u = prev_u, u
                for _ in range(60):
                    mid = 0.5 * (lo_u + hi_u)
                    if fn(mid)[1] == prev_s:
                        lo_u = mid
                    else:
                        hi_u = mid
                pts.append(0.5 * (lo_u + hi_u))
            prev_u, prev_s = u, s
        return pts

    def _integral(self, fn, hi, weight=None):
        def integrand(u):
            val = fn(u)[0]
            return val if weight is None else weight(u) * val
        pts = self._split_points(fn, hi)
        edges = [0.0] + pts + [hi]
        total = 0.0
        for lo_e, hi_e in zip(edges, edges[1:]):
            if hi_e > lo_e:
                total += integrate.quad(integrand, lo_e, hi_e, limit=200,
                                        epsabs=1e-13, epsrel=1e-12)[0]
        return total

    def cdf(self, z: float, swap: bool = False) -> float:
        """P(X + Y <= z); swap=True conditions on V instead of U (same value)."""
        if z <= 0.0:
            return 0.0
        m = self.m
        return self._integral(
            lambda u: self.cond.h(u, m.cdf(z - m.quantile(u)), swap), m.cdf(z))

    def var(self, q: float) -> float:
        """The q-quantile of Z."""
        m = self.m
        lo = m.quantile(q)
        hi = 2.0 * m.quantile(1.0 - (1.0 - q) / 4.0)
        return optimize.brentq(lambda z: self.cdf(z) - q, lo, hi,
                               xtol=1e-13, rtol=1e-14, maxiter=200)

    def pdf(self, z: float) -> float:
        dz = 1e-4 * z
        return (self.cdf(z + dz) - self.cdf(z - dz)) / (2.0 * dz)

    def _tail_moment(self, v: float, k: int, swap: bool) -> float:
        """E[X^k 1{Z > v}] (or Y^k with swap=True)."""
        m = self.m
        fv = m.cdf(v)

        def exceed(u):  # P(Y > v - Q(u) | U = u) and its branch
            val, branch = self.cond.h(u, m.cdf(v - m.quantile(u)), swap)
            return 1.0 - val, branch

        # for u > F(v) the sum exceeds v whatever the other loss is
        inner = self._integral(exceed, fv, weight=lambda u: m.quantile(u) ** k)
        return inner + m.upper_moment(fv, k)

    def tail(self, q: float) -> dict:
        """VaR, CTE, density at VaR and an upper bound on Var(Z | Z > VaR)."""
        v = self.var(q)
        r = 1.0 - q
        ex = self._tail_moment(v, 1, False)
        ey = self._tail_moment(v, 1, True)
        ex2 = self._tail_moment(v, 2, False)
        ey2 = self._tail_moment(v, 2, True)
        cte = (ex + ey) / r
        # 0 <= E[XY 1{Z > v}] <= sqrt(E[X^2 1] E[Y^2 1]) (Cauchy-Schwarz)
        ez2_hi = ex2 + ey2 + 2.0 * math.sqrt(ex2 * ey2)
        return {"var": v, "cte": cte, "pdf": self.pdf(v),
                "tail_var_hi": max(ez2_hi / r - cte * cte, 0.0)}


_RISK_CACHE: dict = {}


def risk_reference(family: str, p: dict, survival: bool, q: float,
                   alpha: float = 4.0) -> dict:
    """VaR/CTE of X + Y and what their standard errors need, per copula."""
    key = (family, tuple(sorted(p.items())), survival, q, alpha)
    if key not in _RISK_CACHE:
        if family == "frechet_upper":
            m = Lomax(alpha)
            x = m.quantile(q)
            cte = 2.0 * (x + (1.0 + x) / (alpha - 1.0))  # mean excess (1+x)/(alpha-1)
            r = 1.0 - q
            e2 = 4.0 * (m.upper_moment(q, 2)) / r  # E[(2X)^2 | X > x]
            _RISK_CACHE[key] = {"var": 2.0 * x, "cte": cte,
                                "pdf": m.pdf(x) / 2.0,
                                "tail_var_hi": e2 - cte * cte}
        else:
            _RISK_CACHE[key] = SumLaw(family, p, survival, alpha).tail(q)
    return _RISK_CACHE[key]


def var_stderr(ref: dict, q: float, n: int) -> float:
    """Asymptotic standard error of the empirical q-quantile of n draws."""
    return math.sqrt(q * (1.0 - q) / n) / ref["pdf"]


def cte_stderr(ref: dict, q: float, n: int) -> float:
    """Asymptotic standard error of the empirical CTE (expected shortfall).

    (Var(Z | Z > VaR) + q (CTE - VaR)^2) / (n (1 - q)), with the conditional
    variance replaced by its Cauchy-Schwarz upper bound.
    """
    r = 1.0 - q
    return math.sqrt((ref["tail_var_hi"] + q * (ref["cte"] - ref["var"]) ** 2)
                     / (n * r))
