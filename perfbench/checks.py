"""Verdicts on program outputs, from the reference values in ``oracles``.

``check(item, out)`` returns the list of problems found with one item's
output; an empty list means the operation passed.  A raised error, a
missing field or any problem counts the operation as failed.

Tolerances are fixed here.  Each one is the accuracy the method promises
(maximizers to 1e-6 relative, as the acceptance suite pins them), the
conditioning limit of double precision, the finite-grid bias of the index
estimator over the seeded parameter ranges with a margin of two or more,
or a multiple of a Monte Carlo standard error.
"""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, Decimal

import oracles as O

MAXIMIZER_RTOL = 1e-6
LOG_PI_ATOL = 1e-8
# Families whose level function has a smooth peak rather than a kink.  Its
# location is only defined to sqrt(eps / curvature) in double precision
# (FGM flattens like alpha u near its diagonal), so those maximizers are
# held to ten times that, or to MAXIMIZER_RTOL, whichever is larger.
SMOOTH_PEAK = ("fgm", "clayton", "generalized_clayton")
EPS = 2.220446049250313e-16

# |estimate - limit| allowed for each index, per family.  Pure power laws
# (Marshall-Olkin, independence, comonotone) are exact; the others carry a
# finite-grid correction that the one-step extrapolation reduces but does
# not remove.
LOWER_TOL = {
    "marshall_olkin": {"kappa": 1e-8, "lam": 1e-9, "kappa_star": 1e-8, "lam_star": 1e-9},
    # kappa* of the mixture: worst 2.1e-2 over a scan of (a, b) and the six grids
    "mixture_mo": {"kappa": 1e-8, "lam": 1e-9, "kappa_star": 5e-2, "lam_star": 1e-9},
    # diagonal kappa: worst 1.3e-3 over the seeded (gamma0, gamma1) range
    "generalized_clayton": {"kappa": 1.5e-2, "lam": 1e-9, "kappa_star": 1e-6, "lam_star": 1e-9},
    # worst 9.8e-6 (kappa) and 1.9e-6 (lambda) at theta = 0.5
    "clayton": {"kappa": 1e-4, "lam": 1e-4, "kappa_star": 1e-4, "lam_star": 1e-4},
    "fgm": {"kappa": 1e-6, "lam": 1e-9, "kappa_star": 1e-6, "lam_star": 1e-9},
    "independence": {"kappa": 1e-12, "lam": 1e-12, "kappa_star": 1e-12, "lam_star": 1e-12},
    "frechet_upper": {"kappa": 1e-8, "lam": 1e-8, "kappa_star": 1e-8, "lam_star": 1e-8},
}
UPPER_TOL = {
    # worst over 30 seeds: 1.4e-5, for kappa on the 5-level grid
    "marshall_olkin": {"kappa": 2e-4, "lam": 2e-4, "kappa_star": 2e-4, "lam_star": 2e-4},
    "mixture_mo": {"kappa": 2e-4, "lam": 2e-4, "kappa_star": 2e-4, "lam_star": 2e-4},
    "frechet_upper": {"kappa": 1e-8, "lam": 1e-8, "kappa_star": 1e-8, "lam_star": 1e-8},
    "independence": {"kappa": 1e-3, "lam": 1e-6},
    "fgm": {"kappa": 1e-3, "lam": 1e-6},
    "clayton": {"kappa": 1e-3, "lam": 1e-6},
}
LAMBDA_PAIR_RTOL = 2e-2  # the acceptance suite's tolerance for compare
CHI_PAIR_ATOL = 1e-6

# Monte Carlo: a VaR more than 4.75 standard errors from the exact quantile
# fails (a correct program does so with probability 2e-6 per check, and a
# VaR off by 5 standard errors always does); CTE uses an upper bound on its
# standard error and a wider multiple, since the Pareto tail skews it.
VAR_SE = 4.75
CTE_SE = 6.0
PUBLISHED_RTOL = 1.5e-2
TAU_PUBLISHED_ATOL = 5e-4


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _maximizer_problems(where: str, got, want, rtol: float) -> list[str]:
    got = sorted(got)
    if len(got) != len(want):
        return [f"{where}: {len(got)} maximizers, expected {len(want)}"]
    return [f"{where}: maximizer {g!r} vs {w!r}"
            for g, w in zip(got, want) if not _rel(g, w) <= rtol]


def _level_problems(item: dict, lv: dict, u: float) -> list[str]:
    fam, p = item["family"], item["p"]
    surv = item.get("survival", False)
    where = f"u={u:.3g}"
    if not _rel(lv["u"], u) <= 1e-15:
        return [f"{where}: level reported as {lv['u']!r}"]
    want = (O.survival_maximizers if surv else O.lower_maximizers)(fam, p, u)
    if want is None:  # every admissible path is maximal
        if not lv["apm"]:
            return [f"{where}: plateau not reported "
                    f"({len(lv['maximizers'])} maximizers)"]
        want_log = O.log_pi(fam, p, u, u, surv)
        ok = abs(lv["log_pi_star"] - want_log) <= LOG_PI_ATOL
        return [] if ok else [f"{where}: log pi* {lv['log_pi_star']!r} vs {want_log!r}"]
    problems = []
    if lv["apm"] or lv["boundary"]:
        problems.append(f"{where}: flags apm={lv['apm']} boundary={lv['boundary']}")
    rtol = MAXIMIZER_RTOL
    if fam in SMOOTH_PEAK:
        curv = O.peak_curvature(fam, p, u, want[0], surv)
        rtol = max(rtol, 10.0 * math.sqrt(EPS / curv))
    problems += _maximizer_problems(where, lv["maximizers"], want, rtol)
    if not problems and not surv:
        want_log = O.log_pi(fam, p, u, want[0])
        if not abs(lv["log_pi_star"] - want_log) <= LOG_PI_ATOL:
            problems.append(f"{where}: log pi* {lv['log_pi_star']!r} vs {want_log!r}")
    return problems


def _index_problems(where: str, rep: dict, want: dict, tol: dict,
                    star: bool) -> list[str]:
    if "error" in rep:
        return [f"{where}: raised {rep['error']}: {rep.get('message', '')}"]
    kk, lk = ("kappa_star", "lam_star") if star else ("kappa", "lam")
    problems = []
    if not abs(rep["kappa"] - want[kk]) <= tol[kk]:
        problems.append(f"{where}: kappa {rep['kappa']!r} vs {want[kk]!r}")
    if not abs(rep["lam"] - want[lk]) <= tol[lk]:
        problems.append(f"{where}: lambda {rep['lam']!r} vs {want[lk]!r}")
    if not rep["lam"] >= 0.0:  # the limit of a ratio of probabilities
        problems.append(f"{where}: negative lambda {rep['lam']!r}")
    return problems


def _indices(item: dict) -> tuple[dict, dict]:
    if item.get("survival", False):
        return O.upper_indices(item["family"], item["p"]), UPPER_TOL[item["family"]]
    return O.lower_indices(item["family"], item["p"]), LOWER_TOL[item["family"]]


def check_path(item: dict, out: dict) -> list[str]:
    from workloads import grid

    levels = grid(item["grid"])
    if len(out["levels"]) != len(levels):
        return [f"{len(out['levels'])} levels, expected {len(levels)}"]
    problems = []
    for lv, u in zip(out["levels"], levels):
        problems += _level_problems(item, lv, float(u))
    want, tol = _indices(item)
    problems += _index_problems("star", out["star"], want, tol, star=True)
    problems += _index_problems("classical", out["classical"], want, tol, star=False)
    return problems


def check_point(item: dict, out: dict) -> list[str]:
    return _level_problems(item, out, item["u"])


def check_classical(item: dict, out: dict) -> list[str]:
    want, tol = _indices(item)
    return _index_problems("classical", out, want, tol, star=False)


def compare_expectation(item: dict) -> dict:
    """Expected verdict and limit for a compare item."""
    (f1, p1), (f2, p2) = item["pair"]
    surv = item.get("survival", False)
    idx = O.upper_indices if surv else O.lower_indices
    i1, i2 = idx(f1, p1), idx(f2, p2)
    k1, k2 = i1["kappa_star"], i2["kappa_star"]
    if abs(k1 - k2) > 1e-12:  # weak ordering by the exponent ratio
        chi = k2 / k1 - 1.0
        return {"kappa": (k1, k2), "chi_pair": chi,
                "verdict": "more_wltmd" if chi > 0 else "less_wltmd"}
    if not surv and {f1, f2} == {"marshall_olkin", "mixture_mo"}:
        # equal exponents; the mixture halves the Marshall-Olkin maximum
        ratio = 2.0 if f1 == "marshall_olkin" else 0.5
    else:
        ratio = i1["lam_star"] / i2["lam_star"]
    return {"kappa": (k1, k2), "lambda_pair": ratio,
            "verdict": "more_ltmd" if ratio > 1 else "less_ltmd"}


def check_compare(item: dict, out: dict) -> list[str]:
    want = compare_expectation(item)
    problems = []
    if out["verdict"] != want["verdict"]:
        problems.append(f"verdict {out['verdict']} vs {want['verdict']}")
    if "chi_pair" in want:
        if out["chi_pair"] is None or not abs(out["chi_pair"] - want["chi_pair"]) <= CHI_PAIR_ATOL:
            problems.append(f"chi_pair {out['chi_pair']!r} vs {want['chi_pair']!r}")
    elif out["lambda_pair"] is None or not _rel(out["lambda_pair"], want["lambda_pair"]) <= LAMBDA_PAIR_RTOL:
        problems.append(f"lambda_pair {out['lambda_pair']!r} vs {want['lambda_pair']!r}")
    return problems


def exceedances(n: int, q: float) -> int:
    """n - ceil(n q) for the decimal q: draws strictly above the VaR."""
    k = (Decimal(n) * Decimal(repr(q))).to_integral_value(rounding=ROUND_CEILING)
    return n - int(k)


def risk_problems(where: str, family: str, p: dict, survival: bool, q: float,
                  n: int, var: float, cte: float) -> list[str]:
    """VaR and CTE against the exact law of X + Y, in standard errors."""
    ref = O.risk_reference(family, p, survival, q)
    problems = []
    z_var = (var - ref["var"]) / O.var_stderr(ref, q, n)
    if not abs(z_var) <= VAR_SE:
        problems.append(f"{where}: VaR {var!r} is {z_var:+.2f} SE from {ref['var']!r}")
    z_cte = (cte - ref["cte"]) / O.cte_stderr(ref, q, n)
    if not abs(z_cte) <= CTE_SE:
        problems.append(f"{where}: CTE {cte!r} is {z_cte:+.2f} SE from {ref['cte']!r}")
    return problems


def check_risk(item: dict, out: dict) -> list[str]:
    problems = risk_problems("risk", item["family"], item["p"], item["survival"],
                             item["q"], item["n"], out["var"], out["cte"])
    if out["n_exceed"] != exceedances(item["n"], item["q"]):
        problems.append(f"n_exceed {out['n_exceed']} vs {exceedances(item['n'], item['q'])}")
    if not (out["var"] < out["cte"] <= out["mtvar"]):
        problems.append("expected VaR < CTE <= MTVar")
    if not (0.0 < out["stderr_cte"] < math.inf):
        problems.append(f"stderr_cte {out['stderr_cte']!r}")
    return problems


def check_table(item: dict, rows: list, published: bool) -> list[str]:
    """Rows [q, b, tau, kappa_L, kappa_L_star, VaR, CTE, MTVar] of table1."""
    problems = []
    want_keys = list(O.PUBLISHED_TABLE)
    if [(r[0], r[1]) for r in rows] != want_keys:
        return [f"rows {[(r[0], r[1]) for r in rows]} vs {want_keys}"]
    a = O.TABLE_A
    for q, b, tau, kl, kls, var, cte, mtvar in rows:
        where = f"q={q} b={b}"
        closed = (O.kendall_tau_mo(a, b), 2 - min(a, b), 2 - 2 * a * b / (a + b))
        for name, got, want in zip(("tau", "kappa_L", "kappa_L_star"), (tau, kl, kls), closed):
            if not _rel(got, want) <= 1e-12:
                problems.append(f"{where}: {name} {got!r} vs {want!r}")
        problems += risk_problems(where, "marshall_olkin", {"a": a, "b": b}, True,
                                  q, item["n"], var, cte)
        if not (var < cte <= mtvar):
            problems.append(f"{where}: expected VaR < CTE <= MTVar")
        if published:
            ptau, pvar, pcte, pmt = O.PUBLISHED_TABLE[(q, b)]
            if not abs(tau - ptau) <= TAU_PUBLISHED_ATOL:
                problems.append(f"{where}: tau {tau!r} vs published {ptau}")
            for name, got, want in (("VaR", var, pvar), ("CTE", cte, pcte), ("MTVar", mtvar, pmt)):
                if not _rel(got, want) <= PUBLISHED_RTOL:
                    problems.append(f"{where}: {name} {got!r} vs published {want}")
    return problems


def check(item: dict, out: dict) -> list[str]:
    """Problems with one in-process item's output (empty: passed)."""
    if "error" in out:
        return [f"raised {out['error']}: {out.get('message', '')}"]
    try:
        kind = item["kind"]
        if kind == "path":
            return check_path(item, out)
        if kind == "point":
            return check_point(item, out)
        if kind == "classical":
            return check_classical(item, out)
        if kind == "compare":
            return check_compare(item, out)
        if kind == "risk":
            return check_risk(item, out)
        if kind == "table":
            # the published rows were produced at n = 2M; a full-size table
            # is held to them, a smaller one to the exact law only
            return check_table(item, out["rows"], published=item["n"] >= 2_000_000)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown item kind {item['kind']!r}")
