"""Seeded inputs of the workloads and the program calls that run them.

``make_items(workload, seed)`` returns the fixed mix of one pass as plain
dicts (JSON-safe, so the checker can rebuild the same inputs).  ``bind``
turns an item into a zero-argument callable that makes the program calls
and returns the raw results; ``record`` turns those results into a plain
dict for the checks.  Only ``bind``'s callable is timed.

An item may carry ``known_fault``: a fixed input, the same for every seed,
on which the program fails because of a documented fault.  Its failure is
counted on every pass.
"""

from __future__ import annotations

import contextlib
import random

# (min_exponent, max_exponent, per_decade), as in taildep's default_u_grid
G5, G6, G8 = (5, 1, 1), (6, 1, 1), (8, 1, 1)
G9, G11, G15 = (5, 1, 2), (6, 1, 2), (8, 1, 2)
G17, G21, G29 = (5, 1, 4), (6, 1, 4), (8, 1, 4)

NO_SPAN = contextlib.nullcontext()


def grid(spec):
    """Decreasing levels 10^-max_exp .. 10^-min_exp, per_decade per decade."""
    import numpy as np

    mn, mx, pd = spec
    return 10.0 ** (-np.linspace(float(mx), float(mn), (mn - mx) * pd + 1))


def _distinct_pair(rng: random.Random, lo: float, hi: float, gap: float):
    while True:
        a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
        if abs(a - b) >= gap:
            return a, b


def _draw(rng: random.Random, family: str) -> dict:
    """Seeded parameters; ranges keep every check away from its tolerance."""
    if family == "marshall_olkin":
        return {"a": rng.uniform(0.1, 0.9), "b": rng.uniform(0.1, 0.9)}
    if family == "mixture_mo":
        # two maximizers that the 4,097-point scan can separate
        a, b = _distinct_pair(rng, 0.1, 0.9, 0.2)
        return {"a": a, "b": b}
    if family == "fgm":
        return {"alpha": rng.uniform(0.2, 1.0)}
    if family == "generalized_clayton":
        # u^(g1 / (g0 (g0 + g1))), the diagonal's correction to a power
        # law, stays below 0.03 at u = 1e-6: the estimates are asymptotic
        return {"gamma0": rng.uniform(0.2, 0.8), "gamma1": rng.uniform(0.2, 1.0)}
    if family == "gc_near_singular":
        return {"gamma0": rng.uniform(0.02, 0.06), "gamma1": rng.uniform(0.01, 0.05)}
    if family == "clayton":
        return {"theta": rng.uniform(0.5, 3.0)}
    return {}


LOWER_FAMILIES = ("marshall_olkin", "mixture_mo", "fgm", "generalized_clayton",
                  "clayton", "independence", "frechet_upper")


def _tail_paths(rng: random.Random) -> list[dict]:
    items = []
    for fam in LOWER_FAMILIES:
        for g in (G6, G11, G21, G8, G15, G29):
            if fam == "generalized_clayton" and g[0] == 8:
                p = _draw(rng, "gc_near_singular")  # gamma0 near 0
            else:
                p = _draw(rng, fam)
            items.append({"kind": "path", "family": fam, "p": p, "grid": g})
    # a, b >= 0.3 keeps the compare ratio's finite-grid bias near 0.6%
    mo_a, mo_b = _distinct_pair(rng, 0.3, 0.9, 0.2)
    while True:  # two Marshall-Olkin exponents at least 0.05 apart
        c, d = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        if abs(2 * c * d / (c + d) - 2 * mo_a * mo_b / (mo_a + mo_b)) >= 0.05:
            break
    th1, th2 = _distinct_pair(rng, 0.5, 3.0, 0.5)
    mo, mo2 = {"a": mo_a, "b": mo_b}, {"a": c, "b": d}
    items += [{"kind": "compare", "grid": g, "pair": pair} for g, pair in (
        (G15, [["marshall_olkin", mo], ["mixture_mo", mo]]),
        (G8, [["marshall_olkin", mo], ["marshall_olkin", mo2]]),
        (G29, [["marshall_olkin", mo2], ["marshall_olkin", mo]]),
        (G8, [["clayton", {"theta": th1}], ["clayton", {"theta": th2}]]),
        (G15, [["clayton", {"theta": th2}], ["clayton", {"theta": th1}]]),
        (G15, [["independence", {}], ["frechet_upper", {}]]),
    )]
    return items


# Inputs on which the survival route fails today, the same for every seed:
# u + v - 1 + C(1-u, 1-v) cancels in linear space, so the solver sees
# rounding noise as co-maximizers or misplaces a flat peak, and the diagonal
# of C^ vanishes at u = 1e-8.  Each level is the cheapest at which the fault
# already shows.
UPPER_FAULTS = [
    {"kind": "point", "family": "independence", "p": {}, "u": 1e-4,
     "known_fault": "survival cancellation: spurious co-maximizers"},
    {"kind": "point", "family": "fgm", "p": {"alpha": 0.5}, "u": 1e-4,
     "known_fault": "survival cancellation: spurious co-maximizers"},
    {"kind": "point", "family": "generalized_clayton",
     "p": {"gamma0": 0.5, "gamma1": 0.3}, "u": 10 ** -4.25,
     "known_fault": "survival cancellation: spurious co-maximizers"},
    {"kind": "point", "family": "clayton", "p": {"theta": 1.0}, "u": 1e-4,
     "known_fault": "survival cancellation: misplaced maximizer"},
    {"kind": "classical", "family": "independence", "p": {}, "grid": G8,
     "known_fault": "survival cancellation: C^(u, u) vanishes at 1e-8"},
    {"kind": "classical", "family": "fgm", "p": {"alpha": 0.5}, "grid": G8,
     "known_fault": "survival cancellation: C^(u, u) vanishes at 1e-8"},
    {"kind": "classical", "family": "clayton", "p": {"theta": 2.0}, "grid": G8,
     "known_fault": "survival cancellation: negative lambda"},
]


def _survival_route(rng: random.Random) -> list[dict]:
    items = []
    for _ in range(3):
        for g in (G6, G11, G21, G5):
            items.append({"kind": "path", "family": "marshall_olkin",
                          "p": _draw(rng, "marshall_olkin"), "grid": g})
        for g in (G5, G9, G17, (4, 1, 2)):
            # levels stop at 1e-5: below that the rounding noise of the
            # linear survival formula exceeds the solver's 1e-9 tie window
            # and one of the two co-maximizers is dropped on some seeds
            a, b = _distinct_pair(rng, 0.3, 0.9, 0.2)
            items.append({"kind": "path", "family": "mixture_mo",
                          "p": {"a": a, "b": b}, "grid": g})
        a, b = _distinct_pair(rng, 0.3, 0.9, 0.2)
        items.append({"kind": "compare", "grid": G5,
                      "pair": [["marshall_olkin", {"a": a, "b": b}],
                               ["mixture_mo", {"a": a, "b": b}]]})
    for g in (G6, G11, G21, G5):
        items.append({"kind": "path", "family": "frechet_upper", "p": {}, "grid": g})
    for g in (G6, G11):
        items.append({"kind": "compare", "grid": g,
                      "pair": [["frechet_upper", {}],
                               ["marshall_olkin", _draw(rng, "marshall_olkin")]]})
    for it in items:
        it["survival"] = True
    return items + [dict(f, survival=True) for f in UPPER_FAULTS]


RISK_FAMILIES = (("marshall_olkin", False), ("marshall_olkin", True),
                 ("mixture_mo", False), ("fgm", False),
                 ("independence", False), ("frechet_upper", False))
TABLE_SEED = 11  # the seed of the published-table reproduction


def _risk_mc(rng: random.Random, seed: int) -> list[dict]:
    params = {}
    for fam, surv in RISK_FAMILIES:
        if fam == "fgm":
            params[(fam, surv)] = {"alpha": rng.uniform(-0.9, 0.9)}
        elif fam in ("marshall_olkin", "mixture_mo"):
            params[(fam, surv)] = {"a": rng.uniform(0.2, 0.9), "b": rng.uniform(0.2, 0.9)}
        else:
            params[(fam, surv)] = {}
    sizes = [(fam, surv, q, n) for fam, surv in RISK_FAMILIES
             for q in (0.99, 0.995) for n in (100_000, 200_000, 400_000)]
    sizes += [("marshall_olkin", True, 0.99, 2_000_000),
              ("mixture_mo", False, 0.995, 2_000_000),
              ("fgm", False, 0.99, 2_000_000)]
    items = [{"kind": "risk", "family": fam, "p": params[(fam, surv)],
              "survival": surv, "q": q, "n": n, "seed": seed * 100 + k}
             for k, (fam, surv, q, n) in enumerate(sizes)]
    items.append({"kind": "table", "n": 2_000_000, "seed": TABLE_SEED})
    return items


def make_items(workload: str, seed: int) -> list[dict]:
    """The seeded mix of one pass; every pass runs it in the same order.

    Each mix has at least 40 distinct items, so that the tail percentile
    of their best-of-passes times has ten items beyond it.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tail_paths":
        items = _tail_paths(rng) + _survival_route(rng)
    elif workload == "risk_mc":
        items = _risk_mc(rng, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    for k, it in enumerate(items):
        it["id"] = f"{workload}-{k:02d}"
    return items


def warmup_items(workload: str) -> list[dict]:
    """One small item of each kind, run untimed before the first pass."""
    kinds = {
        "path": {"kind": "path", "family": "marshall_olkin",
                 "p": {"a": 0.3, "b": 0.7}, "grid": G6},
        "compare": {"kind": "compare", "grid": G6,
                    "pair": [["marshall_olkin", {"a": 0.3, "b": 0.7}],
                             ["mixture_mo", {"a": 0.3, "b": 0.7}]]},
        "point": {"kind": "point", "family": "marshall_olkin",
                  "p": {"a": 0.3, "b": 0.7}, "u": 1e-3, "survival": True},
        "classical": {"kind": "classical", "family": "marshall_olkin",
                      "p": {"a": 0.3, "b": 0.7}, "grid": G6, "survival": True},
        "risk": {"kind": "risk", "family": "marshall_olkin", "p": {"a": 0.3, "b": 0.7},
                 "survival": False, "q": 0.99, "n": 20_000, "seed": 0},
        "table": {"kind": "table", "n": 20_000, "seed": 0},
    }
    wanted = {"tail_paths": ("path", "compare", "point", "classical"),
              "risk_mc": ("risk", "table")}[workload]
    return [dict(kinds[k], id=f"warmup-{k}") for k in wanted]


# ---------------------------------------------------------------------------
# program calls
# ---------------------------------------------------------------------------

def copula(family: str, p: dict, survival: bool = False):
    import taildep as td

    if family == "independence":
        cop = td.Independence()
    elif family == "frechet_upper":
        cop = td.FrechetUpper()
    elif family == "marshall_olkin":
        cop = td.MarshallOlkin(p["a"], p["b"])
    elif family == "mixture_mo":
        cop = td.MixtureMO(p["a"], p["b"])
    elif family == "fgm":
        cop = td.FGM(p["alpha"])
    elif family == "generalized_clayton":
        cop = td.GeneralizedClayton(p["gamma0"], p["gamma1"])
    elif family == "clayton":
        cop = td.Archimedean(td.clayton_generator(p["theta"]))
    else:
        raise ValueError(f"unknown family {family!r}")
    return cop.survival() if survival else cop


def _guard(fn):
    """Run one program call; a raised error is an output, not a crash."""
    try:
        return fn()
    except Exception as exc:  # a raised error is a failed operation
        return {"error": type(exc).__name__, "message": str(exc)[:200]}


def bind(item: dict, span=lambda name: NO_SPAN):
    """Zero-argument callable making the item's program calls.

    ``span(name)`` wraps each call into a layer; untraced runs pass the
    default, a shared no-op context.
    """
    import taildep as td
    from taildep.risk import ParetoII, reference_table, risk_measures

    kind = item["kind"]
    surv = item.get("survival", False)
    if kind == "path":
        cop = copula(item["family"], item["p"], surv)
        levels = grid(item["grid"])

        def run():
            with span("paths.solve_path"):
                sol = _guard(lambda: td.solve_path(cop, levels))
            if isinstance(sol, dict):
                return sol
            with span("indices.star_indices"):
                star = _guard(lambda: td.star_indices(sol))
            with span("indices.classical_indices"):
                diag = _guard(lambda: td.classical_indices(cop, levels))
            return sol, star, diag
        return run
    if kind == "compare":
        c1, c2 = (copula(f, p, surv) for f, p in item["pair"])
        levels = grid(item["grid"])

        def run():
            with span("indices.compare"):
                return _guard(lambda: td.compare(c1, c2, levels))
        return run
    if kind == "point":
        cop = copula(item["family"], item["p"], surv)

        def run():
            with span("paths.pointwise_max"):
                return _guard(lambda: td.pointwise_max(cop, item["u"]))
        return run
    if kind == "classical":
        cop = copula(item["family"], item["p"], surv)
        levels = grid(item["grid"])

        def run():
            with span("indices.classical_indices"):
                return _guard(lambda: td.classical_indices(cop, levels))
        return run
    if kind == "risk":
        cop = copula(item["family"], item["p"], surv)
        marginal = ParetoII(0.0, 1.0, 4.0)

        def run():
            with span("risk.risk_measures"):
                return _guard(lambda: risk_measures(cop, marginal, item["q"],
                                                    item["n"], item["seed"]))
        return run
    if kind == "table":
        def run():
            with span("risk.reference_table"):
                return _guard(lambda: reference_table(seed=item["seed"], n=item["n"]))
        return run
    raise ValueError(f"unknown item kind {kind!r}")


def _index(rep) -> dict:
    if isinstance(rep, dict):
        return rep
    return {"kappa": rep.kappa, "lam": rep.lam, "chi": rep.chi,
            "residual": rep.residual}


def _point(p) -> dict:
    return {"u": p.u, "maximizers": list(p.maximizers),
            "log_pi_star": p.log_pi_star, "boundary": p.boundary_attained,
            "apm": p.all_paths_maximal}


def record(item: dict, raw) -> dict:
    """Plain-dict form of an item's results, for checking."""
    if isinstance(raw, dict):  # a raised error
        return raw
    kind = item["kind"]
    if kind == "path":
        sol, star, diag = raw
        return {"levels": [_point(p) for p in sol.points],
                "star": _index(star), "classical": _index(diag)}
    if kind == "compare":
        return {"lambda_pair": raw.lambda_pair, "chi_pair": raw.chi_pair,
                "verdict": raw.verdict.value,
                "kappa_1": raw.kappa_1, "kappa_2": raw.kappa_2}
    if kind == "point":
        return _point(raw)
    if kind == "classical":
        return _index(raw)
    if kind == "risk":
        return {"var": raw.var_q, "cte": raw.cte_q, "mtvar": raw.mtvar_q,
                "n_exceed": raw.n_exceed, "stderr_cte": raw.stderr_cte}
    if kind == "table":
        return {"rows": [[r.q, r.b, r.tau, r.kappa_l, r.kappa_l_star,
                          r.var_q, r.cte_q, r.mtvar_q] for r in raw.rows]}
    raise ValueError(f"unknown item kind {kind!r}")
