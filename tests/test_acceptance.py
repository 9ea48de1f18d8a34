"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from taildep import (
    FGM,
    Archimedean,
    FrechetUpper,
    GeneralizedClayton,
    Independence,
    MarshallOlkin,
    MixtureMO,
    NoAdmissiblePathError,
    Verdict,
    archimedean_diagonal_check,
    check_axioms,
    classical_indices,
    clayton_generator,
    closed_form_kappa_star,
    compare,
    default_u_grid,
    pi_phi,
    pointwise_max,
    solve_path,
    star_indices,
    zeta_root,
)
from taildep.risk import reference_table

A = 0.3529
GRID = default_u_grid()  # 1e-1 .. 1e-6

TABLE_SEED = 11
TABLE_N = 2_000_000

REFERENCE_ROWS = {
    (0.990, 0.75): (0.3158, 3.4621, 4.8599, 5.5808),
    (0.990, 0.5): (0.2609, 3.4095, 4.7606, 5.4691),
    (0.990, 0.3529): (0.2143, 3.3612, 4.6926, 5.3951),
    (0.995, 0.75): (0.3158, 4.2925, 5.8976, 6.7004),
    (0.995, 0.5): (0.2609, 4.2114, 5.7782, 6.5552),
    (0.995, 0.3529): (0.2143, 4.1460, 5.6801, 6.4268),
}


def check(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


_TABLE_CACHE: dict = {}


def _table_run():
    """Build the n=2e6 table once; criteria 7 and 9 share it."""
    if "table" not in _TABLE_CACHE:
        start = time.perf_counter()
        _TABLE_CACHE["table"] = reference_table(seed=TABLE_SEED, n=TABLE_N)
        _TABLE_CACHE["elapsed"] = time.perf_counter() - start
    return _TABLE_CACHE["table"], _TABLE_CACHE["elapsed"]


def test_criterion_1_closed_form_index_table():
    start = time.perf_counter()
    expected_star = {0.75: 1.5200, 0.5: 1.5862, 0.3529: 1.6471}
    worst_star = worst_diag = 0.0
    for b, target in expected_star.items():
        worst_star = max(worst_star,
                         abs(closed_form_kappa_star(MarshallOlkin(A, b)) - target))
        diag = classical_indices(MarshallOlkin(A, b), GRID).kappa
        worst_diag = max(worst_diag, abs(diag - 1.6471))
    elapsed = time.perf_counter() - start
    check(1, worst_star < 5e-5 and worst_diag < 5e-5 and elapsed < 1.0,
          f"kappa* err {worst_star:.2e}, kappa_L err {worst_diag:.2e} "
          f"(tol 5e-5), {elapsed:.2f}s < 1s")


def test_criterion_2_numeric_paths_match_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    levels = (1e-1, 1e-2, 1e-3, 1e-4)
    worst = 0.0
    mixture_ok = True
    for a, b in rng.uniform(0.1, 0.9, size=(20, 2)):
        s = a + b
        for u in levels:
            got = pointwise_max(MarshallOlkin(a, b), u).maximizers
            worst = max(worst, min(abs(x - u ** (2 * b / s)) for x in got))
            got_mix = pointwise_max(MixtureMO(a, b), u).maximizers
            for target in (u ** (2 * b / s), u ** (2 * a / s)):
                err = min(abs(x - target) for x in got_mix)
                worst = max(worst, err)
                mixture_ok = mixture_ok and err < 1e-6
    elapsed = time.perf_counter() - start
    check(2, worst < 1e-6 and mixture_ok and elapsed < 30.0,
          f"worst |x - x*| {worst:.2e} (tol 1e-6) over 20 draws x 4 levels, "
          f"{elapsed:.1f}s < 30s")


def test_criterion_3_slope_estimation_exactness():
    worst_mo = 0.0
    for a, b in ((A, 0.75), (A, 0.5), (A, 0.3529), (0.2, 0.6)):
        rep = star_indices(solve_path(MarshallOlkin(a, b), GRID))
        worst_mo = max(worst_mo, abs(rep.kappa - (2 - 2 * a * b / (a + b))))
    rep_mix = star_indices(solve_path(MixtureMO(A, 0.75), GRID))
    err_mix = abs(rep_mix.kappa - (2 - 2 * A * 0.75 / (A + 0.75)))
    check(3, worst_mo < 1e-10 and err_mix < 5e-3,
          f"MO kappa* err {worst_mo:.2e} (tol 1e-10), "
          f"mixture err {err_mix:.2e} (tol 5e-3)")


def test_criterion_4_generalized_clayton():
    start = time.perf_counter()
    worst_root = 0.0
    for g0, g1 in ((0.04, 0.02), (0.5, 0.3), (1.0, 0.0)):
        cop = GeneralizedClayton(g0, g1)
        for u in (0.1, 0.01):
            xs = np.linspace(u * u, 1.0, 1_000_000)
            brute = xs[np.argmax(cop.log_cdf(xs, u * u / xs))]
            worst_root = max(worst_root,
                             abs(zeta_root(g0, g1, u, xtol=1e-10) - brute))
    worst_kappa = 0.0
    for g0, g1 in ((0.04, 0.02), (0.5, 0.3), (1.0, 0.0)):
        rep = star_indices(solve_path(GeneralizedClayton(g0, g1), GRID))
        target = 1.0 + g1 / (g1 + 2.0 * g0)
        worst_kappa = max(worst_kappa, abs(rep.kappa - target))
    elapsed = time.perf_counter() - start
    check(4, worst_root < 1e-6 and worst_kappa < 1e-2 and elapsed < 60.0,
          f"root vs 1e6-scan err {worst_root:.2e} (tol 1e-6), "
          f"kappa* err {worst_kappa:.2e} (tol 1e-2), {elapsed:.1f}s < 60s")


def test_criterion_5_mixture_comparison():
    report = compare(MarshallOlkin(A, 0.75), MixtureMO(A, 0.75), GRID)
    rel = abs(report.lambda_pair - 2.0) / 2.0
    check(5, rel < 0.02 and report.verdict is Verdict.MORE_LTMD,
          f"lambda_pair {report.lambda_pair:.4f} (2 within 2%: err {rel:.2%}), "
          f"verdict {report.verdict.value}")


def test_criterion_6_archimedean_clayton():
    worst_x = worst_lam = 0.0
    all_increasing = True
    for theta in (0.5, 1.0, 2.0):
        gen = clayton_generator(theta)
        all_increasing &= archimedean_diagonal_check(gen, 1e-6)
        sol = solve_path(Archimedean(gen), GRID)
        worst_x = max(worst_x,
                      max(abs(p.maximizers[0] - p.u) for p in sol.points))
        rep = star_indices(sol)
        worst_lam = max(worst_lam, abs(rep.lam - 2.0 ** (-1.0 / theta)))
    check(6, all_increasing and worst_x < 1e-6 and worst_lam < 1e-3,
          f"x psi'(x) increasing for all theta; |x*-u| {worst_x:.2e} "
          f"(tol 1e-6); lambda* err {worst_lam:.2e} (tol 1e-3)")


def test_criterion_7_reference_table_reproduction():
    table, elapsed = _table_run()
    worst_risk = worst_tau = 0.0
    for row in table.rows:
        tau, var, cte, mtvar = REFERENCE_ROWS[(row.q, row.b)]
        worst_tau = max(worst_tau, abs(row.tau - tau))
        worst_risk = max(
            worst_risk,
            abs(row.var_q - var) / var,
            abs(row.cte_q - cte) / cte,
            abs(row.mtvar_q - mtvar) / mtvar,
        )
    monotone = all(
        all(x > y for x, y in zip(ctes, ctes[1:]))
        for ctes in ([r.cte_q for r in table.rows if r.q == q]
                     for q in (0.990, 0.995))
    )
    check(7, worst_risk < 0.015 and worst_tau < 5e-4 and monotone
          and elapsed < 120.0,
          f"risk rel err {worst_risk:.3%} (tol 1.5%), tau err {worst_tau:.1e} "
          f"(tol 5e-4), CTE monotone in b: {monotone}, "
          f"built in {elapsed:.1f}s < 120s (n={TABLE_N}, seed={TABLE_SEED})")


def test_criterion_8_property_suites():
    families = [
        Independence(), FrechetUpper(),
        MarshallOlkin(A, 0.75), MarshallOlkin(0.4, 0.4), MixtureMO(A, 0.75),
        FGM(-1.0), FGM(0.5),
        GeneralizedClayton(0.04, 0.02), GeneralizedClayton(0.5, 0.3),
        Archimedean(clayton_generator(1.0)),
    ]
    axioms_ok = all(check_axioms(c, 100, 1e-10).all_ok for c in families)

    rng = np.random.default_rng(31)
    bounds_ok = True
    for cop in families:
        u = rng.uniform(0.0, 1.0, 200)
        v = rng.uniform(0.0, 1.0, 200)
        c = cop.cdf(u, v)
        bounds_ok &= bool(np.all(c <= np.minimum(u, v) + 1e-12)
                          and np.all(c >= np.maximum(u + v - 1, 0.0) - 1e-12))

    dominance_ok = True
    for cop in (MarshallOlkin(A, 0.75), MixtureMO(A, 0.75), FGM(0.5),
                GeneralizedClayton(0.5, 0.3),
                Archimedean(clayton_generator(1.0))):
        for u in (1e-1, 1e-2, 1e-3):
            point = pointwise_max(cop, u)
            xs = np.exp(rng.uniform(2 * math.log(u), 0.0, 100))
            probes = pi_phi(cop, u, xs)
            dominance_ok &= bool(
                np.all(point.pi_star >= probes - 1e-9 * point.pi_star))

    symmetry_ok = True
    for cop in (MixtureMO(A, 0.75), FGM(0.5),
                Archimedean(clayton_generator(2.0))):
        for u in (0.1, 0.01):
            maxima = pointwise_max(cop, u).maximizers
            for x in maxima:
                mirror = u * u / x
                symmetry_ok &= any(abs(m - mirror) <= 1e-6 + 1e-6 * mirror
                                   for m in maxima)

    sol = solve_path(FGM(-0.5), GRID)
    fgm_flags = all(p.boundary_attained for p in sol.points)
    try:
        star_indices(sol)
        fgm_raises = False
    except NoAdmissiblePathError:
        fgm_raises = True

    ok = (axioms_ok and bounds_ok and dominance_ok and symmetry_ok
          and fgm_flags and fgm_raises)
    check(8, ok,
          f"axioms {axioms_ok}, Frechet bounds {bounds_ok}, dominance "
          f"{dominance_ok}, maximizer symmetry {symmetry_ok}, negative-FGM "
          f"flags {fgm_flags}, no-admissible-path raise {fgm_raises}")


def test_criterion_9_determinism():
    table, _ = _table_run()
    again = reference_table(seed=TABLE_SEED, n=TABLE_N)
    identical = table.to_csv() == again.to_csv()
    check(9, identical and again == table,
          f"repeated n={TABLE_N} run with seed {TABLE_SEED} is byte-identical: "
          f"{identical}")
