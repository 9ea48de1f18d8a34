"""Self-tests of the benchmark's checks, in both directions.

    python3 -m pytest perfbench

The reference values must agree with the program where it is known to be
right, and a corrupted output must count as a failed operation.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as C  # noqa: E402
import oracles as O  # noqa: E402
import run as R  # noqa: E402
import taildep as td  # noqa: E402
import workloads as W  # noqa: E402
from taildep.risk import ParetoII, reference_table, risk_measures  # noqa: E402

A = 0.3529
MARGINAL = ParetoII(0.0, 1.0, 4.0)


# --- the oracles agree with the program -----------------------------------

@pytest.mark.parametrize("a,b", [(0.3529, 0.75), (0.2, 0.6), (0.8, 0.35)])
@pytest.mark.parametrize("u", [1e-2, 1e-4, 1e-7])
def test_mo_and_mixture_maximizers(a, b, u):
    got = td.pointwise_max(td.MarshallOlkin(a, b), u).maximizers
    assert C._rel(got[0], O.lower_maximizers("marshall_olkin", {"a": a, "b": b}, u)[0]) < 1e-9
    got = sorted(td.pointwise_max(td.MixtureMO(a, b), u).maximizers)
    want = O.lower_maximizers("mixture_mo", {"a": a, "b": b}, u)
    assert len(got) == 2 and max(C._rel(g, w) for g, w in zip(got, want)) < 1e-9


def test_closed_form_kappa_star_matches_paper_and_program():
    for b, paper in ((0.75, 1.5200), (0.5, 1.5862), (0.3529, 1.6471)):
        p = {"a": A, "b": b}
        assert abs(O.lower_indices("marshall_olkin", p)["kappa_star"] - paper) < 5e-5
        assert abs(td.closed_form_kappa_star(td.MarshallOlkin(A, b))
                   - O.lower_indices("marshall_olkin", p)["kappa_star"]) < 1e-15
    p = {"gamma0": 0.5, "gamma1": 0.3}
    assert O.lower_indices("generalized_clayton", p)["kappa_star"] == pytest.approx(
        td.closed_form_kappa_star(td.GeneralizedClayton(0.5, 0.3)), abs=1e-15)


@pytest.mark.parametrize("g0,g1", [(0.04, 0.02), (0.5, 0.3), (1.0, 0.0)])
@pytest.mark.parametrize("u", [1e-1, 1e-3, 1e-6])
def test_generalized_clayton_root_in_mpmath(g0, g1, u):
    want = O.gc_maximizer(g0, g1, u)
    assert C._rel(td.zeta_root(g0, g1, u, xtol=1e-12 * want), want) < 1e-6
    got = td.pointwise_max(td.GeneralizedClayton(g0, g1), u).maximizers
    assert len(got) == 1 and C._rel(got[0], want) < 1e-6


def test_mo_survival_limits():
    for a, b in ((0.3529, 0.75), (0.6, 0.25)):
        cop = td.MarshallOlkin(a, b).survival()
        grid = W.grid(W.G6)
        want = O.upper_indices("marshall_olkin", {"a": a, "b": b})
        assert want["lam"] == min(a, b) and want["lam_star"] == math.sqrt(a * b)
        assert abs(td.classical_indices(cop, grid).lam - min(a, b)) < 1e-6
        assert abs(td.star_indices(td.solve_path(cop, grid)).lam - math.sqrt(a * b)) < 1e-6


@pytest.mark.parametrize("fam,p", [("marshall_olkin", {"a": 0.3, "b": 0.8}),
                                   ("clayton", {"theta": 1.0}),
                                   ("clayton", {"theta": 2.0})])
def test_survival_peaks_confirmed_by_scan(fam, p):
    u = 1e-4
    got = O.survival_argmax(fam, tuple(sorted(p.items())), u)
    want = O.survival_maximizers(fam, p, u)[0]
    assert C._rel(got, want) < 1e-6


def test_comonotone_var_and_cte():
    q = 0.99
    ref = O.risk_reference("frechet_upper", {}, False, q)
    assert ref["var"] == pytest.approx(2 * MARGINAL.quantile(q), rel=1e-15)
    # E[X | X > x] = x + (1 + x) / (alpha - 1) for Pareto-II(0, 1, alpha)
    zs = 2 * MARGINAL.quantile(np.linspace(q, 1, 2_000_001)[:-1])
    assert ref["cte"] == pytest.approx(zs.mean(), rel=1e-3)
    rep = risk_measures(td.FrechetUpper(), MARGINAL, q, 400_000, seed=5)
    assert C.risk_problems("t", "frechet_upper", {}, False, q, 400_000,
                           rep.var_q, rep.cte_q) == []


def test_independence_var_by_convolution():
    q = 0.995
    law = O.SumLaw("independence", {})
    v = law.var(q)
    # the same convolution conditioned on the other margin
    assert law.cdf(v, swap=True) == pytest.approx(q, abs=1e-10)
    rng = np.random.default_rng(7)
    z = MARGINAL.quantile(rng.random(4_000_000)) + MARGINAL.quantile(rng.random(4_000_000))
    assert np.quantile(z, q) == pytest.approx(v, rel=1e-2)
    rep = risk_measures(td.Independence(), MARGINAL, q, 400_000, seed=3)
    assert C.risk_problems("t", "independence", {}, False, q, 400_000,
                           rep.var_q, rep.cte_q) == []


def test_exact_law_reproduces_published_table():
    for (q, b), (_, var, cte, _) in O.PUBLISHED_TABLE.items():
        ref = O.risk_reference("marshall_olkin", {"a": A, "b": b}, True, q)
        assert C._rel(ref["var"], var) < 1.5e-2 and C._rel(ref["cte"], cte) < 1.5e-2


def test_program_table_passes_published_check():
    table = reference_table(seed=W.TABLE_SEED, n=2_000_000)
    rows = [[r.q, r.b, r.tau, r.kappa_l, r.kappa_l_star, r.var_q, r.cte_q, r.mtvar_q]
            for r in table.rows]
    assert C.check_table({"n": 2_000_000}, rows, published=True) == []


def test_every_workload_item_passes_or_is_a_known_fault():
    for it in W.make_items("tail_paths", 0):
        out = W.record(it, W.bind(it)())
        assert bool(C.check(it, out)) == bool(it.get("known_fault")), it


# --- a corrupted output fails ----------------------------------------------

def _path_item(family, p):
    it = {"kind": "path", "family": family, "p": p, "grid": W.G6}
    return it, W.record(it, W.bind(it)())


def test_perturbed_maximizer_fails():
    it, out = _path_item("marshall_olkin", {"a": 0.3529, "b": 0.75})
    assert C.check(it, out) == []
    out["levels"][3]["maximizers"][0] *= 1 + 1e-5
    assert C.check(it, out)


def test_dropped_co_maximizer_fails():
    it, out = _path_item("mixture_mo", {"a": 0.3529, "b": 0.75})
    assert C.check(it, out) == []
    out["levels"][2]["maximizers"].pop()
    assert C.check(it, out)


def test_var_off_by_five_standard_errors_fails():
    q, n = 0.99, 100_000
    p = {"a": 0.4, "b": 0.7}
    it = {"kind": "risk", "family": "marshall_olkin", "p": p, "survival": True,
          "q": q, "n": n, "seed": 1}
    out = W.record(it, W.bind(it)())
    assert C.check(it, out) == []
    ref = O.risk_reference("marshall_olkin", p, True, q)
    se = O.var_stderr(ref, q, n)
    for off in (5.0, -5.0):
        bad = dict(out, var=ref["var"] + off * se)
        assert C.check(it, bad)
    assert not any("VaR" in pr for pr in C.check(it, dict(out, var=ref["var"])))


def test_raised_error_fails():
    it = dict(W.UPPER_FAULTS[4], survival=True)
    out = W.record(it, W.bind(it)())
    assert "error" in out and C.check(it, out)


# --- the tail estimate -------------------------------------------------------

def test_tail_estimate_is_the_percentile_with_ten_items_beyond():
    k = 88
    values = [float(i) for i in range(1, k + 1)]
    assert abs(R.harrell_davis(values, R.tail_fraction(k)) - values[k - 11]) < 1.0


def test_tail_estimate_ignores_the_slowest_items():
    values = [float(i) for i in range(1, 89)]
    base = R.harrell_davis(values, R.tail_fraction(88))
    values[-1] = 1e6  # one item a thousand times slower
    assert abs(R.harrell_davis(values, R.tail_fraction(88)) - base) < 0.5
