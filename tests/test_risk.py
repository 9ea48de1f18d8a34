"""Tests for samplers, the Pareto-II marginal and Monte Carlo risk measures.

Sampler constructions are gated here against the analytic CDFs: agreement
of the empirical copula on a lattice, exact comonotone degeneracy, and the
expected O(n^-1/2) shrinkage of the deviation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taildep import (
    FGM,
    Archimedean,
    FrechetUpper,
    GeneralizedClayton,
    Independence,
    InsufficientTailError,
    MarshallOlkin,
    MixtureMO,
    ParameterError,
    ParetoII,
    RiskReport,
    UnsupportedMethodError,
    clayton_generator,
    reference_table,
    risk_measures,
    sample_pairs,
)

A, B = 0.3529, 0.75
MARGINAL = ParetoII(0.0, 1.0, 4.0)

REFERENCE_ROWS = {
    (0.990, 0.75): (3.4621, 4.8599, 5.5808),
    (0.990, 0.5): (3.4095, 4.7606, 5.4691),
    (0.990, 0.3529): (3.3612, 4.6926, 5.3951),
    (0.995, 0.75): (4.2925, 5.8976, 6.7004),
    (0.995, 0.5): (4.2114, 5.7782, 6.5552),
    (0.995, 0.3529): (4.1460, 5.6801, 6.4268),
}


def empirical_copula_deviation(cop, n, seed, grid=20):
    """Sup over a grid of |empirical joint CDF - analytic copula|."""
    u, v = sample_pairs(cop, n, seed)
    edges = np.linspace(0.0, 1.0, grid + 1)
    counts, _, _ = np.histogram2d(u, v, bins=[edges, edges])
    emp = counts.cumsum(axis=0).cumsum(axis=1) / n
    gu, gv = np.meshgrid(edges[1:], edges[1:], indexing="ij")
    return float(np.max(np.abs(emp - cop.cdf(gu, gv))))


class TestParetoII:
    def test_quantile_reference_points(self):
        assert MARGINAL.quantile(0.99) == pytest.approx(10 ** 0.5 - 1.0, rel=1e-12)
        assert MARGINAL.quantile(1e-12) == pytest.approx(0.0, abs=1e-9)
        assert ParetoII(0.0, 1.0, 1.0).quantile(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_survival_anchored_at_location(self):
        m = ParetoII(2.0, 3.0, 4.0)
        assert m.sf(2.0) == 1.0
        x = np.linspace(2.0, 50.0, 100)
        assert np.all(np.diff(m.sf(x)) < 0.0)

    def test_quantile_inverts_survival(self):
        p = np.linspace(0.0, 0.999, 50)
        m = ParetoII(1.0, 2.0, 3.0)
        assert np.allclose(m.sf(m.quantile(p)), 1.0 - p, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ParetoII(0.0, 0.0, 4.0)
        with pytest.raises(ParameterError):
            ParetoII(0.0, 1.0, -1.0)
        with pytest.raises(ParameterError):
            MARGINAL.quantile(1.0)


class TestSamplers:
    def test_independence_small_sample(self):
        assert empirical_copula_deviation(Independence(), 10 ** 5, 1) < 0.01

    @pytest.mark.parametrize("cop", [
        MarshallOlkin(A, B),
        MarshallOlkin(1.0, 0.5),   # degenerate exponent: pure shock margin
        MarshallOlkin(0.0, 0.5),   # degenerate exponent: no shock margin
        MixtureMO(A, B),
        FGM(0.7),
        FGM(-1.0),
        MarshallOlkin(A, B).survival(),
    ], ids=lambda c: c.family + "-s" if hasattr(c, "base") else c.family)
    def test_empirical_copula_matches_cdf(self, cop):
        assert empirical_copula_deviation(cop, 10 ** 6, 1) < 0.003

    def test_comonotone_pairs_identical(self):
        u, v = sample_pairs(FrechetUpper(), 1000, seed=3)
        assert np.array_equal(u, v)

    def test_marginals_are_uniform(self):
        u, v = sample_pairs(MixtureMO(A, B), 10 ** 5, seed=5)
        grid = np.linspace(0.05, 0.95, 19)
        for sample in (u, v):
            emp = np.searchsorted(np.sort(sample), grid) / sample.size
            assert np.max(np.abs(emp - grid)) < 0.01

    def test_deviation_shrinks_like_root_n(self):
        cop = MarshallOlkin(A, B)
        ns = np.array([10 ** 4, 10 ** 5, 10 ** 6])
        devs = [empirical_copula_deviation(cop, int(n), seed=2) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(devs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_same_seed_same_sample(self):
        a = sample_pairs(MarshallOlkin(A, B), 50_000, seed=9)
        b = sample_pairs(MarshallOlkin(A, B), 50_000, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_batching_is_seamless(self):
        # crossing the internal batch boundary must not disturb the stream
        n = (1 << 18) + 7
        u, v = sample_pairs(Independence(), n, seed=4)
        u2, _ = sample_pairs(Independence(), 1 << 18, seed=4)
        assert np.array_equal(u[: 1 << 18], u2)

    @pytest.mark.parametrize("cop", [
        GeneralizedClayton(0.5, 0.3),
        Archimedean(clayton_generator(1.0)),
    ])
    def test_unsupported_families(self, cop):
        with pytest.raises(UnsupportedMethodError):
            sample_pairs(cop, 1000)

    def test_batches_follow_the_documented_philox_streams(self):
        # batch i is Philox(key=seed).jumped(i), rows in order
        n = (1 << 18) + 1000
        u, v = sample_pairs(Independence(), n, seed=12)
        for i, start in enumerate((0, 1 << 18)):
            rng = np.random.Generator(np.random.Philox(key=12).jumped(i))
            w = rng.random((min(1 << 18, n - start), 2))
            assert np.array_equal(u[start:start + w.shape[0]], w[:, 0])
            assert np.array_equal(v[start:start + w.shape[0]], w[:, 1])

    def test_n_validation(self):
        with pytest.raises(ParameterError):
            sample_pairs(Independence(), 0)

    @pytest.mark.parametrize("n", [-5, 2e4, 1.5, True, "100"])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(ParameterError):
            sample_pairs(Independence(), n)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2 ** 128, False, None])
    def test_seed_validation(self, seed):
        with pytest.raises(ParameterError):
            sample_pairs(Independence(), 1000, seed)

    def test_largest_philox_key_and_numpy_integers(self):
        u, _ = sample_pairs(Independence(), 10, seed=2 ** 128 - 1)
        assert u.shape == (10,)
        a = sample_pairs(FGM(0.5), 1000, seed=np.int64(3))
        b = sample_pairs(FGM(0.5), 1000, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(-1.0, 1.0), u=st.floats(0.001, 0.999),
           w=st.floats(0.001, 0.999))
    def test_fgm_conditional_inverse_property(self, alpha, u, w):
        # the sampled v must satisfy the conditional CDF equation
        from taildep.risk import _fgm_conditional_inverse

        v = float(_fgm_conditional_inverse(np.asarray(u), np.asarray(w), alpha))
        assert 0.0 <= v <= 1.0
        a_coef = alpha * (1.0 - 2.0 * u)
        assert v * (1.0 + a_coef * (1.0 - v)) == pytest.approx(w, abs=1e-12)


class TestMarginalTransform:
    @pytest.mark.parametrize("q", [0.9, 0.99])
    def test_empirical_quantiles_match_closed_form(self, q):
        u, _ = sample_pairs(MarshallOlkin(A, B), 10 ** 6, seed=2)
        x = MARGINAL.quantile(u)
        true = MARGINAL.quantile(q)
        density = 4.0 * (true + 1.0) ** -5.0
        stderr = math.sqrt(q * (1.0 - q) / x.size) / density
        assert abs(np.quantile(x, q) - true) < 3.0 * stderr


class TestRiskMeasures:
    def test_ordering_invariant(self):
        for cop in (Independence(), MarshallOlkin(A, B).survival(), FGM(0.5)):
            rep = risk_measures(cop, MARGINAL, 0.99, 100_000, seed=6)
            assert rep.var_q <= rep.cte_q <= rep.mtvar_q
            assert rep.stderr_cte > 0.0
            assert rep.n_exceed == 1000

    def test_comonotone_sum_is_twice_the_marginal(self):
        # Z = 2X exactly, so the quantile is known in closed form
        rep = risk_measures(FrechetUpper(), MARGINAL, 0.99, 100_000, seed=8)
        assert rep.var_q == pytest.approx(2.0 * (0.01 ** -0.25 - 1.0), abs=0.15)

    def test_survival_coupled_row_matches_reference(self):
        rep = risk_measures(MarshallOlkin(A, B).survival(), MARGINAL,
                            0.99, 400_000, seed=11)
        var, cte, mtvar = REFERENCE_ROWS[(0.990, 0.75)]
        assert rep.var_q == pytest.approx(var, rel=0.03)
        assert rep.cte_q == pytest.approx(cte, rel=0.03)
        assert rep.mtvar_q == pytest.approx(mtvar, rel=0.08)

    def test_deterministic_given_seed(self):
        kwargs = dict(cop=MarshallOlkin(A, B).survival(), marginal=MARGINAL,
                      q=0.99, n=50_000, seed=3)
        r1 = risk_measures(kwargs["cop"], kwargs["marginal"], kwargs["q"],
                           kwargs["n"], kwargs["seed"])
        r2 = risk_measures(kwargs["cop"], kwargs["marginal"], kwargs["q"],
                           kwargs["n"], kwargs["seed"])
        assert r1 == r2  # bit-identical dataclasses

    def test_insufficient_tail(self):
        with pytest.raises(InsufficientTailError):
            risk_measures(Independence(), MARGINAL, 0.999, 10_000, seed=1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            risk_measures(Independence(), MARGINAL, 1.0, 100_000)
        with pytest.raises(ParameterError):
            risk_measures(Independence(), MARGINAL, 0.99, 5000)

    @pytest.mark.parametrize("n, seed", [
        (2e6, 0), (100_000.0, 0), (100_000, 1.5), (100_000, -1),
        (100_000, 2 ** 128)])
    def test_n_and_seed_validation(self, n, seed):
        with pytest.raises(ParameterError):
            risk_measures(Independence(), MARGINAL, 0.99, n, seed)


# n ends on a partial batch: three full batches of 2^18 plus 12345 rows
STREAM_N = 3 * (1 << 18) + 12345
STREAM_COPULAS = [Independence(), FrechetUpper(), MarshallOlkin(A, B),
                  MixtureMO(A, B), FGM(0.7), MarshallOlkin(A, B).survival()]


def full_sort_report(cop, q, n, seed):
    """RiskReport from the documented definition, over one full sort: the
    ceil(n q)-th order statistic of Q(u) + Q(v) over sample_pairs, and the
    exceedances strictly above it."""
    u, v = sample_pairs(cop, n, seed)
    z = np.sort(MARGINAL.quantile(u) + MARGINAL.quantile(v))
    var_q = float(z[math.ceil(n * q) - 1])
    exceed = z[z > var_q]
    cte_q = float(exceed.mean())
    return RiskReport(
        q=q, var_q=var_q, cte_q=cte_q,
        mtvar_q=cte_q + float(exceed.var(ddof=1)) / cte_q,
        n=n, seed=seed, n_exceed=int(exceed.size),
        stderr_cte=float(exceed.std(ddof=1) / math.sqrt(exceed.size)))


class TestStreamingRisk:
    @pytest.mark.parametrize("cop", STREAM_COPULAS,
                             ids=lambda c: c.family + ("-s" if hasattr(c, "base") else ""))
    def test_equals_full_sort_definition(self, cop):
        for q in (0.5, 0.99, 0.995):
            assert risk_measures(cop, MARGINAL, q, STREAM_N, seed=17) == \
                full_sort_report(cop, q, STREAM_N, 17), q

    def test_tracemalloc_peak_is_bounded(self):
        cop = MarshallOlkin(A, B).survival()
        risk_measures(cop, MARGINAL, 0.99, 20_000, seed=1)  # warm imports
        tracemalloc.start()
        try:
            risk_measures(cop, MARGINAL, 0.99, 2_000_000, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full in-memory draw at this n peaks near 107 MB
        assert peak < 40 * 2 ** 20


@pytest.fixture(scope="module")
def table():
    return reference_table(seed=11, n=200_000)


class TestReferenceTable:
    def test_layout(self, table):
        assert len(table.rows) == 6
        assert [(r.q, r.b) for r in table.rows] == [
            (0.990, 0.75), (0.990, 0.5), (0.990, 0.3529),
            (0.995, 0.75), (0.995, 0.5), (0.995, 0.3529)]

    def test_index_columns_are_closed_forms(self, table):
        for r in table.rows:
            assert r.kappa_l == pytest.approx(2.0 - min(A, r.b), abs=1e-12)
            assert r.kappa_l_star == pytest.approx(
                2.0 - 2.0 * A * r.b / (A + r.b), abs=1e-12)
            assert r.tau == pytest.approx(
                A * r.b / (A + r.b - A * r.b), abs=1e-12)

    def test_risk_columns_near_reference(self, table):
        # smoke run at n = 2e5; the acceptance suite pins 1.5% at n = 2e6
        for r in table.rows:
            var, cte, mtvar = REFERENCE_ROWS[(r.q, r.b)]
            assert r.var_q == pytest.approx(var, rel=0.08)
            assert r.cte_q == pytest.approx(cte, rel=0.08)
            assert r.mtvar_q == pytest.approx(mtvar, rel=0.08)

    def test_cte_decreases_with_b_at_fixed_q(self, table):
        for q in (0.990, 0.995):
            ctes = [r.cte_q for r in table.rows if r.q == q]
            assert all(x > y for x, y in zip(ctes, ctes[1:]))

    def test_rows_equal_risk_measures(self, table):
        for r in table.rows:
            rep = risk_measures(MarshallOlkin(A, r.b).survival(), MARGINAL,
                                r.q, 200_000, seed=11)
            assert (r.var_q, r.cte_q, r.mtvar_q) == (
                rep.var_q, rep.cte_q, rep.mtvar_q), (r.q, r.b)

    def test_unordered_qs_share_one_buffer(self):
        # the buffer is sized for the smallest q, whatever its position
        t = reference_table(seed=3, n=50_000, qs=(0.99, 0.9), bs=(0.5,))
        for r in t.rows:
            rep = risk_measures(MarshallOlkin(A, 0.5).survival(), MARGINAL,
                                r.q, 50_000, seed=3)
            assert (r.var_q, r.cte_q, r.mtvar_q) == (
                rep.var_q, rep.cte_q, rep.mtvar_q)

    @pytest.mark.parametrize("kwargs", [
        dict(qs=()), dict(bs=()), dict(qs=(0.99, 1.0)), dict(qs=(0.0,)),
        dict(n=2e5), dict(n=5000), dict(seed=-1), dict(seed=0.5)])
    def test_validation(self, kwargs):
        args = dict(seed=1, n=50_000) | kwargs
        with pytest.raises(ParameterError):
            reference_table(**args)

    def test_csv_shape(self, table):
        lines = table.to_csv().splitlines()
        assert lines[0] == "q,b,tau,kappa_L,kappa_L_star,VaR,CTE,MTVar"
        assert len(lines) == 7
        assert all(len(line.split(",")) == 8 for line in lines[1:])
