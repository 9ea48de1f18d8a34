"""Tests for samplers, the Pareto-II marginal and Monte Carlo risk measures.

Sampler constructions are gated here against the analytic CDFs: agreement
of the empirical copula on a lattice, exact comonotone degeneracy, and the
expected O(n^-1/2) shrinkage of the deviation.
"""

import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields

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
    NumericError,
    ParameterError,
    ParetoII,
    RiskReport,
    SurvivalCopula,
    UnsupportedMethodError,
    clayton_generator,
    reference_table,
    risk_measures,
    sample_pairs,
)
from taildep import risk

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
        # below mu, also for a tail index whose power of a negative base is nan
        low = ParetoII(0.0, 1.0, 3.5)
        assert low.sf(-5.0) == 1.0
        assert np.array_equal(low.sf(np.array([-5.0, 0.0, 1.0])),
                              [1.0, 1.0, 2.0 ** -3.5])
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
        # the range check stays on the public quantile (risk calls the bare
        # formula on its sampled uniforms)
        for p in (1.0, -0.1, np.array([0.5, 1.0]), math.nan,
                  np.array([0.5, math.nan])):
            with pytest.raises(ParameterError):
                MARGINAL.quantile(p)

    @pytest.mark.parametrize("bad", [True, "0.5", math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mu", "sigma", "alpha"])
    def test_parameters_are_finite_real_numbers(self, field, bad):
        with pytest.raises(ParameterError, match=f"^{field} must lie in "):
            ParetoII(**{field: bad})


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

    @pytest.mark.parametrize("a, b", [(0.3, 0.7), (0.7, 0.3), (0.5, 0.5),
                                      (0.0, 0.4), (1.0, 0.4), (0.3, 1.0),
                                      (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)])
    def test_mixture_is_an_mo_draw_swapped_on_a_coin(self, a, b):
        # bit for bit: the MO(a, b) pair of uniforms w0..w2, swapped where
        # w3 < 0.5, with w the documented Philox draw of 4 per pair
        n, seed = (1 << 18) + 5000, 13
        u, v = sample_pairs(MixtureMO(a, b), n, seed)
        _, mo_fill = MarshallOlkin(a, b).sampler()
        for i, start in enumerate((0, 1 << 18)):
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
            w = rng.random((min(1 << 18, n - start), 4)).T.copy()
            uv = np.empty((2, w.shape[1]))
            mo_fill(w[:3].copy(), uv)
            swap = w[3] < 0.5
            rows = slice(start, start + w.shape[1])
            assert np.array_equal(u[rows], np.where(swap, uv[1], uv[0]))
            assert np.array_equal(v[rows], np.where(swap, uv[0], uv[1]))

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
        from taildep.copulas import _fgm_conditional_inverse

        uv = np.empty((2, 1))
        _fgm_conditional_inverse(np.array([[u], [w]]), uv, alpha)
        assert uv[0, 0] == u
        v = float(uv[1, 0])
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

    @pytest.mark.parametrize("marginal", [ParetoII(0.0, 1e153, 4.0),
                                          ParetoII(0.0, 1.0, 0.02)])
    def test_overflowed_moments_are_a_numeric_error(self, marginal):
        # the sums are finite, but the conditional variance overflows: no
        # inf in the report, and no RuntimeWarning from the reduction
        with pytest.raises(NumericError, match="mtvar_q overflowed to inf"):
            risk_measures(Independence(), marginal, 0.99, 10_000, 0)

    @pytest.mark.parametrize("marginal", [ParetoII(0.0, 1.0, 0.01),
                                          ParetoII(0.0, 1e308, 4.0)])
    def test_overflowed_sums_are_a_numeric_error(self, marginal):
        # not inf or nan in the report, and not "increase n or lower q",
        # which cannot help; nor a RuntimeWarning from a worker thread
        with pytest.raises(NumericError, match="overflowed to inf"):
            risk_measures(Independence(), marginal, 0.99, 10_000, 0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            risk_measures(Independence(), MARGINAL, 1.0, 100_000)
        with pytest.raises(ParameterError):
            risk_measures(Independence(), MARGINAL, 0.99, 5000)

    @pytest.mark.parametrize("bad", [True, "0.5", math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["q", "n", "seed"])
    def test_scalar_arguments_are_finite_real_numbers(self, name, bad):
        args = {"q": 0.99, "n": 10_000, "seed": 0, name: bad}
        with pytest.raises(ParameterError, match=f"^{name} must "):
            risk_measures(Independence(), MARGINAL, **args)

    def test_q_below_one_over_n_is_a_parameter_error(self):
        # ceil(n q) = 0 names no order statistic
        with pytest.raises(ParameterError, match="below 1/n"):
            risk_measures(Independence(), MARGINAL, 1e-14, 10_000, 1)

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


@functools.cache
def full_sort_report(cop, q, n, seed, marginal=MARGINAL):
    """RiskReport from the documented definition, over one full sort: the
    ceil(n q)-th order statistic of Q(u) + Q(v) over sample_pairs, and the
    exceedances strictly above it."""
    u, v = sample_pairs(cop, n, seed)
    z = np.sort(marginal.quantile(u) + marginal.quantile(v))
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

    @pytest.mark.parametrize("run", [
        lambda n, seed: risk_measures(MarshallOlkin(A, B).survival(), MARGINAL,
                                      0.99, n, seed),
        lambda n, seed: risk_measures(MixtureMO(A, B), MARGINAL, 0.99, n, seed),
        lambda n, seed: reference_table(seed=seed, n=n)],
        ids=["marshall_olkin-s", "mixture_mo", "table1"])
    def test_tracemalloc_peak_is_bounded(self, run):
        # the mixture draws 4 uniforms per pair, the largest chunk block; the
        # table keeps one buffer for each of its three b
        run(20_000, 1)  # warm imports
        tracemalloc.start()
        try:
            run(2_000_000, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full in-memory draw at this n peaks near 107 MB; the shared
        # buffers and the chunk blocks of the worker threads take about
        # 2.3-2.6 MB for one copula and 3.1 MB for the table
        assert peak < 8 * 2 ** 20
        assert not risk_threads()


class TestPruning:
    """Pairs whose larger uniform is at most ParetoII._level_below(floor)
    skip the quantile, and, where the family has a corner test
    (``TestCorner``), the transform too; the kept sums, and every report,
    stay a full sort's."""

    @pytest.mark.parametrize("marginal", [
        ParetoII(-3.0, 1.0, 4.0), ParetoII(-50.0, 2.0, 3.0),
        ParetoII(0.0, 1e3, 4.0), ParetoII(0.0, 1.0, 0.5),
        ParetoII(0.0, 1.0, 20.0), ParetoII(2.0, 0.5, 1.0)], ids=repr)
    @pytest.mark.parametrize("q", [0.5, 0.99])
    def test_any_marginal_equals_full_sort(self, marginal, q):
        for cop in (MarshallOlkin(A, B).survival(), FGM(-0.7), FrechetUpper()):
            assert risk_measures(cop, marginal, q, 300_001, seed=5) == \
                full_sort_report(cop, q, 300_001, 5, marginal), cop

    def test_many_ties_at_the_floor(self):
        # Q(u) rounds to a few dozen values: sums tie at every floor
        marginal = ParetoII(1e6, 1e-9, 4.0)
        u, v = sample_pairs(Independence(), 300_001, 5)
        z = marginal.quantile(u) + marginal.quantile(v)
        assert np.unique(z).size < 100
        for q in (0.5, 0.99):
            assert risk_measures(Independence(), marginal, q, 300_001, 5) == \
                full_sort_report(Independence(), q, 300_001, 5, marginal)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_floor_that_rises_often(self, monkeypatch, workers):
        # a buffer cuts back once it holds m + m // 2 sums, and raises the
        # floor, many times per call: at q = 0.995, m is about 4,000 of
        # STREAM_N ~ 800,000 pairs
        monkeypatch.setattr(risk, "_WORKERS", workers)
        for cop in STREAM_COPULAS:
            for q in (0.5, 0.995):
                assert risk_measures(cop, MARGINAL, q, STREAM_N, seed=17) == \
                    full_sort_report(cop, q, STREAM_N, 17), (cop, q)

    def test_level_is_near_the_cdf_at_half_the_floor(self):
        t = MARGINAL._level_below(5.0)
        assert t == pytest.approx(1.0 - 3.5 ** -4.0, rel=1e-8)
        # Z >= 2 mu: a floor at 2 mu, or none that is finite, prunes nothing
        for f in (0.0, -1.0, math.inf, math.nan, 2e-12):
            assert MARGINAL._level_below(f) is None, f
        assert ParetoII(-3.0, 1.0, 4.0)._level_below(-6.0) is None

    @settings(max_examples=300, deadline=None)
    @given(mu=st.floats(-100.0, 100.0), log_sigma=st.floats(-2.0, 3.0),
           alpha=st.floats(0.05, 50.0), p0=st.floats(0.0, 1.0 - 1e-13),
           us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_no_sum_below_the_level_reaches_the_floor(self, mu, log_sigma,
                                                      alpha, p0, us):
        marginal = ParetoII(mu, 10.0 ** log_sigma, alpha)
        f = float(2.0 * marginal.quantile(p0))
        t = marginal._level_below(f)
        if t is None:
            return
        p = np.array([t, np.nextafter(t, 0.0), 0.0] + [t * x for x in us])
        assert np.all(2.0 * marginal._quantile(p) < f)
        # with a relative margin of at least 1e-9 in the power of Q
        q_t = float(marginal._quantile(np.array([t]))[0])
        assert 2.0 * q_t < f - 1.9e-9 * (q_t - mu + marginal.sigma)


def corner_copulas(a, b):
    """Every family with a corner test, at shock parameters a and b, and the
    survival copulas of MO and of a survival MO."""
    mo, mix = MarshallOlkin(a, b), MixtureMO(a, b)
    return [mo, mix, mo.survival(), mix.survival(), SurvivalCopula(mo.survival())]


def corner_cuts(a, b, t):
    """The powers c^e behind the MO corner thresholds at level t, as they
    stand and moved by the documented relative margin 1e-9 either way, for
    the pair itself and, a level 2^-53 lower, for a survival's upper corner."""
    out = []
    for level in (t, max(t - 2.0 ** -53, 0.0)):
        for c in (level, 1.0 - level):
            for e in (1.0 - a, 1.0 - b, a, b):
                out += [c ** e * k for k in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
    return out


# shock parameters at and next to the ends, where a power is 1, inf or huge
SHOCKS = [0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12]


class TestCorner:
    """``Copula._corner`` flags only draws that ``fill`` puts in the corner,
    so the draws it spares the transform would all have been pruned."""

    @settings(max_examples=120, deadline=None)
    @given(a=st.one_of(st.sampled_from(SHOCKS), st.floats(0.0, 1.0)),
           b=st.one_of(st.sampled_from(SHOCKS), st.floats(0.0, 1.0)),
           mu=st.floats(-10.0, 10.0), alpha=st.floats(0.1, 20.0),
           p0=st.floats(0.0, 1.0 - 1e-12),
           # below 1e-7 a reflection 1 - (1 - x) errs by more than 1e-9 x
           level=st.one_of(st.sampled_from([None, 1e-300, 1.0 - 1e-12]),
                           st.floats(-17.0, -7.0).map(lambda e: 10.0 ** e)),
           upper=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_flagged_pairs_lie_in_the_corner(self, a, b, mu, alpha, p0, level,
                                             upper, seed):
        if level is None:  # the level of a random floor, as risk sets it
            marginal = ParetoII(mu, 1.0, alpha)
            level = marginal._level_below(float(2.0 * marginal.quantile(p0)))
            if level is None:
                return
        # uniforms at, and one double either side of, every threshold, exact
        # 0 and random values, picked at random for each of the four rows
        rng = np.random.default_rng(seed)
        near = np.array(corner_cuts(a, b, level) + [0.0, 0.5] + list(rng.random(4)))
        near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, 1.0)])
        near = np.unique(near[(near >= 0.0) & (near < 1.0)])
        w = rng.choice(near, (4, 20_000))
        for cop in corner_copulas(a, b):
            ncols, fill = cop.sampler()
            flagged = cop._corner(w[:ncols].copy(), level, upper)
            uv = np.empty((2, w.shape[1]))
            fill(w[:ncols].copy(), uv)
            pair = 1.0 - uv if upper else uv
            inside = (pair <= level).all(axis=0)
            assert not (flagged & ~inside).any(), (cop, level, upper)

    def test_families_without_a_test(self):
        for cop in (Independence(), FrechetUpper(), FGM(0.5), FGM(0.5).survival()):
            assert cop._corner is None, cop

    @pytest.mark.parametrize("workers", [1, 3])
    def test_reports_equal_those_without_the_test(self, monkeypatch, workers):
        monkeypatch.setattr(risk, "_WORKERS", workers)
        cops = corner_copulas(A, B) + corner_copulas(0.0, 1.0)[:4]
        qs = (0.5, 0.8, 0.99, 0.995)
        got = [risk_measures(c, MARGINAL, q, 300_001, 7) for c in cops for q in qs]
        table = reference_table(seed=7, n=300_001)
        for cls in (MarshallOlkin, MixtureMO, SurvivalCopula):
            monkeypatch.setattr(cls, "_corner", None)
        assert got == [risk_measures(c, MARGINAL, q, 300_001, 7)
                       for c in cops for q in qs]
        assert table == reference_table(seed=7, n=300_001)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_tiny_chunks_keep_the_sums_of_those_without_the_test(
            self, monkeypatch, workers):
        # the settings of test_top_sums_keeps_the_largest_multiset_with_ties:
        # the floor, and with it the level, rises many times per call
        monkeypatch.setattr(risk, "_BATCH", 16)
        monkeypatch.setattr(risk, "_CHUNK", 8)
        monkeypatch.setattr(risk, "_WORKERS", workers)
        cops = corner_copulas(A, B) + corner_copulas(0.0, 1.0)[:4]
        runs = [(cop, marginal, m) for cop in cops for m in (1, 40, 300)
                for marginal in (MARGINAL, ParetoII(1e6, 1e-9, 4.0))]
        got = [risk._top_sums([cop], marginal, 2_000, m, 2_000 - m + 1)[0]
               for cop, marginal, m in runs]
        for cls in (MarshallOlkin, MixtureMO, SurvivalCopula):
            monkeypatch.setattr(cls, "_corner", None)
        for top, (cop, marginal, m) in zip(got, runs):
            assert np.array_equal(
                top, risk._top_sums([cop], marginal, 2_000, m, 2_000 - m + 1)[0]), cop

    def test_most_pairs_skip_the_transform(self, monkeypatch):
        # the floor after s pairs is the m-th largest of those s, so the
        # level rises slowly: about 12% of the pairs reach the transform
        real, filled = SurvivalCopula.sampler, []

        def counting_sampler(cop):
            ncols, fill = real(cop)

            def count(w, uv):
                filled.append(w.shape[1])
                fill(w, uv)
            return ncols, count

        monkeypatch.setattr(SurvivalCopula, "sampler", counting_sampler)
        risk_measures(MarshallOlkin(A, 0.5).survival(), MARGINAL, 0.99, 2_000_000, 3)
        assert sum(filled) <= 0.3 * 2_000_000


def risk_threads():
    return [t for t in threading.enumerate() if t.name.startswith("taildep-risk")]


class TestChunkedThreads:
    @pytest.mark.parametrize("ncols", [1, 2, 3, 4])
    def test_chunks_are_rows_of_the_whole_batch_draw(self, ncols):
        n = (1 << 18) + 40_000  # the second batch ends in a partial chunk
        chunks, gen = risk._chunks(n), risk._generator(21)
        assert sum(rows for _, _, rows in chunks) == n
        for i, start in enumerate((0, 1 << 18)):
            rng = np.random.Generator(np.random.Philox(key=21).jumped(i))
            whole = rng.random((min(1 << 18, n - start), ncols))
            block = np.full((ncols + 2, risk._CHUNK), np.nan)
            got = [risk._draw(gen, ncols, c, block).T.copy()
                   for c in chunks if c[0] == i]
            assert np.array_equal(np.concatenate(got), whole)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("m", [1, 7, 40, 300])
    def test_top_sums_keeps_the_largest_multiset_with_ties(self, monkeypatch,
                                                           m, workers):
        # tiny chunks cut back, and raise the floor, many times per call;
        # sums of fewer than 100 distinct values tie at the floor
        monkeypatch.setattr(risk, "_BATCH", 16)
        monkeypatch.setattr(risk, "_CHUNK", 8)
        monkeypatch.setattr(risk, "_WORKERS", workers)
        marginal, n = ParetoII(1e6, 1e-9, 4.0), 2_000
        for cop in (Independence(), FGM(-0.7), MarshallOlkin(0.3, 0.7).survival()):
            u, v = sample_pairs(cop, n, m)
            z = np.sort(marginal.quantile(u) + marginal.quantile(v))
            assert np.unique(z).size < 100
            [top] = risk._top_sums([cop], marginal, n, m, n - m + 1)
            assert np.array_equal(top, z[-m:]), cop

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_any_worker_count_equals_full_sort(self, monkeypatch, workers):
        monkeypatch.setattr(risk, "_WORKERS", workers)
        for cop in STREAM_COPULAS:
            for q in (0.5, 0.99, 0.995):
                assert risk_measures(cop, MARGINAL, q, STREAM_N, seed=17) == \
                    full_sort_report(cop, q, STREAM_N, 17), (cop, q)
        assert not risk_threads()

    def test_hand_out_under_frequent_thread_switches(self, monkeypatch):
        # a chunk handed out twice or never would change the report
        monkeypatch.setattr(risk, "_WORKERS", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = risk_measures(FGM(0.7), MARGINAL, 0.99, STREAM_N, seed=17)
        finally:
            sys.setswitchinterval(interval)
        assert got == full_sort_report(FGM(0.7), 0.99, STREAM_N, 17)
        assert not risk_threads()

    def test_reference_table_is_the_same_for_any_worker_count(self, monkeypatch):
        tables = []
        for workers in (1, 2, 3, 7):
            monkeypatch.setattr(risk, "_WORKERS", workers)
            tables.append(reference_table(seed=5, n=300_001))
        assert all(t == tables[0] for t in tables[1:])

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_a_failing_chunk_raises_in_the_caller(self, monkeypatch, where):
        # the first chunk taken by the named thread raises; no partial
        # result comes back and every worker thread has been joined
        real = FGM.sampler
        caller = threading.current_thread()
        failed = threading.Event()

        def failing_sampler(cop):
            ncols, fill = real(cop)

            def flaky(w, uv):
                if (threading.current_thread() is caller) == (where == "caller"):
                    failed.set()
                    raise ZeroDivisionError("chunk failed")
                failed.wait(10)  # the other side takes a chunk first
                fill(w, uv)
            return ncols, flaky

        monkeypatch.setattr(FGM, "sampler", failing_sampler)
        monkeypatch.setattr(risk, "_WORKERS", 3)
        with pytest.raises(ZeroDivisionError, match="chunk failed"):
            risk_measures(FGM(0.7), MARGINAL, 0.99, STREAM_N, seed=1)
        assert not risk_threads()

    def test_import_does_not_load_concurrent_futures(self):
        src = os.path.dirname(os.path.dirname(risk.__file__))
        code = ("import sys, taildep, taildep.cli; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=os.environ | {"PYTHONPATH": src}).stdout
        assert out.strip() == "False"


class TestSharedDraw:
    """One ``_top_sums`` call over copulas of one ncols draws each chunk
    once, and every copula gets the top sums of its own call."""

    # copulas with a corner test, whose fill gets a copy or a compressed
    # draw, and ncols-2 copulas without one, whose fill may overwrite it
    GROUPS = [
        [MarshallOlkin(0.3, 0.7), MarshallOlkin(0.3, 0.7).survival(),
         *(MarshallOlkin(A, b).survival() for b in (0.75, 0.5, 0.3529)),
         MarshallOlkin(0.0, 1.0)],
        [FGM(0.7), FGM(-0.7), Independence()]]

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_each_copula_gets_its_own_calls_sums(self, monkeypatch, workers):
        # the settings of test_top_sums_keeps_the_largest_multiset_with_ties:
        # the floors, and with them the levels, rise many times per call
        monkeypatch.setattr(risk, "_BATCH", 16)
        monkeypatch.setattr(risk, "_CHUNK", 8)
        monkeypatch.setattr(risk, "_WORKERS", workers)
        n = 2_000
        for cops in self.GROUPS:
            for q in (0.5, 0.99):
                k = risk._order_index(n, q)
                got = risk._top_sums(cops, MARGINAL, n, 9, k)
                assert len(got) == len(cops)
                for cop, top in zip(cops, got):
                    [own] = risk._top_sums([cop], MARGINAL, n, 9, k)
                    assert np.array_equal(top, own), (cop, q)
        assert not risk_threads()

    def test_copulas_of_different_ncols_raise(self):
        with pytest.raises(ParameterError, match="ncols"):
            risk._top_sums([FGM(0.5), MarshallOlkin(A, B)], MARGINAL,
                           20_000, 1, 19_801)
        assert not risk_threads()

    def test_reference_table_draws_each_chunk_once(self, monkeypatch):
        real, drawn = risk._draw, []

        def counting_draw(gen, ncols, chunk, block):
            drawn.append(chunk)
            return real(gen, ncols, chunk, block)

        monkeypatch.setattr(risk, "_draw", counting_draw)
        reference_table(seed=3, n=300_001)
        assert sorted(drawn) == risk._chunks(300_001)  # each chunk, once


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

    def test_unordered_qs_share_one_buffer(self, monkeypatch):
        # the buffer is sized for the smallest q, whatever its position
        monkeypatch.setattr(risk, "_TABLE_QS", (0.99, 0.9))
        t = reference_table(seed=3, n=50_000)
        assert sorted({r.q for r in t.rows}) == [0.9, 0.99]
        for r in t.rows:
            rep = risk_measures(MarshallOlkin(A, r.b).survival(), MARGINAL,
                                r.q, 50_000, seed=3)
            assert (r.var_q, r.cte_q, r.mtvar_q) == (
                rep.var_q, rep.cte_q, rep.mtvar_q)

    @pytest.mark.parametrize("kwargs", [
        dict(n=9_999), dict(n=True), dict(seed=2 ** 128), dict(seed="1"),
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

    def test_json_keys_are_the_fields_in_order(self, table):
        data = table.to_json_dict()
        assert list(data) == ["a", "marginal", "n", "seed", "rows"]
        assert data["marginal"] == {"mu": 0.0, "sigma": 1.0, "alpha": 4.0}
        assert (data["a"], data["n"], data["seed"]) == (A, 200_000, 11)
        for printed, row in zip(data["rows"], table.rows, strict=True):
            assert list(printed) == list(table.columns)
            assert list(printed.values()) == [
                getattr(row, f.name) for f in fields(row)]
