"""Tests for the per-level maximizer search and its closed-form oracles."""

import csv
import io
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taildep import paths
from taildep import (
    FGM,
    Archimedean,
    BracketError,
    DegenerateTailError,
    EvaluationOverflowError,
    FrechetUpper,
    GeneralizedClayton,
    Generator,
    GeneratorError,
    Independence,
    MarshallOlkin,
    MixtureMO,
    NumericError,
    ParameterError,
    archimedean_diagonal_check,
    clayton_generator,
    closed_form_path,
    pi_phi,
    pointwise_max,
    solve_path,
    zeta,
    zeta_root,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracles import gc_maximizer  # noqa: E402

A, B = 0.3529, 0.75
GRID_4 = [1e-1, 1e-2, 1e-3, 1e-4]


class TestPiPhi:
    def test_independence_is_path_free(self):
        for u in (0.3, 0.05):
            for x in (u * u, u, math.sqrt(u), 1.0):
                assert pi_phi(Independence(), u, x) == pytest.approx(u * u, rel=1e-14)

    def test_marshall_olkin_at_closed_form_maximizer(self):
        u = 0.1
        x_star = u ** (2 * B / (A + B))
        kappa_star = 2 - 2 * A * B / (A + B)
        assert pi_phi(MarshallOlkin(A, B), u, x_star) == pytest.approx(
            u ** kappa_star, rel=1e-13)

    def test_marshall_olkin_on_diagonal(self):
        # diagonal value decays with exponent 2 - min(a, b)
        u = 0.1
        assert pi_phi(MarshallOlkin(A, B), u, u) == pytest.approx(
            u ** (2 - min(A, B)), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            pi_phi(Independence(), 0.1, 0.005)  # below u^2
        with pytest.raises(ParameterError):
            pi_phi(Independence(), 0.1, 1.01)
        with pytest.raises(ParameterError):
            pi_phi(Independence(), 1.0, 0.5)  # u must be interior

    @pytest.mark.parametrize("x", [0.0, -0.5, math.nan, math.inf])
    def test_non_admissible_x_is_rejected(self, x):
        with pytest.raises(ParameterError):
            pi_phi(Independence(), 0.1, x)

    def test_rounded_lower_end_is_admissible(self):
        # u * u rounds below u^2 here, yet it names the lower end of [u^2, 1]
        u = 0.032
        assert math.log(u * u) < 2.0 * math.log(u)
        assert pi_phi(Independence(), u, u * u) == pytest.approx(u * u, rel=1e-14)

    @pytest.mark.parametrize("u,x", [(1e-160, 1e-100), (1e-155, 1e-155)])
    def test_subnormal_u_squared_against_mpmath(self, u, x):
        # u^2 is subnormal (or 0) in double precision; the value is not
        with mpmath.workdps(50):
            um, xm = mpmath.mpf(u), mpmath.mpf(x)
            ym = um * um / xm
            ref = float(min(xm ** (1 - mpmath.mpf(A)) * ym,
                            xm * ym ** (1 - mpmath.mpf(B))))
        got = pi_phi(MarshallOlkin(A, B), u, x)
        assert abs(got - ref) <= 1e-13 * ref


class TestVanishedLevel:
    @pytest.mark.parametrize("cop", [
        MarshallOlkin(A, B).survival(),
        MixtureMO(A, B).survival(),
        FGM(0.5).survival(),
        Independence().survival(),
    ], ids=repr)
    def test_level_with_no_mass_is_an_error(self, cop):
        # u + v - 1 + C(1-u, 1-v) cancels to 0 at every x once u^2 < ~1e-32
        with pytest.raises(DegenerateTailError, match="u=1e-18"):
            pointwise_max(cop, 1e-18)
        with pytest.raises(DegenerateTailError, match="u=1e-18"):
            solve_path(cop, [1e-2, 1e-18])


class TestPointwiseMax:
    def test_marshall_olkin_unique_maximizer(self):
        point = pointwise_max(MarshallOlkin(A, B), 0.1)
        assert len(point.maximizers) == 1
        assert point.maximizers[0] == pytest.approx(0.1 ** (2 * B / (A + B)),
                                                    abs=1e-10)
        assert not point.boundary_attained
        assert not point.all_paths_maximal

    def test_mixture_reports_both_maximizers(self):
        point = pointwise_max(MixtureMO(A, B), 0.1)
        s = A + B
        expected = sorted((0.1 ** (2 * B / s), 0.1 ** (2 * A / s)))
        assert len(point.maximizers) == 2
        assert point.maximizers[0] == pytest.approx(expected[0], abs=1e-10)
        assert point.maximizers[1] == pytest.approx(expected[1], abs=1e-10)
        # exact mixture maximum: average of the two component powers
        exact = 0.5 * (0.1 ** (2 - 2 * A * B / s) + 0.1 ** (2 - 2 * A * A / s))
        assert point.pi_star == pytest.approx(exact, rel=1e-12)

    def test_negative_fgm_maximum_sits_on_boundary(self):
        point = pointwise_max(FGM(-0.5), 0.1)
        assert point.boundary_attained
        assert not point.all_paths_maximal
        # both corners x = u^2 and x = 1 attain the (inadmissible) maximum u^2
        assert point.maximizers[0] == pytest.approx(0.01, rel=1e-12)
        assert point.maximizers[-1] == pytest.approx(1.0, rel=1e-12)
        assert point.pi_star == pytest.approx(0.01, rel=1e-12)

    def test_positive_fgm_maximizes_on_diagonal(self):
        point = pointwise_max(FGM(0.5), 0.1)
        assert len(point.maximizers) == 1
        assert point.maximizers[0] == pytest.approx(0.1, abs=1e-7)
        assert point.pi_star == pytest.approx(0.01 * (1 + 0.5 * 0.81), rel=1e-10)

    def test_independence_plateau(self):
        point = pointwise_max(Independence(), 0.1)
        assert point.all_paths_maximal
        assert not point.boundary_attained
        assert point.pi_star == pytest.approx(0.01, rel=1e-12)

    def test_zero_fgm_plateau(self):
        assert pointwise_max(FGM(0.0), 0.05).all_paths_maximal

    def test_frechet_upper_diagonal(self):
        point = pointwise_max(FrechetUpper(), 0.1)
        assert point.maximizers[0] == pytest.approx(0.1, rel=1e-10)
        assert point.pi_star == pytest.approx(0.1, rel=1e-10)

    @pytest.mark.parametrize("cop", [
        MarshallOlkin(0.2, 0.6),
        MixtureMO(0.2, 0.6),
        FGM(0.9),
        GeneralizedClayton(0.5, 0.3),
        Archimedean(clayton_generator(1.5)),
    ])
    @pytest.mark.parametrize("u", [0.1, 1e-3])
    def test_point_invariants(self, cop, u):
        point = pointwise_max(cop, u)
        for x in point.maximizers:
            assert u * u <= x <= 1.0
            assert point.pi_star == pytest.approx(
                float(cop.cdf(x, u * u / x)), rel=1e-10)
        assert point.pi_star >= float(cop.cdf(u, u)) - 1e-12
        assert point.log_pi_star == pytest.approx(math.log(point.pi_star),
                                                  rel=1e-12)

    @pytest.mark.parametrize("cop", [
        MarshallOlkin(A, B),
        MixtureMO(0.3, 0.7),
        FGM(0.9),
        GeneralizedClayton(0.5, 0.3),
        Archimedean(clayton_generator(1.0)),
    ])
    @pytest.mark.parametrize("u", [0.1, 1e-3])
    def test_dominance_over_random_admissible_values(self, cop, u):
        point = pointwise_max(cop, u)
        rng = np.random.default_rng(17)
        xs = np.exp(rng.uniform(2 * math.log(u), 0.0, 100))
        probes = pi_phi(cop, u, xs)
        assert np.all(point.pi_star >= probes - 1e-9 * point.pi_star)

    @pytest.mark.parametrize("cop", [
        MixtureMO(A, B),
        FGM(0.7),
        Archimedean(clayton_generator(2.0)),
        GeneralizedClayton(0.7, 0.0),
    ])
    def test_symmetric_copulas_have_symmetric_maximizer_sets(self, cop):
        u = 0.05
        point = pointwise_max(cop, u)
        for x in point.maximizers:
            mirror = u * u / x
            assert any(abs(m - mirror) <= 1e-6 * max(mirror, 1e-12) + 1e-9
                       for m in point.maximizers)

    def test_level_validation(self):
        with pytest.raises(ParameterError):
            pointwise_max(Independence(), 0.0)
        with pytest.raises(ParameterError):
            pointwise_max(Independence(), 1.0)


class TestMarshallOlkinPiecewiseStructure:
    def test_two_power_branches_meet_at_the_kink(self):
        # below x0 the level function is u^(2-2b) x^b, above it u^2 x^(-a)
        cop = MarshallOlkin(A, B)
        u = 0.1
        x0 = u ** (2 * B / (A + B))
        for eps in (1e-3, 1e-6):
            x_lo = x0 * (1 - eps)
            x_hi = x0 * (1 + eps)
            assert pi_phi(cop, u, x_lo) == pytest.approx(
                u ** (2 * (1 - B)) * x_lo ** B, rel=1e-12)
            assert pi_phi(cop, u, x_hi) == pytest.approx(
                u * u * x_hi ** (-A), rel=1e-12)


class TestSolvePath:
    def test_frechet_upper_along_grid(self):
        grid = [10.0 ** -k for k in range(1, 7)]
        sol = solve_path(FrechetUpper(), grid)
        for p in sol.points:
            assert p.maximizers[0] == pytest.approx(p.u, rel=1e-9)
            assert p.pi_star == pytest.approx(p.u, rel=1e-9)

    def test_independence_all_levels_flat(self):
        sol = solve_path(Independence(), GRID_4)
        assert all(p.all_paths_maximal for p in sol.points)
        for p in sol.points:
            assert p.pi_star == pytest.approx(p.u ** 2, rel=1e-12)

    def test_generalized_clayton_matches_root_solver(self):
        # two independent solvers: scan+golden section vs bisection on zeta
        cop = GeneralizedClayton(0.04, 0.02)
        sol = solve_path(cop, GRID_4)
        for p in sol.points:
            root = zeta_root(0.04, 0.02, p.u, xtol=1e-13)
            assert len(p.maximizers) == 1
            assert abs(p.maximizers[0] - root) < 1e-8

    def test_batched_levels_equal_single_level_solves(self):
        # every bracket of every level shares one refinement batch; each
        # level must come out exactly as when it is solved on its own
        families = [Independence(), FrechetUpper(), MarshallOlkin(A, B),
                    MixtureMO(A, B), FGM(0.5), GeneralizedClayton(0.5, 0.3),
                    Archimedean(clayton_generator(1.5))]
        cops = families + [MarshallOlkin(A, B).survival(),
                           MixtureMO(A, B).survival(),
                           FrechetUpper().survival()]
        grids = [np.logspace(-1, -8, 8), np.logspace(-1, -8, 15)]
        for cop in cops:
            for grid in grids:
                sol = solve_path(cop, grid)
                for u, point in zip(grid, sol.points):
                    assert point == pointwise_max(cop, u), (cop, u)

    def test_batched_refinement_equals_scalar_zoom_steps(self):
        # reference: one bracket at a time, in Python floats
        def zoom_max(cop, u, lo, hi, tol):
            a, w = lo, hi - lo
            while True:
                ts = [a + w * (k / 33) for k in range(34)]
                fs = paths._log_pi(cop, math.log(u), np.asarray(ts)).tolist()
                j = fs.index(max(fs))
                a = ts[max(j - 1, 0)]
                w = ts[min(j + 1, 33)] - a
                if w <= tol:
                    return ts[j], fs[j]

        # brackets of unequal widths finish after different step counts
        rng = np.random.default_rng(5)
        u = np.repeat([1e-1, 1e-3, 1e-6], 4)
        lo = 2.0 * np.log(u) * rng.uniform(0.5, 1.0, u.size)
        hi = lo * rng.uniform(0.0, 0.9, u.size)
        for cop in (MarshallOlkin(A, B), MixtureMO(A, B), FGM(0.5)):
            log_u = np.array([math.log(x) for x in u])
            t, f = paths._refine(cop, log_u, lo, hi)
            for k in range(u.size):
                ref = zoom_max(cop, u[k], lo[k], hi[k], paths._XTOL)
                assert (t[k], f[k]) == ref, (cop, k)

    def test_refinement_slices_equal_single_brackets(self):
        # more brackets than one slice of _SCAN_N // 34 = 120
        rng = np.random.default_rng(9)
        log_u = np.log(np.repeat([1e-2, 1e-5], 150))
        lo = 2.0 * log_u * rng.uniform(0.05, 1.0, log_u.size)
        hi = lo * rng.uniform(0.0, 0.999, log_u.size)
        for cop in (MixtureMO(A, B), GeneralizedClayton(0.5, 0.3)):
            t, f = paths._refine(cop, log_u, lo, hi)
            for k in range(log_u.size):
                one = paths._refine(cop, log_u[k:k + 1], lo[k:k + 1],
                                    hi[k:k + 1])
                assert (t[k], f[k]) == (one[0][0], one[1][0]), (cop, k)

    def test_no_brackets_no_kernel_call(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("refinement called the kernel")
        monkeypatch.setattr(paths, "_log_pi", no_kernel)
        t, f = paths._refine(MarshallOlkin(A, B), np.empty(0), np.empty(0),
                             np.empty(0))
        assert t.size == f.size == 0

    @pytest.mark.parametrize("u", [1e-200, 1e-300])
    def test_deep_levels_match_closed_forms_in_log_space(self, u):
        # u^2 and the maximizers are below the double range; their logs are
        # not.  MO: log pi* = kappa* log u at log x* = 2b/(a+b) log u.  The
        # mixture: half the sum of its two MO components, the smaller one
        # u^delta times the larger, delta = 2 min(a, b) |a - b| / (a + b),
        # with maximizers at 2b/(a+b) log u and 2a/(a+b) log u.
        lu, s = math.log(u), A + B
        kappa = 2.0 - 2.0 * A * B / s
        delta = 2.0 * min(A, B) * abs(A - B) / s
        mo = solve_path(MarshallOlkin(A, B), [1e-1, u]).points[1]
        mix = solve_path(MixtureMO(A, B), [1e-1, u]).points[1]
        cases = [(mo, kappa * lu, [2.0 * B / s * lu]),
                 (mix, kappa * lu + math.log(0.5) + math.log1p(math.exp(delta * lu)),
                  [2.0 * B / s * lu, 2.0 * A / s * lu])]
        for point, log_pi, log_x in cases:
            assert point.log_pi_star == pytest.approx(log_pi, rel=1e-12)
            assert len(point.log_maximizers) == len(log_x)
            for t, ref in zip(point.log_maximizers, log_x):
                assert t == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("grid", [[], [0.5, 0.5], [0.1, 0.2], [0.0, 0.1]])
    def test_grid_validation(self, grid):
        with pytest.raises(ParameterError):
            solve_path(Independence(), grid)


class TestZeta:
    def test_left_endpoint_identity(self):
        # zeta(u^2) = u^(-2/g0) (u^(-2/gt) - 1) > 0
        g0, g1, u = 0.5, 0.3, 0.3
        gt = g0 + g1
        expected = u ** (-2 / g0) * (u ** (-2 / gt) - 1.0)
        assert zeta(g0, g1, u, u * u) == pytest.approx(expected, rel=1e-12)
        assert zeta(g0, g1, u, u * u) > 0.0

    def test_right_endpoint_negative(self):
        g0, g1, u = 0.5, 0.3, 0.3
        gt = g0 + g1
        expected = (1 - g1 / gt) * (1.0 - u ** (-2 / g0))
        assert zeta(g0, g1, u, 1.0) == pytest.approx(expected, rel=1e-12)
        assert zeta(g0, g1, u, 1.0) < 0.0

    def test_symmetric_case_vanishes_on_diagonal(self):
        # gamma1 = 0 collapses zeta to x^(-2/g0) - u^(-2/g0)
        assert zeta(0.7, 0.0, 0.3, 0.3) == pytest.approx(0.0, abs=1e-9)

    def test_overflow_is_reported(self):
        with pytest.raises(EvaluationOverflowError):
            zeta(0.01, 0.0, 1e-4, 0.5)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            zeta(0.0, 0.1, 0.3, 0.5)
        with pytest.raises(ParameterError):
            zeta(0.5, -0.1, 0.3, 0.5)
        with pytest.raises(ParameterError):
            zeta(0.5, 0.1, 0.3, 0.05)  # x below u^2


class TestZetaRoot:
    @pytest.mark.parametrize("g0", [0.04, 0.5, 1.0])
    def test_symmetric_root_is_diagonal(self, g0):
        assert zeta_root(g0, 0.0, 0.3, xtol=1e-12) == pytest.approx(0.3, abs=1e-10)

    @pytest.mark.parametrize("g0,g1", [(0.04, 0.02), (0.5, 0.3), (1.0, 0.0)])
    @pytest.mark.parametrize("u", [0.1, 0.01])
    def test_against_dense_scan(self, g0, g1, u):
        cop = GeneralizedClayton(g0, g1)
        xs = np.linspace(u * u, 1.0, 200_001)
        brute = xs[np.argmax(cop.log_cdf(xs, u * u / xs))]
        root = zeta_root(g0, g1, u, xtol=1e-12)
        assert abs(root - brute) <= 1.2 * (xs[1] - xs[0])

    @pytest.mark.parametrize("g0,g1", [(0.0, 0.1), (0.5, -0.1), (math.inf, 0.1),
                                       (0.5, math.nan)])
    def test_parameters_follow_the_generalized_clayton_rule(self, g0, g1):
        with pytest.raises(ParameterError):
            zeta_root(g0, g1, 0.3)
        with pytest.raises(ParameterError):
            GeneralizedClayton(g0, g1)

    def test_root_survives_zeta_overflow_range(self):
        # the value of zeta overflows here, the sign function does not
        assert zeta_root(0.01, 0.0, 1e-4, xtol=1e-12) == pytest.approx(1e-4,
                                                                       rel=1e-6)

    def test_xtol_below_double_spacing_returns_the_double_root(self):
        # doubles near the root are ~1.4e-17 apart, so a bisection width of
        # 1e-18 is unreachable; the root comes back to double precision
        g0, g1, u = 0.5, 0.3, 0.1
        root = zeta_root(g0, g1, u, xtol=1e-18)
        with mpmath.workdps(40):
            g0m, g1m, um = (mpmath.mpf(x) for x in (g0, g1, u))
            gt = g0m + g1m
            ref = mpmath.findroot(
                lambda x: (-(1 / g0m + 1 / gt) * mpmath.log(x)
                           + mpmath.log(1 - g1m / gt * x ** (1 / gt))
                           - mpmath.log(g0m / gt) + 2 / g0m * mpmath.log(um)),
                (um * um, 1), solver="anderson")
        assert abs(root - float(ref)) <= 1e-15 * float(ref)

    @pytest.mark.parametrize("u", [1e-2, 1e-6, 1e-8, 1e-100])
    def test_default_xtol_is_relative_against_mpmath(self, u):
        # xtol is a width in log x, so the default holds as the root shrinks
        # (as a width in x it returned 4.66e-10 for a root of 1.65e-10)
        want = gc_maximizer(0.5, 0.3, u)
        assert abs(zeta_root(0.5, 0.3, u) - want) <= 1e-9 * want

    def test_root_below_the_double_range_is_an_error(self):
        assert zeta_root(0.5, 0.3, 1e-200) == pytest.approx(
            gc_maximizer(0.5, 0.3, 1e-200), rel=1e-9)
        with pytest.raises(NumericError, match="u=1e-300"):
            zeta_root(0.5, 0.3, 1e-300)

    @settings(max_examples=40, deadline=None)
    @given(g0=st.floats(0.05, 3.0), g1=st.floats(0.0, 3.0),
           u=st.floats(0.01, 0.9))
    def test_root_always_inside_bracket(self, g0, g1, u):
        root = zeta_root(g0, g1, u, xtol=1e-10)
        assert u * u - 1e-9 <= root <= 1.0


class TestArchimedeanDiagonalCheck:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_clayton_is_diagonal(self, theta):
        assert archimedean_diagonal_check(clayton_generator(theta), 1e-6).increasing

    def test_clayton_slope_function_is_analytic_minus_power(self):
        # x psi'(x) = -x^(-theta), increasing on (0, 1]
        gen = clayton_generator(1.0)
        x = np.linspace(0.01, 1.0, 50)
        assert np.allclose(x * gen.psi_prime(x), -1.0 / x, rtol=1e-12)

    def test_non_strict_generator_rejected(self):
        ones = lambda t: np.ones_like(np.asarray(t, dtype=float))
        linear = Generator("linear", psi=lambda t: 1.0 - np.asarray(t, dtype=float),
                           psi_prime=lambda t: -ones(t), psi_second=ones,
                           psi_inv=lambda s: 1.0 - np.asarray(s, dtype=float))
        with pytest.raises(GeneratorError, match="strict"):
            archimedean_diagonal_check(linear, 0.1)

    def test_grid_validation(self):
        # the checked grid spans [u^2, 1]; a level outside (0, 1) has none
        for u in (0.0, 1.0, math.nan):
            with pytest.raises(ParameterError):
                archimedean_diagonal_check(clayton_generator(1.0), u)


class TestClosedFormPath:
    def test_symmetric_mo_is_diagonal(self):
        assert closed_form_path(MarshallOlkin(0.4, 0.4), 0.2) == (0.2,)

    def test_mo_formula(self):
        assert closed_form_path(MarshallOlkin(A, B), 0.1) == pytest.approx(
            (0.1 ** (2 * B / (A + B)),))

    def test_mixture_pair(self):
        got = closed_form_path(MixtureMO(A, B), 0.1)
        s = A + B
        assert got == pytest.approx(tuple(sorted((0.1 ** (2 * B / s),
                                                  0.1 ** (2 * A / s)))))

    def test_mixture_collapses_when_symmetric(self):
        assert closed_form_path(MixtureMO(0.3, 0.3), 0.1) == (0.1,)

    def test_independence_like_corners_have_no_path(self):
        assert closed_form_path(MarshallOlkin(0.5, 0.0), 0.1) is None
        assert closed_form_path(Independence(), 0.1) is None
        assert closed_form_path(FGM(0.0), 0.1) is None

    def test_fgm_sign_split(self):
        assert closed_form_path(FGM(0.5), 0.3) == (0.3,)
        assert closed_form_path(FGM(-0.5), 0.3) is None

    def test_frechet_upper(self):
        assert closed_form_path(FrechetUpper(), 0.7) == (0.7,)

    def test_archimedean_goes_through_the_diagonal_check(self):
        assert closed_form_path(Archimedean(clayton_generator(1.0)), 0.1) == (0.1,)

    def test_generalized_clayton_defers_to_root_solver(self):
        assert closed_form_path(GeneralizedClayton(0.04, 0.02), 0.1) is None


class TestPathCsv:
    def test_variable_width_columns_and_round_trip(self):
        sol = solve_path(MixtureMO(A, B), [0.1, 0.01])
        text = sol.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0].keys() == {"u", "x_star_1", "x_star_2", "pi_star",
                                  "boundary_attained", "all_paths_maximal"}
        for row, point in zip(rows, sol.points):
            assert float(row["u"]) == point.u
            assert float(row["pi_star"]) == point.pi_star
            assert row["boundary_attained"] == "false"

    def test_boundary_rows_padded(self):
        mixed = solve_path(FGM(-0.5), [0.1, 0.01])
        rows = list(csv.DictReader(io.StringIO(mixed.to_csv())))
        assert rows[0]["boundary_attained"] == "true"

    def test_single_maximizer_width(self):
        sol = solve_path(MarshallOlkin(A, B), [0.1, 0.01])
        header = sol.to_csv().splitlines()[0]
        assert header == "u,x_star_1,pi_star,boundary_attained,all_paths_maximal"


class TestSolverOptions:
    def test_default_xtol_accepted_down_to_smallest_grids(self):
        for u_min in (1e-8, 1e-100, 1e-300):
            solve_path(MarshallOlkin(A, B), [1e-1, u_min])

    def test_starved_refinement_is_reported(self, monkeypatch):
        # three zoom steps leave a bracket far wider than the fixed width
        monkeypatch.setattr(paths, "_MAX_ITER", 3)
        with pytest.raises(NumericError, match=r"u=0\.001 .*width 1\.5e-06"):
            pointwise_max(MarshallOlkin(A, B), 1e-3)
        with pytest.raises(NumericError):
            solve_path(MarshallOlkin(A, B), GRID_4)
