"""Tests for the per-level maximizer search and its closed-form oracles."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taildep import paths
from taildep import (
    FGM,
    Archimedean,
    BracketError,
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
    SolverOptions,
    archimedean_diagonal_check,
    clayton_generator,
    closed_form_path,
    pi_phi,
    pointwise_max,
    solve_path,
    zeta,
    zeta_root,
)

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

    def test_batched_refinement_equals_scalar_golden_section(self):
        # reference: one bracket at a time, in Python floats
        invphi = (math.sqrt(5.0) - 1.0) / 2.0

        def golden_max(cop, u, lo, hi, tol):
            def fn(t):
                return float(paths._log_pi(cop, math.log(u), np.asarray([t]))[0])
            a, b = lo, hi
            x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
            f1, f2 = fn(x1), fn(x2)
            while b - a > tol:
                if f1 < f2:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + invphi * (b - a)
                    f2 = fn(x2)
                else:
                    b, x2, f2 = x2, x1, f1
                    x1 = b - invphi * (b - a)
                    f1 = fn(x1)
            return (x1, f1) if f1 >= f2 else (x2, f2)

        # brackets of unequal widths finish after different step counts
        rng = np.random.default_rng(5)
        u = np.repeat([1e-1, 1e-3, 1e-6], 4)
        lo = 2.0 * np.log(u) * rng.uniform(0.5, 1.0, u.size)
        hi = lo * rng.uniform(0.0, 0.9, u.size)
        opts = SolverOptions()
        for cop in (MarshallOlkin(A, B), MixtureMO(A, B), FGM(0.5)):
            log_u = np.array([math.log(x) for x in u])
            t, f = paths._refine(cop, log_u, lo, hi, opts)
            for k in range(u.size):
                ref = golden_max(cop, u[k], lo[k], hi[k], opts.xtol)
                assert (t[k], f[k]) == ref, (cop, k)

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

    @pytest.mark.parametrize("g0,g1,u", [(0.04, 0.02, 0.1), (0.5, 0.3, 0.01),
                                         (2.0, 1.5, 0.2)])
    def test_fixed_point_agrees_with_bisection(self, g0, g1, u):
        ref = zeta_root(g0, g1, u, xtol=1e-13)
        acc = zeta_root(g0, g1, u, xtol=1e-13, method="fixed_point")
        assert acc == pytest.approx(ref, abs=1e-9)

    def test_root_survives_zeta_overflow_range(self):
        # the value of zeta overflows here, the sign function does not
        assert zeta_root(0.01, 0.0, 1e-4, xtol=1e-12) == pytest.approx(1e-4,
                                                                       rel=1e-6)

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            zeta_root(0.5, 0.3, 0.1, method="newton")

    @settings(max_examples=40, deadline=None)
    @given(g0=st.floats(0.05, 3.0), g1=st.floats(0.0, 3.0),
           u=st.floats(0.01, 0.9))
    def test_root_always_inside_bracket(self, g0, g1, u):
        root = zeta_root(g0, g1, u, xtol=1e-10)
        assert u * u - 1e-9 <= root <= 1.0


class TestArchimedeanDiagonalCheck:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_clayton_is_diagonal(self, theta):
        out = archimedean_diagonal_check(clayton_generator(theta), 1e-6)
        assert out.increasing and out.diagonal_is_maximal

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
        with pytest.raises(ParameterError):
            archimedean_diagonal_check(clayton_generator(1.0), 0.1, grid_n=4)


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
    def test_validation(self):
        with pytest.raises(ParameterError):
            SolverOptions(scan_n=4)
        with pytest.raises(ParameterError):
            SolverOptions(xtol=0.0)
        with pytest.raises(ParameterError):
            SolverOptions(tie_tol=1.5)
        with pytest.raises(ParameterError):
            SolverOptions(max_iter=0)

    def test_unreachable_xtol_is_rejected_up_front(self, monkeypatch):
        # below two ulps of |2 log 1e-8| no bracket can ever get that narrow
        def no_kernel(*args):
            raise AssertionError("kernel called before the xtol check")
        monkeypatch.setattr(paths, "_log_pi", no_kernel)
        cop = MarshallOlkin(A, B)
        with pytest.raises(ParameterError, match="xtol"):
            pointwise_max(cop, 1e-8, SolverOptions(xtol=1e-15))
        with pytest.raises(ParameterError, match="xtol"):
            solve_path(cop, [1e-1, 1e-8], SolverOptions(xtol=1e-14))

    @pytest.mark.parametrize("cop", [MarshallOlkin(A, B), MixtureMO(A, B)],
                             ids=lambda c: c.family)
    def test_xtol_at_the_floor_converges(self, cop):
        u = 1e-8
        floor = 2.0 * float(np.spacing(abs(2.0 * math.log(u))))
        point = pointwise_max(cop, u, SolverOptions(xtol=floor))
        expected = closed_form_path(cop, u)
        assert len(point.maximizers) == len(expected)
        for x, ref in zip(point.maximizers, expected):
            assert x == pytest.approx(ref, rel=1e-10)
        with pytest.raises(ParameterError):
            pointwise_max(cop, u, SolverOptions(xtol=float(np.nextafter(floor, 0.0))))

    def test_default_xtol_accepted_down_to_smallest_grids(self):
        for u_min in (1e-8, 1e-100, 1e-300):
            solve_path(MarshallOlkin(A, B), [1e-1, u_min])

    def test_starved_refinement_is_reported(self):
        # three golden-section steps leave a bracket far wider than xtol
        with pytest.raises(NumericError, match=r"u=0\.001 .*width 0\.00159"):
            pointwise_max(MarshallOlkin(A, B), 1e-3, SolverOptions(max_iter=3))
        with pytest.raises(NumericError):
            solve_path(MarshallOlkin(A, B), GRID_4, SolverOptions(max_iter=3))
