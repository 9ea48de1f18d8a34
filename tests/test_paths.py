"""Tests for the per-level maximizer search and its closed-form oracles."""

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taildep import paths
from taildep.serialize import dumps_json
from taildep import (
    FGM,
    Archimedean,
    BracketError,
    Clayton,
    Copula,
    DegenerateTailError,
    EvaluationOverflowError,
    FrechetUpper,
    GeneralizedClayton,
    Generator,
    GeneratorError,
    Independence,
    MarshallOlkin,
    MixtureMO,
    NoAdmissiblePathError,
    NumericError,
    ParameterError,
    TailDepError,
    archimedean_diagonal_check,
    clayton_generator,
    default_u_grid,
    pi_phi,
    pointwise_max,
    solve_path,
    zeta,
    zeta_root,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracles import gc_maximizer, mo_survival_kink  # noqa: E402
from helpers import generator_without_proof, log_closed_forms  # noqa: E402

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


@dataclass(frozen=True)
class VanishingIndependence(Copula):
    """u v where u v > 1e-20, and 0 below: a test-only family, on the route
    of its declared ``shape`` (None: scanned), whose kernel is -inf at every
    x of the levels u < 1e-10.  f(t) = 2 log u is constant, so either shape
    holds."""

    route: str | None

    def _log_cdf(self, lu, lv):
        s = lu + lv
        return np.where(s > math.log(1e-20), s, -np.inf)

    def shape(self):
        return self.route


class TestVanishedLevel:
    @pytest.mark.parametrize("cop", [
        Clayton(2.0).survival(),
        GeneralizedClayton(0.5, 0.3).survival(),
        VanishingIndependence(None),
        VanishingIndependence("diagonal"),
        VanishingIndependence("peak"),
    ], ids=repr)
    def test_level_with_no_mass_is_an_error(self, cop):
        # u + v - 1 + C(1-u, 1-v) cancels to 0 at every x once u^2 < ~1e-32
        # for a family without an exact survival kernel, which the solver
        # scans; the scanned route without that sum, and the shaped routes,
        # take the same rule
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
                    Archimedean(clayton_generator(1.5)),
                    # the diagonal route, the concave plateau and a half
                    # scan whose levels are all boundary-attained
                    Clayton(2.0), MarshallOlkin(0.4, 0.4),
                    MarshallOlkin(0.6, 0.0), FGM(-0.5)]
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

    @pytest.mark.parametrize("u", [0.5, 0.1, 1e-3, 10 ** -4.25, 1e-8,
                                   6.7e-112, 1e-300])
    def test_scan_abscissas_are_linspace_with_log_u(self, u, monkeypatch):
        # every abscissa the scan evaluates, at a cell corner, in a cell's
        # bound or in a kept cell, is its np.linspace point bit for bit;
        # with no cell dropped, the second call evaluates every point
        seen = []

        def record(cop, log_u, t, s=None):
            seen.extend([t.copy()] if s is None else [t.copy(), s.copy()])
            return -np.abs(t - log_u)
        monkeypatch.setattr(paths, "_log_pi", record)
        ref = np.linspace(2.0 * np.log(u), 0.0, 4097)
        assert ref[2048] == np.log(u) and ref[-1] == 0.0
        for slack in (paths._SLACK, math.inf):
            monkeypatch.setattr(paths, "_SLACK", slack)
            seen.clear()
            paths._scan_levels(MarshallOlkin(A, B), np.log([u]), False)
            for ts in seen:
                assert np.isin(ts.view(np.int64), ref.view(np.int64)).all()
            assert len(seen) == 3
        assert seen[-1].tobytes() == ref.tobytes()

    @staticmethod
    def _runs_by_loop(ts, fs):
        peaks = [i for i in range(1, len(fs) - 1)
                 if fs[i] >= fs[i - 1] and fs[i] >= fs[i + 1]]
        runs = []
        for i in peaks:
            if runs and runs[-1][1] == i - 1:
                runs[-1][1] = i
            else:
                runs.append([i, i])
        return [ts[i - 1] for i, _ in runs], [ts[j + 1] for _, j in runs]

    @pytest.mark.parametrize("case, runs", [
        ("none", 0), ("one_flat", 1), ("two", 2), ("at_start", 1),
        ("at_end", 1), ("random_ties", 1422)])
    def test_scan_brackets_equal_python_loop(self, case, runs):
        n = paths._SCAN_N + 1
        k = np.arange(n, dtype=float)
        if case == "none":  # both ends maximal, as for FGM(-0.5)
            fs = np.abs(k - 1700.0)
        elif case == "one_flat":
            fs = -np.abs(k - 1500.0)
            fs[1498:1503] = 0.0
        elif case == "two":
            fs = np.maximum(-np.abs(k - 1000.0), -np.abs(k - 3000.0) - 0.5)
            fs[2990:3000] = -0.5
        elif case == "at_start":
            fs = -k
            fs[0] = fs[1]
        elif case == "at_end":
            fs = k.copy()
            fs[-1] = fs[-2]
        else:
            fs = np.random.default_rng(3).integers(0, 3, n).astype(float)
        ts = np.linspace(2.0 * np.log(1e-3), 0.0, n)
        lo, hi, _ = paths._brackets(ts, fs, np.ones(n - 1, dtype=bool))
        ref_lo, ref_hi = self._runs_by_loop(ts.tolist(), fs.tolist())
        assert (lo.tolist(), hi.tolist()) == (ref_lo, ref_hi)
        assert len(ref_lo) == runs

    @pytest.mark.parametrize("u", [1e-200, 1e-300])
    def test_deep_levels_match_closed_forms_in_log_space(self, u):
        # u^2 and the maximizers are below the double range; their logs are not
        want = log_closed_forms(A, B, u)
        mo = solve_path(MarshallOlkin(A, B), [1e-1, u]).points[1]
        mix = solve_path(MixtureMO(A, B), [1e-1, u]).points[1]
        cases = [(mo, *want["marshall_olkin"]), (mix, *want["mixture_mo"])]
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
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ParameterError):
                zeta(0.5, 0.3, 0.1, x)


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
        assert archimedean_diagonal_check(clayton_generator(theta), 1e-6) is True

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
        assert MarshallOlkin(0.4, 0.4).maximizers(0.2) == (0.2,)

    def test_mo_formula(self):
        assert MarshallOlkin(A, B).maximizers(0.1) == pytest.approx(
            (0.1 ** (2 * B / (A + B)),))

    def test_mixture_pair(self):
        got = MixtureMO(A, B).maximizers(0.1)
        s = A + B
        assert got == pytest.approx(tuple(sorted((0.1 ** (2 * B / s),
                                                  0.1 ** (2 * A / s)))))

    def test_mixture_collapses_when_symmetric(self):
        assert MixtureMO(0.3, 0.3).maximizers(0.1) == (0.1,)

    def test_independence_like_corners_have_no_path(self):
        assert MarshallOlkin(0.5, 0.0).maximizers(0.1) is None
        assert Independence().maximizers(0.1) is None
        assert FGM(0.0).maximizers(0.1) is None

    def test_fgm_sign_split(self):
        assert FGM(0.5).maximizers(0.3) == (0.3,)
        assert FGM(-0.5).maximizers(0.3) is None

    def test_frechet_upper(self):
        assert FrechetUpper().maximizers(0.7) == (0.7,)

    def test_archimedean_diagonal_needs_the_proof(self):
        # the sampled check passes on both generators; only the proven one
        # has a known maximizer
        assert Archimedean(clayton_generator(1.0)).maximizers(0.1) == (0.1,)
        assert Archimedean(generator_without_proof(2.0)).maximizers(0.1) is None

    def test_generalized_clayton_defers_to_root_solver(self):
        assert GeneralizedClayton(0.04, 0.02).maximizers(0.1) == (
            zeta_root(0.04, 0.02, 0.1, xtol=1e-12),)

    @pytest.mark.parametrize("g0,g1", [(0.04, 0.02), (0.5, 0.3), (1.0, 0.0)])
    @pytest.mark.parametrize("u", [10.0 ** -k for k in range(1, 9)])
    def test_generalized_clayton_root_against_mpmath(self, g0, g1, u):
        (got,) = GeneralizedClayton(g0, g1).maximizers(u)
        want = gc_maximizer(g0, g1, u)
        assert abs(got - want) <= 1e-11 * want


EPS = np.finfo(float).eps
GRID_15 = default_u_grid(8, 1, 2)  # 1e-1 .. 1e-8, two levels per decade

# every registered family over its parameter range
ANY_FAMILY = st.one_of(
    st.just(Independence()),
    st.just(FrechetUpper()),
    st.builds(MarshallOlkin, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(MixtureMO, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(FGM, st.floats(-1.0, 1.0)),
    st.builds(GeneralizedClayton, st.floats(0.02, 5.0), st.floats(0.0, 5.0)),
    st.builds(Clayton, st.floats(0.05, 20.0)),
)
# the families whose shape proof is concavity, over their ranges
CONCAVE = st.one_of(
    st.just(Independence()),
    st.just(FrechetUpper()),
    st.builds(MarshallOlkin, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(FGM, st.floats(1e-3, 1.0)),
    st.builds(GeneralizedClayton, st.floats(0.02, 5.0), st.floats(0.0, 5.0)),
    st.builds(Clayton, st.floats(0.05, 20.0)),
)
# the families that declare themselves exchangeable, over their ranges
EXCHANGEABLE = st.one_of(
    st.just(Independence()),
    st.just(FrechetUpper()),
    st.floats(0.0, 1.0).map(lambda a: MarshallOlkin(a, a)),
    st.builds(MixtureMO, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(FGM, st.floats(-1.0, 1.0)),
    st.floats(0.02, 5.0).map(lambda g0: GeneralizedClayton(g0, 0.0)),
    st.builds(Clayton, st.floats(0.05, 20.0)),
    st.floats(0.1, 5.0).map(lambda th: Archimedean(clayton_generator(th))),
)


# the families that declare a shape, one strategy each, over their ranges
SHAPED = {
    "independence": st.just(Independence()),
    "frechet_upper": st.just(FrechetUpper()),
    "marshall_olkin": st.builds(MarshallOlkin, st.floats(0.0, 1.0),
                                st.floats(0.0, 1.0)),
    "mixture_mo": st.builds(MixtureMO, st.floats(0.0, 1.0),
                            st.floats(0.0, 1.0)),
    "fgm": st.builds(FGM, st.floats(1e-3, 1.0)),
    "generalized_clayton": st.builds(GeneralizedClayton, st.floats(0.02, 5.0),
                                     st.floats(0.0, 5.0)),
    "clayton": st.builds(Clayton, st.floats(0.05, 20.0)),
    "archimedean_clayton": st.floats(0.05, 20.0).map(
        lambda th: Archimedean(clayton_generator(th))),
    # the survival copulas with an exact kernel and a proven shape
    "survival_marshall_olkin": st.builds(
        MarshallOlkin, st.floats(0.0, 1.0),
        st.floats(0.0, 1.0)).map(lambda c: c.survival()),
    "survival_frechet_upper": st.just(FrechetUpper().survival()),
    "survival_mixture_equal": st.floats(0.0, 1.0).map(
        lambda a: MixtureMO(a, a).survival()),
}


class TestShapeFacts:
    @pytest.mark.parametrize("cop, shape, exchangeable", [
        (Independence(), "diagonal", True),
        (FrechetUpper(), "diagonal", True),
        (MarshallOlkin(A, B), "peak", False),
        (MarshallOlkin(0.4, 0.4), "diagonal", True),
        (MixtureMO(A, B), "peak", True),
        (MixtureMO(0.4, 0.4), "diagonal", True),
        (FGM(0.5), "diagonal", True),
        (FGM(0.0), None, True),
        (FGM(-0.5), None, True),
        (GeneralizedClayton(0.5, 0.3), "peak", False),
        (GeneralizedClayton(0.5, 0.0), "diagonal", True),
        (Clayton(2.0), "diagonal", True),
        (Archimedean(clayton_generator(2.0)), "diagonal", True),
        (Archimedean(generator_without_proof(2.0)), None, True),
        (MarshallOlkin(A, B).survival(), "peak", False),
        (MarshallOlkin(0.4, 0.4).survival(), "diagonal", True),
        (MixtureMO(A, B).survival(), None, True),
        (MixtureMO(0.4, 0.4).survival(), "diagonal", True),
        (FrechetUpper().survival(), "diagonal", True),
        (FGM(0.5).survival(), None, True),
        (GeneralizedClayton(0.5, 0.3).survival(), None, False),
    ], ids=repr)
    def test_declared_facts(self, cop, shape, exchangeable):
        assert (cop.shape(), cop.exchangeable()) == (shape, exchangeable)

    def test_diagonal_check_picks_no_route(self):
        gen = generator_without_proof(2.0)
        assert archimedean_diagonal_check(gen, 1e-6)
        assert not gen.slope_nondecreasing()
        assert clayton_generator(2.0).slope_nondecreasing()

    @pytest.mark.parametrize("family", sorted(SHAPED))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(),
           u=st.one_of(st.floats(-8.0, -1.0).map(lambda e: 10.0 ** e),
                       st.just(1e-100)))
    def test_shaped_level_functions_have_one_peak(self, family, data, u):
        # beyond rounding, the differences of f on the searched range rise,
        # then fall: one sign change at most, none on the diagonal route
        cop = data.draw(SHAPED[family])
        shape = cop.shape()
        assert shape in ("diagonal", "peak")
        log_u = math.log(u)
        end = log_u if cop.exchangeable() else 0.0
        t = np.linspace(2.0 * log_u, end, 20001)
        f = paths._log_pi(cop, log_u, t)
        d = np.diff(f)
        noise = 64.0 * EPS * (np.abs(f[:-1]) + np.abs(f[1:]))
        falls = d < -noise
        rises = d > noise
        if shape == "diagonal":
            assert not falls.any(), cop
        elif falls.any():
            assert not rises[falls.argmax():].any(), cop

    @settings(max_examples=60, deadline=None)
    @given(cop=CONCAVE,
           u=st.one_of(st.floats(-8.0, -1.0).map(lambda e: 10.0 ** e),
                       st.just(1e-100)))
    def test_concave_families_have_concave_level_functions(self, cop, u):
        # second differences on a dense grid stay within rounding
        assert cop.shape() in ("diagonal", "peak")
        log_u = math.log(u)
        t = np.linspace(2.0 * log_u, 0.0, 20001)
        f = paths._log_pi(cop, log_u, t)
        d2 = f[:-2] - 2.0 * f[1:-1] + f[2:]
        scale = np.abs(f[:-2]) + 2.0 * np.abs(f[1:-1]) + np.abs(f[2:])
        assert np.all(d2 <= 16.0 * EPS * scale)

    @settings(max_examples=60, deadline=None)
    @given(cop=EXCHANGEABLE,
           lu=st.lists(st.floats(-20.0, 0.0), min_size=1, max_size=20))
    def test_exchangeable_kernels_are_symmetric(self, cop, lu):
        assert cop.exchangeable()
        lu = np.asarray(lu)
        lv = lu[::-1].copy()
        np.testing.assert_allclose(cop._log_cdf(lu, lv), cop._log_cdf(lv, lu),
                                   rtol=8.0 * EPS, atol=0.0)

    def test_shaped_levels_are_not_scanned(self, monkeypatch):
        # one kernel call gives every level's ends and diagonal; a "peak"
        # family then zooms one bracket per level, the searched range, which
        # is [2 log u, 0] for MO and [2 log u, log u] for the mixture
        seen = []
        orig = paths._log_pi

        def record(cop, log_u, t):
            seen.append(np.broadcast_arrays(log_u, t)[1].copy())
            return orig(cop, log_u, t)
        monkeypatch.setattr(paths, "_log_pi", record)
        log_u = np.log(GRID_4)
        for cop, end in [(MarshallOlkin(A, B), np.zeros(4)),
                         (MixtureMO(A, B), log_u)]:
            seen.clear()
            solve_path(cop, GRID_4)
            assert seen[0].shape == (4, 3)
            assert all(t.shape == (4, paths._ZOOM) for t in seen[1:])
            assert seen[1][:, 0].tolist() == (2.0 * log_u).tolist()
            assert seen[1][:, -1].tolist() == end.tolist()
        for cop in (Clayton(2.0), Archimedean(clayton_generator(2.0))):
            seen.clear()
            sol = solve_path(cop, GRID_4)
            assert [t.shape for t in seen] == [(4, 3)]
            for p in sol.points:
                assert p.maximizers == (p.u,)
                assert p.log_maximizers == (math.log(p.u),)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
           gap=st.floats(-3.0, -2.0).map(lambda e: 10.0 ** e),
           near=st.booleans())
    def test_mixture_maximizers_match_the_closed_form(self, a, b, gap, near):
        # near-equal pairs sit a relative gap of 1e-3 to 1e-2 apart: closer,
        # f(u^(2b/(a+b))) - f(u), about (a log(u) gap)^2 / 8, falls in the
        # tie window and the diagonal ties the two peaks
        if near:
            a, b = 0.1 + 0.8 * a, (0.1 + 0.8 * a) * (1.0 + gap)
        assume(min(a, b) >= 1e-3)
        cop = MixtureMO(a, b)
        for p in solve_path(cop, default_u_grid(8)).points:
            want = cop.maximizers(p.u)
            assert len(p.maximizers) == len(want), (cop, p.u)
            np.testing.assert_allclose(p.maximizers, want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 4.0])
    def test_archimedean_clayton_reports_the_diagonal(self, theta):
        cop = Archimedean(clayton_generator(theta))
        for p in solve_path(cop, GRID_15).points:
            assert p.maximizers == (p.u,), (theta, p.u)
            assert not (p.boundary_attained or p.all_paths_maximal)

    def test_exchangeable_scan_stops_at_the_diagonal(self, monkeypatch):
        # the scan's calls, those with a second abscissa or a flat one, never
        # pass the diagonal; with no cell dropped the second call evaluates
        # the full scan's first 2049 points
        seen = []
        orig = paths._log_pi

        def record(cop, log_u, t, s=None):
            if s is not None or t.ndim == 1:
                seen.append(t.copy())
            return orig(cop, log_u, t, s)
        monkeypatch.setattr(paths, "_log_pi", record)
        u = 1e-3
        cop = MixtureMO(A, B).survival()
        assert cop.shape() is None and cop.exchangeable()
        monkeypatch.setattr(paths, "_SLACK", math.inf)
        solve_path(cop, [u])
        ref = np.linspace(2.0 * np.log(u), 0.0, 4097)[:2049]
        assert max(t.max() for t in seen) == np.log(u)
        assert seen[-1].tobytes() == ref.tobytes()
        assert seen[-1][-1] == np.log(u)

    @pytest.mark.parametrize("case, runs", [
        ("none", 0), ("one_flat", 1), ("two", 2), ("at_diagonal", 1),
        ("flat_into_diagonal", 1), ("below_diagonal", 1),
        ("random_ties", 701)])
    def test_half_scan_brackets_equal_mirrored_python_loop(self, case, runs):
        # reference: the full-scan loop over the half scan, the diagonal's
        # right neighbour set to its left one, brackets cut at the diagonal
        n = paths._SCAN_MID + 1
        k = np.arange(n, dtype=float)
        if case == "none":  # maximal at the ends, as for FGM(-0.5)
            fs = -k
        elif case == "one_flat":
            fs = -np.abs(k - 500.0)
            fs[498:503] = 0.0
        elif case == "two":
            fs = np.maximum(-np.abs(k - 500.0), -np.abs(k - 1500.0) - 0.5)
        elif case == "at_diagonal":
            fs = k.copy()
        elif case == "flat_into_diagonal":
            fs = k.copy()
            fs[-4:] = fs[-4]
        elif case == "below_diagonal":  # the diagonal a local minimum
            fs = k.copy()
            fs[-1] = fs[-2] - 1.0
        else:
            fs = np.random.default_rng(3).integers(0, 3, n).astype(float)
        t = np.linspace(2.0 * np.log(1e-3), np.log(1e-3), n)
        diagonal = np.zeros(n, dtype=bool)
        diagonal[-1] = True
        joined = np.ones(n - 1, dtype=bool)
        lo, hi, _ = paths._brackets(t, fs, joined, diagonal)
        ts = t.tolist()
        ref_lo, ref_hi = TestSolvePath._runs_by_loop(
            ts + [2.0 * math.log(1e-3) - ts[-2]], fs.tolist() + [fs[-2]])
        ref_hi = [min(h, math.log(1e-3)) for h in ref_hi]
        assert (lo.tolist(), hi.tolist()) == (ref_lo, ref_hi)
        assert len(ref_lo) == runs

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.05, 0.95), b=st.floats(0.05, 0.95))
    def test_mixture_maximizers_are_mirror_pairs(self, a, b):
        assume(abs(a - b) >= 0.01)
        for p in solve_path(MixtureMO(a, b), default_u_grid(8)).points:
            assert len(p.log_maximizers) == 2
            assert p.log_maximizers[1] == 2 * math.log(p.u) - p.log_maximizers[0]

    def test_near_equal_mixture_reports_both_maximizers(self):
        cop = MixtureMO(0.5, 0.5001)
        for u in default_u_grid(8):
            got = pointwise_max(cop, u).maximizers
            want = cop.maximizers(u)
            assert len(got) == len(want) == 2
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("a", [1e-5, 1e-4])
    @pytest.mark.parametrize("u", [0.1, 1e-3])
    def test_peak_tied_by_the_diagonal_keeps_its_mirror(self, a, u):
        # with a << b the far side of the mixture's peak is flat to within
        # the tie window, but the peak lies far from the diagonal
        cop = MixtureMO(a, 0.5)
        got = pointwise_max(cop, u).maximizers
        np.testing.assert_allclose(got, cop.maximizers(u), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("u", [0.1, 1e-3])
    def test_scanned_smooth_peak_at_the_diagonal_is_the_diagonal(self, u):
        # a smooth peak refines to about 2e-8 off log u; on a scanned level
        # the diagonal ties it in its own bracket and absorbs it
        cop = Archimedean(generator_without_proof(2.0))
        assert pointwise_max(cop, u).maximizers == (u,)

    def test_scan_point_where_psi_overflows_does_not_end_the_level(self):
        # psi(1e-100) = 5e199 is finite but the scan also puts v = u^2 and
        # psi(1e-200) overflows; C = 0 at that one point, never the maximum
        cop = Archimedean(generator_without_proof(2.0))
        assert solve_path(cop, [1e-100]).points[0].maximizers == (1e-100,)


def _hex_fields(p):
    """Every field of a PathPoint, floats as float.hex, None as None."""
    def hx(x):
        return None if x is None else x.hex()
    return (p.u.hex(), [hx(x) for x in p.maximizers], hx(p.pi_star),
            p.log_pi_star.hex(), p.boundary_attained, p.all_paths_maximal,
            [t.hex() for t in p.log_maximizers])


def _solve_or_error(cop, grid):
    """Every PathPoint field of a solve, floats as float.hex, or the error."""
    try:
        sol = solve_path(cop, grid)
    except TailDepError as exc:
        return type(exc), str(exc)
    return [_hex_fields(p) for p in sol.points]


class TestPrunedScan:
    """The scan evaluates only the cells whose monotone bound reaches the
    tie window of the best corner, with the answers of the full scan."""

    SCANNED = st.one_of(
        st.builds(MixtureMO, st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
            lambda c: c.a != c.b).map(lambda c: c.survival()),
        st.builds(FGM, st.floats(-1.0, 0.0)),
        st.floats(0.1, 5.0).map(
            lambda th: Archimedean(generator_without_proof(th))),
        # the survival copulas without an exact kernel
        st.just(Independence().survival()),
        st.builds(FGM, st.floats(-1.0, 1.0)).map(lambda c: c.survival()),
        st.builds(Clayton, st.floats(0.1, 5.0)).map(lambda c: c.survival()),
        st.builds(GeneralizedClayton, st.floats(0.1, 2.0),
                  st.floats(0.0, 2.0)).map(lambda c: c.survival()),
        st.floats(0.1, 5.0).map(
            lambda th: Archimedean(clayton_generator(th)).survival()),
    )
    # levels from 0.99 down to 1e-300, or only down to 1e-8, where the linear
    # survival sums vanish
    LEVELS = st.one_of(*(st.lists(st.floats(lo, math.log10(0.99)),
                                  min_size=1, max_size=4)
                         for lo in (-8.0, -300.0))).map(
        lambda es: sorted({10.0 ** e for e in es}, reverse=True))

    @settings(max_examples=200, deadline=None)
    @given(cop=SCANNED, grid=LEVELS)
    def test_pruned_solve_equals_the_full_scan(self, cop, grid):
        assert cop.shape() is None
        pruned = _solve_or_error(cop, grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paths, "_SLACK", math.inf)  # no cell is dropped
            assert _solve_or_error(cop, grid) == pruned, (cop, grid)

    def test_survival_mixture_evaluates_few_scan_points(self, monkeypatch):
        # 17 levels of 2049 points; the scan's kernel evaluations, at the
        # cell corners and bounds and in the kept cells, are 11.4% of them
        evaluations = []
        orig = paths._log_pi

        def record(cop, log_u, t, s=None):
            if s is not None or t.ndim == 1:  # not a zoom step
                evaluations.append(t.size)
            return orig(cop, log_u, t, s)
        monkeypatch.setattr(paths, "_log_pi", record)
        solve_path(MixtureMO(0.3, 0.7).survival(), default_u_grid(5, 1, 4))
        assert sum(evaluations) <= 0.15 * 17 * 2049

    def test_flat_run_into_a_dropped_cell_keeps_the_cell(self, monkeypatch):
        # hand-built values on a half scan: a flat run of maxima at -1 over
        # points 340-360 crosses the corner 352 from cell 10, whose bound is
        # below the tie window of the best corner (0 at point 384), into the
        # kept cell 11.  Cell 10 is kept too, and the run's bracket is
        # [t_339, t_361], as on the full scan.
        u = 1e-3
        t = np.linspace(2.0 * np.log(u), np.log(u), 2049)
        k = np.arange(2049)
        fs = -2.0 - 1e-3 * k
        fs[340:361] = -1.0
        fs[361:384] = -1.5 - 1e-3 * (383 - k[361:384])
        fs[384] = 0.0

        def hand_built(cop, log_u, ts, s=None):
            i = np.rint((ts - t[0]) / (t[1] - t[0])).astype(int)
            if s is None:
                return fs[i]
            j = np.rint((s - t[0]) / (t[1] - t[0])).astype(int)
            return np.vectorize(lambda a, b: fs[b:a + 1].max())(i, j)
        monkeypatch.setattr(paths, "_log_pi", hand_built)
        brackets = []
        for slack in (paths._SLACK, math.inf):
            monkeypatch.setattr(paths, "_SLACK", slack)
            lo, hi, counts, _ = paths._scan_levels(
                MixtureMO(A, B).survival(), np.log([u]), True)
            brackets.append((lo.tolist(), hi.tolist(), counts.tolist()))
        assert brackets[0] == brackets[1] == (
            [t[339], t[383]], [t[361], t[385]], [2])


class TestSurvivalRoute:
    """The survival copulas with an exact kernel: MO zooms, the comonotone
    copula takes the diagonal, the mixture half-scans, but with a = b it
    takes the diagonal."""

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(0.05, 0.95), b=st.floats(0.05, 0.95))
    def test_marshall_olkin_maximizers_are_the_kink(self, a, b):
        # at these levels the one peak is the kink a P = b Q, in mpmath
        for p in solve_path(MarshallOlkin(a, b).survival(),
                            default_u_grid(12)).points:
            assert len(p.maximizers) == 1
            assert not (p.boundary_attained or p.all_paths_maximal)
            want = math.log(mo_survival_kink(a, b, p.u))
            assert abs(p.log_maximizers[0] - want) <= 1e-9 * abs(want), (a, b, p.u)

    @pytest.mark.parametrize("u", [1e-50, 1e-150, 1e-300])
    def test_deep_levels_match_the_kink(self, u):
        # the kernel stays exact in log space where the linear sum is 0
        p = pointwise_max(MarshallOlkin(A, B).survival(), u)
        want = math.log(mo_survival_kink(A, B, u))
        assert abs(p.log_maximizers[0] - want) <= 1e-12 * abs(want)

    @settings(max_examples=6, deadline=None)
    @given(a=st.floats(0.1, 0.9), b=st.floats(0.1, 0.9))
    def test_mixture_maximizers_are_both_kinks(self, a, b):
        assume(abs(a - b) >= 0.1)
        for p in solve_path(MixtureMO(a, b).survival(),
                            default_u_grid(8)).points:
            want = sorted([mo_survival_kink(a, b, p.u),
                           mo_survival_kink(b, a, p.u)])
            assert len(p.maximizers) == 2, (a, b, p.u)
            np.testing.assert_allclose(p.maximizers, want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("cop", [FrechetUpper().survival(),
                                     MarshallOlkin(0.4, 0.4).survival(),
                                     MixtureMO(0.4, 0.4).survival()],
                             ids=repr)
    def test_diagonal_survivals_make_one_kernel_call(self, cop, monkeypatch):
        seen = []
        orig = paths._log_pi

        def record(cop, log_u, t):
            seen.append(t.shape)
            return orig(cop, log_u, t)
        monkeypatch.setattr(paths, "_log_pi", record)
        sol = solve_path(cop, GRID_15)
        assert seen == [(15, 3)]
        for p in sol.points:
            assert p.maximizers == (p.u,)
            assert p.log_pi_star == cop.log_cdf(p.u, p.u)

    @pytest.mark.parametrize("a", [0.0, 0.3529, 0.75, 1.0])
    def test_equal_mixture_is_marshall_olkin(self, a):
        # both components are MO(a, a): every point is survival MO(a, a)'s,
        # bit for bit, down to levels where the kernels work in log space
        for grid in (GRID_15, [0.99, 0.5], [1e-100, 1e-160, 1e-300]):
            assert (_solve_or_error(MixtureMO(a, a).survival(), grid)
                    == _solve_or_error(MarshallOlkin(a, a).survival(), grid))


class TestBatchEqualsPointwise:
    """``solve_path`` evaluates all levels in one kernel call per step, so a
    deep level shares each call with the shallow ones; every point is still
    ``pointwise_max``'s at its own level, field by field."""

    FAMILIES = st.one_of(
        ANY_FAMILY,
        st.floats(0.0, 1.0).map(lambda a: MarshallOlkin(a, a)),
        st.floats(0.0, 1.0).map(lambda a: MixtureMO(a, a)),
        st.floats(0.1, 5.0).map(lambda th: Archimedean(clayton_generator(th))),
    ).flatmap(lambda c: st.sampled_from([c, c.survival()]))
    # one to four levels in [1e-6, 0.5] and one at 1e-200 or 1e-300
    GRIDS = st.tuples(
        st.lists(st.floats(-6.0, math.log10(0.5)), min_size=1, max_size=4),
        st.sampled_from([1e-200, 1e-300])).map(
        lambda g: sorted({10.0 ** e for e in g[0]} | {g[1]}, reverse=True))

    @settings(max_examples=150, deadline=None)
    @given(cop=FAMILIES, grid=GRIDS)
    def test_each_point_is_its_levels_pointwise_max(self, cop, grid):
        want = []
        for u in grid:
            try:
                want.append(_hex_fields(pointwise_max(cop, u)))
            except TailDepError as exc:
                want.append(type(exc))
        try:
            got = [_hex_fields(p) for p in solve_path(cop, grid).points]
        except TailDepError as exc:
            assert type(exc) in want, (cop, grid, exc)
        else:
            assert got == want, (cop, grid)


class TestDiagonalFloor:
    def test_grid_logs_agree_with_numpy(self):
        # on these levels math.log and np.log agree; the test below covers
        # levels where they do not
        assert all(np.log(np.asarray(u)) == math.log(u) for u in GRID_15)

    @pytest.mark.parametrize("cop", [FGM(0.5), FrechetUpper(), Independence(),
                                     Clayton(2.0), MarshallOlkin(0.4, 0.4)],
                             ids=repr)
    def test_levels_whose_logs_differ_in_the_last_bit(self, cop):
        # math.log(u) is one ulp off np.log(u) here (x86-64, numpy 2.4.6);
        # the solver takes each level's log the way log_cdf does, so its
        # floor is log_cdf(u, u) itself
        levels = [0.8184640441326937, 0.6215732262584456,
                  0.48859797203459887, 0.430939330492505]
        points = [*solve_path(cop, levels).points,
                  *(pointwise_max(cop, u) for u in levels)]
        for p in points:
            assert p.log_pi_star >= cop.log_cdf(p.u, p.u), (cop, p.u)

    @settings(max_examples=60, deadline=None)
    @given(cop=ANY_FAMILY)
    def test_maximum_is_never_below_the_diagonal(self, cop):
        try:
            sol = solve_path(cop, GRID_15)
        except NoAdmissiblePathError:
            return
        for p in sol.points:
            assert p.log_pi_star >= cop.log_cdf(p.u, p.u), (cop, p.u)


class TestConcavePlateau:
    @pytest.mark.parametrize("cop", [MarshallOlkin(0.6, 0.0),
                                     MarshallOlkin(0.0, 0.4)], ids=repr)
    def test_independence_valued_marshall_olkin_is_a_plateau(self, cop):
        # C(u, v) = uv: a peak family, not exchangeable, flat on every level
        assert cop.shape() == "peak" and not cop.exchangeable()
        for p in solve_path(cop, default_u_grid(8)).points:
            assert p.all_paths_maximal and not p.boundary_attained
            assert p.pi_star == pytest.approx(p.u ** 2, rel=1e-12, abs=0.0)


class TestPathCsv:
    def test_variable_width_columns_and_round_trip(self):
        sol = solve_path(MixtureMO(A, B), [0.1, 0.01])
        text = sol.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0]) == [
            "u", "x_star_1", "x_star_2", "pi_star", "boundary_attained",
            "all_paths_maximal", "log_pi_star", "log_x_star_1", "log_x_star_2"]
        for row, point in zip(rows, sol.points):
            assert float(row["u"]) == point.u
            assert float(row["pi_star"]) == point.pi_star
            assert float(row["log_pi_star"]) == point.log_pi_star
            assert [float(row[f"log_x_star_{k}"]) for k in (1, 2)] == list(
                point.log_maximizers)
            assert row["boundary_attained"] == "false"

    def test_boundary_rows_padded(self):
        mixed = solve_path(FGM(-0.5), [0.1, 0.01])
        rows = list(csv.DictReader(io.StringIO(mixed.to_csv())))
        assert rows[0]["boundary_attained"] == "true"

    def test_single_maximizer_width(self):
        sol = solve_path(MarshallOlkin(A, B), [0.1, 0.01])
        header = sol.to_csv().splitlines()[0]
        assert header == ("u,x_star_1,pi_star,boundary_attained,"
                          "all_paths_maximal,log_pi_star,log_x_star_1")

    def test_json_keys_in_order_with_lists(self):
        sol = solve_path(MixtureMO(A, B), [0.1, 0.01])
        data = sol.to_json_dict()
        assert list(data) == ["u_grid", "points"]
        assert data["u_grid"] == [0.1, 0.01]  # a list: no tuple equals it
        assert len(data["points"]) == 2
        for printed, point in zip(data["points"], sol.points):
            assert list(printed) == [
                "u", "maximizers", "log_maximizers", "pi_star", "log_pi_star",
                "boundary_attained", "all_paths_maximal"]
            assert printed["maximizers"] == list(point.maximizers)
            assert printed["log_maximizers"] == list(point.log_maximizers)
            assert len(printed["maximizers"]) == 2

    def test_underflowed_values_print_empty_beside_their_logs(self):
        # at u = 1e-300 the maximizer and pi_star are below the double range,
        # their logs are not: they print as null or empty beside the logs
        deep = solve_path(MarshallOlkin(A, B), [1e-150, 1e-300])
        point = deep.points[1]
        assert point.maximizers == (None,) and point.pi_star is None
        assert math.isfinite(point.log_pi_star)
        row = list(csv.DictReader(io.StringIO(deep.to_csv())))[1]
        assert row["x_star_1"] == row["pi_star"] == ""
        assert float(row["log_pi_star"]) == point.log_pi_star
        assert float(row["log_x_star_1"]) == point.log_maximizers[0]
        printed = json.loads(dumps_json(deep.to_json_dict()))["points"][1]
        assert printed["maximizers"] == [None] and printed["pi_star"] is None
        assert printed["log_maximizers"] == list(point.log_maximizers)
        shallow = solve_path(MarshallOlkin(A, B), [1e-150])
        row = shallow.to_csv().splitlines()[1].split(",")
        assert float(row[1]) == shallow.points[0].maximizers[0] > 0.0
        assert float(row[2]) == shallow.points[0].pi_star > 0.0

    @pytest.mark.parametrize("u", [1e-100, 1e-155, 1e-160, 1e-200, 1e-300])
    def test_every_printed_value_is_normal_or_empty(self, u):
        # a maximizer or pi_star is its math.exp where that is a normal
        # double, and None below, never 0.0 or a subnormal; the diagonal
        # maximizer is u itself
        for cop in (MarshallOlkin(A, B), MixtureMO(A, B), Independence()):
            point = pointwise_max(cop, u)
            for x, t in zip((*point.maximizers, point.pi_star),
                            (*point.log_maximizers, point.log_pi_star)):
                if x == u:
                    continue
                want = math.exp(t)
                assert x == (want if want >= sys.float_info.min else None)

class TestSolverOptions:
    def test_default_xtol_accepted_down_to_smallest_grids(self):
        for u_min in (1e-8, 1e-100, 1e-300):
            solve_path(MarshallOlkin(A, B), [1e-1, u_min])

    def test_starved_refinement_is_reported(self, monkeypatch):
        # three zoom steps leave a bracket far wider than the fixed width;
        # a scanned family's brackets are two scan steps wide
        monkeypatch.setattr(paths, "_MAX_ITER", 3)
        cop = MixtureMO(A, B).survival()
        with pytest.raises(NumericError, match=r"u=0\.001 .*width 1\.5e-06"):
            pointwise_max(cop, 1e-3)
        with pytest.raises(NumericError):
            solve_path(cop, GRID_4)

    def test_starved_concave_refinement_is_reported(self, monkeypatch):
        # a concave family's bracket is all of [2 log u, 0], unscanned
        monkeypatch.setattr(paths, "_MAX_ITER", 3)
        with pytest.raises(NumericError, match=r"u=0\.001 .*width 0\.00308"):
            pointwise_max(MarshallOlkin(A, B), 1e-3)
        with pytest.raises(NumericError):
            solve_path(MarshallOlkin(A, B), GRID_4)

    def test_starved_half_range_refinement_is_reported(self, monkeypatch):
        # the mixture's bracket is [2 log u, log u], unscanned
        monkeypatch.setattr(paths, "_MAX_ITER", 3)
        with pytest.raises(NumericError, match=r"u=0\.001 .*width 0\.00154"):
            pointwise_max(MixtureMO(A, B), 1e-3)
        with pytest.raises(NumericError):
            solve_path(MixtureMO(A, B), GRID_4)
