"""Tests for index estimation, closed forms and pairwise comparisons."""

import math

import numpy as np
import pytest

from taildep import (
    FGM,
    Archimedean,
    DegenerateTailError,
    FrechetUpper,
    GeneralizedClayton,
    Independence,
    MarshallOlkin,
    MixtureMO,
    NoAdmissiblePathError,
    ParameterError,
    PathKind,
    PathPoint,
    PathSolution,
    Verdict,
    classical_indices,
    clayton_generator,
    closed_form_kappa_star,
    compare,
    default_u_grid,
    solve_path,
    star_indices,
)
from taildep.copulas import Copula
from taildep.indices import extrapolate_sequence, pairwise_log_slopes

A, B = 0.3529, 0.75
GRID = default_u_grid()  # 1e-1 .. 1e-6


class LowerBound(Copula):
    """Countermonotone copula max(u+v-1, 0): zero mass near the corner."""

    family = "frechet_lower"

    def _cdf(self, u, v):
        return np.maximum(u + v - 1.0, 0.0)


class TestExtrapolation:
    def test_constant_sequence_passes_through(self):
        value, residual = extrapolate_sequence([1.5, 1.5, 1.5, 1.5])
        assert value == 1.5 and residual == 0.0

    def test_geometric_error_is_removed_exactly(self):
        limit, ratio, c = 2.0, 0.4, 0.3
        seq = [limit + c * ratio ** k for k in range(6)]
        value, residual = extrapolate_sequence(seq)
        assert value == pytest.approx(limit, abs=1e-12)
        assert residual == pytest.approx(abs(seq[-1] - seq[-2]))

    def test_short_sequences(self):
        assert extrapolate_sequence([3.0, 2.5]) == (2.5, 0.5)
        with pytest.raises(ParameterError):
            extrapolate_sequence([])

    def test_slopes_helper(self):
        u = np.array([0.1, 0.01, 0.001])
        vals = 1.7 * np.log(u)
        assert np.allclose(pairwise_log_slopes(np.log(u), vals), 1.7)


class TestClassicalIndices:
    def test_frechet_upper(self):
        rep = classical_indices(FrechetUpper(), GRID)
        assert rep.kappa == pytest.approx(1.0, abs=1e-12)
        assert rep.lam == pytest.approx(1.0, abs=1e-12)
        assert rep.chi == pytest.approx(1.0, abs=1e-12)
        assert rep.path_kind is PathKind.DIAGONAL

    def test_independence(self):
        rep = classical_indices(Independence(), GRID)
        assert rep.kappa == pytest.approx(2.0, abs=1e-12)
        assert rep.chi == pytest.approx(0.0, abs=1e-12)
        assert rep.lam == 0.0 and rep.lambda_degenerate

    @pytest.mark.parametrize("b", [0.75, 0.5, 0.3529])
    def test_marshall_olkin_diagonal_exponent(self, b):
        # pure power law: the estimator must be exact to rounding
        rep = classical_indices(MarshallOlkin(A, b), GRID)
        assert rep.kappa == pytest.approx(2.0 - min(A, b), abs=1e-12)
        assert rep.chi == pytest.approx(2.0 / rep.kappa - 1.0, abs=1e-12)
        assert rep.residual < 1e-12

    def test_lambda_reported_zero_when_kappa_above_one(self):
        rep = classical_indices(MarshallOlkin(A, B), GRID)
        assert rep.lambda_degenerate and rep.lam == 0.0

    def test_degenerate_diagonal_raises(self):
        with pytest.raises(DegenerateTailError):
            classical_indices(LowerBound(), GRID)

    @pytest.mark.parametrize("grid", [
        [0.1, 0.01, 0.001],            # too short
        [0.1, 0.2, 0.01, 0.001],       # not decreasing
        [0.1, 0.01, 0.001, 0.0],       # outside (0, 1)
        [0.1, float("nan"), 0.01, 0.001],  # not a level
        [[0.1, 0.01], [0.001, 0.0001]],    # not 1-d
    ])
    def test_grid_validation(self, grid):
        with pytest.raises(ParameterError):
            classical_indices(Independence(), grid)


class TestStarIndices:
    def test_marshall_olkin_exact_power_law(self):
        rep = star_indices(solve_path(MarshallOlkin(A, B), GRID))
        assert rep.kappa == pytest.approx(2 - 2 * A * B / (A + B), abs=1e-10)
        assert rep.path_kind is PathKind.MAXIMAL
        # all local slopes already equal the exponent (no slowly varying part)
        for s in rep.local_slopes:
            assert s == pytest.approx(rep.kappa, abs=1e-12)

    def test_mixture_slowly_varying_factor_extrapolated(self):
        rep = star_indices(solve_path(MixtureMO(A, B), GRID))
        assert rep.kappa == pytest.approx(2 - 2 * A * B / (A + B), abs=5e-3)
        assert rep.residual > 1e-4  # the halving factor is visible in slopes

    def test_generalized_clayton(self):
        rep = star_indices(solve_path(GeneralizedClayton(0.04, 0.02), GRID))
        assert rep.kappa == pytest.approx(1.2, abs=1e-2)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_clayton_lambda_limit(self, theta):
        rep = star_indices(solve_path(Archimedean(clayton_generator(theta)), GRID))
        assert rep.kappa == pytest.approx(1.0, abs=1e-3)
        assert not rep.lambda_degenerate
        assert rep.lam == pytest.approx(2.0 ** (-1.0 / theta), abs=1e-3)

    def test_no_admissible_path(self):
        sol = solve_path(FGM(-0.5), GRID)
        assert all(p.boundary_attained for p in sol.points)
        with pytest.raises(NoAdmissiblePathError):
            star_indices(sol)

    def test_partially_flagged_path_is_a_precondition_error(self):
        good = solve_path(MarshallOlkin(A, B), GRID)
        flagged = list(good.points)
        flagged[2] = PathPoint(u=flagged[2].u, maximizers=flagged[2].maximizers,
                               pi_star=flagged[2].pi_star,
                               log_pi_star=flagged[2].log_pi_star,
                               boundary_attained=True, all_paths_maximal=False,
                               log_maximizers=flagged[2].log_maximizers)
        broken = PathSolution(u_grid=good.u_grid, points=tuple(flagged))
        with pytest.raises(ParameterError):
            star_indices(broken)

    def test_conservative_relative_to_diagonal(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            a, b = rng.uniform(0.05, 0.95, 2)
            cop = MarshallOlkin(a, b)
            kappa_d = classical_indices(cop, GRID).kappa
            kappa_s = star_indices(solve_path(cop, GRID)).kappa
            assert kappa_s <= kappa_d + 1e-6

    @pytest.mark.parametrize("cop", [MarshallOlkin(0.4, 0.4), FGM(0.5)])
    def test_starred_equals_classical_for_diagonal_families(self, cop):
        kappa_d = classical_indices(cop, GRID).kappa
        kappa_s = star_indices(solve_path(cop, GRID)).kappa
        assert kappa_s == pytest.approx(kappa_d, abs=1e-3)


class TestClosedFormKappaStar:
    @pytest.mark.parametrize("b,expected",
                             [(0.75, 1.5200), (0.5, 1.5862), (0.3529, 1.6471)])
    def test_reference_values(self, b, expected):
        assert closed_form_kappa_star(MarshallOlkin(A, b)) == pytest.approx(
            expected, abs=5e-5)
        assert closed_form_kappa_star(MixtureMO(A, b)) == pytest.approx(
            expected, abs=5e-5)

    def test_symmetric_reduction(self):
        assert closed_form_kappa_star(MarshallOlkin(0.4, 0.4)) == pytest.approx(1.6)

    def test_generalized_clayton(self):
        assert closed_form_kappa_star(GeneralizedClayton(0.04, 0.02)
                                      ) == pytest.approx(1.2, abs=1e-12)
        assert closed_form_kappa_star(GeneralizedClayton(0.7, 0.0)) == 1.0

    def test_remaining_families(self):
        assert closed_form_kappa_star(FGM(0.5)) == 2.0
        assert closed_form_kappa_star(FGM(-0.5)) is None
        assert closed_form_kappa_star(FGM(0.0)) is None
        assert closed_form_kappa_star(FrechetUpper()) == 1.0
        assert closed_form_kappa_star(Independence()) == 2.0
        assert closed_form_kappa_star(Archimedean(clayton_generator(1.0))) is None
        assert closed_form_kappa_star(MarshallOlkin(0.0, 0.0)) == 2.0


class TestCompare:
    def test_mixture_halves_the_maximal_probability(self):
        report = compare(MarshallOlkin(A, B), MixtureMO(A, B), GRID)
        assert report.verdict is Verdict.MORE_LTMD
        assert report.lambda_pair == pytest.approx(2.0, rel=0.02)
        assert report.chi_pair is None

    def test_self_comparison_is_neutral(self):
        report = compare(MarshallOlkin(A, B), MarshallOlkin(A, B), GRID)
        assert report.verdict is Verdict.EQUALLY_LTMD
        assert report.lambda_pair == pytest.approx(1.0, abs=1e-12)

    def test_weak_ordering_for_different_exponents(self):
        report = compare(FrechetUpper(), Independence(), GRID)
        assert report.verdict is Verdict.MORE_WLTMD
        assert report.lambda_pair is None
        assert report.chi_pair == pytest.approx(2.0 / 1.0 - 1.0, abs=1e-9)

    def test_single_copula_lambda_consistency(self):
        # comparing against the comonotone copula recovers the lambda limit
        cop = Archimedean(clayton_generator(2.0))
        report = compare(cop, FrechetUpper(), GRID)
        lam = star_indices(solve_path(cop, GRID)).lam
        assert report.lambda_pair == pytest.approx(lam, abs=1e-6)
        assert report.verdict is Verdict.LESS_LTMD  # 2^(-1/2) < 1

    def test_single_copula_chi_consistency(self):
        # comparing against independence recovers 2/kappa* - 1
        cop = MarshallOlkin(A, B)
        report = compare(cop, Independence(), GRID)
        kappa = star_indices(solve_path(cop, GRID)).kappa
        assert report.chi_pair == pytest.approx(2.0 / kappa - 1.0, abs=1e-9)

    def test_propagates_no_admissible_path(self):
        with pytest.raises(NoAdmissiblePathError):
            compare(FGM(-0.5), Independence(), GRID)

    def test_default_grid(self):
        report = compare(MarshallOlkin(A, B), MixtureMO(A, B))
        assert report.verdict is Verdict.MORE_LTMD


class TestSerialization:
    def test_tail_report_stable_field_names(self):
        rep = classical_indices(MarshallOlkin(A, B), GRID).to_json_dict()
        assert set(rep) == {"kappa", "lambda", "chi", "local_slopes",
                            "residual", "path_kind", "lambda_degenerate"}
        assert isinstance(rep["local_slopes"], list)

    def test_comparison_report_fields(self):
        rep = compare(MarshallOlkin(A, B), MixtureMO(A, B), GRID).to_json_dict()
        assert set(rep) == {"lambda_pair", "chi_pair", "verdict",
                            "kappa_1", "kappa_2"}
        assert rep["verdict"] == "more_ltmd"


class TestDefaultGrid:
    def test_shape_and_order(self):
        grid = default_u_grid(6, 1, 1)
        assert np.allclose(grid, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        fine = default_u_grid(3, 1, 2)
        assert len(fine) == 5 and fine[0] == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            default_u_grid(0, 1)
        with pytest.raises(ParameterError):
            default_u_grid(6, 0)
        with pytest.raises(ParameterError):
            default_u_grid(6, 1, 0)
