"""Tests for the copula families, axioms, survival transform and tau."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taildep import (
    FGM,
    Archimedean,
    FrechetUpper,
    GeneralizedClayton,
    Generator,
    GeneratorError,
    Independence,
    MarshallOlkin,
    MixtureMO,
    ParameterError,
    UnsupportedMethodError,
    check_axioms,
    clayton_generator,
    kendall_tau,
)

A, B = 0.3529, 0.75

ALL_FAMILIES = [
    Independence(),
    FrechetUpper(),
    MarshallOlkin(A, B),
    MarshallOlkin(0.4, 0.4),
    MixtureMO(A, B),
    FGM(-1.0),
    FGM(0.5),
    GeneralizedClayton(0.04, 0.02),
    GeneralizedClayton(0.5, 0.3),
    Archimedean(clayton_generator(1.0)),
    Archimedean(clayton_generator(2.0)),
]


# an exponent 1 - a or 1 - b of 0 meets log 0 at the boundary
BOUNDARY_FAMILIES = ALL_FAMILIES + [
    MarshallOlkin(1.0, B), MarshallOlkin(A, 1.0), MixtureMO(1.0, B)]


def _ids(cops):
    return [f"{c.family}-{i}" for i, c in enumerate(cops)]


class TestEval:
    def test_independence_point(self):
        assert Independence().cdf(0.3, 0.5) == pytest.approx(0.15, abs=1e-15)

    def test_marshall_olkin_closed_form_point(self):
        # direct evaluation of min(u^(1-a) v, u v^(1-b)) at a published point
        u, v = 0.04363, 0.22921
        direct = min(u ** (1 - A) * v, u * v ** (1 - B))
        cop = MarshallOlkin(A, B)
        assert cop.cdf(u, v) == pytest.approx(direct, rel=1e-14)
        assert cop.cdf(u, v) == pytest.approx(0.030189, abs=5e-6)
        # cross-check: at the exact maximizer the value is u^(2 - 2ab/(a+b))
        x0 = 0.1 ** (2 * B / (A + B))
        kappa_star = 2 - 2 * A * B / (A + B)
        assert cop.cdf(x0, 0.01 / x0) == pytest.approx(0.1 ** kappa_star, rel=1e-13)

    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
    def test_grounded_and_uniform_marginals(self, cop):
        us = np.linspace(0.0, 1.0, 11)
        assert np.allclose(cop.cdf(us, np.zeros_like(us)), 0.0, atol=1e-14)
        assert np.allclose(cop.cdf(np.zeros_like(us), us), 0.0, atol=1e-14)
        assert np.allclose(cop.cdf(us, np.ones_like(us)), us, atol=1e-12)
        assert np.allclose(cop.cdf(np.ones_like(us), us), us, atol=1e-12)

    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
    def test_frechet_bounds_on_random_points(self, cop):
        rng = np.random.default_rng(7)
        u = rng.uniform(0.0, 1.0, 200)
        v = rng.uniform(0.0, 1.0, 200)
        c = cop.cdf(u, v)
        assert np.all(c <= np.minimum(u, v) + 1e-12)
        assert np.all(c >= np.maximum(u + v - 1.0, 0.0) - 1e-12)

    def test_mixture_is_symmetric(self):
        cop = MixtureMO(A, B)
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 1.0, 100)
        v = rng.uniform(0.0, 1.0, 100)
        assert np.max(np.abs(cop.cdf(u, v) - cop.cdf(v, u))) <= 1e-15

    def test_scalar_in_scalar_out(self):
        out = MarshallOlkin(A, B).cdf(0.3, 0.4)
        assert isinstance(out, float)
        arr = MarshallOlkin(A, B).cdf(np.array([0.3, 0.5]), np.array([0.4, 0.2]))
        assert arr.shape == (2,)

    @pytest.mark.parametrize("bad", [(1.2, 0.5), (-0.1, 0.5), (0.3, float("nan")),
                                     (float("inf"), 0.5), (0.5, float("-inf"))])
    def test_rejects_points_outside_unit_square(self, bad):
        with pytest.raises(ParameterError):
            Independence().cdf(*bad)
        with pytest.raises(ParameterError):
            Independence().log_cdf(*bad)


class TestParameterValidation:
    @pytest.mark.parametrize("a,b", [(-0.1, 0.5), (0.5, 1.5), (float("nan"), 0.5)])
    def test_marshall_olkin(self, a, b):
        with pytest.raises(ParameterError):
            MarshallOlkin(a, b)
        with pytest.raises(ParameterError):
            MixtureMO(a, b)

    @pytest.mark.parametrize("alpha", [-1.01, 1.01, float("inf")])
    def test_fgm(self, alpha):
        with pytest.raises(ParameterError):
            FGM(alpha)

    @pytest.mark.parametrize("g0,g1", [(0.0, 0.1), (-1.0, 0.0), (0.5, -0.1)])
    def test_generalized_clayton(self, g0, g1):
        with pytest.raises(ParameterError):
            GeneralizedClayton(g0, g1)


class TestLogCdf:
    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
    def test_log_cdf_matches_cdf(self, cop):
        rng = np.random.default_rng(11)
        u = rng.uniform(0.01, 1.0, 50)
        v = rng.uniform(0.01, 1.0, 50)
        assert np.allclose(np.exp(cop.log_cdf(u, v)), cop.cdf(u, v), rtol=1e-12)

    @pytest.mark.parametrize(
        "cop", [MarshallOlkin(A, B), MixtureMO(A, B), GeneralizedClayton(0.04, 0.02)]
    )
    def test_log_cdf_reaches_deep_tails(self, cop):
        # below double-precision underflow of the plain CDF
        u = 1e-8
        val = cop.log_cdf(u, u)
        assert np.isfinite(val)
        assert val < math.log(u)

    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
    def test_log_kernel_matches_linear_cdf(self, cop):
        # the kernels take log coordinates; the reference is log C(u, v) in
        # linear space (the generalized Clayton has no linear-space _cdf of
        # its own, so its formula is written out here)
        rng = np.random.default_rng(23)
        u = rng.uniform(0.01, 0.9, 200)
        v = rng.uniform(0.01, 0.9, 200)
        if isinstance(cop, GeneralizedClayton):
            g0, g1 = cop.gamma0, cop.gamma1
            gt = g0 + g1
            ref = np.log(u ** (g1 / gt)
                         * (u ** (-1 / gt) + v ** (-1 / g0) - 1.0) ** -g0)
        else:
            ref = np.log(cop.cdf(u, v))
        got = cop._log_cdf(np.log(u), np.log(v))
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("cop", BOUNDARY_FAMILIES, ids=_ids(BOUNDARY_FAMILIES))
    def test_log_cdf_boundary_is_minus_inf(self, cop):
        assert cop.log_cdf(0.0, 0.5) == -math.inf
        assert cop.log_cdf(0.5, 0.0) == -math.inf
        out = cop.log_cdf(np.array([0.0, 0.5, 0.3]), np.array([0.4, 0.0, 0.6]))
        assert out[0] == out[1] == -math.inf
        assert out[2] == cop.log_cdf(0.3, 0.6)


class TestSurvival:
    def test_independence_self_dual(self):
        s = Independence().survival()
        assert s.cdf(0.3, 0.5) == pytest.approx(0.15, abs=1e-15)

    def test_frechet_upper_self_dual_on_diagonal(self):
        s = FrechetUpper().survival()
        for u in (0.1, 0.4, 0.9):
            assert s.cdf(u, u) == pytest.approx(u, abs=1e-15)

    def test_fgm_is_radially_symmetric(self):
        # algebra: u + v - 1 + C(1-u, 1-v) reduces to the FGM formula itself
        cop = FGM(0.7)
        s = cop.survival()
        g = np.linspace(0.0, 1.0, 50)
        uu, vv = np.meshgrid(g, g)
        assert np.max(np.abs(s.cdf(uu, vv) - cop.cdf(uu, vv))) < 1e-14

    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
    def test_involution(self, cop):
        ss = cop.survival().survival()
        g = np.linspace(0.0, 1.0, 41)
        uu, vv = np.meshgrid(g, g)
        assert np.max(np.abs(ss.cdf(uu, vv) - cop.cdf(uu, vv))) <= 1e-12

    def test_params_wrap_base(self):
        p = MarshallOlkin(A, B).survival().params()
        assert p["family"] == "survival"
        assert p["base"]["a"] == A


class TestAxioms:
    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
    def test_all_families_pass(self, cop):
        report = check_axioms(cop, grid_n=100, tol=1e-10)
        assert report.all_ok, report

    def test_fgm_boundary_parameter_passes(self):
        assert check_axioms(FGM(-1.0), grid_n=100, tol=1e-12).all_ok

    def test_marshall_olkin_tight_tolerance(self):
        assert check_axioms(MarshallOlkin(A, B), grid_n=100, tol=1e-12).all_ok

    def test_corrupted_fgm_fails_two_increasing(self):
        # negative control: force alpha past validation
        bad = FGM(1.0)
        object.__setattr__(bad, "alpha", 3.0)
        report = check_axioms(bad, grid_n=100, tol=1e-10)
        assert not report.two_increasing_ok
        assert report.min_rectangle_mass < 0.0
        u1, u2, v1, v2 = report.worst_rectangle
        assert 0.0 <= u1 < u2 <= 1.0 and 0.0 <= v1 < v2 <= 1.0
        assert not report.all_ok

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            check_axioms(Independence(), grid_n=1)


class TestKendallTau:
    @pytest.mark.parametrize(
        "b,expected",
        [(0.75, 0.3158), (0.5, 0.2609), (0.3529, 0.2143)],
    )
    def test_closed_form_matches_reference_values(self, b, expected):
        # reference values were printed from a slightly rounded a, hence 5e-4
        assert kendall_tau(MarshallOlkin(A, b)) == pytest.approx(expected, abs=5e-4)

    def test_degenerate_corner(self):
        assert kendall_tau(MarshallOlkin(0.0, 0.0)) == 0.0

    def test_closed_form_unsupported_elsewhere(self):
        with pytest.raises(UnsupportedMethodError):
            kendall_tau(FGM(0.5))


class TestGenerators:
    def test_clayton_generator_accepted(self):
        Archimedean(clayton_generator(0.5))
        Archimedean(clayton_generator(5.0))

    @pytest.mark.parametrize("theta", [0.0, -1.0, float("nan")])
    def test_clayton_theta_validated(self, theta):
        with pytest.raises(ParameterError):
            clayton_generator(theta)

    def test_nonzero_at_one_rejected(self):
        g = clayton_generator(1.0)
        bad = Generator("shifted", psi=lambda t: g.psi(t) + 0.1,
                        psi_prime=g.psi_prime, psi_second=g.psi_second,
                        psi_inv=g.psi_inv)
        with pytest.raises(GeneratorError) as err:
            Archimedean(bad)
        assert err.value.component == "psi"

    def test_increasing_generator_rejected(self):
        bad = Generator("rising", psi=lambda t: np.asarray(t) - 1.0,
                        psi_prime=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                        psi_second=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                        psi_inv=lambda s: np.asarray(s) + 1.0)
        with pytest.raises(GeneratorError) as err:
            Archimedean(bad)
        assert err.value.component == "psi_prime"

    def test_concave_generator_rejected(self):
        g = clayton_generator(1.0)
        bad = Generator("concave", psi=g.psi, psi_prime=g.psi_prime,
                        psi_second=lambda t: -np.asarray(g.psi_second(t)),
                        psi_inv=g.psi_inv)
        with pytest.raises(GeneratorError) as err:
            Archimedean(bad)
        assert err.value.component == "psi_second"

    def test_broken_inverse_rejected(self):
        g = clayton_generator(1.0)
        bad = Generator("badinv", psi=g.psi, psi_prime=g.psi_prime,
                        psi_second=g.psi_second,
                        psi_inv=lambda s: np.asarray(g.psi_inv(s)) * 1.01)
        with pytest.raises(GeneratorError) as err:
            Archimedean(bad)
        assert err.value.component == "psi_inv"


class TestGeneralizedClaytonStructure:
    def test_gamma1_tilde(self):
        assert GeneralizedClayton(0.04, 0.02).gamma1_tilde == pytest.approx(0.06)

    def test_symmetric_case_equals_clayton(self):
        # gamma1 = 0 reduces to the Archimedean Clayton with theta = 1/gamma0
        g0 = 0.8
        gc = GeneralizedClayton(g0, 0.0)
        cl = Archimedean(clayton_generator(1.0 / g0))
        rng = np.random.default_rng(9)
        u = rng.uniform(0.01, 1.0, 100)
        v = rng.uniform(0.01, 1.0, 100)
        assert np.allclose(gc.cdf(u, v), cl.cdf(u, v), rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.0, 1.0, allow_nan=False),
    b=st.floats(0.0, 1.0, allow_nan=False),
    u=st.floats(0.0, 1.0, allow_nan=False),
    v=st.floats(0.0, 1.0, allow_nan=False),
)
def test_marshall_olkin_frechet_bounds_property(a, b, u, v):
    c = MarshallOlkin(a, b).cdf(u, v)
    assert max(u + v - 1.0, 0.0) - 1e-12 <= c <= min(u, v) + 1e-12
