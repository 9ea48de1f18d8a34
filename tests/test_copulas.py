"""Tests for the copula families, axioms, survival transform and tau."""

import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taildep import (
    FGM,
    Archimedean,
    Clayton,
    ConfigError,
    FrechetUpper,
    GeneralizedClayton,
    Generator,
    GeneratorError,
    Independence,
    MarshallOlkin,
    MixtureMO,
    ParameterError,
    SurvivalCopula,
    UnsupportedMethodError,
    check_axioms,
    clayton_generator,
    copula_from_mapping,
    default_u_grid,
    pointwise_max,
    solve_path,
    star_indices,
    zeta_root,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracles import mp_cdf, mp_survival_cdf  # noqa: E402
from helpers import generator_without_proof  # noqa: E402

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
    Clayton(1.0),
    Clayton(2.0),
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

    @pytest.mark.parametrize("theta", [0.0, -1.0, float("nan"), float("inf")])
    def test_clayton(self, theta):
        with pytest.raises(ParameterError):
            Clayton(theta)

    @pytest.mark.parametrize("make,name", [
        (Clayton, "theta"),
        (lambda x: GeneralizedClayton(x, 0.3), "gamma0"),
        (lambda x: GeneralizedClayton(0.5, x), "gamma1")])
    def test_infinite_upper_bound_prints_an_open_bracket(self, make, name):
        with pytest.raises(ParameterError, match=rf"{name} must lie in "
                           r"[(\[]0\.0, inf\), got inf$"):
            make(math.inf)

    @pytest.mark.parametrize("bad", [True, "0.5", math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name,call", [
        ("level u", lambda x: pointwise_max(Independence(), x)),
        ("level u", lambda x: zeta_root(0.5, 0.3, x)),
        ("xtol", lambda x: zeta_root(0.5, 0.3, 0.1, xtol=x)),
        ("theta", clayton_generator),
        ("grid_n", lambda x: check_axioms(Independence(), grid_n=x)),
        ("tol", lambda x: check_axioms(Independence(), tol=x)),
    ])
    def test_scalar_arguments_are_finite_real_numbers(self, name, call, bad):
        with pytest.raises(ParameterError, match=f"^{name} must "):
            call(bad)

    def test_python_ints_and_numpy_scalars_are_numbers(self):
        assert FGM(np.float32(0.5)) == FGM(0.5)
        assert Clayton(np.int64(2)) == Clayton(2)
        assert zeta_root(np.float64(0.5), 0, np.float32(0.125)) == zeta_root(
            0.5, 0.0, 0.125)
        assert check_axioms(Independence(), grid_n=np.int64(4), tol=0).all_ok


def _oracle_spec(cop):
    """The family name and parameters of cop in perfbench's oracles; the
    Archimedean copulas here are Clayton-generated."""
    if isinstance(cop, Archimedean):
        return "clayton", dict(cop.generator.params)
    p = cop.params()
    return p.pop("family"), p


# and FGM as alpha -> -1, where 1 + alpha (1-u)(1-v) nears 0 for small u, v
ORACLE_FAMILIES = ALL_FAMILIES + [FGM(-0.999), FGM(1.0)]
ORACLE_CASES = ORACLE_FAMILIES + [c.survival() for c in ORACLE_FAMILIES]


class TestLogCdf:
    @pytest.mark.parametrize("cop", ORACLE_CASES, ids=_ids(ORACLE_CASES))
    def test_kernel_matches_mpmath(self, cop):
        # u, v log-uniform in [1e-10, 1], against C written out again in mpmath
        rng = np.random.default_rng(5)
        u, v = np.exp(rng.uniform(math.log(1e-10), 0.0, (2, 200)))
        survival = isinstance(cop, SurvivalCopula)
        oracle = mp_survival_cdf if survival else mp_cdf
        family, p = _oracle_spec(cop.base if survival else cop)
        with mpmath.workdps(50):
            exact = [oracle(family, p, x, y) for x, y in zip(u, v)]
            want_log = np.array([float(mpmath.log(c)) for c in exact])
            want = np.array([float(c) for c in exact])
        got_log, got = cop.log_cdf(u, v), cop.cdf(u, v)
        if survival and cop.base._log_survival is None:
            # the linear sum: a few ulp of 1 absolute, 0 at or below the floor
            np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-15)
            return
        np.testing.assert_allclose(got_log, want_log, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(got, want, atol=0.0,
                                   rtol=1e-14 if survival else 2e-14)

    @pytest.mark.parametrize(
        "cop", [MarshallOlkin(A, B), MixtureMO(A, B), GeneralizedClayton(0.04, 0.02),
                Clayton(2.0)]
    )
    def test_log_cdf_reaches_deep_tails(self, cop):
        # below double-precision underflow of the plain CDF
        u = 1e-8
        val = cop.log_cdf(u, u)
        assert np.isfinite(val)
        assert val < math.log(u)

    @pytest.mark.parametrize("cop", BOUNDARY_FAMILIES, ids=_ids(BOUNDARY_FAMILIES))
    def test_log_cdf_boundary_is_minus_inf(self, cop):
        assert cop.log_cdf(0.0, 0.5) == -math.inf
        assert cop.log_cdf(0.5, 0.0) == -math.inf
        out = cop.log_cdf(np.array([0.0, 0.5, 0.3]), np.array([0.4, 0.0, 0.6]))
        assert out[0] == out[1] == -math.inf
        assert out[2] == cop.log_cdf(0.3, 0.6)


_SHOCK = st.floats(0.0, 1.0)
_LOG_UNIFORM = st.floats(math.log(1e-10), 0.0).map(math.exp)


class TestTranspose:
    """MO(b, a) is MO(a, b) transposed, C(v, u), so their half-half mixture
    is symmetric in (u, v) and in (a, b), bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(a=_SHOCK, b=_SHOCK, u=_LOG_UNIFORM, v=_LOG_UNIFORM)
    def test_marshall_olkin_transpose_is_the_swapped_copula(self, a, b, u, v):
        assert MarshallOlkin(b, a).log_cdf(u, v) == MarshallOlkin(a, b).log_cdf(v, u)

    @settings(max_examples=300, deadline=None)
    @given(a=_SHOCK, b=_SHOCK, u=_LOG_UNIFORM, v=_LOG_UNIFORM)
    def test_mixture_is_symmetric(self, a, b, u, v):
        mix, swapped = MixtureMO(a, b), MixtureMO(b, a)
        for method in ("cdf", "log_cdf"):
            want = getattr(mix, method)(u, v)
            assert getattr(mix, method)(v, u) == want
            assert getattr(swapped, method)(u, v) == want


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
        assert ss is cop
        g = np.linspace(0.0, 1.0, 41)
        uu, vv = np.meshgrid(g, g)
        assert np.max(np.abs(ss.cdf(uu, vv) - cop.cdf(uu, vv))) <= 1e-12

    def test_params_wrap_base(self):
        p = MarshallOlkin(A, B).survival().params()
        assert p["family"] == "survival"
        assert p["base"]["a"] == A

    def test_compares_by_value(self):
        s1 = MarshallOlkin(0.3, 0.7).survival()
        s2 = MarshallOlkin(0.3, 0.7).survival()
        assert s1 is not s2
        assert s1 == s2 and hash(s1) == hash(s2)
        assert s1 != MarshallOlkin(0.7, 0.3).survival()
        assert s1 != MarshallOlkin(0.3, 0.7)
        assert repr(s1) == "SurvivalCopula(MarshallOlkin(a=0.3, b=0.7))"


def _log_survival_mp(cop, u, v) -> float:
    """log(u + v - 1 + C(1-u, 1-v)) at 60 digits, C written out again."""
    with mpmath.workdps(60):
        u, v = mpmath.mpf(u), mpmath.mpf(v)
        p, q = 1 - u, 1 - v
        if isinstance(cop, FrechetUpper):
            c = min(p, q)
        else:
            a, b = mpmath.mpf(cop.a), mpmath.mpf(cop.b)
            c = min(p ** (1 - a) * q, p * q ** (1 - b))
            if isinstance(cop, MixtureMO):
                c = (c + min(p ** (1 - b) * q, p * q ** (1 - a))) / 2
        return float(mpmath.log(u + v - 1 + c))


def _log_survival_closed_mp(cop, u, v) -> float:
    """log(u v + (1-u)(1-v) E) at 60 digits, E the shock excess of MO or the
    mixture, which does not cancel where u or v is tiny."""
    with mpmath.workdps(60):
        u, v = mpmath.mpf(u), mpmath.mpf(v)
        p, q = -mpmath.log1p(-u), -mpmath.log1p(-v)
        a, b = mpmath.mpf(cop.a), mpmath.mpf(cop.b)
        e = mpmath.expm1(min(a * p, b * q))
        if isinstance(cop, MixtureMO):
            e = (e + mpmath.expm1(min(a * q, b * p))) / 2
        return float(mpmath.log(u * v + (1 - u) * (1 - v) * e))


# shocks over [0, 1], the ends a fifth of the time each
_SHOCK_ENDS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
_EXACT_SURVIVAL = st.one_of(
    st.just(FrechetUpper()),
    st.builds(MarshallOlkin, _SHOCK_ENDS, _SHOCK_ENDS),
    st.builds(MixtureMO, _SHOCK_ENDS, _SHOCK_ENDS),
)


class TestExactSurvival:
    """The survival kernels of MO, the mixture and the comonotone copula
    (``_log_survival``), against mpmath."""

    @settings(max_examples=300, deadline=None)
    @given(cop=_EXACT_SURVIVAL,
           u=st.floats(math.log(1e-10), math.log(0.99)).map(math.exp),
           v=st.floats(math.log(1e-10), math.log(0.99)).map(math.exp))
    def test_kernel_matches_mpmath(self, cop, u, v):
        got = cop.survival().log_cdf(u, v)
        want = _log_survival_mp(cop, u, v)
        assert abs(got - want) <= 2e-15 * max(1.0, abs(want)), (cop, u, v)

    @pytest.mark.parametrize("cop", [
        FrechetUpper(), MarshallOlkin(A, B), MixtureMO(A, B),
        *[fam(a, b) for fam in (MarshallOlkin, MixtureMO)
          for a in (0.0, 1.0) for b in (0.0, B, 1.0)]], ids=repr)
    def test_corners_and_edges(self, cop):
        # C^(1, 1) = 1, C^(u, 1) = u, C^(1, v) = v and a zero is -inf, with
        # no RuntimeWarning (the suite makes warnings errors)
        s = cop.survival()
        assert s.log_cdf(1.0, 1.0) == 0.0
        assert s.log_cdf(0.3, 1.0) == s.log_cdf(1.0, 0.3) == math.log(0.3)
        out = s.log_cdf(np.array([0.0, 1.0, 0.0, 0.0, 0.5]),
                        np.array([1.0, 0.0, 0.0, 0.5, 0.5]))
        assert np.all(out[:4] == -math.inf)
        assert out[4] == s.log_cdf(0.5, 0.5)
        assert out[4] == pytest.approx(_log_survival_mp(cop, 0.5, 0.5),
                                       rel=1e-15)

    @pytest.mark.parametrize("cop", [MarshallOlkin(A, B), MixtureMO(A, B),
                                     MixtureMO(1.0, 0.2)], ids=repr)
    @pytest.mark.parametrize("v", [0.5, 1e-3, 1e-30, 1e-300, math.exp(-740)])
    def test_exact_below_the_normal_doubles(self, cop, v):
        # u = e^-37 down to e^-740, subnormal below e^-708: P = -log1p(-u)
        # loses digits there, and the kernel takes log P = log u instead
        u = np.exp(np.linspace(-37.0, -740.0, 120))
        got = cop.survival().log_cdf(u, np.full(u.size, v))
        want = np.array([_log_survival_closed_mp(cop, x, v) for x in u])
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("cop", [MarshallOlkin(A, B), MixtureMO(A, B)],
                             ids=repr)
    def test_exact_where_the_linear_sum_cancels(self, cop):
        # u + v - 1 + C(1-u, 1-v) is 0 in double precision at u = v = 1e-18;
        # cdf is the exp of the exact log
        u = 1e-18
        got = cop.survival().log_cdf(u, u)
        assert got == pytest.approx(_log_survival_mp(cop, u, u), rel=1e-15)
        assert cop.survival().cdf(u, u) == math.exp(got) > 0.0

    @pytest.mark.parametrize("family", [MarshallOlkin, MixtureMO])
    @pytest.mark.parametrize("a", [1e-250, 1e-270, 1e-280, 1e-290, 1e-292,
                                   1e-300, 1e-308, 1e-315, 1e-320])
    def test_exact_across_the_seam_of_the_excess(self, family, a):
        # for a from 1e-280 to 1e-292 the excess E crosses 2^-969 inside one
        # call, and each element takes the direct or the linearised formula
        # on its own side; u and v swapped too
        cop = family(a, 0.5)
        u = np.exp(np.linspace(-40.0, math.log(0.99), 200))
        v = np.full(u.size, 0.3)
        for x, y in ((u, v), (v, u)):
            got = cop.survival().log_cdf(x, y)
            want = np.array([_log_survival_closed_mp(cop, *xy)
                             for xy in zip(x, y)])
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (cop, x, y)

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.9, 1.0])
    def test_equal_mixture_is_marshall_olkin_bit_for_bit(self, a):
        # with a = b the mixture's survival kernel is survival MO(a, a)'s,
        # in the direct formula and in the linearised one, which an element
        # takes where its excess is below 2^-969 (the first, at lead -800)
        lu = np.linspace(-3.0, -0.01, 2000)
        for lead in (-1.0, -800.0):
            x, y = np.append(lead, lu), np.append(-1.0, lu[::-1])
            assert (MixtureMO(a, a)._log_survival(x, y).tobytes()
                    == MarshallOlkin(a, a)._log_survival(x, y).tobytes())


SURVIVALS = [c.survival() for c in ALL_FAMILIES]


class TestAxioms:
    @pytest.mark.parametrize("cop", ALL_FAMILIES + SURVIVALS,
                             ids=_ids(ALL_FAMILIES + SURVIVALS))
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
        for grid_n in (2.5, 4.0, True):
            with pytest.raises(ParameterError, match="grid_n"):
                check_axioms(Independence(), grid_n=grid_n)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_tol_validation(self, tol):
        with pytest.raises(ParameterError, match="tol"):
            check_axioms(Independence(), grid_n=4, tol=tol)


class TestKendallTau:
    @pytest.mark.parametrize(
        "b,expected",
        [(0.75, 0.3158), (0.5, 0.2609), (0.3529, 0.2143)],
    )
    def test_closed_form_matches_reference_values(self, b, expected):
        # reference values were printed from a slightly rounded a, hence 5e-4
        assert MarshallOlkin(A, b).tau() == pytest.approx(expected, abs=5e-4)

    def test_degenerate_corner(self):
        assert MarshallOlkin(0.0, 0.0).tau() == 0.0

    def test_closed_form_unsupported_elsewhere(self):
        with pytest.raises(UnsupportedMethodError):
            FGM(0.5).tau()


class TestGenerators:
    def test_clayton_generator_accepted(self):
        Archimedean(clayton_generator(0.5))
        Archimedean(clayton_generator(5.0))

    @pytest.mark.parametrize("theta", [0.0, -1.0, float("nan")])
    def test_clayton_theta_validated(self, theta):
        with pytest.raises(ParameterError):
            clayton_generator(theta)

    def test_handles_compare_by_identity(self):
        # two generators of one name are told apart, and so are their copulas
        g1, g2 = clayton_generator(1.0), clayton_generator(2.0)
        assert g1 != g2 and g1 == g1
        c1, c2 = Archimedean(g1), Archimedean(g2)
        assert c1 != c2 and c1 == Archimedean(g1)
        assert len({c1, c2}) == 2

    def test_params_tell_generators_apart(self):
        # the mapping names theta, and is no config: archimedean is not a family
        p1 = Archimedean(clayton_generator(1.0)).params()
        assert p1 != Archimedean(clayton_generator(2.0)).params()
        assert p1 == {"family": "archimedean", "generator": "clayton",
                      "theta": 1.0}
        with pytest.raises(ConfigError, match="unknown family 'archimedean'"):
            copula_from_mapping(p1)

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


def _log_clayton_mp(theta, u, v):
    """log C(u, v) of the Clayton copula in 40-digit arithmetic."""
    with mpmath.workdps(40):
        theta, u, v = (mpmath.mpf(x) for x in (theta, u, v))
        return float(mpmath.log((u ** -theta + v ** -theta - 1) ** (-1 / theta)))


class TestGeneralizedClaytonStructure:
    def test_gamma1_tilde(self):
        assert GeneralizedClayton(0.04, 0.02).gamma1_tilde == pytest.approx(0.06)

    @pytest.mark.parametrize("g0", [1e4, 1e8, 1e12, 1e16])
    def test_near_independence_matches_mpmath(self, g0):
        # as g0 grows the copula tends to independence: the small terms of
        # the shifted sum must survive next to its shift
        gc = GeneralizedClayton(g0, 0.0)
        for u, v in [(0.5, 0.3), (0.9, 0.01), (1e-5, 0.7), (1e-300, 0.2)]:
            want = _log_clayton_mp(1 / mpmath.mpf(g0), u, v)
            assert gc.log_cdf(u, v) == pytest.approx(want, rel=1e-15)
            assert gc.cdf(u, v) == pytest.approx(math.exp(want), rel=1e-15)

    def test_symmetric_case_equals_clayton(self):
        # gamma1 = 0 reduces to the Archimedean Clayton with theta = 1/gamma0
        g0 = 0.8
        gc = GeneralizedClayton(g0, 0.0)
        cl = Archimedean(clayton_generator(1.0 / g0))
        rng = np.random.default_rng(9)
        u = rng.uniform(0.01, 1.0, 100)
        v = rng.uniform(0.01, 1.0, 100)
        assert np.allclose(gc.cdf(u, v), cl.cdf(u, v), rtol=1e-12)


class TestClayton:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 5.0])
    def test_matches_the_archimedean_route(self, theta):
        g = np.linspace(0.0, 1.0, 41)
        uu, vv = np.meshgrid(g, g)
        got = Clayton(theta).cdf(uu, vv)
        want = Archimedean(generator_without_proof(theta)).cdf(uu, vv)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_the_generator_evaluates_the_clayton_kernel(self):
        rng = np.random.default_rng(15)
        thetas = np.exp(rng.uniform(math.log(0.01), math.log(200.0), 200))
        u, v = np.exp(rng.uniform(math.log(1e-300), 0.0, (2, 64)))
        for theta in thetas.tolist():
            got = Archimedean(clayton_generator(theta)).log_cdf(u, v)
            assert np.array_equal(got, Clayton(theta).log_cdf(u, v)), theta

    @pytest.mark.parametrize("theta", [40.0, 100.0])
    def test_the_generator_holds_lambda_star_where_psi_overflows(self, theta):
        cop = Archimedean(clayton_generator(theta))
        report = star_indices(solve_path(cop, default_u_grid(8)))
        assert abs(report.lam - 2.0 ** (-1.0 / theta)) <= 1e-9

    @pytest.mark.parametrize("theta", [1e-12, 1e-6, 0.5, 2.0, 10.0])
    def test_log_cdf_matches_mpmath(self, theta):
        for u, v in [(0.5, 0.3), (0.9, 0.01), (1e-5, 0.7), (1e-300, 0.2),
                     (1e-300, 1e-300)]:
            want = _log_clayton_mp(theta, u, v)
            assert Clayton(theta).log_cdf(u, v) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("u", [1e-3, 1e-100, 1e-300])
    def test_exact_in_the_tail(self, theta, u):
        # the diagonal is the maximal path, and log C(u, u) stays exact
        # where C(u, u) itself underflows
        point = pointwise_max(Clayton(theta), u)
        assert len(point.maximizers) == 1
        assert point.maximizers[0] == pytest.approx(u, rel=1e-6)
        want = _log_clayton_mp(theta, u, u)
        assert point.log_pi_star == pytest.approx(want, rel=1e-12)


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
