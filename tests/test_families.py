"""The contract every registered copula family keeps.

A family is one class in ``taildep.copulas`` plus one entry in ``EXAMPLES``
below; ``test_every_family_has_an_entry`` fails until both exist.
"""

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

from taildep import (
    Copula,
    MarshallOlkin,
    MixtureMO,
    ParameterError,
    UnsupportedMethodError,
    check_axioms,
    copula_from_mapping,
    default_u_grid,
    pointwise_max,
    solve_path,
    star_indices,
)
from taildep.cli import main
from taildep.copulas import FAMILIES
from taildep.risk import sample_pairs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import LOWER_TOL  # noqa: E402

# family -> (config parameters, relative tolerance to which the solver
# reproduces closed-form maximizers: kinks are located to rounding, smooth
# peaks only to about sqrt(eps / curvature), which grows as the level falls)
EXAMPLES = {
    "independence": ({}, None),
    "frechet_upper": ({}, 1e-10),
    "marshall_olkin": ({"a": 0.3529, "b": 0.75}, 1e-10),
    "mixture_mo": ({"a": 0.3529, "b": 0.75}, 1e-10),
    "fgm": ({"alpha": 0.5}, 1e-6),
    "generalized_clayton": ({"gamma0": 0.5, "gamma1": 0.3}, 1e-6),
    "clayton": ({"theta": 2.0}, 1e-6),
}
FAMILY_NAMES = sorted(FAMILIES)


def example(name):
    return copula_from_mapping({"family": name, **EXAMPLES[name][0]})


def test_every_family_has_an_entry():
    assert set(EXAMPLES) == set(FAMILIES)


@pytest.mark.parametrize("name", FAMILY_NAMES)
class TestFamilyContract:
    def test_params_round_trip(self, name):
        cop = example(name)
        assert cop.params()["family"] == name
        for printed in (cop, cop.survival()):
            assert copula_from_mapping(printed.params()) == printed

    def test_cli_builds_it_from_flags(self, name, capsys):
        flags = [f"--{k}={v!r}" for k, v in EXAMPLES[name][0].items()]
        code = main(["eval", "--family", name, *flags, "--u", "0.3", "--v", "0.5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["copula"] == example(name).params()

    @pytest.mark.parametrize("u", [1e-1, 1e-2])
    def test_maximizers_match_the_solver(self, name, u):
        # the survival copula's too, where its proven shape gives them
        cop, rtol = example(name), EXAMPLES[name][1]
        cops = [c for c in (cop, cop.survival()) if c.maximizers(u) is not None]
        if not cops:
            pytest.skip(f"no closed-form maximizers for {name}")
        for c in cops:
            known = c.maximizers(u)
            got = pointwise_max(c, u).maximizers
            assert len(got) == len(known)
            np.testing.assert_allclose(got, known, rtol=rtol)

    def test_kappa_star_matches_star_indices(self, name):
        cop = example(name)
        known = cop.kappa_star()
        if known is None:
            pytest.skip(f"no closed-form kappa* for {name}")
        kappa = star_indices(solve_path(cop, default_u_grid(8))).kappa
        assert abs(kappa - known) <= LOWER_TOL[name]["kappa_star"]

    @pytest.mark.parametrize("bad", [True, "0.5", math.nan, math.inf, -math.inf])
    def test_parameters_are_finite_real_numbers(self, name, bad):
        # a bool is not a number, nor is the text of one
        constructor, keys = FAMILIES[name]
        for key in keys:
            with pytest.raises(ParameterError, match=f"^{key} must lie in "):
                constructor(**{**EXAMPLES[name][0], key: bad})

    def test_sampler_draws_unit_pairs(self, name):
        cop = example(name)
        try:
            cop.sampler()
        except UnsupportedMethodError:
            pytest.skip(f"no sampler for {name}")
        for c in (cop, cop.survival()):
            u, v = sample_pairs(c, 1000, seed=1)
            assert u.shape == v.shape == (1000,)
            assert np.all((u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (v <= 1.0))


@pytest.mark.parametrize("cop", [MarshallOlkin(0.4, 0.4).survival(),
                                 MixtureMO(0.4, 0.4).survival()], ids=repr)
@pytest.mark.parametrize("u", [1e-1, 1e-3, 1e-8])
def test_a_proven_diagonal_survival_shape_gives_the_maximizers(cop, u):
    # with a = b the survival copula's proven shape is the diagonal, and the
    # maximizers follow from it
    known = cop.maximizers(u)
    assert known is not None
    np.testing.assert_allclose(pointwise_max(cop, u).maximizers, known,
                               rtol=1e-10, atol=0.0)


@dataclass(frozen=True)
class LogKernelOnly(Copula):
    """The independence copula given only by its log kernel, the least a
    new family defines."""

    family: ClassVar[str] = "log_kernel_only"

    def _log_cdf(self, lu, lv):
        return lu + lv


def test_a_log_kernel_is_a_whole_family():
    cop = LogKernelOnly()
    g = np.linspace(0.0, 1.0, 41)
    uu, vv = np.meshgrid(g, g)
    np.testing.assert_allclose(cop.cdf(uu, vv), uu * vv, rtol=1e-15, atol=0.0)
    assert check_axioms(cop).all_ok
    # independence is its own survival copula
    np.testing.assert_allclose(cop.survival().cdf(uu, vv), uu * vv,
                               rtol=0.0, atol=1e-15)
    point = pointwise_max(cop, 1e-3)
    assert point.all_paths_maximal
    assert point.pi_star == pytest.approx(1e-6, rel=1e-12)
    kappa = star_indices(solve_path(cop, default_u_grid(8))).kappa
    assert kappa == pytest.approx(2.0, abs=1e-12)


class DiagonalLogKernel(LogKernelOnly):
    """``LogKernelOnly`` with its proven shape declared: f(t) = 2 log u is
    constant, so the diagonal is a maximizer."""

    def shape(self):
        return "diagonal"


def test_a_diagonal_shape_implies_exchangeable():
    # the "diagonal" contract requires C(u, v) = C(v, u), so a family that
    # declares the shape need not declare exchangeable() too
    assert DiagonalLogKernel().exchangeable()
    assert not LogKernelOnly().exchangeable()


def test_a_class_without_kernels_names_them():
    class Bare(Copula):
        pass

    for evaluate in (Bare().cdf, Bare().log_cdf):
        with pytest.raises(NotImplementedError, match="_log_cdf"):
            evaluate(0.5, 0.5)
