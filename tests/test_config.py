"""Tests for the plain-text copula config grammar."""

import pytest

from taildep import (
    Clayton,
    ConfigError,
    GeneralizedClayton,
    MarshallOlkin,
    ParameterError,
    copula_from_config,
    copula_from_mapping,
    parse_config,
)

MO_TEXT = """
# reference parameters
family = marshall_olkin
a = 0.3529   # asymmetry
b = 0.75
"""


def test_parse_basics():
    assert parse_config(MO_TEXT) == {"family": "marshall_olkin",
                                     "a": "0.3529", "b": "0.75"}


def test_full_round_trip():
    cop = copula_from_config(MO_TEXT)
    assert isinstance(cop, MarshallOlkin)
    assert cop.a == 0.3529 and cop.b == 0.75
    # params() re-enters the grammar unchanged
    again = copula_from_mapping(cop.params())
    assert again == cop


@pytest.mark.parametrize("text,fragment", [
    ("family marshall_olkin", "key = value"),
    ("family = marshall_olkin\nfamily = fgm", "duplicate"),
    ("family =", "empty"),
    ("= 0.3", "empty"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize("mapping", [
    {"family": "survival"},
    {"family": "survival", "base": "marshall_olkin"},
    {"family": "survival", "base": {"family": "fgm", "alpha": 0.5}, "a": 1},
])
def test_malformed_survival_config(mapping):
    with pytest.raises(ConfigError, match="survival config"):
        copula_from_mapping(mapping)


def test_unknown_family():
    with pytest.raises(ConfigError, match="unknown family"):
        copula_from_config("family = gumbel")


def test_missing_parameter():
    with pytest.raises(ConfigError, match="requires keys"):
        copula_from_config("family = marshall_olkin\na = 0.2")


def test_unexpected_key():
    with pytest.raises(ConfigError, match="unexpected keys"):
        copula_from_config("family = fgm\nalpha = 0.5\ntheta = 1")


def test_non_numeric_value():
    with pytest.raises(ConfigError, match="not a number"):
        copula_from_config("family = fgm\nalpha = huge")


def test_a_bool_is_not_a_number():
    # True would build a = 1.0, and params() would print it back as true
    with pytest.raises(ConfigError, match="not a number"):
        copula_from_mapping({"family": "marshall_olkin", "a": True, "b": 0.5})


def test_out_of_range_value_is_parameter_error():
    with pytest.raises(ParameterError):
        copula_from_config("family = fgm\nalpha = 3")


def test_every_family_constructible():
    texts = {
        "family = independence": "independence",
        "family = frechet_upper": "frechet_upper",
        "family = marshall_olkin\na = .2\nb = .9": "marshall_olkin",
        "family = mixture_mo\na = .2\nb = .9": "mixture_mo",
        "family = fgm\nalpha = -0.5": "fgm",
        "family = generalized_clayton\ngamma0 = 0.04\ngamma1 = 0.02":
            "generalized_clayton",
    }
    for text, family in texts.items():
        assert copula_from_config(text).family == family
    clayton = copula_from_config("family = clayton\ntheta = 2")
    assert isinstance(clayton, Clayton)
    assert clayton.params() == {"family": "clayton", "theta": 2.0}


def test_clayton_matches_generalized_form():
    cl = copula_from_config("family = clayton\ntheta = 1.25")
    gc = GeneralizedClayton(1.0 / 1.25, 0.0)
    assert cl.cdf(0.3, 0.7) == pytest.approx(gc.cdf(0.3, 0.7), rel=1e-13)
