"""Plain-text copula config grammar, shared by the library and the CLI.

One ``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored::

    family = marshall_olkin
    a = 0.3529
    b = 0.75

Recognized families and their parameter keys (``copulas.FAMILIES``):

==================== =====================
family               parameters
==================== =====================
independence         (none)
frechet_upper        (none)
marshall_olkin       a, b
mixture_mo           a, b
fgm                  alpha
generalized_clayton  gamma0, gamma1
clayton              theta
==================== =====================

The survival copula of any config is the mapping ``{"family": "survival",
"base": {...}}`` that ``Copula.params`` prints, so every printed config
re-enters the grammar; it nests, so it has no flat text form.  A parameter
in a mapping is a real number or its text; a bool is not a number.  An
``Archimedean`` on a custom generator carries Python callables and is
constructible in code only.
"""

from __future__ import annotations

from taildep.copulas import FAMILIES, Copula, _is_real
from taildep.errors import ConfigError

__all__ = ["parse_config", "copula_from_mapping", "copula_from_config"]


def parse_config(text: str) -> dict[str, str]:
    """Parse config text into a flat string mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _to_float(key: str, value) -> float:
    if _is_real(value):
        return float(value)
    try:
        return float(str(value))
    except ValueError as exc:
        raise ConfigError(f"value for {key!r} is not a number: {value!r}") from exc


def copula_from_mapping(mapping: dict) -> Copula:
    """Build a copula from a parsed config mapping, or from the nested
    mapping of a survival copula that ``Copula.params`` prints.

    Unknown keys and missing parameters raise :class:`ConfigError`;
    out-of-range values raise :class:`ParameterError` from the family
    constructor.
    """
    if "family" not in mapping:
        raise ConfigError("config is missing the 'family' key")
    family = str(mapping["family"]).strip().lower()
    if family == "survival":
        base = mapping.get("base")
        if set(mapping) != {"family", "base"} or not isinstance(base, dict):
            raise ConfigError("a survival config has the keys 'family' and "
                              "'base', and its 'base' is a copula mapping")
        return copula_from_mapping(base).survival()
    if family not in FAMILIES:
        known = ", ".join(sorted((*FAMILIES, "survival")))
        raise ConfigError(f"unknown family {family!r}; known families: {known}")

    constructor, wanted = FAMILIES[family]
    extra = set(mapping) - {"family", *wanted}
    if extra:
        raise ConfigError(
            f"unexpected keys for family {family!r}: {sorted(extra)}")
    missing = [k for k in wanted if k not in mapping]
    if missing:
        raise ConfigError(f"family {family!r} requires keys {missing}")
    return constructor(**{k: _to_float(k, mapping[k]) for k in wanted})


def copula_from_config(text: str) -> Copula:
    """Parse config text and build the copula it describes."""
    return copula_from_mapping(parse_config(text))
