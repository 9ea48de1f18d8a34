"""The package namespace: each module's public names, re-exported once."""

import taildep
from taildep import config, copulas, errors, indices, paths, risk


def test_every_module_name_is_a_package_attribute_once():
    names = [name for module in (copulas, config, paths, indices, risk, errors)
             for name in module.__all__ if name != "FAMILIES"]
    assert len(names) == len(set(names))
    assert sorted(taildep.__all__) == sorted(names)
    for name in names:
        assert hasattr(taildep, name), name
    # the config grammar's registry stays in taildep.copulas
    assert not hasattr(taildep, "FAMILIES")
