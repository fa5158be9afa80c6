"""The package's ``__all__`` lists exactly its public names."""

import types

import cyclefree


def test_every_listed_name_resolves_once():
    assert len(set(cyclefree.__all__)) == len(cyclefree.__all__)
    for name in cyclefree.__all__:
        assert hasattr(cyclefree, name), name


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(cyclefree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(cyclefree.__all__)
