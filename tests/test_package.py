import types

import condlogic


def test_every_exported_name_resolves():
    assert [name for name in condlogic.__all__ if not hasattr(condlogic, name)] == []
    assert len(condlogic.__all__) == len(set(condlogic.__all__))


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(condlogic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(condlogic.__all__)) == []
