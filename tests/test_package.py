import condlogic


def test_every_exported_name_resolves():
    assert [name for name in condlogic.__all__ if not hasattr(condlogic, name)] == []
    assert len(condlogic.__all__) == len(set(condlogic.__all__))
