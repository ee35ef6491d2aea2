import ppav


def test_every_export_resolves():
    assert [name for name in ppav.__all__ if not hasattr(ppav, name)] == []
