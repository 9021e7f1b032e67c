"""The package's public surface."""

import srmlab


def test_every_exported_name_resolves_once():
    names = srmlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(srmlab, name)] == []
