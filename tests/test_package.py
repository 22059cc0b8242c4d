"""The public namespace: every exported name resolves, and a star import works."""

import sconcave


def test_every_exported_name_resolves():
    missing = [name for name in sconcave.__all__ if not hasattr(sconcave, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from sconcave import *", namespace)
    assert set(sconcave.__all__) <= set(namespace)
