"""The package's public names: each one listed once, and each one importable."""

import contina


def test_every_public_name_resolves():
    missing = [name for name in contina.__all__ if not hasattr(contina, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(set(contina.__all__)) == len(contina.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from contina import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(contina.__all__)
