"""The package's public names: each one listed once, and each one importable."""

import ast
import re
from collections import Counter
from pathlib import Path

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


def test_every_definition_is_read_somewhere_else():
    """Each def or class in the package (dunders aside) is named off its own line.

    A name counts as read where it occurs as a whole word in ``src/contina``
    or ``perfbench/*.py`` on any line but its definition's. Tests do not
    count: a definition that only tests read is dead code.
    """
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "contina").glob("*.py"))
    texts = {path: path.read_text(encoding="utf-8")
             for path in sources + sorted((root / "perfbench").glob("*.py"))}
    words = Counter(word for text in texts.values() for word in re.findall(r"\w+", text))
    unread = []
    for path in sources:
        lines = texts[path].splitlines()
        for node in ast.walk(ast.parse(texts[path])):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                own = re.findall(r"\w+", lines[node.lineno - 1]).count(node.name)
                if words[node.name] == own:
                    unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert unread == []
