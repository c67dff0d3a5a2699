"""Import hygiene: every module of the package uses each name it imports.

An unused import costs start-up time on every CLI run and hides which module
a name really belongs to. Names listed in a module's ``__all__`` count as
used, since re-exporting them is the reason for the import.
"""

import ast
import pathlib

import pytest

import communitylens

PACKAGE = pathlib.Path(communitylens.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb = 1\n", ["line 1: c"]),
    ("from __future__ import annotations\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import b\ndef f(x: b) -> None: ...\n", []),
])
def test_the_check_finds_what_it_should(source, unused):
    assert unused_imports(source) == unused
