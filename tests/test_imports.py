"""Import hygiene: no library module imports a name it never uses.

`__init__.py` is skipped, since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import chaintop

MODULES = sorted(p for p in Path(chaintop.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import json\nfrom .errors import ParseError, SchemaError\nraise SchemaError\n") == [
        "ParseError",
        "json",
    ]
    assert unused_imports("import json\njson.dumps\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
