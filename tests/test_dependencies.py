"""The package imports only the standard library, numpy and itself;
scipy, mpmath and pytest-benchmark belong in tests and benches."""
import ast
import sys
from pathlib import Path

import opucz

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "opucz"}


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_stdlib_numpy_and_itself():
    sources = sorted(path for root in opucz.__path__
                     for path in Path(root).glob("**/*.py"))
    assert sources
    outside = {(path.name, name) for path in sources
               for name in _imports(path)
               if name.partition(".")[0] not in ALLOWED}
    assert not outside
