"""The package imports nothing outside the standard library."""

import ast
import pathlib
import sys

import supercrystals

PACKAGE = pathlib.Path(supercrystals.__file__).parent


def test_every_absolute_import_is_in_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
