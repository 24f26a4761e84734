"""The package imports only the standard library, no process pool on import, and
the tensor-rule oracle nothing of the package but `weights`."""

import ast
import os
import pathlib
import subprocess
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


def test_importing_the_cli_loads_no_process_pool():
    # a run in one process never shards, so the pool is imported on first use
    code = (
        "import sys; import supercrystals.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_tensor_rule_oracle_imports_no_package_module_but_weights():
    # the oracle is checked against the signature rule, so it must not come
    # to borrow that rule (or anything else of the package) to compute
    path = PACKAGE / "tensorrule.py"
    package = PACKAGE.name
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join([package] + ([base] if base else []))
            # `from package import name` may import a module by its name
            dotted = [base] if base != package else [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        modules.update(name for name in dotted if name.split(".")[0] == package)
    assert modules == {f"{package}.weights"}
