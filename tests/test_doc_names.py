"""Every code name that README.md and the src/ docstrings put in backticks exists.

A backticked identifier, or each component of a dotted one, that is
CamelCase or holds an underscore must be a module attribute of the package,
an attribute of one of its classes, a parameter name in src/, or a function
or module-level name in tests/.  Fenced code blocks in README.md are not
scanned.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import supercrystals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "supercrystals"
# paper notation, not code: Z_r is the central element of degree r
ALLOWED = {"Z_r"}

_TICKED = re.compile(r"`+([^`]+?)`+")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_CODE_LIKE = re.compile(r"_|[a-z][A-Z]")


def _known_names():
    names = set(vars(supercrystals))
    for info in pkgutil.iter_modules(supercrystals.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"supercrystals.{info.name}")
        names.update(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                names.update(dir(value))
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                every = args.posonlyargs + args.args + args.kwonlyargs
                every += [a for a in (args.vararg, args.kwarg) if a is not None]
                names.update(a.arg for a in every)
    for path in (ROOT / "tests").glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _doc_texts():
    """(where, text) for README.md and every docstring under src/."""
    readme = (ROOT / "README.md").read_text()
    yield "README.md", re.sub(r"```.*?```", "", readme, flags=re.S)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', 'module')}", doc


def test_every_backticked_name_in_the_docs_exists():
    known = _known_names() | ALLOWED
    missing = set()
    for where, text in _doc_texts():
        for ticked in _TICKED.findall(text):
            if not _DOTTED.fullmatch(ticked):
                continue
            for name in ticked.split("."):
                if _CODE_LIKE.search(name) and name not in known:
                    missing.add((where, name))
    assert sorted(missing) == []
