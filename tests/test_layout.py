"""Every public function of the package has a caller in the package.

A public function or method (its name has no leading underscore) passes
when `src/scorza` names it outside its own definition, when
`scorza/__init__.py` exports it, or when `perfbench/tracer.py` binds it in
`SPANS`. Helpers that only tests call belong in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scorza"


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_functions(trees) -> list:
    """(module, qualified name, name) of every public top-level function and
    public method of a top-level class."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((module, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                out += [(module, f"{node.name}.{f.name}", f.name) for f in node.body
                        if isinstance(f, ast.FunctionDef)]
    return [entry for entry in out if not entry[2].startswith("_")]


def _referenced(trees) -> set:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _exported(trees) -> set:
    return {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _traced() -> set:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets))
    return {path.split(".")[-1] for _, paths in spans.values() for path in paths}


def test_every_public_function_has_a_caller_in_the_package():
    trees = _trees()
    reached = _referenced(trees) | _exported(trees) | _traced()
    unreached = [f"{module}:{qualname}" for module, qualname, name in _public_functions(trees)
                 if name not in reached]
    assert unreached == []
