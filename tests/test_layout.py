"""Every public function and constant of the package has a reader in the
package.

A public function, method or module-level constant (its name has no
leading underscore) passes when `src/scorza` reads it outside its own
definition, when `scorza/__init__.py` exports it, or when
`perfbench/tracer.py` binds it in `SPANS`. Helpers and values that only
tests read belong in the tests.

No value is written after it is built: `src/scorza` calls no
`object.__setattr__` and assigns into no `__dict__`, so no value keeps a
lazily written second form.
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


def _public_constants(trees) -> list:
    """(module, name) of every public name bound at the top of a module."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            out += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    return [entry for entry in out if not entry[1].startswith("_")]


def _referenced(trees) -> set:
    """Every name the package reads, so a binding alone does not count."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def test_every_public_constant_has_a_reader_in_the_package():
    trees = _trees()
    reached = _referenced(trees) | _exported(trees) | _traced()
    unread = [f"{module}:{name}" for module, name in _public_constants(trees)
              if name not in reached]
    assert unread == []


def _late_writes(tree) -> list:
    """Lines that write an attribute past a class's own protocol: calls of
    `object.__setattr__` and assignments into an object's `__dict__`."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"):
            out.append(node.lineno)
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        out += [t.lineno for t in targets if isinstance(t, ast.Subscript)
                and isinstance(t.value, ast.Attribute) and t.value.attr == "__dict__"]
    return out


def test_no_value_is_written_after_it_is_built():
    # an exact value keeps one form: no memo is written onto a built object
    writes = [f"{module}:{line}" for module, tree in _trees().items()
              for line in _late_writes(tree)]
    assert writes == []
