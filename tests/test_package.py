"""The package is the pipeline, and the benchmark's lookups resolve against it.

A module-level public name of ``src/opens`` must be used by code elsewhere
in the package, or be named by the README or a file of the benchmark
harness in ``perfbench/``; so must a public method or property of one of
its classes. An independent check that only tests use belongs
in ``tests/oracles.py``. The benchmark's traced run looks functions up by
name, so a name it resolves that goes missing would break a traced run
without failing any other test.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import numpy as np

from opens.cft_boson import build_M_boson
from opens.core import Geometry, SymmetricCirculant

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "opens"
PERFBENCH = ROOT / "perfbench"


def _defined(stmt):
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(stmt):
    """The names a statement's code loads, bare or as an attribute."""
    return ({n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})


def test_every_public_name_serves_the_pipeline():
    # the __init__ re-exports do not count as uses
    stmts = [(path, stmt) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for stmt in ast.parse(path.read_text()).body]
    refs = [_referenced(stmt) for _, stmt in stmts]
    named = "".join(p.read_text() for p in [ROOT / "README.md", *sorted(PERFBENCH.glob("*.py"))])
    idle = [f"{path.name}:{name}" for k, (path, stmt) in enumerate(stmts) for name in _defined(stmt)
            if not name.startswith("_")
            and not any(name in r for j, r in enumerate(refs) if j != k)
            and not re.search(rf"\b{re.escape(name)}\b", named)]
    assert not idle, f"used by no command, module, README or perfbench (tests/oracles.py?): {idle}"


def _attribute_loads(node):
    """How often ``node``'s code loads each attribute name."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_public_member_serves_the_pipeline():
    # a method or property counts as used where the package loads it as an
    # attribute outside its own body, or where the README or perfbench
    # writes it as `.name`; a bare word would let "boson-mie" excuse `.mie`
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    loads = sum(map(_attribute_loads, trees), Counter())
    named = "".join(p.read_text() for p in [ROOT / "README.md", *sorted(PERFBENCH.glob("*.py"))])
    idle = [f"{cls.name}.{fn.name}" for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and loads[fn.name] == _attribute_loads(fn)[fn.name]
            and not re.search(rf"\.{re.escape(fn.name)}\b", named)]
    assert not idle, f"used by no command, module, README or perfbench (tests/oracles.py?): {idle}"


def test_the_benchmark_lookups_resolve(monkeypatch):
    # every span target of the traced run, as its installer looks it up
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = list(layers.targets())
    assert targets
    for name, (owner, attr) in targets:
        assert callable(getattr(owner, attr, None)), (name, owner, attr)
    # every opens name the harness imports
    imports = [(node.module, alias.name) for path in sorted(PERFBENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("opens")
               for alias in node.names]
    assert ("opens.cft_boson", "build_M_boson") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)
    # the vector:0 check expands the boson matrix densely
    M = build_M_boson(Geometry(10.0, 20.0, 120.0, 0.5, 3))
    assert isinstance(M, SymmetricCirculant)
    assert np.array_equal(M.dense(), SymmetricCirculant(M.row).dense())
