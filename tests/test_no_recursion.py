"""No function in the package calls itself.

Every recurrence is evaluated iteratively (``stern.halving`` and the
fence scan), so no input can hit Python's recursion limit.  This test
parses each module and fails on a function whose body calls its own
name, either directly or as a ``self.``/``cls.`` attribute.
"""

import ast
from pathlib import Path

import pytest

import hyperq

MODULES = sorted(Path(hyperq.__file__).parent.glob("*.py"))


def _self_calls(tree: ast.AST) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            direct = isinstance(f, ast.Name) and f.id == fn.name
            bound = (isinstance(f, ast.Attribute) and f.attr == fn.name
                     and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))
            if direct or bound:
                out.append(f"{fn.name} (line {node.lineno})")
    return out


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"stern.py", "hyperbinary.py", "fence.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _self_calls(tree) == []


def test_detector_sees_direct_and_bound_calls():
    src = (
        "def f(n):\n    return f(n - 1)\n"
        "class A:\n    def g(self):\n        return self.g()\n"
        "    @classmethod\n    def h(cls):\n        return cls.h()\n"
        "def k(x):\n    return x.k()\n"
    )
    assert [c.split()[0] for c in _self_calls(ast.parse(src))] == ["f", "g", "h"]
