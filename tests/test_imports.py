"""Every imported name is used, and no test name is defined twice.

No linter ships with the project, so this parses each module with
``ast`` and fails on a name that an import binds but nothing references.
``__init__.py`` re-exports its imports and ``from __future__`` binds
nothing, so both are exempt.  A second ``test_`` definition in one module
or class silently replaces the first, so the tests are scanned for those
too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "driftchain").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def duplicate_tests(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        seen = set()
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("test_"):
                if node.name in seen:
                    found.append(f"line {node.lineno}: {node.name}")
                seen.add(node.name)
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent.name == "tests"],
                         ids=lambda p: p.name)
def test_no_duplicate_test_names(path):
    assert duplicate_tests(path.read_text(encoding="utf-8")) == []


def test_every_export_resolves():
    import driftchain

    assert [name for name in driftchain.__all__ if not hasattr(driftchain, name)] == []


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a.b import c, d as e\nimport x.y\nnp.zeros(c)\nx.y.z()\n")
    assert unused_imports(source) == ["line 2: os", "line 4: e"]


def test_scan_finds_duplicate_tests():
    source = ("def test_a(): pass\ndef test_b(): pass\ndef test_a(): pass\n"
              "class TestX:\n    def test_a(self): pass\n    def test_c(self): pass\n"
              "    def test_c(self): pass\n    def helper(self): pass\n    def helper(self): pass\n")
    assert duplicate_tests(source) == ["line 3: test_a", "line 7: test_c"]
