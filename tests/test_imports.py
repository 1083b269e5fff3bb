"""Every imported name in the package and the tests is used.

No linter ships with the project, so this parses each module with
``ast`` and fails on a name that an import binds but nothing references.
``__init__.py`` re-exports its imports and ``from __future__`` binds
nothing, so both are exempt.
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


def test_every_export_resolves():
    import driftchain

    assert [name for name in driftchain.__all__ if not hasattr(driftchain, name)] == []


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a.b import c, d as e\nimport x.y\nnp.zeros(c)\nx.y.z()\n")
    assert unused_imports(source) == ["line 2: os", "line 4: e"]
