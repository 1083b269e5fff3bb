"""Every imported name is used, and no test name is defined twice.

No linter ships with the project, so this parses each module, test and
benchmark script with ``ast`` and fails on a name that an import binds but
nothing references.
``__init__.py`` re-exports its imports and ``from __future__`` binds
nothing, so both are exempt.  A second ``test_`` definition in one module
or class silently replaces the first, so the tests are scanned for those
too.  The benchmark scripts under ``bench/`` are not imported by any
test, so the driftchain names they use are resolved here: deleting a name
only they need would otherwise pass every other test.  Likewise every
driftchain name the README cites must resolve, so the documentation cannot
keep naming a deleted function, and its `run.cfg` key table must name
exactly the run keys, each with ``RunConfig``'s default.  The benchmark's own
self-test is run too, since a name that resolves can still be called in a
way that no longer works.  Last, ``csr.py`` must be the one package module
that imports scipy, at module level or inside a function, only the modules
that read or write quoted text import csv, ``cli.py`` and ``__init__.py``
may load at import only the standard library, click and ``errors``,
only ``cli.py``, at module level, may write the process environment, and
only ``textio`` and ``ingest`` may open a file to read it.
"""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "driftchain").glob("*.py"), *(ROOT / "tests").glob("*.py")])
BENCH_SCRIPTS = sorted((ROOT / "bench").glob("*.py"))
PACKAGE_MODULES = {p.stem for p in (ROOT / "src" / "driftchain").glob("*.py")} - {"__init__"}


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


@pytest.mark.parametrize("path",
                         [p for p in [*MODULES, *BENCH_SCRIPTS] if p.name != "__init__.py"],
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


def imports_of(source: str, package: str) -> list[str]:
    """Each line of ``source`` that imports ``package``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == package for m in modules):
            found.append(f"line {node.lineno}")
    return found


def test_only_csr_imports_scipy():
    # ``csr`` loads scipy's compiled product loops by path, without the
    # package, and imports ``scipy.sparse`` only in ``Csr._scipy`` (``tocsr()``
    # and indexing), which no command calls.
    importers = [p.name for p in MODULES if p.parent.name == "driftchain"
                 and imports_of(p.read_text(encoding="utf-8"), "scipy")]
    assert importers == ["csr.py"]


def test_only_quoted_text_modules_import_csv():
    # Numeric tables are read by numpy's C reader through ``textio``; only
    # the modules that read or write quoted text fields may parse rows with csv.
    importers = [p.name for p in MODULES if p.parent.name == "driftchain"
                 and imports_of(p.read_text(encoding="utf-8"), "csv")]
    assert importers == ["bayes.py", "ingest.py", "synth.py"]


START_UP_PACKAGES = {*sys.stdlib_module_names, "click"}


def start_up_imports(source: str) -> list[str]:
    """Each import that runs when ``source`` is imported and loads more than
    the standard library, click or the package's ``errors`` module.  Imports
    in a function body run only when it is called, and those under
    ``if TYPE_CHECKING:`` never run."""
    found = []
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            nodes += node.orelse
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = ["." + (node.module or "") if node.level else node.module]
        else:
            nodes += ast.iter_child_nodes(node)
            continue
        if any(m != ".errors" and m.split(".")[0] not in START_UP_PACKAGES for m in modules):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("name", ["cli.py", "__init__.py"])
def test_dispatch_imports_only_click(name):
    # `--help`, usage errors and shell completion run these two modules
    # alone, so numpy and the pipeline load only in the commands that use them.
    source = (ROOT / "src" / "driftchain" / name).read_text(encoding="utf-8")
    assert start_up_imports(source) == []


def test_scan_finds_start_up_imports():
    source = ("from __future__ import annotations\nimport sys, click\nfrom .errors import E\n"
              "import numpy as np\nfrom . import ulam\nfrom .grid import g\n"
              "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import scipy\n"
              "try:\n    import numpy.linalg\nexcept ImportError:\n    pass\n"
              "def f():\n    import numpy\n")
    assert start_up_imports(source) == ["line 4", "line 5", "line 6", "line 11"]


#: Methods of ``os.environ`` that change it.
ENVIRON_WRITERS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__",
                   "__delitem__"}


def is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os") \
        or (isinstance(node, ast.Name) and node.id == "environ")


def environ_writes(source: str) -> list[tuple[int, bool]]:
    """Each line of ``source`` that writes the process environment, and
    whether it runs at import: outside every function, lambda and class body."""
    found = []

    def visit(node, at_import):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            at_import = False
        stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        call = node.func if isinstance(node, ast.Call) else None
        if (stored and is_environ(node)) \
                or (stored and isinstance(node, ast.Subscript) and is_environ(node.value)) \
                or (isinstance(call, ast.Attribute) and (
                    (is_environ(call.value) and call.attr in ENVIRON_WRITERS)
                    or (isinstance(call.value, ast.Name) and call.value.id == "os"
                        and call.attr in ("putenv", "unsetenv")))):
            found.append((node.lineno, at_import))
        for child in ast.iter_child_nodes(node):
            visit(child, at_import)

    visit(ast.parse(source), True)
    return found


def test_only_cli_writes_the_environment():
    # Importing the library leaves its caller's environment alone; the CLI
    # owns its process and sets its defaults before any command runs.
    writes = {p.name: environ_writes(p.read_text(encoding="utf-8"))
              for p in MODULES if p.parent.name == "driftchain"}
    assert [name for name, found in writes.items() if found] == ["cli.py"]
    assert all(at_import for _, at_import in writes["cli.py"])


def test_scan_finds_environ_writes():
    source = ("import os\nfrom os import environ\nos.environ.setdefault('A', '1')\n"
              "x = os.environ.get('A')\nif x:\n    os.environ['B'] = x\n"
              "def f():\n    del environ['B']\n    os.putenv('C', '1')\n"
              "class K:\n    g = lambda: os.environ.update(D='1')\n"
              "os.environ = {}\nprint(os.environ['A'])\n")
    assert environ_writes(source) == [(3, True), (6, True), (8, False), (9, False),
                                      (11, False), (12, True)]


def file_reads(source: str) -> list[int]:
    """Each line of ``source`` that opens a file to read it: a call of ``open``,
    ``io.open`` or a path's ``.open`` whose mode is not a write-only constant,
    or of a ``.read_text`` or ``.read_bytes`` method (``textio.read_text`` is
    the one reader the rule allows)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        owner = f.value.id if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
            else None
        if isinstance(f, ast.Attribute) and f.attr in ("read_text", "read_bytes"):
            if owner != "textio":
                found.append(node.lineno)
            continue
        if not ((isinstance(f, ast.Name) and f.id == "open")
                or (isinstance(f, ast.Attribute) and f.attr == "open" and owner != "os")):
            continue
        # builtin and io.open take the path first; a path's .open takes the mode first
        at = 0 if isinstance(f, ast.Attribute) and owner != "io" else 1
        mode = node.args[at] if len(node.args) > at else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        text = mode.value if isinstance(mode, ast.Constant) else "r"
        if not (any(c in text for c in "wax") and "+" not in text):
            found.append(node.lineno)
    return sorted(found)


def test_only_textio_and_ingest_open_files_to_read():
    # Every input is decoded by one rule, textio.read_text; ingest streams the
    # trajectory file and falls back to that rule to name an undecodable line.
    readers = [p.name for p in MODULES if p.parent.name == "driftchain"
               and file_reads(p.read_text(encoding="utf-8"))]
    assert readers == ["ingest.py", "textio.py"]


def test_scan_finds_file_reads():
    source = ("import io, os\nfrom pathlib import Path\nfrom . import textio\n"
              "open(p)\nopen(p, 'w')\nopen(p, mode='rb')\nopen(p, 'a', encoding='utf-8')\n"
              "def f(p, m):\n    with open(p, 'r+') as fh:\n        pass\n    open(p, m)\n"
              "io.open(p)\nio.open(p, 'x')\nPath(p).open()\nPath(p).open('w')\n"
              "p.read_text(encoding='utf-8')\np.read_bytes()\ntextio.read_text(p)\n"
              "p.write_text('x')\nos.open(p, os.O_RDONLY)\nfh.read()\n")
    assert file_reads(source) == [4, 6, 9, 11, 12, 14, 16, 17]


def test_scan_finds_scipy_imports():
    source = ("import numpy as np\nfrom .scipy import x\nimport scipyx\n\ndef f():\n"
              "    import scipy.sparse\n    from scipy import linalg\n")
    assert imports_of(source, "scipy") == ["line 6", "line 7"]


def test_every_export_resolves():
    import driftchain

    assert [name for name in driftchain.__all__ if not hasattr(driftchain, name)] == []
    star = {}
    exec("from driftchain import *", star)
    assert [name for name in driftchain.__all__ if name not in star] == []
    exec("from driftchain import absorb", star)
    assert star["absorb"] is sys.modules["driftchain.absorb"]
    assert set(driftchain.__all__) <= set(dir(driftchain))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        driftchain.no_such_name


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a.b import c, d as e\nimport x.y\nnp.zeros(c)\nx.y.z()\n")
    assert unused_imports(source) == ["line 2: os", "line 4: e"]


def test_scan_finds_duplicate_tests():
    source = ("def test_a(): pass\ndef test_b(): pass\ndef test_a(): pass\n"
              "class TestX:\n    def test_a(self): pass\n    def test_c(self): pass\n"
              "    def test_c(self): pass\n    def helper(self): pass\n    def helper(self): pass\n")
    assert duplicate_tests(source) == ["line 3: test_a", "line 7: test_c"]


def driftchain_names(source: str) -> dict[str, int]:
    """Each driftchain name a script imports or reads as ``imported.attr``, with its line."""
    tree = ast.parse(source)
    imported, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "driftchain":
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                names.setdefault(f"{node.module}.{alias.name}", node.lineno)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "driftchain":
                    imported[alias.asname or alias.name] = alias.name
                    names.setdefault(alias.name, node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in imported:
            names.setdefault(f"{imported[node.value.id]}.{node.attr}", node.lineno)
    return names


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain on the longest module prefix."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("path", BENCH_SCRIPTS, ids=lambda p: p.name)
def test_bench_uses_only_existing_names(path):
    names = driftchain_names(path.read_text(encoding="utf-8"))
    assert [f"line {line}: {name}" for name, line in names.items() if not resolves(name)] == []


def test_bench_scan_finds_traced_names():
    names = driftchain_names((ROOT / "bench" / "traced.py").read_text(encoding="utf-8"))
    for name in ("absorb.save_chain", "absorb.load_chain", "ulam.compose_annual",
                 "ulam.push_forward", "paths.most_probable_path", "spectral._GUARD_VECTORS",
                 "schedule.SeasonalSchedule", "grid.StateRoles"):
        assert f"driftchain.{name}" in names, name


def test_bench_scan_reports_missing_names():
    source = ("import driftchain.grid as dg\nfrom driftchain import absorb, gone\n"
              "from driftchain.ingest import Season\nabsorb.save_chain()\nabsorb.vanished\n"
              "Season.W\nSeason.Q\ndg.build_grid\nnp.absorb\n")
    names = driftchain_names(source)
    assert sorted(names) == sorted([
        "driftchain.grid", "driftchain.gone", "driftchain.absorb", "driftchain.ingest.Season",
        "driftchain.absorb.save_chain", "driftchain.absorb.vanished",
        "driftchain.ingest.Season.W", "driftchain.ingest.Season.Q", "driftchain.grid.build_grid"])
    assert [name for name in names if not resolves(name)] == [
        "driftchain.gone", "driftchain.absorb.vanished", "driftchain.ingest.Season.Q"]


#: Suffixes that make a backtick span a file name (`cli.py`, `grid.cfg`), not a name.
FILE_SUFFIXES = {".py", ".cfg", ".csv", ".txt", ".json", ".geojson"}

_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def readme_names(text: str) -> dict[str, int]:
    """Each driftchain name a markdown text cites, with the first line citing it.

    An inline backtick span cites a name when it starts with a package module
    and a dot, or with ``driftchain.``: `ulam.propagate`, `ulam.save_matrix(tm,
    path)` and `driftchain.csr.Csr` cite ``driftchain.ulam.propagate``,
    ``driftchain.ulam.save_matrix`` and ``driftchain.csr.Csr``; a file name
    such as `cli.py` cites none.  A fenced ``python`` block is read as code by
    :func:`driftchain_names`; other fenced blocks are skipped.
    """
    names: dict[str, int] = {}

    def code(fence: re.Match) -> str:
        fence_line = text.count("\n", 0, fence.start()) + 1
        if fence[1] == "python":
            for name, line in driftchain_names(fence[2]).items():
                names.setdefault(name, fence_line + line)
        return "\n" * fence[0].count("\n")  # keeps the line numbers after the block

    prose = _FENCE.sub(code, text)
    for span in re.finditer(r"`([^`]+)`", prose):
        m = re.match(r"(driftchain\.)?(\w+)((?:\.[A-Za-z_]\w*)*)", span[1])
        if m and m[2] in PACKAGE_MODULES and (m[1] or m[3]) \
                and Path(span[1]).suffix not in FILE_SUFFIXES:
            names.setdefault(f"driftchain.{m[2]}{m[3]}", prose.count("\n", 0, span.start()) + 1)
    return names


def test_readme_cites_only_existing_names():
    names = readme_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "driftchain.ulam.propagate" in names and "driftchain.csr.Csr" in names
    assert [f"line {line}: {name}" for name, line in names.items() if not resolves(name)] == []


def test_readme_scan_reports_missing_names():
    text = ("Call `ulam.propagate` or `grid.gone(x, y)`; `cli.py` reads `grid.cfg`,\n"
            "`driftchain.csr.Csr` and `driftchain.errors`, not `grid` or `Season.W`.\n"
            "```sh\nls `grid.nothing`\n```\n"
            "```python\nfrom driftchain import ulam\nulam.vanished()\n```\n"
            "Then `ingest.MONTH_SEASONS.nope`.\n")
    names = readme_names(text)
    assert names == {"driftchain.ulam.propagate": 1, "driftchain.grid.gone": 1,
                     "driftchain.csr.Csr": 2, "driftchain.errors": 2, "driftchain.ulam": 7,
                     "driftchain.ulam.vanished": 8, "driftchain.ingest.MONTH_SEASONS.nope": 10}
    assert sorted(name for name in names if not resolves(name)) == [
        "driftchain.grid.gone", "driftchain.ingest.MONTH_SEASONS.nope",
        "driftchain.ulam.vanished"]


def run_key_table_faults(text: str) -> list[str]:
    """Where the `run.cfg` key table of a README disagrees with ``config``.

    The table is the first after the ``### Run configuration`` heading.  A
    row's first cell names its keys and its last cell their defaults, each
    in backticks; a last cell that does not open with one, such as
    "required by `build`", stands for None.
    """
    from dataclasses import fields

    from driftchain.config import _RUN_KEYS, RunConfig

    section = text[text.index("### Run configuration"):]
    table = re.search(r"^\|.*\n(?:\|.*\n)*", section, re.M)[0].splitlines()[2:]
    defaults = {f.name: f.default for f in fields(RunConfig)}
    faults, seen = [], []
    for row in table:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        keys = re.findall(r"`(\w+)`", cells[0])
        given = re.findall(r"`([^`]*)`", cells[-1]) if cells[-1].startswith("`") else []
        seen += keys
        if given and len(given) != len(keys):
            faults.append(f"{', '.join(keys)}: {len(given)} defaults for {len(keys)} keys")
        for key, value in zip(keys, given or [None] * len(keys)):
            if key not in _RUN_KEYS:
                faults.append(f"unknown key {key!r}")
            elif (None if value is None else _RUN_KEYS[key](value)) != defaults[key]:
                faults.append(f"{key}: README default {value}, RunConfig {defaults[key]}")
    faults += [f"missing key {key!r}" for key in _RUN_KEYS if key not in seen]
    return faults


def test_readme_run_key_table_matches_config():
    assert run_key_table_faults((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_readme_run_key_scan_reports_faults():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    row = next(line for line in text.splitlines() if line.startswith("| `window_steps`"))
    assert run_key_table_faults(text.replace(row + "\n", "")) == ["missing key 'window_steps'"]
    assert run_key_table_faults(text.replace(row, row.replace("window_steps", "window"))) == [
        "unknown key 'window'", "missing key 'window_steps'"]
    assert run_key_table_faults(text.replace("| `0.95` |", "| `0.9` |")) == [
        "cpi_level: README default 0.9, RunConfig 0.95"]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The "Library use" block as written, on tracks that drift east along its
    # one-row grid into box 3, so that box 3 beaches within the 7 steps observed.
    import numpy as np

    from driftchain.ingest import Season
    from driftchain.synth import SyntheticSpec, simulate_tracks, write_tracks_csv

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = _FENCE.search(text, text.index("## Library use"))
    assert block[1] == "python"
    east = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0],
                     [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 1.0]])
    spec = SyntheticSpec(bounds=(40.0, 44.0, -30.0, -29.0), cell_size=1.0,
                         kernels=dict.fromkeys(Season, east), n_drifters=50,
                         duration_days=60.0, seed=1)
    monkeypatch.chdir(tmp_path)
    write_tracks_csv(simulate_tracks(spec), "trajectories.csv")
    exec(compile(block[2], "README.md", "exec"), {})
    c_max, interval = capsys.readouterr().out.rstrip("\n").split(" ", 1)
    assert c_max in {"0", "1"}
    assert interval == "(-29.5, -29.5)"


def test_bench_selftest_passes():
    # Runs the benchmark's pipeline, traced and untraced, at a tiny size; it
    # writes only under the git-ignored .bench_tmp/ and removes what it made.
    r = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.splitlines()[-1] == "selftest passed"
