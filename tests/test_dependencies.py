"""Every third-party module the package imports is a declared dependency,
every name a package module imports is used there, every Python file
keeps to the oldest grammar `requires-python` admits, and the benchmark's
span targets name what the program has."""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "handgrasp"


def _declared() -> set[str]:
    """The names in pyproject.toml `[project].dependencies`, lower-cased with
    `-` read as `_`: each declared distribution imports under that name."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one array by hand
        array = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
        specs = re.findall(r'"([^"]+)"', array.group(1))
    else:
        specs = tomllib.loads(text)["project"]["dependencies"]
    return {re.match(r"[\w.-]+", spec).group(0).lower().replace("-", "_") for spec in specs}


def _top_level_imports(path: Path) -> set[str]:
    """Every absolute import in the module, function-level ones included."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_declared_in_pyproject():
    declared = _declared()
    third_party: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = _top_level_imports(path) - set(sys.stdlib_module_names) - {"handgrasp"}
        if names:
            third_party[path.name] = names
    assert set().union(*third_party.values()) == {"numpy", "orjson"}
    undeclared = {name: sorted(names - declared) for name, names in third_party.items() if names - declared}
    assert undeclared == {}


def test_the_import_scan_sees_imports_inside_functions(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "import numpy as np\nfrom os import path\nfrom . import sibling\n\n\n"
        "def late():\n    import scipy.special\n    from orjson import loads\n"
    )
    assert _top_level_imports(source) == {"numpy", "os", "scipy", "orjson"}


def _unused_imports(path: Path) -> list[str]:
    """Names the module imports, at any level, and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used_in_its_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unused = {path.name: names for path in modules if (names := _unused_imports(path))}
    assert unused == {}


def test_every_python_file_parses_with_the_oldest_supported_grammar():
    """`requires-python` is >=3.10, so no file may use later syntax such as
    `except*`, `type X = ...` or PEP 695 generics. This checks grammar only:
    a standard-library name that 3.10 lacks (`tomllib`) still parses."""
    files = [path for top in ("src", "tests", "bench") for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 30
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _span_targets() -> tuple[tuple[str, str, str], ...]:
    """`TARGETS` of `bench/spans.py`, read from its source."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no TARGETS")


def test_benchmark_span_targets_resolve_but_for_the_two_known_stale_ones():
    """`Tracer.install` skips a target the program no longer has, and its
    layer then reads 0; a rename must fail here instead. Resolved as
    `install` resolves them: import the module, walk the attribute path, and
    look the last name up in its owner's own `__dict__`."""
    unresolved = set()
    for module_name, path, name in _span_targets():
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            unresolved.add(name)
            continue
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or owner.__dict__.get(attr) is None:
            unresolved.add(name)
    # palm_frame is gone from the program; repairing the benchmark retargets these
    assert unresolved == {"sim.palm_frame", "engine.palm_frame"}
