"""The package imports only the standard library, and the declared
dependencies cover every third-party import."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(paths):
    """The top-level names of the absolute imports in the files."""
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported


def test_package_imports_only_the_standard_library():
    imported = imported_modules((ROOT / "src").rglob("*.py"))
    assert imported - set(sys.stdlib_module_names) - {"schottky_limits"} == set()


def test_dependencies_cover_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
        for req in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    local = {"schottky_limits", "conftest", "oracles"}
    local |= {p.stem for p in (ROOT / "tests").glob("test_*.py")}
    imported = imported_modules([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party <= declared, third_party - declared
