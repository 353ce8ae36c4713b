"""The package imports nothing outside the standard library and itself, and
the trace auditor loads none of the simulator it audits."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "btwifi"


def foreign_imports(path):
    """The imports of one file that leave the standard library or btwifi.

    An absolute import must name a standard-library module; a relative one
    must stay inside the package, which is flat, so it has one dot.
    """
    bad = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            bad += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                    if alias.name.partition(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level > 1 or (node.level == 0 and module.partition(".")[0]
                                  not in sys.stdlib_module_names):
                bad.append(f"{path.name}:{node.lineno}: {'.' * node.level}{module}")
    return bad


def test_every_import_is_stdlib_or_inside_the_package():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    assert [bad for path in files for bad in foreign_imports(path)] == []


def test_the_check_flags_a_third_party_and_an_escaping_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json, numpy.linalg\nfrom .. import outside\n"
                    "from . import engine\nfrom .medium import CLEAN\n"
                    "from __future__ import annotations\nfrom yaml import load\n")
    assert foreign_imports(path) == ["mod.py:1: numpy.linalg", "mod.py:2: ..",
                                     "mod.py:6: yaml"]


def btwifi_modules_loaded_by(module):
    """The btwifi modules that importing module loads in a fresh interpreter."""
    code = (f"import sys, {module}; "
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'btwifi'))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.split())


def test_the_auditor_loads_none_of_the_simulator():
    assert btwifi_modules_loaded_by("btwifi.tracecheck") == {
        "btwifi", "btwifi.config", "btwifi.engine", "btwifi.metrics",
        "btwifi.trace", "btwifi.tracecheck"}
    assert btwifi_modules_loaded_by("btwifi") == {"btwifi"}
    config = btwifi_modules_loaded_by("btwifi.config")
    assert not config & {"btwifi.mac", "btwifi.medium"}
