"""The package's module structure: no module imports a private (`_`) name
from another package module, and the CLI runs `verify` without loading
numpy or scipy, which only the float drivers and the stats need."""

import ast
import subprocess
import sys
from pathlib import Path

from cli_cases import PYTHON, SRC, environ

PACKAGE = Path(SRC) / "lynesslab"


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("lynesslab")):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_verify_loads_neither_numpy_nor_scipy():
    script = ("import sys, lynesslab.cli\n"
              "code = lynesslab.cli.main(['verify', '--k', '3', '--trials', '1'])\n"
              "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=environ(PYTHON), timeout=60)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr
