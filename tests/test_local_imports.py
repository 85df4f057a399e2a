"""Every module of the package imports at module level, and each imports on
its own.

An import inside a function body protects nothing once the modules it
names import cleanly at the top: the package's modules read each other only
at call time, so a cycle between them resolves through `sys.modules`.  The
one exception is `cli.py`'s `.runner` imports, which keep `easerl winf` from
loading the runner, the plots module and the process pool.
"""

import ast
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
MODULES = sorted(glob.glob(os.path.join(SRC, "easerl", "*.py")))
LAZY = {("cli.py", "runner")}  # (file, module) of the allowed function-level imports


def function_imports(source: str) -> list[tuple[int, str]]:
    """(line, imported module) of each import inside a function body."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    found.append((node.lineno, node.module or "."))
                elif isinstance(node, ast.Import):
                    found += [(node.lineno, alias.name) for alias in node.names]
    return sorted(set(found))


def test_the_check_sees_a_function_level_import():
    src = "import os\ndef f():\n    import numpy as np\n    def g():\n        from . import envs\n"
    assert function_imports(src) == [(3, "numpy"), (5, ".")]
    assert function_imports("import os\nclass A:\n    def f(self):\n        return os\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[os.path.basename(p) for p in MODULES])
def test_imports_are_at_module_level(path):
    name = os.path.basename(path)
    with open(path) as f:
        found = function_imports(f.read())
    assert [(line, m) for line, m in found if (name, m) not in LAZY] == []


@pytest.mark.parametrize("module", ["rl", "envs", "homotopy", "curriculum"])
def test_module_imports_alone_in_a_fresh_interpreter(module):
    proc = subprocess.run([sys.executable, "-c", f"import easerl.{module}"],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
