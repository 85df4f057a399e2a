"""No module of the package imports a name it never uses.

A module-level import that its module never reads is allowed only as a
(module, attribute) site of `perfbench/tracing.py`'s TARGETS: the tracer
swaps such a name for a timing wrapper where the program looks it up.
`__init__.py` is left out, because its imports are the package's exports.
"""

import ast
import glob
import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
MODULES = sorted(
    p for p in glob.glob(os.path.join(ROOT, "src", "easerl", "*.py"))
    if os.path.basename(p) != "__init__.py"
)


def tracer_sites() -> set[tuple[str, str]]:
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {site for _, _, sites in tracing.TARGETS for site in sites}


TRACED = tracer_sites()


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nimport os\nos.sep\n") == ["math"]
    assert unused_imports("from a.b import c as d\nd()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[os.path.basename(p) for p in MODULES])
def test_every_import_is_used_or_traced(path):
    module = "easerl." + os.path.basename(path)[:-3]
    with open(path) as f:
        unused = unused_imports(f.read())
    assert [name for name in unused if (module, name) not in TRACED] == []
