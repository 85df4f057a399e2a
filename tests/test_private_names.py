"""No module of the package reads another module's private attributes.

A `_name` attribute is private to the module that defines it: a module may
read `obj._name` only where it defines `_name` itself, as a function, class,
method or assignment target.  What modules share goes through public names,
so a rule such as the closed-set test of `geometry.EdgeTable` has one owner.
namedtuple's public methods (`_replace` and its siblings) start with an
underscore only so as not to clash with field names, and are allowed.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "easerl", "*.py")))
NAMEDTUPLE_API = {"_replace", "_asdict", "_fields", "_make"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_reads(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of each read of a private attribute that the
    module does not define."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and _private(node.attr) and node.attr not in defined | NAMEDTUPLE_API
    )


def test_the_check_sees_a_foreign_private_read():
    source = (
        "class A:\n"
        "    _own = 1\n"
        "    def _helper(self):\n"
        "        self._state = 0\n"
        "        return self._own + self._state + self._helper.__name__\n"
        "x = other._edges\n"
        "y = row._replace(a=1)\n"
    )
    assert foreign_private_reads(source) == [(6, "_edges")]


@pytest.mark.parametrize("path", MODULES, ids=[os.path.basename(p) for p in MODULES])
def test_no_module_reads_a_private_name_it_does_not_define(path):
    with open(path) as f:
        assert foreign_private_reads(f.read()) == []
