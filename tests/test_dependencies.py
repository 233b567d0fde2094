"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself, nested
imports included.  And the layers that check each other stay apart: the
oracle imports no part of the covariance-matrix layer it checks, and
security, whose threshold decay lives beside ``symmetric_exponents``, needs
no protocol."""

import ast
import pathlib
import sys

import gausskey

_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gausskey"}
# module -> the only package modules it may import
_PACKAGE_IMPORTS = {"oracle": {"matkit", "errors"}, "security": {"matkit", "errors", "gaussian"}}


def _imported(tree):
    """``(line, module)`` of every import in ``tree``, nested ones included;
    a relative import, and a name taken from the package itself, is
    ``gausskey.<name>``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "gausskey." * bool(node.level) + (node.module or "")
            if module.rstrip(".") == "gausskey":
                yield from ((node.lineno, f"gausskey.{a.name}") for a in node.names)
            else:
                yield node.lineno, module


def test_modules_import_only_the_standard_library_numpy_and_the_package():
    modules = sorted(pathlib.Path(gausskey.__file__).parent.rglob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        imported = list(_imported(ast.parse(path.read_text())))
        foreign = [(line, name) for line, name in imported if name.partition(".")[0] not in _ALLOWED]
        assert foreign == [], path.name
        if path.stem in _PACKAGE_IMPORTS:
            used = {name.split(".")[1] for _, name in imported if name.startswith("gausskey.")}
            assert used == _PACKAGE_IMPORTS[path.stem], path.name


def test_a_nested_import_is_seen():
    # a function-level import is found as well as a top-level one, and a
    # relative import names the package module it reads
    tree = ast.parse("import os\ndef f():\n    from scipy import linalg\n    import numpy.linalg\n"
                     "    from .errors import InvalidInput\n    from . import matkit, oracle\n")
    assert sorted(name for _, name in _imported(tree)) == [
        "gausskey.errors", "gausskey.matkit", "gausskey.oracle", "numpy.linalg", "os", "scipy"]
