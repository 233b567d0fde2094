"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself, nested
imports included."""

import ast
import pathlib
import sys

import gausskey

_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gausskey"}


def _imported_roots(tree):
    """``(line, top-level module)`` of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_modules_import_only_the_standard_library_numpy_and_the_package():
    modules = sorted(pathlib.Path(gausskey.__file__).parent.rglob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        foreign = [(line, root) for line, root in _imported_roots(ast.parse(path.read_text()))
                   if root not in _ALLOWED]
        assert foreign == [], path.name


def test_a_nested_import_is_seen():
    # a function-level import is found as well as a top-level one
    tree = ast.parse("import os\ndef f():\n    from scipy import linalg\n    import numpy.linalg\n")
    assert sorted(root for _, root in _imported_roots(tree)) == ["numpy", "os", "scipy"]
