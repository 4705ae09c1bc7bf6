"""The package's modules import nothing but numpy, the standard library and the package itself."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mnscodec"
ALLOWED = {"numpy", "mnscodec"} | sys.stdlib_module_names


def imported_roots(source: str) -> set[str]:
    """The top-level names of every module that `source` imports, anywhere in it; a relative
    import counts as the package's own."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("mnscodec" if node.level else node.module.split(".")[0])
    return roots


def test_imported_roots_sees_every_kind_of_import():
    source = "import os.path, scipy.ndimage as nd\nfrom . import image\ndef f():\n    from hypothesis import given\n"
    assert imported_roots(source) == {"os", "scipy", "mnscodec", "hypothesis"}
    assert imported_roots(source) - ALLOWED == {"scipy", "hypothesis"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_numpy_the_standard_library_and_the_package(path):
    assert imported_roots(path.read_text()) - ALLOWED == set()


def test_the_package_is_where_the_checks_look():
    assert {"__init__.py", "encoder.py", "decoder.py"} <= {path.name for path in PACKAGE.glob("*.py")}
