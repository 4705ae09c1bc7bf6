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


def package_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every name that `source` imports from the package: `from .code import check_code`
    gives ("code", "check_code"), and `from . import encoder` or `import mnscodec.encoder` ("encoder", "")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[1], "") for alias in node.names if alias.name.startswith("mnscodec.")]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "mnscodec"):
            module = (node.module or "").removeprefix("mnscodec").lstrip(".")
            found += [(module, alias.name) if module else (alias.name, "") for alias in node.names]
    return found


def test_package_imports_sees_every_form():
    source = "import mnscodec.image\nfrom .code import _x, y\nfrom . import encoder\nfrom mnscodec.decoder import z\n"
    assert package_imports(source) == [("image", ""), ("code", "_x"), ("code", "y"), ("encoder", ""), ("decoder", "z")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_another_modules_private_name(path):
    assert [f"{module}.{name}" for module, name in package_imports(path.read_text()) if name.startswith("_")] == []


@pytest.mark.parametrize("name", ["bitstream.py", "decoder.py"])
def test_the_stream_and_the_decoder_do_not_import_the_encoder(name):
    assert "encoder" not in {module for module, _ in package_imports((PACKAGE / name).read_text())}
