"""README.md names the code it describes as `module.attr`; each such name must still exist."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = {path.stem for path in (ROOT / "src" / "mnscodec").glob("*.py")} - {"__init__"}  # every submodule
# a backticked span that starts with one of the package's modules and an attribute, as in `code.check_code(code)`;
# `.py` is a file name, not an attribute
REFS = sorted({(m, a) for m, a in re.findall(r"`(\w+)\.(\w+)", README.read_text()) if m in MODULES and a != "py"})


def test_readme_names_some_attributes():
    assert len(REFS) >= 9


def test_the_modules_are_the_package_submodules():
    assert {"bench", "bitstream", "cli", "code", "decoder", "encoder", "image", "metrics", "transform"} <= MODULES


@pytest.mark.parametrize("module, attr", REFS)
def test_each_readme_reference_resolves(module, attr):
    assert hasattr(importlib.import_module(f"mnscodec.{module}"), attr), f"README names {module}.{attr}"
