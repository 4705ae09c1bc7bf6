"""README.md names the code it describes as `module.attr`; each such name must still exist."""

import importlib
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("bench", "bitstream", "cli", "decoder", "encoder", "image", "metrics", "transform")
# a backticked span that starts with one of the package's modules and an attribute, as in `encoder.check_code(code)`;
# `.py` is a file name, not an attribute
REFS = sorted({(m, a) for m, a in re.findall(r"`(\w+)\.(\w+)", README.read_text()) if m in MODULES and a != "py"})


def test_readme_names_some_attributes():
    assert len(REFS) >= 9


@pytest.mark.parametrize("module, attr", REFS)
def test_each_readme_reference_resolves(module, attr):
    assert hasattr(importlib.import_module(f"mnscodec.{module}"), attr), f"README names {module}.{attr}"
