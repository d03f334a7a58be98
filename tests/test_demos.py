"""The demo scripts import only names the package still exports."""
from pathlib import Path
import runpy

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    # Every demo runs main() only under __main__, so this executes its
    # imports and module-level constants without the computation.
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])
