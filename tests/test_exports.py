import importlib
from pathlib import Path

import pytest

import blobvid

# __main__ runs the CLI on import, so it is the one module left out.
MODULES = sorted(
    "blobvid" if path.stem == "__init__" else f"blobvid.{path.stem}"
    for path in Path(blobvid.__file__).resolve().parent.glob("*.py")
    if path.stem != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
