import ast
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


# Names a module imports only for others to import from it, and why.
REEXPORTS = {
    ("src/blobvid/blobs.py", "canonicalize"):
        "moved to geometry; perfbench/workloads.py imports it from blobvid.blobs",
}


def _unused_imports(path: Path) -> set[str]:
    # By name: an imported name counts as used where any expression reads a
    # name spelled the same, or where the module's literal __all__ lists it.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    root = Path(__file__).resolve().parent.parent
    files = sorted([*root.glob("src/blobvid/*.py"), *root.glob("tests/*.py")])
    assert files
    unused = {(path.relative_to(root).as_posix(), name)
              for path in files for name in _unused_imports(path)}
    assert sorted(unused - set(REEXPORTS)) == []
    assert sorted(set(REEXPORTS) - unused) == [], "a listed re-export is now used or gone"
