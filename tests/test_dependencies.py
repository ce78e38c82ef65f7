"""The package imports nothing past the standard library and numpy, and the
tape module nothing of the package."""

import ast
import sys
from pathlib import Path

import segdiscover

ALLOWED = {"segdiscover", "numpy"} | set(sys.stdlib_module_names)


def test_every_module_imports_only_the_package_the_standard_library_and_numpy():
    modules = sorted(Path(segdiscover.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_the_tape_imports_no_other_module_of_the_package():
    # autodiff sits at the bottom of the import graph, so every module may use it
    path = Path(segdiscover.__file__).parent / "autodiff.py"
    inside = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else [
                "." * node.level + (node.module or alias.name) for alias in node.names]
        else:
            continue
        inside += [f"{path.name}:{node.lineno} {name}" for name in names
                   if name.startswith(".") or name.split(".")[0] == "segdiscover"]
    assert inside == []
