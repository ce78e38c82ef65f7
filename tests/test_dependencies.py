"""The package imports nothing past the standard library and numpy."""

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
