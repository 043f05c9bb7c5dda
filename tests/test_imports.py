"""Module boundaries inside the walkgi package, read from the source with
``ast``: no module imports another module's private name."""

import ast
from pathlib import Path

import walkgi


def test_no_module_imports_another_modules_private_name():
    # a dunder such as __version__ is no private name
    found = []
    paths = sorted(Path(walkgi.__file__).parent.glob("*.py"))
    assert {"cli.py", "formats.py", "graph.py", "invariants.py", "linalg.py"} <= {path.name for path in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "walkgi"):
                found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name[:2] == alias.name[-2:] == "__"]
    assert found == []
