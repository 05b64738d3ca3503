"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import matchgraph

SRC = Path(matchgraph.__file__).parent


def test_no_assert_statements_in_package():
    # invariants must be explicit checks that survive `python -O`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.name == "matchgraph" and len(list(SRC.glob("*.py"))) > 5
    assert found == []


def test_no_unused_imports_in_package():
    # a module-level import that nothing in its module uses is dead weight,
    # typically left behind when the code that needed it was deleted
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
