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
