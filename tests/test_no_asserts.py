"""No check in the package may depend on what ``python -O`` strips."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "iccover"


def test_package_has_no_assert_statements():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
