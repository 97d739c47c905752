"""Guards on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cupi"


def test_the_package_has_no_assert_statements():
    # python -O strips assert statements; integrity checks must raise
    sources = sorted(PACKAGE.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sources
    assert found == []
