"""Guards on the library source itself."""

import ast
from pathlib import Path

import degratio


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every check the library makes
    # must raise explicitly
    found = []
    for path in sorted(Path(degratio.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
