"""Guards on the library source itself."""

import ast
from pathlib import Path

import degratio


def _library_nodes():
    for path in sorted(Path(degratio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every check the library makes
    # must raise explicitly
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_library_raises_no_assertion_error():
    # a failed certificate is a CertificateError, which the CLI reports
    found = []
    for name, node in _library_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert not found, found
