"""Rules on the package source itself, checked by parsing it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "xlbp"


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assertions_in_package(path):
    # a failed check must raise CertificationError or ParameterPoleError, so
    # that the CLI maps it to an exit code; `assert` also vanishes under -O
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert not offending, f"{path.name}: assertion at lines {offending}"
