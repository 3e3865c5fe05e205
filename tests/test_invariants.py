"""Source-level rules for the package: internal invariants raise, never assert, and `__all__` holds."""

import ast
from pathlib import Path

import stardiag

PACKAGE = Path(stardiag.__file__).parent


def test_no_assert_or_assertion_error_in_the_package():
    # `python -O` strips assert statements, so invariants must raise VerificationError
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert list(PACKAGE.glob("*.py")), PACKAGE
    assert not found, found


def test_the_public_names_are_sorted_unique_and_resolve():
    names = stardiag.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(stardiag, name)] == []
