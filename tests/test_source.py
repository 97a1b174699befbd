"""Rules the library source keeps."""

import ast
from pathlib import Path

import orelco

LIBRARY = Path(orelco.__file__).parent


def test_library_states_invariants_as_typed_errors_not_asserts():
    # python -O strips assert statements, and with them the check
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(LIBRARY.glob("*.py")) and not found, found
