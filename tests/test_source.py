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


def test_only_covers_walks_the_relator_image():
    # the exponent rule lives in covers.validate_quotient; a call of
    # permutation_of or cycles elsewhere would be a second home for it
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "covers.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if name in ("permutation_of", "cycles"):
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(LIBRARY.glob("*.py")) and not found, found


def test_only_orbicomplex_spells_the_relator_power():
    # relator_power_path() is the one spelling of w^n; a product with
    # relator_word() elsewhere would be a second
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "orbicomplex.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mult)):
                continue
            for side in (node.left, node.right):
                if (isinstance(side, ast.Call)
                        and isinstance(side.func, ast.Attribute)
                        and side.func.attr == "relator_word"):
                    found.append(f"{path.name}:{node.lineno}")
    assert sorted(LIBRARY.glob("*.py")) and not found, found


def test_only_textio_reads_text():
    # textio._lines is the one line reader; a splitlines call elsewhere
    # would be a second text format with its own comment and error rules
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "textio.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "splitlines"]
    assert sorted(LIBRARY.glob("*.py")) and not found, found


def _halves_a_path(node) -> bool:
    """``p[x] = x = p[p[x]]``: a read of ``p`` through ``p`` stored in ``p``."""
    if not (isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.slice, ast.Subscript)):
        return False
    base = ast.dump(node.value.value)
    return ast.dump(node.value.slice.value) == base and any(
        isinstance(t, ast.Subscript) and ast.dump(t.value) == base
        for t in node.targets)


def test_only_complexes_finds_union_find_roots():
    # complexes._find is the one union-find root search; a path-halving
    # loop elsewhere would be a second copy of it
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "complexes.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _halves_a_path(node)]
    assert sorted(LIBRARY.glob("*.py")) and not found, found


def test_no_library_module_calls_gcd():
    # covers.validate_quotient is the one home of the exponent-n rule; a gcd
    # of exponent sums would be a second derivation of it
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if name == "gcd":
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(LIBRARY.glob("*.py")) and not found, found
