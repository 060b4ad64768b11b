"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apolar"


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # let results change with the interpreter flags: raise an error instead.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and not found, found


def test_only_graded_engine_reads_a_slices_private_state():
    # GradedSlice owns its echelon rows: no other module reads them.
    private = {"_rows", "_pivots", "_cosets", "_std_columns"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "graded_engine.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found, found


def test_linalg_makes_no_fraction():
    # linalg works on integer rows; Fractions may be passed in, never made.
    tree = ast.parse((SRC / "linalg.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
             or isinstance(node, ast.Name) and node.id == "Fraction"]
    assert not found, found
