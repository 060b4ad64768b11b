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


def test_only_polynomial_reads_a_polynomials_terms():
    # Polynomial owns its term dict: other modules read terms() or the one
    # integer form, polynomial._numerators.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "polynomial.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "_terms"]
    assert not found, found


def test_linalg_makes_no_fraction():
    # linalg works on integer rows; Fractions enter only through _intify.
    tree = ast.parse((SRC / "linalg.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
             or isinstance(node, ast.Name) and node.id == "Fraction"]
    assert not found, found


def test_linalg_probes_no_row_shape():
    # linalg takes one row shape, {column: nonzero int}: no isinstance test
    # and no TypeError probe tells dense, Fraction or zero-holding rows apart.
    tree = ast.parse((SRC / "linalg.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "isinstance"
             or isinstance(node, ast.ExceptHandler) and node.type is not None
             and any(isinstance(n, ast.Name) and n.id == "TypeError" for n in ast.walk(node.type))]
    assert not found, found


def test_terms_are_set_only_in_polynomial_init():
    # _numerators keeps a polynomial's integer form on first read, which is
    # only sound if _terms never changes after __init__: no other function
    # assigns, deletes or writes into it.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        init = next((f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "Polynomial"
                     for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)
        allowed = {id(n) for n in ast.walk(init)} if init else set()
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            for target in targets:  # f._terms, f._terms[...] and tuples of them
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and t.attr == "_terms" and id(t) not in allowed:
                        found.append(f"{path.name}:{t.lineno}")
    assert not found, found
