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
    private = {"_rows", "_pivots", "_std_columns", "_columns"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "graded_engine.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found, found


def test_gorenstein_scales_no_coset():
    # A slice's cosets are scaled to integers in one place, GradedSlice.coset:
    # gorenstein reads no numerator or denominator of its own.
    tree = ast.parse((SRC / "gorenstein.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")]
    assert not found, found


def test_only_polynomial_reads_a_polynomials_terms():
    # Polynomial owns its integer form: other modules read terms() or that
    # form through polynomial._numerators, never the slot itself.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "polynomial.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "_ints"]
    assert not found, found


def test_polynomial_makes_fractions_only_at_its_edges():
    # A Polynomial holds integers: it calls Fraction only to take coefficients
    # in (__init__, scale) and to hand them out (terms, coeff), so its
    # arithmetic stays in integers.  Every listed function must be seen
    # calling it, so a renamed one fails here rather than passing unseen.
    allowed = {"__init__", "scale", "terms", "coeff"}
    seen, found = set(), []
    tree = ast.parse((SRC / "polynomial.py").read_text())
    owner = {}  # node -> its innermost enclosing function
    for f in ast.walk(tree):  # breadth first, so inner functions win
        if isinstance(f, ast.FunctionDef):
            owner.update((id(n), f.name) for n in ast.walk(f))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction":
            if owner.get(id(node)) in allowed:
                seen.add(owner[id(node)])
            else:
                found.append(f"polynomial.py:{node.lineno} in {owner.get(id(node))}")
    assert not found, found
    assert seen == allowed, seen


def test_linalg_makes_no_fraction():
    # linalg works on integer rows and no Fraction ever enters it: it makes
    # none and reads no numerator or denominator, and no other module reaches
    # past its public names.
    tree = ast.parse((SRC / "linalg.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
             or isinstance(node, ast.Name) and node.id == "Fraction"
             or isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")]
    assert not found, found
    private = [f"{path.name}:{node.lineno}"
               for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom) and node.module == "linalg"
               and any(a.name.startswith("_") for a in node.names)]
    assert not private, private


def test_linalg_probes_no_row_shape():
    # linalg takes one row shape, {column: nonzero int}: no isinstance test
    # and no TypeError probe tells dense, Fraction or zero-holding rows apart.
    tree = ast.parse((SRC / "linalg.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "isinstance"
             or isinstance(node, ast.ExceptHandler) and node.type is not None
             and any(isinstance(n, ast.Name) and n.id == "TypeError" for n in ast.walk(node.type))]
    assert not found, found


def test_each_form_of_a_polynomial_is_written_only_where_it_is_made():
    # A Polynomial's integer form is set by its two constructors and never
    # changes after, so == may compare it and _divided may keep the
    # divided-power form it makes from it: each slot is written only by the
    # constructors and, for _div, by _divided.  Every listed writer must be
    # seen writing its slot, and the slots must be Polynomial's, so a renamed
    # slot or writer fails here rather than letting the rule pass unseen.
    # Other modules' classes hold a ctx of their own, so ctx is checked in
    # polynomial.py alone.
    writers = {"ctx": {"__init__", "_from_ints"},
               "_ints": {"__init__", "_from_ints"},
               "_div": {"__init__", "_from_ints", "_divided"}}
    seen, found, slots = set(), [], None
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> its innermost enclosing polynomial.py function
        if path.name == "polynomial.py":
            for f in ast.walk(tree):  # breadth first, so inner functions win
                if isinstance(f, ast.FunctionDef):
                    owner.update((id(n), f.name) for n in ast.walk(f))
                elif isinstance(f, ast.ClassDef) and f.name == "Polynomial":
                    slots = next(ast.literal_eval(n.value) for n in f.body if isinstance(n, ast.Assign)
                                 and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in n.targets))
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            for target in targets:  # f._ints, f._ints[...] and tuples of them
                for t in ast.walk(target):
                    if (isinstance(t, ast.Attribute) and t.attr in writers
                            and (t.attr != "ctx" or path.name == "polynomial.py")):
                        if owner.get(id(t)) in writers[t.attr]:
                            seen.add((t.attr, owner[id(t)]))
                        else:
                            found.append(f"{path.name}:{t.lineno} {t.attr}")
    assert slots is not None and set(slots) == set(writers), slots
    assert seen == {(slot, f) for slot, fs in writers.items() for f in fs}, seen
    assert not found, found


def test_only_the_degree_listing_skips_exponent_vector_checks():
    # ExponentVector.__init__ checks length and signs; monomials_of_degree
    # alone makes vectors without it, from compositions valid by construction.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(n) for f in tree.body if path.name == "exponents.py"
                   and isinstance(f, ast.FunctionDef) and f.name == "monomials_of_degree"
                   for n in ast.walk(f)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__new__" and id(node) not in allowed
                  and any(isinstance(a, ast.Name) and a.id == "ExponentVector" for a in node.args)]
        if path.name == "exponents.py":
            assert allowed, "monomials_of_degree is gone"
    assert not found, found


def test_no_falling_factorial_in_the_action_or_the_catalecticant():
    # The action and the catalecticant read divided-power weights, c*s! per
    # term: neither module imports or calls math.perm, so no per-entry
    # falling factorial comes back.
    found = []
    for name in ("graded_engine.py", "polynomial.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if (isinstance(node, ast.ImportFrom) and any(a.name == "perm" for a in node.names)
                    or isinstance(node, ast.Name) and node.id == "perm"
                    or isinstance(node, ast.Attribute) and node.attr == "perm"):
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_other_modules_import_two_graded_engine_private_names_at_most():
    # graded_engine owns its builds and its kernel maps: among its private
    # names, other modules import only the per-form catalecticant and the
    # power-ideal check, so a new cross-module private read fails here.
    allowed = {"_catalecticant", "_reduced_mod_power"}
    found = [f"{path.name}:{node.lineno} {a.name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "graded_engine.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and node.module == "graded_engine"
             for a in node.names if a.name.startswith("_") and a.name not in allowed]
    assert not found, found


def test_graded_engine_has_one_packed_code_map():
    # Both builds and the certificate read one kernel map, _contraction: it
    # alone reads the packed monomial codes, and _pack is called only by it
    # and by _codes, so a second packed-code map fails here.
    tree = ast.parse((SRC / "graded_engine.py").read_text())
    readers = {"_codes": {"_contraction"}, "_pack": {"_contraction", "_codes"}}
    seen, found = set(), []
    for f in tree.body:
        name = getattr(f, "name", None)
        for node in ast.walk(f):
            if isinstance(node, ast.Name) and node.id in readers:
                if name in readers[node.id]:
                    seen.add((node.id, name))
                else:
                    found.append(f"graded_engine.py:{node.lineno} {node.id} in {name}")
    assert not found, found
    assert seen == {(n, f) for n, fs in readers.items() for f in fs}, seen


def test_monomial_ideal_has_one_path_from_components_to_generators():
    # Inverse ideal, saturation and intersection all turn components into
    # generators through _intersection's negated fold: _fold_splits is read
    # only there and in MonomialIdeal._components, _minimal only in
    # from_generators, and intersect calls _intersection.  Every listed
    # reader must be seen, so a renamed one fails here rather than passing.
    readers = {"_fold_splits": {"_components", "_intersection"}, "_minimal": {"from_generators"}}
    tree = ast.parse((SRC / "monomial_ideal.py").read_text())
    owner = {}  # node -> its innermost enclosing function
    for f in ast.walk(tree):  # breadth first, so inner functions win
        if isinstance(f, ast.FunctionDef):
            owner.update((id(n), f.name) for n in ast.walk(f))
    seen = {(node.id, owner.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in readers}
    found = sorted(f"{name} in {f}" for name, f in seen if f not in readers[name])
    assert not found, found
    assert seen == {(n, f) for n, fs in readers.items() for f in fs}, seen
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_intersection"
               and owner.get(id(node)) == "intersect" for node in ast.walk(tree))
