import json
import resource
import subprocess
import sys

import pytest

from apolar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def test_docle_fixture(capsys):
    # Expected value fixed by the brute_docle oracle.
    code, out, _ = run(capsys, "docle", "--vars", "2", "(x^3, x*y, y^2)")
    assert code == 2  # x is not a declared variable: a parse error
    # An empty name list is refused like "," before anything is parsed.
    for ideal in ("(x^3, x*y, y^2)", "(x1^3, x1*x2, x2^2)"):
        code, out, err = run(capsys, "docle", "--vars", "2", ideal, "--vars-names", "")
        assert (code, out) == (1, "") and "at least one name" in err
    code, _, err = run(capsys, "docle", "--vars", "3", "(x^2, y)", "--vars-names", "x,y")
    assert code == 1 and "disagrees" in err
    # --vars 0 is given, not absent: it disagrees with two names, and alone
    # it is refused as an ambient dimension.
    code, out, err = run(capsys, "docle", "--vars", "0", "--vars-names", "x,y", "(x^2, y)")
    assert (code, out) == (1, "") and "disagrees" in err
    code, out, err = run(capsys, "docle", "--vars", "0", "(x1^2)")
    assert (code, out) == (1, "") and "ambient dimension must be >= 1" in err
    code, out, _ = run(capsys, "docle", "--vars", "2", "(x1^3, x1*x2, x2^2)")
    assert code == 0
    assert out == "{x1^2, x2}"


def test_docle_json(capsys):
    code, out, _ = run(
        capsys, "docle", "--vars", "2", "--format", "json", "(x1^3, x2^2)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["elems"] == [[2, 1]]


def test_antipodal_fixture(capsys):
    code, out, _ = run(
        capsys,
        "antipodal", "--vars", "2", "--k", "10", "--p", "y^6+x^3*y^3+x^5*y",
        "--vars-names", "x,y",
    )
    assert code == 0
    assert out == "220*t1^9*t2^3 + 924*t1^6*t2^6 + 495*t1^4*t2^8"


def test_decompose_json_fixture(capsys):
    code, out, _ = run(
        capsys, "decompose", "--vars", "2", "--format", "json", "(x1^2, x1*x2)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["J"] == "(x1)"
    assert payload["H"] == "(x1^2, x2)"
    assert payload["schema"] == 1


def test_closure_whole_poset(capsys):
    code, out, _ = run(capsys, "closure", "--vars", "2", "(x1*x2)")
    assert code == 0
    assert out == "(1) (whole poset)"
    code, out, _ = run(
        capsys, "closure", "--vars", "2", "--format", "json", "(x1*x2)"
    )
    assert json.loads(out)["whole_poset"] is True


def test_saturate_and_intersect(capsys):
    code, out, _ = run(capsys, "saturate", "--vars", "2", "(x1^2, x1*x2)")
    assert (code, out) == (0, "(x1)")
    code, out, _ = run(capsys, "intersect", "--vars", "2", "(x1)", "(x1^2, x2)")
    assert (code, out) == (0, "(x1^2, x1*x2)")


def test_inverse_ideal_and_system(capsys):
    code, out, _ = run(capsys, "inverse-ideal", "--vars", "2", "{x1^2*x2}")
    assert (code, out) == (0, "(x1^3, x2^2)")
    code, out, _ = run(capsys, "inverse-system", "--vars", "2", "(x1^3, x2^2)")
    assert (code, out) == (0, "{t1^2*t2}")
    code, _, err = run(capsys, "inverse-system", "--vars", "2", "(x1*x2)")
    assert code == 1 and "zero-dimensional" in err


def test_hilbert_socle_initial(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--vars-names", "x,y", "(x^3, y^2 - x*y)"
    )
    assert code == 0 and out == "[1, 2, 2, 1] dim=6"
    code, out, _ = run(
        capsys, "socle", "--vars-names", "x,y", "(x^3, y^2 - x*y)"
    )
    assert code == 0 and out == "degree 3: x^2*y"
    code, out, _ = run(
        capsys, "initial-ideal", "--vars-names", "x,y", "(x^3, y^2 - x*y)"
    )
    assert code == 0 and out == "(x^3, y^2)"


def test_colon_power_and_ann(capsys):
    code, out, _ = run(
        capsys, "colon-power", "--vars-names", "x,y", "--k", "3", "--p", "y"
    )
    assert code == 0 and out == "(y^2, x^3)"
    code, out, _ = run(capsys, "ann", "--vars-names", "x,y", "--q", "t1^2*t2")
    assert code == 0 and out == "(y^2, x^3)"


def test_gorenstein_check_monomial_iff_series(capsys):
    args = ["--vars-names", "x,y", "--k", "4", "--p", "x*y^2+x^2*y+x^3"]
    code, out, _ = run(capsys, "gorenstein-check", *args)
    assert (code, out) == (0, "true")
    code, out, _ = run(capsys, "monomial-iff", "--format", "json", *args)
    payload = json.loads(out)
    assert payload["is_monomial_ideal"] is False
    assert payload["ann_of_socle_equals_ideal"] is False
    assert payload["agree"] is True
    assert payload["socle_monomial"] == "x^2*y"
    code, out, _ = run(
        capsys, "series-check", *args, "--coeffs", "1,1,1/2,1/6"
    )
    assert (code, out) == (0, "true")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "docle", "--vars", "2", "(x1^3,")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "docle", "--vars", "2", "(1)")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "hilbert", "--vars", "2", "(x1)")
    assert code == 1
    code, _, err = run(capsys, "docle", "(x1)")  # no --vars
    assert code == 1


def test_hilbert_of_more_variables_than_the_recursion_limit(capsys):
    ideal = "(" + ", ".join(f"x{i}" for i in range(1, 1201)) + ")"
    code, out, err = run(capsys, "hilbert", "--vars", "1200", ideal)
    assert (code, out, err) == (0, "[1] dim=1", "")


def test_out_of_memory_is_a_domain_exit(capsys, monkeypatch):
    def exhausted(args, ctx):
        raise MemoryError

    monkeypatch.setattr("apolar.cli.cmd_hilbert", exhausted)
    code, out, err = run(capsys, "hilbert", "--vars", "2", "(x1^2, x2^2)")
    assert (code, out) == (1, "")
    assert err == "error: out of memory; the request is too large for this process\n"


def test_staircase(capsys):
    code, out, _ = run(capsys, "staircase", "--vars", "2", "(x1^3, x2^2)")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("#")
    assert any("*" in line for line in lines)
    code, out, _ = run(capsys, "staircase", "--vars", "2", "--svg", "(x1^3, x2^2)")
    assert code == 0 and out.startswith("<svg")
    code, _, _ = run(capsys, "staircase", "--vars", "3", "(x1, x2, x3)")
    assert code == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "docle", "--vars", "2", "--format", "json",
        "--out", str(target), "(x1^3, x2^2)",
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["elems"] == [[2, 1]]


def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "f.txt", tmp_path):
        code, out, err = run(capsys, "docle", "--vars", "2", "(x1^2, x2)", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err


def test_oracle_subcommands(capsys):
    code, out, _ = run(
        capsys, "oracle", "docle", "--vars", "2", "(x1^3, x2^2)", "--box", "4,4"
    )
    assert (code, out) == (0, "{x1^2*x2}")
    code, out, _ = run(
        capsys, "oracle", "ann", "--vars", "2", "--q", "t1^2*t2", "--max-deg", "4"
    )
    assert code == 0 and "degree 2: 1 kernel vector(s)" in out
    code, out, _ = run(
        capsys, "oracle", "dim", "--vars-names", "x,y", "(x^3, y^2 - x*y)"
    )
    assert (code, out) == (0, "6")
    code, out, _ = run(
        capsys, "oracle", "slice", "--vars-names", "x,y", "--format", "json",
        "--degree", "2", "(x^3, y^2 - x*y)",
    )
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert payload["standard_monomials"] == [[1, 1], [2, 0]]
    assert payload["reduced_rows"] == [["1", "-1", "0"]]


def test_oracle_dim_cutoff_follows_the_generators(capsys):
    # The default cutoff is the sum of the generator degrees plus d, as for
    # hilbert, not a fixed degree that a high power outgrows.
    code, out, _ = run(capsys, "hilbert", "--vars", "1", "(x1^50)")
    assert code == 0 and out.endswith(" dim=50")
    assert run(capsys, "oracle", "dim", "--vars", "1", "(x1^50)")[:2] == (0, "50")


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "apolar", "docle", "--vars", "2", "(x1^3, x2^2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "{x1^2*x2}"


def test_oversized_colon_power_is_refused():
    import subprocess
    import sys

    # Its top slice would have binomial(359, 8) columns; the size guard
    # refuses it before any matrix is built.
    proc = subprocess.run(
        [sys.executable, "-m", "apolar", "colon-power", "--vars", "9", "--k", "40",
         "--p", "x1"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 1
    assert "above the limit" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "ideal, vars_",
    [
        ("(x1^20)", "6"),  # not artinian; degree 12 has 6,188 columns
        # artinian up to degree 20; degree 4 has 8,855 columns
        ("(" + ", ".join(f"x{i}^2" for i in range(1, 21)) + ")", "20"),
    ],
)
def test_oversized_parsed_presentation_is_refused(ideal, vars_):
    proc = subprocess.run(
        [sys.executable, "-m", "apolar", "hilbert", "--vars", vars_, ideal],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 1
    assert "columns, above the limit of 5000" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, offset",
    [
        (["series-check", "--k", "4", "--p", "x1", "--coeffs", "1,abc"], 2),
        (["series-check", "--k", "4", "--p", "x1", "--coeffs", "1/0,1,1"], 1),
        (["series-check", "--k", "4", "--p", "x1", "--coeffs", ","], 0),
        (["oracle", "docle", "(x1^3, x2^2)", "--box", "4,a"], 2),
    ],
)
def test_bad_option_values_are_parse_errors(capsys, argv, offset):
    code, _, err = run(capsys, *argv, "--vars", "2")
    assert code == 2
    assert err.startswith("parse error: ") and f"at offset {offset}" in err


def test_max_degree_only_where_read(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--vars-names", "x,y", "--max-degree", "4", "(x^3, y^2 - x*y)"
    )
    assert (code, out) == (0, "[1, 2, 2, 1] dim=6")
    code, _, err = run(capsys, "hilbert", "--vars", "2", "--max-degree", "2", "(x1^3, x2^2)")
    assert code == 1 and "not artinian" in err
    with pytest.raises(SystemExit) as exc:
        main(["docle", "--vars", "2", "(x1^3, x2^2)", "--max-degree", "3"])
    assert exc.value.code == 2
    # --coeffs belongs to series-check alone, which requires it.
    gorenstein = ["--vars", "2", "--k", "4", "--p", "x1"]
    for argv, message in (
        (["gorenstein-check", *gorenstein, "--coeffs", "1"], "unrecognized arguments: --coeffs"),
        (["series-check", *gorenstein], "required: --coeffs"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and message in capsys.readouterr().err


def test_short_cutoff_is_not_called_not_artinian(capsys):
    # (x1^2, x2^2) is artinian with quotient [1, 2, 1]: cut off at degree 1,
    # the error names the cutoff rather than calling the ideal not artinian.
    code, out, err = run(capsys, "hilbert", "--vars", "2", "(x1^2, x2^2)", "--max-degree", "1")
    assert (code, out) == (1, "") and "its quotient ends above degree 1" in err
    assert "; ideal is not artinian" not in err  # the old, flat verdict
    # Degree 3, the first vanishing slice, is within a cutoff of 3.
    code, out, _ = run(capsys, "hilbert", "--vars", "2", "(x1^2, x2^2)", "--max-degree", "3")
    assert (code, out) == (0, "[1, 2, 1] dim=4")


@pytest.mark.parametrize(
    "argv",
    [
        ("socle", "--vars", "2", "(x1^2,x2^3)", "--max-degree", "-5"),
        ("hilbert", "--vars", "2", "(x1^2,x2^3)", "--max-degree", "-1"),
        ("oracle", "dim", "--vars", "2", "(x1^2,x2^3)", "--cutoff", "-1"),
    ],
)
def test_negative_cutoff_is_refused(capsys, argv):
    # An artinian ideal is not reported as "not artinian" below degree 0.
    code, _, err = run(capsys, *argv)
    assert code == 1 and "cutoff must be >= 0" in err and "not artinian" not in err


@pytest.mark.parametrize(
    "argv, limit",
    [
        # about 10^10 grid cells
        (["staircase", "--vars", "2", "(x1^100000, x2^100000)"], "limit of 100000"),
        # about 8 * 10^9 box points
        (["oracle", "docle", "--vars", "3", "(x1^2, x2^2, x3^2)", "--box", "2000,2000,2000"],
         "limit of 1000000"),
        # a 142,506-square identity kernel in degree 25
        (["oracle", "ann", "--vars", "6", "--q", "t1^2", "--max-deg", "25"], "limit of 250000"),
        # degree-26 rows x columns of about 8 * 10^7 cells
        (["oracle", "dim", "--vars", "6", "(x1^20)"], "limit of 250000"),
    ],
)
def test_unbounded_requests_are_refused_before_allocating(argv, limit):
    proc = subprocess.run(
        [sys.executable, "-m", "apolar", *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and limit in proc.stderr
    assert "Traceback" not in proc.stderr


def _limit_address_space():
    # Runs in the child between fork and exec: caps its address space only.
    limit = 256 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_slices_from_generators_stay_small():
    # Degrees 10 and 11 of (x1^3, ..., x6^3) have 3,003 and 4,368 columns and
    # 4,752 and 7,722 generator multiples; the guard refuses degree 12.  Held
    # as dense rows at once they need hundreds of MB.
    ideal = "(" + ", ".join(f"x{i}^3" for i in range(1, 7)) + ")"
    proc = subprocess.run(
        [sys.executable, "-m", "apolar", "hilbert", "--vars", "6", ideal],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: degree-12 slice in 6 variables has 6188 columns, above the limit of 5000\n"
    )
