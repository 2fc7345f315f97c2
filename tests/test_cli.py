import json

import pytest

from conftest import F2, jordan, mat2, truncated
from ditred.cli import main
from ditred.scalars import QQ

KRON = """ditalgebra
field q
points 2
full a : 1 -> 2
full b : 1 -> 2
"""

REG = """ditalgebra
field q
points 2
full a : 1 -> 2
dashed v : 1 -> 2
delta a = v
"""

CYCLIC = """ditalgebra
field q
points 2
full a : 1 -> 2
dashed v : 2 -> 1
"""

A2_ALG = """algebra
field q
dim 3
basis e1 e2 a
unit 1 1 0
mul 1 1 = 1 0 0
mul 2 2 = 0 1 0
mul 3 1 = 0 0 1
mul 2 3 = 0 0 1
"""

DUALS = """algebra
field q
dim 2
basis one t
unit 1 0
mul 1 1 = 1 0
mul 1 2 = 0 1
mul 2 1 = 0 1
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in (
        ("kron.dit", KRON),
        ("reg.dit", REG),
        ("cyclic.dit", CYCLIC),
        ("a2.alg", A2_ALG),
        ("duals.alg", DUALS),
    ):
        p = tmp_path / name
        p.write_text(content)
        paths[name] = str(p)
    return paths


def test_check_kron(files, capsys):
    assert main(["check", files["kron.dit"]]) == 0
    out = capsys.readouterr().out
    assert "directed: yes" in out
    assert "sources: [1]" in out
    assert "stellar: center 1" in out


def test_check_cyclic(files, capsys):
    assert main(["check", files["cyclic.dit"]]) == 0
    assert "directed: no" in capsys.readouterr().out


def test_check_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.dit"
    p.write_text("ditalgebra\nfield q\npoints 2\nfull a : 1 -> 2\ndelta a = ??\n")
    assert main(["check", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_check_directory_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_check_non_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "latin1.dit"
    p.write_bytes("ditalgebra\nfield q\npoints 2\nlabel 1 é\n".encode("latin-1"))
    assert main(["check", str(p)]) == 2
    assert "utf-8" in capsys.readouterr().err


def test_reduce_reg_with_trace(files, tmp_path, capsys):
    out_path = str(tmp_path / "reg.trace")
    assert main(["reduce", files["reg.dit"], "-d", "3", "--trace-out", out_path]) == 0
    out = capsys.readouterr().out
    assert "step[r]" in out
    data = json.loads(open(out_path).read())
    assert [s["kind"] for s in data["steps"]] == ["r"]


def test_reduce_deterministic(files, capsys):
    assert main(["reduce", files["kron.dit"], "-d", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["reduce", files["kron.dit"], "-d", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_reduce_budget_exceeded(files, capsys):
    assert main(["reduce", files["kron.dit"], "-d", "2", "--budget", "1"]) == 3
    assert "reduction failed" in capsys.readouterr().err


def test_reduce_with_oracle(files, capsys):
    assert main(["reduce", files["reg.dit"], "-d", "2", "--oracle", "--max-dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 missing" in out


def test_qh_pass_and_fail(files, capsys):
    assert main(["qh", files["a2.alg"]]) == 0
    out = capsys.readouterr().out
    assert "quasi-hereditary" in out and "NOT" not in out
    assert main(["qh", files["duals.alg"]]) == 1
    out = capsys.readouterr().out
    assert "NOT quasi-hereditary" in out


def test_qh_unsplit_quotient_exits_3(tmp_path, capsys):
    """Q[x]/((x^2 + 1)(x^2 + 2)): the quartic is not certified irreducible,
    so the primitive idempotents are undecided and no verdict is given."""
    p = tmp_path / "quartic.alg"
    p.write_text("algebra\nfield q\ndim 4\nunit 1 0 0 0\n" + "".join(
        f"mul {i + 1} {j + 1} = {row}\n" for i, j, row in (
            (0, 0, "1 0 0 0"), (0, 1, "0 1 0 0"), (0, 2, "0 0 1 0"), (0, 3, "0 0 0 1"),
            (1, 0, "0 1 0 0"), (1, 1, "0 0 1 0"), (1, 2, "0 0 0 1"), (1, 3, "-2 0 -3 0"),
            (2, 0, "0 0 1 0"), (2, 1, "0 0 0 1"), (2, 2, "-2 0 -3 0"), (2, 3, "0 -2 0 -3"),
            (3, 0, "0 0 0 1"), (3, 1, "-2 0 -3 0"), (3, 2, "0 -2 0 -3"), (3, 3, "6 0 7 0"))))
    assert main(["qh", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("qh failed: ") and "Traceback" not in captured.err
    assert "overall" not in captured.out and "condition" not in captured.out


def test_filtration(files, tmp_path, capsys):
    from ditred.algebras import AlgMod, algebra_from_text, algmod_to_text

    alg = algebra_from_text(A2_ALG)
    reg = AlgMod.regular(alg)
    mod_path = tmp_path / "reg.mod"
    mod_path.write_text(algmod_to_text(reg))
    assert main(["filtration", files["a2.alg"], str(mod_path)]) == 0
    assert "filtration with" in capsys.readouterr().out


def test_generics_kron(files, capsys):
    assert main(["generics", files["kron.dit"], "-d", "2"]) == 0
    out = capsys.readouterr().out
    assert "1 generic realization" in out
    assert "rank 2 = endolength 2" in out


def test_enumerate(files, tmp_path, capsys):
    p = tmp_path / "kron2.dit"
    p.write_text(KRON.replace("field q", "field fp:2"))
    assert main(["enumerate", str(p), "--max-dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "indecomposables with total dimension <= 2: 5" in out


def test_emitted_layer_reparses(files, capsys):
    from ditred.bigraph import ditalgebra_from_text, ditalgebra_to_text

    assert main(["reduce", files["reg.dit"], "-d", "2"]) == 0
    out = capsys.readouterr().out
    start = out.index("ditalgebra")
    block = out[start:].split("\n\n")[0]
    again = ditalgebra_from_text(block)
    assert ditalgebra_to_text(again).strip() == block.strip()


def test_field_override(files, capsys):
    assert main(["enumerate", files["kron.dit"], "--max-dim", "2", "--field", "fp:2"]) == 0
    out = capsys.readouterr().out
    assert "indecomposables with total dimension <= 2: 5" in out


def test_qh_with_family_file(files, tmp_path, capsys):
    from ditred.algebras import algebra_from_text, algmod_to_text
    from ditred.qhbridge import oracle_standard_modules

    alg = algebra_from_text(A2_ALG)
    fam = oracle_standard_modules(alg)
    fam_path = tmp_path / "family.mods"
    fam_path.write_text("".join(algmod_to_text(D) for D in fam))
    assert main(["qh", files["a2.alg"], "--delta", str(fam_path)]) == 0
    assert "quasi-hereditary" in capsys.readouterr().out
    empty = tmp_path / "empty.mods"
    empty.write_text("")
    assert main(["qh", files["a2.alg"], "--delta", str(empty)]) == 2
    assert "empty standard family" in capsys.readouterr().err


def test_qh_family_file_comments_and_line_numbers(files, tmp_path, capsys):
    from ditred.algebras import algebra_from_text, algmod_to_text
    from ditred.qhbridge import oracle_standard_modules

    fam = oracle_standard_modules(algebra_from_text(A2_ALG))
    texts = [algmod_to_text(D) for D in fam]
    commented = tmp_path / "commented.mods"
    commented.write_text("# the algmod of Delta 1\n" + texts[0] + "algmod  # Delta 2, an algmod too\n"
                         + texts[1].split("\n", 1)[1])
    assert main(["qh", files["a2.alg"], "--delta", str(commented)]) == 0
    assert "quasi-hereditary" in capsys.readouterr().out
    bad = tmp_path / "bad.mods"
    bad.write_text(texts[0] + "algmod\ndim 1\nact 9 = [1]\n")
    line = len(texts[0].splitlines()) + 3
    assert main(["qh", files["a2.alg"], "--delta", str(bad)]) == 2
    assert f"line {line}: act index out of range" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "ditalgebra\nfield q\npoints 2\nfull a : 1 -> 3\n",
    "ditalgebra\nfield fp:4\npoints 2\nfull a : 1 -> 2\n",
    "ditalgebra\nfield fp:2\npoints 2\nfull a : 1 -> 2\ndashed v : 1 -> 2\ndelta a = 1/0*v\n",
    "ditalgebra\nfield q\npoints 2\nfull a : 1 -> 2\ndashed v : 1 -> 2\ndelta a = x9*v\n",
], ids=["endpoint-out-of-range", "field-not-prime", "division-by-zero", "unknown-point"])
def test_malformed_layer_exits_2(tmp_path, capsys, text):
    p = tmp_path / "bad.dit"
    p.write_text(text)
    assert main(["check", str(p)]) == 2
    assert "parse error: line " in capsys.readouterr().err


def test_malformed_module_exits_2(files, tmp_path, capsys):
    p = tmp_path / "bad.mod"
    p.write_text("algmod\ndim x\n")
    assert main(["filtration", files["a2.alg"], str(p)]) == 2
    assert "parse error: line 2" in capsys.readouterr().err


K_ALG = "algebra\nfield q\ndim 1\nbasis one\nunit 1\nmul 1 1 = 1\n"

# b1*b1 = b2 and b2*b1 = b1, but b1*b2 = 0: (b1 b1) b1 != b1 (b1 b1)
NONASSOC_ALG = """algebra
field q
dim 3
unit 1 0 0
mul 1 1 = 1 0 0
mul 1 2 = 0 1 0
mul 1 3 = 0 0 1
mul 2 1 = 0 1 0
mul 3 1 = 0 0 1
mul 2 2 = 0 0 1
mul 3 2 = 0 1 0
"""


@pytest.mark.parametrize("text, line", [
    ("algebra\nfield q\ndim 1\nunit 1\nmul 3 3 = 1\n", 5),
    ("algebra\nfield q\ndim 1\nunit 1 0\nmul 1 1 = 1\n", 4),
    ("algebra\nfield q\ndim 1\nunit 1\nmul 1 1 = 1 0\n", 5),
    ("algebra\nfield q\nunit 1\ndim 1\nmul 1 1 = 1\n", 3),
    ("algebra\ndim 1\nfield q\nunit 1\nmul 1 1 = 1\n", 2),
], ids=["mul-index-out-of-range", "unit-length", "mul-length", "unit-before-dim", "dim-before-field"])
def test_malformed_algebra_exits_2(tmp_path, capsys, text, line):
    p = tmp_path / "bad.alg"
    p.write_text(text)
    assert main(["qh", str(p)]) == 2
    assert f"parse error: line {line}:" in capsys.readouterr().err


def test_module_act_index_out_of_range_exits_2(tmp_path, capsys):
    alg = tmp_path / "k.alg"
    alg.write_text(K_ALG)
    p = tmp_path / "bad.mod"
    p.write_text("algmod\ndim 1\nact 1 = [1]\nact 3 = [1]\n")
    assert main(["filtration", str(alg), str(p)]) == 2
    assert "parse error: line 4:" in capsys.readouterr().err


def test_semantic_input_errors_exit_2(files, tmp_path, capsys):
    """Checks on the parsed input as a whole are input errors too."""
    mod = tmp_path / "zero.mod"
    mod.write_text("algmod\ndim 1\n")
    assert main(["filtration", files["a2.alg"], str(mod)]) == 2
    assert "unit does not act as identity" in capsys.readouterr().err
    alg = tmp_path / "nonassoc.alg"
    alg.write_text(NONASSOC_ALG)
    assert main(["qh", str(alg)]) == 2
    assert "not associative" in capsys.readouterr().err
    dit = tmp_path / "full.dit"
    dit.write_text("ditalgebra\nfield q\npoints 2\nfull a : 1 -> 2\nfull b : 1 -> 2\ndelta a = b\n")
    assert main(["check", str(dit)]) == 2
    assert "must be homogeneous of degree 1" in capsys.readouterr().err


def test_enumeration_budget_exits_3(tmp_path, capsys):
    # 21 parallel arrows over F2: dims (1,1) alone give 2^21 > 2*10^6 candidates
    p = tmp_path / "wide.dit"
    p.write_text("ditalgebra\nfield fp:2\npoints 2\n"
                 + "".join(f"full a{i} : 1 -> 2\n" for i in range(21)))
    assert main(["enumerate", str(p), "--max-dim", "2"]) == 3
    assert "enumerate failed" in capsys.readouterr().err


def test_filtration_large_module_decided(tmp_path, capsys):
    # a free k[t]/(t^5)-module of rank 5 over F2: dimension 25
    from ditred.algebras import algebra_to_text, algmod_to_text

    T = truncated(F2, 5)
    alg = tmp_path / "t5.alg"
    alg.write_text(algebra_to_text(T))
    for name, parts, rc, head in (("free.mod", [5] * 5, 0, "filtration with 5 layer(s)"),
                                  ("mixed.mod", [5] * 4 + [4, 1], 1, "no filtration by the standard family")):
        mod = tmp_path / name
        mod.write_text(algmod_to_text(jordan(T, parts)))
        assert main(["filtration", str(alg), str(mod)]) == rc
        assert capsys.readouterr().out.startswith(head)


def test_filtration_not_standard_exits_3(tmp_path, capsys):
    # the matrix algebra M_2(Q) is not basic, so its trace quotients include 0
    from ditred.algebras import AlgMod, algebra_to_text, algmod_to_text

    M2 = mat2(QQ)
    alg = tmp_path / "m2.alg"
    alg.write_text(algebra_to_text(M2))
    mod = tmp_path / "reg.mod"
    mod.write_text(algmod_to_text(AlgMod.regular(M2)))
    assert main(["filtration", str(alg), str(mod)]) == 3
    assert "filtration failed: module 1 of the family is not cyclic" in capsys.readouterr().err


@pytest.mark.parametrize("field", [QQ, F2], ids=repr)
def test_qh_matrix_algebra_undecided_exits_3(field, tmp_path, capsys):
    # the oracle family of M_2(k) is 0 and P(2): not standard, so no verdict,
    # where a FAIL would call a semisimple algebra not quasi-hereditary
    from ditred.algebras import algebra_to_text

    alg = tmp_path / "m2.alg"
    alg.write_text(algebra_to_text(mat2(field)))
    assert main(["qh", str(alg)]) == 3
    out = capsys.readouterr().out
    assert out.startswith("using the oracle family of quotients; dims [0, 2]\n")
    assert "FAIL" not in out and "NOT quasi-hereditary" not in out
    assert out.count("undecided (module 1 of the family is not cyclic with a simple top)") == 4
    assert out.rstrip().endswith("overall: undecided")


def test_qh_undecided_exits_3(files, tmp_path, capsys):
    # P(1) and L(1) of the one-arrow path algebra would pass conditions 1-3
    # in this order, but two modules with one top are not a standard family,
    # so no condition is judged
    fam = tmp_path / "family.mods"
    fam.write_text("algmod\ndim 2\nact 1 = [1 0] [0 0]\nact 2 = [0 0] [0 1]\nact 3 = [0 0] [1 0]\n"
                   "algmod\ndim 1\nact 1 = [1]\n")
    assert main(["qh", files["a2.alg"], "--delta", str(fam)]) == 3
    out = capsys.readouterr().out
    assert "condition 4 (regular module filtered): undecided (two modules of the family have the same top)" in out
    assert out.count("undecided (two modules of the family have the same top)") == 4
    assert out.rstrip().endswith("overall: undecided")


@pytest.mark.parametrize("argv", [
    ["reduce", "kron.dit", "-d", "-1"],
    ["reduce", "kron.dit", "--endolength", "-1"],
    ["reduce", "kron.dit", "--oracle", "--max-dim", "-1"],
    ["reduce", "kron.dit", "--budget", "-1"],
    ["generics", "kron.dit", "-d", "-1"],
    ["generics", "kron.dit", "--budget", "-1"],
    ["enumerate", "kron.dit", "--max-dim", "-1"],
], ids=lambda a: " ".join(a[:1] + a[2:]))
def test_negative_sizes_exit_2(files, capsys, argv):
    argv = [argv[0], files[argv[1]]] + argv[2:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected an integer >= 0, got '-1'" in capsys.readouterr().err


def test_zero_sizes_accepted(files, capsys):
    assert main(["enumerate", files["kron.dit"], "--max-dim", "0"]) == 0
    assert "total dimension <= 0: 0" in capsys.readouterr().out
    assert main(["reduce", files["reg.dit"], "-d", "0", "--oracle", "--max-dim", "0"]) == 0
    assert "dimension <= 0: 0 covered, 0 missing" in capsys.readouterr().out
    assert main(["reduce", files["kron.dit"], "--budget", "0"]) == 3
    assert "no minimal layer within 0 steps" in capsys.readouterr().err


def _fresh_main(argv):
    """(exit code, stdout, stderr) of `main(argv)` in a fresh interpreter."""
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); from ditred.cli import main; "
            f"raise SystemExit(main({argv!r}))")
    proc = subprocess.run([sys.executable, "-E", "-c", code], capture_output=True, text=True, timeout=120,
                          env={"COLUMNS": "80", "PATH": ""})
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call(files, tmp_path, capsys, monkeypatch):
    """The parser is built once per process.  A sequence of calls in one
    process, over every subcommand, with options given and then omitted and
    an argparse error in between, prints what each call prints alone."""
    monkeypatch.setenv("COLUMNS", "80")
    from ditred.algebras import AlgMod, algebra_from_text, algmod_to_text

    mod_path = tmp_path / "reg.mod"
    mod_path.write_text(algmod_to_text(AlgMod.regular(algebra_from_text(A2_ALG))))
    trace_path = str(tmp_path / "kron.trace")
    sequence = [
        ["reduce", files["reg.dit"], "-d", "2", "--oracle", "--max-dim", "2"],
        ["reduce", files["reg.dit"]],
        ["check", files["kron.dit"], "--field", "fp:2"],
        ["check", files["kron.dit"]],
        ["reduce", files["kron.dit"], "-d", "-1"],
        ["reduce", files["kron.dit"], "-d", "1", "--trace-out", trace_path, "--budget", "9"],
        ["reduce", files["kron.dit"], "-d", "1"],
        ["qh", files["a2.alg"]],
        ["enumerate", files["kron.dit"], "--max-dim", "2", "--field", "fp:2"],
        ["enumerate", files["kron.dit"], "--max-dim", "1"],
        ["bogus"],
        ["filtration", files["a2.alg"], str(mod_path)],
        ["generics", files["kron.dit"], "-d", "2"],
        ["generics", files["kron.dit"], "-d", "1", "--field", "fp:3"],
        ["reduce", files["kron.dit"], "--budget", "1"],
    ]
    assert {argv[0] for argv in sequence} >= {"check", "reduce", "qh", "filtration", "generics", "enumerate"}
    codes = []
    for argv in sequence:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        codes.append(rc)
        assert (rc, out, err) == _fresh_main(argv), argv
    assert 2 in codes and 3 in codes and 0 in codes
