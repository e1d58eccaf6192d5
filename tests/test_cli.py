"""CLI dispatch, exit-code contract, deterministic structured reports,
and serialize/parse identity on emitted artifacts."""
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlie3 import (InputError, PreconditionError, RTensor, Witness,
                     check_algebra, check_prelie, check_symplectic,
                     compatible_prelie, equivalence_suite, fileio,
                     nilpotent_extension, semidirect_sum)
from homlie3.cli import HANDLERS, MAX_DIM, _witness_doc, main, report_doc

from conftest import CAYLEY_S, a4_cayley, n4

FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# The documents of the .rep and .rmat inputs, which no verb writes.

def rep_to_doc(r) -> dict:
    n = r.base.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            if any(map(any, r.rho[i][j].entries)):
                rows.append([i + 1, j + 1, fileio._matrix_doc(r.rho[i][j])])
    return {"algebra": fileio.algebra_to_doc(r.base), "vdim": r.vdim,
            "rho": rows, "A": fileio._matrix_doc(r.A)}


def rtensor_to_doc(r) -> dict:
    return {"algebra": fileio.algebra_to_doc(r.base),
            "matrix": fileio._matrix_doc(r.entries)}


# ------------------------------------------------------------- exit code 0

def test_check_algebra_passes(capsys):
    code, out, _ = run(["check", "algebra", fx("n4.alg")], capsys)
    assert code == 0
    for part in ("skew", "hom_jacobi", "multiplicative"):
        assert part in out
    assert "PASS" in out and "FAIL" not in out


def test_check_algebra_regular_flag(capsys):
    code, out, _ = run(["check", "algebra", fx("n4.alg"), "--regular"], capsys)
    assert code == 0
    assert "regular" in out


@pytest.mark.parametrize("argv", [
    ["check", "algebra", fx("n4diag.alg")],
    ["check", "prelie", fx("n4prelie.plg")],
    ["check", "rep", fx("coadjoint.rep")],
    ["check", "chybe", fx("r12.rmat")],
    ["check", "residual", fx("r12.rmat")],
    ["check", "o-operator", fx("symp.oop")],
    ["check", "symplectic", fx("n4.alg"), fx("omega.frm")],
    ["check", "matched-pair", fx("trivial.mpair")],
    ["check", "manin", fx("zero.cob")],
    ["check", "double", fx("zero.cob")],
    ["check", "equivalence", fx("zero.cob")],
    ["check", "cobracket", fx("zero.cob")],
    ["report", "derivations", fx("n4.alg")],
])
def test_passing_fixtures_exit_zero(argv, capsys):
    code, _, _ = run(argv, capsys)
    assert code == 0


# ------------------------------------------------- exit code 1: math failure

def test_corrupted_algebra_exits_one_with_witness(capsys):
    code, out, _ = run(["check", "algebra", fx("corrupted.alg")], capsys)
    assert code == 1
    assert "FAIL" in out
    # lexicographically first violating tuple, 1-based in reports
    assert "hom_jacobi" in out
    assert "(1,2,1,3,4)" in out


def test_corrupted_structured_witness(capsys):
    code, out, _ = run(["check", "algebra", fx("corrupted.alg"),
                        "--format", "structured"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    parts = dict(doc["parts"])
    assert parts["hom_jacobi"]["witness"]["at"] == [1, 2, 1, 3, 4]


def test_residual_witness_pairs_are_one_based_rationals(tmp_path, capsys):
    """The residual identity fails on the Cayley-twisted A4 with CAYLEY_S;
    its witness sides are (index, value) pairs, shown like every other
    witness: 1-based index, "p/q" value."""
    path = str(tmp_path / "cayley.rmat")
    fileio.dump(rtensor_to_doc(RTensor(a4_cayley(), CAYLEY_S)), path)
    left = ["(1, -792/289)", "(2, 36/289)", "(3, -1368/289)", "(4, 1116/289)"]
    code, out, _ = run(["check", "residual", path], capsys)
    assert code == 1
    assert f"witness residual at (1,2,3): left={left} right=[]" in out
    code, out, _ = run(["check", "residual", path, "--format", "structured"],
                       capsys)
    assert code == 1
    w = dict(json.loads(out)["parts"])["residual"]["witness"]
    assert (w["at"], w["left"], w["right"]) == ([1, 2, 3], left, [])


def test_witness_sides_render_by_their_kind():
    """A side renders from the witness's kind, not from its values' types:
    a matrix row of ints is a row (printed as Fractions, as always), and a
    pair of ints a 1-based (index, value) pair."""
    row = ["(Fraction(1, 1), Fraction(0, 1))", "(Fraction(1, 2), Fraction(-3, 1))"]
    doc = _witness_doc(Witness("rep_action", (0, 1), ((1, 0), (F(1, 2), -3)),
                               (), "rows"))
    assert (doc["at"], doc["left"], doc["right"]) == ([1, 2], row, [])
    doc = _witness_doc(Witness("residual", (0,), ((1, 0), (2, F(1, 2))),
                               ((0, 5),), "pairs"))
    assert (doc["left"], doc["right"]) == (["(2, 0)", "(3, 1/2)"], ["(1, 5)"])
    doc = _witness_doc(Witness("skew", (0, 1, 2, 3), (F(4, 2),), (0,)))
    assert (doc["left"], doc["right"]) == (["2"], ["0"])
    with pytest.raises(ValueError, match="witness kind"):
        Witness("skew", (), (), (), "matrix")


# --------------------------------------- exit code 2: input / precondition

def test_missing_file_exits_two(capsys):
    code, _, err = run(["check", "algebra", fx("nope.alg")], capsys)
    assert code == 2
    assert "no such file" in err


def test_invalid_json_exits_two(capsys):
    code, _, err = run(["check", "algebra", fx("broken.alg")], capsys)
    assert code == 2
    assert "invalid JSON" in err


def _with_newlines(tmp_path, name, newline):
    """A copy of fixture ``name`` whose line endings are ``newline``."""
    path = tmp_path / name
    with open(fx(name), "rb") as fh:
        path.write_bytes(fh.read().replace(b"\n", newline))
    return str(path)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_line_endings_load_alike(tmp_path, newline):
    path = _with_newlines(tmp_path, "n4diag.alg", newline)
    assert fileio.load_algebra(path) == fileio.load_algebra(fx("n4diag.alg"))


def test_invalid_json_line_counts_lone_cr(tmp_path):
    """A lone carriage return ends a line, as it does in text mode."""
    path = _with_newlines(tmp_path, "broken.alg", b"\r")
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(json.JSONDecodeError) as text_mode:
            json.load(fh)
    assert text_mode.value.lineno > 1
    with pytest.raises(InputError, match=f"line {text_mode.value.lineno}: "):
        fileio.load_algebra(path)


def test_loader_refuses_a_directory_and_a_missing_path(tmp_path):
    with pytest.raises(InputError, match=r"cannot read \(Is a directory\)"):
        fileio.load_algebra(str(tmp_path))
    with pytest.raises(InputError, match="no such file"):
        fileio.load_algebra(str(tmp_path / "nope.alg"))


@pytest.mark.parametrize("name, content, message", [
    ("a-directory", None, "cannot read"),
    ("latin1.alg", b'{"dim": 4, "label": "caf\xe9"}\n', "not UTF-8"),
    ("number.alg", b"42\n", "expected a JSON object"),
], ids=["directory", "non-utf8", "non-object"])
def test_unreadable_input_exits_two(tmp_path, capsys, name, content, message):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, _, err = run(["check", "algebra", str(path)], capsys)
    assert code == 2
    assert message in err


def _inlined(name):
    """A fixture's JSON with its algebra file references inlined, so that a
    modified copy can be written elsewhere."""
    with open(fx(name)) as fh:
        doc = json.load(fh)
    for key in ("algebra", "left", "right"):
        if isinstance(doc.get(key), str):
            with open(fx(doc[key])) as fh:
                doc[key] = json.load(fh)
    return doc


@pytest.mark.parametrize("target, name, field, value", [
    ("rep", "coadjoint.rep", "rho", 42),
    ("double", "zero.cob", "delta", None),
    ("prelie", "n4prelie.plg", "bracket", 7),
    ("matched-pair", "trivial.mpair", "mu", True),
], ids=["rep-rho", "cobracket-delta", "prelie-bracket", "matched-pair-mu"])
def test_non_list_rows_exit_two(tmp_path, capsys, target, name, field, value):
    doc = _inlined(name)
    doc[field] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code, _, err = run(["check", target, str(path)], capsys)
    assert code == 2
    assert f"{field}: expected a list of rows" in err


def test_matched_pair_duplicate_pair_exits_two(tmp_path, capsys):
    doc = _inlined("trivial.mpair")
    zero = [["0"] * 4 for _ in range(4)]
    doc["rho"] = [[1, 2, zero], [1, 2, zero]]
    path = tmp_path / "dup.mpair"
    path.write_text(json.dumps(doc))
    code, _, err = run(["check", "matched-pair", str(path)], capsys)
    assert code == 2
    assert "rho[2]: duplicate pair (1,2)" in err


@pytest.mark.parametrize("rows, message", [
    ([[[1], 2, 3, 4, "1"]], "bracket[1]: index [1] out of range 1..4"),
    ([[1, 2, 3, 4, "1"], [2, 3, 4, 1, "1"], [1, 2, 3, 4, "2"]],
     "bracket[3]: duplicate row (1, 2, 3, 4)"),
], ids=["unhashable-index", "duplicate-row"])
def test_bad_algebra_rows_exit_two(tmp_path, capsys, rows, message):
    doc = _inlined("n4.alg")
    doc["bracket"] = rows
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(doc))
    code, _, err = run(["check", "algebra", str(path)], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("target, name, field, rows, message", [
    ("algebra", "n4.alg", "bracket", [[1, 2, 3, 4, "1"], [1, 3, 2, 4, "1"]],
     "bracket[2]: indices must be strictly increasing"),
    ("algebra", "n4.alg", "bracket", [[1, 2, 3, 4, "1"], [2, 2, 3, 4, "1"]],
     "bracket[2]: repeated index among (2,2,3)"),
    ("algebra", "n4.alg", "bracket", [[1, 2, 3, 4, "1"], [1, 2, 4, 5, "1"]],
     "bracket[2]: index 5 out of range 1..4"),
    ("algebra", "n4.alg", "bracket", [[1, 2, 3, 4, "1"], [1, 2, 4, 4, "x"]],
     "bracket[2]: bad rational 'x': Invalid literal for Fraction: 'x'"),
    ("prelie", "n4prelie.plg", "bracket", [[1, 2, 3, 4, "1"], [3, 2, 1, 4, "1"]],
     "bracket[2]: first two indices must satisfy i < j"),
    ("rep", "coadjoint.rep", "rho", [[1, 2, [["0"] * 4] * 4], [2, 1, [["0"] * 4] * 4]],
     "rho[2]: indices must satisfy i < j"),
], ids=["unordered", "repeated", "out-of-range", "bad-value", "prelie-unordered",
        "rho-unordered"])
def test_bad_row_after_a_good_one_is_named(tmp_path, capsys, target, name,
                                           field, rows, message):
    """The first bad row is named by its row number, whichever check it
    fails, when the rows before it are well formed."""
    doc = _inlined(name)
    doc[field] = rows
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code, _, err = run(["check", target, str(path)], capsys)
    assert code == 2
    assert err == f"input error: {path}: {message}\n"


@pytest.mark.parametrize("target, name, path, message", [
    ("algebra", "n4.alg", ["twist", 0, 1],
     "twist: bad rational True (type bool)"),
    ("algebra", "n4.alg", ["dim"], "dim: expected a positive integer"),
    ("algebra", "n4.alg", ["bracket", 0, 0],
     "bracket[1]: index True out of range 1..4"),
    ("rep", "coadjoint.rep", ["vdim"], "vdim: expected a positive integer"),
], ids=["entry", "dim", "index", "vdim"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, target, name, path,
                                       message):
    """bool is an int subclass, but true in a file is no 1: exit 2."""
    doc = _inlined(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = True
    out = tmp_path / name
    out.write_text(json.dumps(doc))
    code, _, err = run(["check", target, str(out)], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("target, name, field, value, message", [
    ("algebra", "n4.alg", "label", True, "label: expected a string"),
    ("algebra", "n4.alg", "label", [1], "label: expected a string"),
    ("algebra", "n4.alg", "basis", [1, 2, 3, 4], "basis: expected 4 names"),
    ("algebra", "n4.alg", "basis", [None] * 4, "basis: expected 4 names"),
    ("prelie", "n4prelie.plg", "label", True, "label: expected a string"),
    ("prelie", "n4prelie.plg", "basis", [1, 2, 3, 4], "basis: expected 4 names"),
], ids=["algebra-label-bool", "algebra-label-list", "algebra-basis-ints",
        "algebra-basis-nulls", "prelie-label-bool", "prelie-basis-ints"])
def test_label_and_basis_must_be_strings(tmp_path, capsys, target, name,
                                         field, value, message):
    doc = _inlined(name)
    doc[field] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code, _, err = run(["check", target, str(path)], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("cells, message", [
    ({(0, 0): 1, (0, 1): True}, "twist: bad rational True (type bool)"),
    ({(0, 1): True}, "twist: bad rational True (type bool)"),
    ({(0, 0): 1, (1, 1): 1.0}, "twist: bad rational 1.0 (type float)"),
    ({(0, 1): [1]}, "twist: bad rational [1] (type list)"),
    ({(0, 3): "abc", (1, 0): "1/0"},
     "twist: bad rational 'abc': Invalid literal for Fraction: 'abc'"),
], ids=["int-beside-true", "str-beside-true", "int-beside-float",
        "unhashable", "first-of-two-bad-strings"])
def test_bad_matrix_entries_exit_two(tmp_path, capsys, cells, message):
    """A matrix is parsed per distinct string only when every entry is a
    string; a set merges 1 with true and 1.0, so any other entry must go
    through the row-major loop, which names the first bad entry."""
    doc = _inlined("n4.alg")
    for (i, j), v in cells.items():
        doc["twist"][i][j] = v
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(doc))
    code, _, err = run(["check", "algebra", str(path)], capsys)
    assert code == 2
    assert err == f"input error: {path}: {message}\n"


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    """json decodes each nested array by recursion, so nesting past the
    recursion limit is an input error, not a traceback."""
    path = tmp_path / "deep.alg"
    path.write_text("[" * 5000)
    code, _, err = run(["check", "algebra", str(path)], capsys)
    assert code == 2
    assert err == f"input error: {path}: invalid JSON (nesting too deep)\n"


@pytest.mark.parametrize("value", ["1e5000", "-2.5E-5_000", "1e999999999"])
def test_exponent_past_the_digit_limit_exits_two(tmp_path, capsys, value):
    """An exponent at least the interpreter's int-digit limit (4300) is
    refused before Fraction forms its power of ten, which for 1e999999999
    would take minutes, and the message says so."""
    doc = _inlined("n4.alg")
    doc["twist"][0][1] = value
    path = tmp_path / "big.alg"
    path.write_text(json.dumps(doc))
    code, _, err = run(["check", "algebra", str(path)], capsys)
    assert code == 2
    assert err == (f"input error: {path}: twist: bad rational {value!r}: "
                   "exponent past the 4300-digit limit\n")


# 10**2200 parses and is written back; a product of two such values has
# 4401 digits, more than the interpreter spells (sys.get_int_max_str_digits).
BIG = "1e2200"
UNWRITABLE = "input error: a value has more than 4300 digits, too many to write\n"


def _big_n4(tmp_path, morph_diag):
    """N4 with [e1,e2,e3] = BIG e4, and the diagonal matrix morph_diag."""
    alg = _inlined("n4.alg")
    alg["bracket"][0][4] = BIG
    fileio.dump(alg, str(tmp_path / "big.alg"))
    fileio.dump({"dim": 4, "matrix": [[v if p == q else "0" for q in range(4)]
                                      for p, v in enumerate(morph_diag)]},
                str(tmp_path / "morph.mat"))
    return [str(tmp_path / "big.alg"), str(tmp_path / "morph.mat")]


def test_unwritable_artifact_exits_two(tmp_path, capsys):
    """diag(BIG, 1, 1, BIG) is a bracket morphism; the twisted bracket
    [e1,e2,e3] = BIG**2 e4 cannot be written, and no file is left."""
    code, stdout, err = run(["build", "twist",
                             *_big_n4(tmp_path, [BIG, "1", "1", BIG]),
                             "-o", str(tmp_path)], capsys)
    assert (code, stdout, err) == (2, "", UNWRITABLE)
    assert sorted(os.listdir(tmp_path)) == ["big.alg", "morph.mat"]


def test_unwritable_witness_exits_two(tmp_path, capsys):
    """A witness that would spell BIG**2 is refused, whether it is the
    precondition witness of a twist by a non-morphism or the matrix rows
    of a failed check."""
    code, _, err = run(["build", "twist",
                        *_big_n4(tmp_path, [BIG, "1", "1", "1"])], capsys)
    assert code == 2
    assert err == ("precondition failed: morph is not a bracket morphism\n"
                   + UNWRITABLE)
    # rho(e1, e2) B and B rho(e1, e2) differ at row 3, column 4 by BIG**2
    rep = _inlined("coadjoint.rep")
    rep["rho"][0][2][2][3] = "-" + BIG
    rep["A"][3][3] = BIG
    path = tmp_path / "big.rep"
    path.write_text(json.dumps(rep))
    code, stdout, err = run(["check", "rep", str(path)], capsys)
    assert (code, stdout, err) == (2, "", UNWRITABLE)


def test_dumps_refuses_an_unwritable_int():
    with pytest.raises(InputError, match="more than 4300 digits"):
        fileio.dumps({"n": 10 ** 4400})


def test_dimension_cap_exits_two(capsys):
    code, _, err = run(["check", "algebra", fx("toobig.alg")], capsys)
    assert code == 2
    assert f"exceeds the supported maximum {MAX_DIM}" in err


def test_unknown_operation_exits_two(capsys):
    code, _, err = run(["check", "frobnicate", fx("n4.alg")], capsys)
    assert code == 2
    assert "no operation" in err


def test_wrong_arity_exits_two(capsys):
    code, _, err = run(["check", "symplectic", fx("n4.alg")], capsys)
    assert code == 2
    assert "input file(s)" in err


def test_precondition_error_exits_two(tmp_path, capsys):
    # yau twist with a non-morphism must be rejected as a precondition, not
    # reported as a mathematical failure of the output
    doc = {"dim": 4, "matrix": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                ["0", "0", "1", "0"], ["0", "0", "0", "0"]]}
    bad = tmp_path / "proj.mat"
    fileio.dump(doc, str(bad))
    code, _, err = run(["build", "twist", fx("n4.alg"), str(bad),
                        "-o", str(tmp_path)], capsys)
    assert code == 2
    assert "precondition" in err


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_unwritable_output_exits_two(tmp_path, capsys, below):
    """An -o that names a file, or a path below one, is an input error."""
    some_file = tmp_path / "some_file"
    some_file.write_text("")
    out = some_file / "sub" if below else some_file
    code, _, err = run(["build", "twist", fx("n4.alg"), fx("morph.mat"),
                        "-o", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"input error: {out}: cannot write twisted.alg (")
    assert err.count("\n") == 1


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    """An artifact whose name is taken by a directory fails at the rename;
    the NAME.tmp written before it is removed."""
    (tmp_path / "twisted.alg").mkdir()
    code, _, err = run(["build", "twist", fx("n4.alg"), fx("morph.mat"),
                        "-o", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith(f"input error: {tmp_path}: cannot write twisted.alg (")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["twisted.alg"]


def test_dump_leaves_an_identical_file_alone(tmp_path):
    """A second dump of the same doc keeps the file's inode and mtime; a
    changed doc, a file holding more bytes and a symlink are replaced.
    No NAME.tmp is left in any case."""
    path = str(tmp_path / "n4.alg")
    doc = fileio.algebra_to_doc(fileio.load_algebra(fx("n4.alg")))
    fileio.dump(doc, path)
    old = os.stat(path)
    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns - 10 ** 9))
    before = os.stat(path)
    fileio.dump(doc, path)
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)
    assert os.listdir(tmp_path) == ["n4.alg"]
    data = fileio.dumps(doc).encode("ascii")
    changed = dict(doc, label="other")
    fileio.dump(changed, path)
    with open(path, "rb") as fh:
        assert fh.read() == fileio.dumps(changed).encode("ascii")
    assert os.stat(path).st_ino != before.st_ino
    with open(path, "wb") as fh:  # the doc's bytes and one more
        fh.write(data + b"\n")
    fileio.dump(doc, path)
    with open(path, "rb") as fh:
        assert fh.read() == data
    target = str(tmp_path / "target")
    with open(target, "wb") as fh:
        fh.write(data)
    os.remove(path)
    os.symlink(target, path)
    fileio.dump(doc, path)
    assert not os.path.islink(path)
    assert sorted(os.listdir(tmp_path)) == ["n4.alg", "target"]


# The input counts of every verb/target pair, as its wrong-arity message
# words them.
TAKES = {
    "check algebra": "1", "check rep": "1", "check prelie": "1",
    "check matched-pair": "1", "check manin": "1", "check double": "1",
    "check equivalence": "1", "check o-operator": "1", "check chybe": "1",
    "check residual": "1", "check cobracket": "1", "check symplectic": "2",
    "check metric": "2", "check phase-space": "2",
    "report derivations": "1 or 2", "derive derivations": "3",
    "build twist": "2", "derive twist": "2", "build semidirect": "1",
    "build subadjacent": "1", "build compatible-prelie": "1",
    "derive compatible-prelie": "2", "build cobracket": "1",
    "build manin": "1", "build phase-space": "1", "derive prelie": "2",
    "derive symplectic": "3", "build nilpotent": "1",
}


@pytest.mark.parametrize("key", sorted(HANDLERS), ids=" ".join)
def test_handler_inputs(key, tmp_path, capsys, monkeypatch):
    """Per verb/target: the wrong-arity message; exit 2 without a traceback
    for a missing file or a directory as input; a library operation binds
    every input count its verb allows, and its check one argument; and the
    loaders and the library operation are the ones on their modules at call
    time, where a tracer or a test patches them."""
    name = " ".join(key)
    counts = [int(c) for c in TAKES[name].split(" or ")]
    for k in (min(counts) - 1, max(counts) + 1):
        code, _, err = run([*key] + ["x"] * k, capsys)
        assert (code, err) == (2, f"error: '{name}' takes {TAKES[name]} "
                                  f"input file(s), got {k}\n")
    missing = str(tmp_path / "missing.json")
    for path, message in ((missing, "no such file"),
                          (str(tmp_path), "cannot read (")):
        code, out, err = run([*key] + [path] * max(counts), capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {path}: {message}")
        assert err.count("\n") == 1

    verb = HANDLERS[key]
    loaders = [n.strip("[]") for n in verb.inputs.split()]
    first = f"load_{loaders[0]}"

    def refuse(path, max_dim):
        raise InputError(f"stubbed {first}")
    monkeypatch.setattr(fileio, first, refuse)
    assert run([*key] + ["x"] * max(counts), capsys) == (
        2, "", f"input error: stubbed {first}\n")
    if callable(verb.op):
        return

    def library(name):
        module, _, attr = name.partition(".")
        return getattr(importlib.import_module(f"homlie3.{module}"), attr)
    for k in counts:
        inspect.signature(library(verb.op)).bind(*range(k))
    if verb.check:
        inspect.signature(library(verb.check)).bind(None)
    for loader in loaders:
        monkeypatch.setattr(fileio, f"load_{loader}",
                            lambda path, max_dim, loader=loader: (loader, path))
    got = []

    def op(*inputs):
        got.extend(inputs)
        raise PreconditionError("stubbed operation")
    module, _, attr = verb.op.partition(".")
    monkeypatch.setattr(importlib.import_module(f"homlie3.{module}"), attr, op)
    paths = [f"in{i}" for i in range(len(loaders))]
    assert run([*key] + paths, capsys) == (
        2, "", "precondition failed: stubbed operation\n")
    assert got == list(zip(loaders, paths))


# ------------------------------------------- exit codes on mutated fixtures

# A fixture for each loader, so that every verb/target pair runs on one.
FIXTURE_OF = {"algebra": "n4.alg", "rep": "coadjoint.rep",
              "prelie": "n4prelie.plg", "matched_pair": "trivial.mpair",
              "cobracket": "zero.cob", "o_operator": "symp.oop",
              "rtensor": "r12.rmat", "bilform": "omega.frm",
              "matrix": "morph.mat"}

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5),
    st.sampled_from([10 ** 30, -10 ** 30, 1.5, float("nan"), float("inf")]),
    st.sampled_from(["", "x", "0", "1", "-1/2", "1/0", "2/4", "1e3", "e1",
                     "skew", "symmetric", "9" * 5000]),
    st.lists(st.integers(0, 5), max_size=5),
    st.dictionaries(st.sampled_from(["dim", "basis", "x"]),
                    st.integers(0, 4), max_size=2))


def _paths(doc, at=()):
    """The path of every value in a JSON document, containers and the
    document itself included, in a fixed order."""
    yield at
    items = sorted(doc.items()) if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, at + (k,))


def _replaced(doc, path, value):
    """A copy of doc with the value at path replaced by value."""
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    node = copy
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return copy


def test_mutated_fixtures_exit_zero_one_or_two(tmp_path):
    """Each verb/target pair, run in process on its fixtures with one JSON
    value of one input (a leaf, a container or the whole document)
    replaced, exits 0, 1 or 2 and raises nothing."""
    docs = {}
    for name in FIXTURE_OF.values():
        with open(fx(name)) as fh:
            docs[name] = json.load(fh)
    out, mutated = str(tmp_path / "out"), str(tmp_path / "mutated.json")
    codes = set()

    def run_mutant(key, names, data):
        i = data.draw(st.integers(0, len(names) - 1))
        doc = docs[names[i]]
        path = data.draw(st.sampled_from(list(_paths(doc))))
        with open(mutated, "w") as fh:
            json.dump(_replaced(doc, path, data.draw(JSON_VALUES)), fh)
        paths = [mutated if j == i else fx(n) for j, n in enumerate(names)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([*key, *paths, "-o", out])
        assert code in (0, 1, 2), (key, names[i], path)
        codes.add(code)

    for key, verb in sorted(HANDLERS.items()):
        names = [FIXTURE_OF[n.strip("[]")] for n in verb.inputs.split()]
        settings(max_examples=20, deadline=None, derandomize=True,
                 database=None)(given(st.data())(
                     lambda data: run_mutant(key, names, data)))()
    assert codes == {0, 1, 2}


# ------------------------------------------------------------- determinism

ALL_CHECKS = [
    ["check", "algebra", fx("n4.alg")],
    ["check", "algebra", fx("n4diag.alg")],
    ["check", "algebra", fx("corrupted.alg")],
    ["check", "prelie", fx("n4prelie.plg")],
    ["check", "rep", fx("coadjoint.rep")],
    ["check", "chybe", fx("r12.rmat")],
    ["check", "residual", fx("r12.rmat")],
    ["check", "o-operator", fx("symp.oop")],
    ["check", "symplectic", fx("n4.alg"), fx("omega.frm")],
    ["check", "matched-pair", fx("trivial.mpair")],
    ["check", "equivalence", fx("zero.cob")],
    ["report", "derivations", fx("n4.alg")],
]


@pytest.mark.parametrize("argv", ALL_CHECKS, ids=lambda a: " ".join(
    os.path.basename(x) for x in a))
def test_structured_reports_are_byte_deterministic(argv, capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(argv + ["--format", "structured"], capsys)
        outs.append(out)
    assert outs[0] == outs[1]
    json.loads(outs[0])  # well-formed


# ------------------------------------------------- build verbs + round-trip

def test_build_phase_space_artifacts_recheck(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code, _, _ = run(["build", "phase-space", fx("n4prelie.plg"),
                          "-o", str(out)], capsys)
        assert code == 0
    # byte-identical artifacts across runs
    for name in ("phase_space.alg", "omega.frm"):
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes()
    # emitted artifacts re-check cleanly through the library
    total = fileio.load_algebra(str(out1 / "phase_space.alg"))
    omega = fileio.load_bilform(str(out1 / "omega.frm"))
    assert check_algebra(total).passed
    assert check_symplectic(total, omega).passed
    # and through the CLI
    code, _, _ = run(["check", "phase-space", fx("n4.alg"),
                      str(out1 / "phase_space.alg")], capsys)
    assert code == 0
    code, _, _ = run(["check", "symplectic", str(out1 / "phase_space.alg"),
                      str(out1 / "omega.frm")], capsys)
    assert code == 0


def test_build_twist_and_semidirect(tmp_path, capsys):
    code, _, _ = run(["build", "twist", fx("n4.alg"), fx("morph.mat"),
                      "-o", str(tmp_path)], capsys)
    assert code == 0
    twisted = fileio.load_algebra(str(tmp_path / "twisted.alg"))
    assert check_algebra(twisted).passed
    code, _, _ = run(["build", "semidirect", fx("coadjoint.rep"),
                      "-o", str(tmp_path)], capsys)
    assert code == 0
    assert check_algebra(fileio.load_algebra(str(tmp_path / "semidirect.alg"))).passed


def test_build_subadjacent_compatible_cobracket(tmp_path, capsys):
    code, _, _ = run(["build", "subadjacent", fx("n4prelie.plg"),
                      "-o", str(tmp_path)], capsys)
    assert code == 0
    code, _, _ = run(["build", "compatible-prelie", fx("symp.oop"),
                      "-o", str(tmp_path)], capsys)
    assert code == 0
    code, _, _ = run(["build", "cobracket", fx("r12.rmat"),
                      "-o", str(tmp_path)], capsys)
    assert code == 0
    code, _, _ = run(["check", "double", str(tmp_path / "cobracket.cob")], capsys)
    assert code == 0


# Verb/target pairs that run a library call as it is: the argv, the
# loader of its input, the call, and for a built artifact its check, its
# file and its writer.
LIBRARY_ROWS = [
    (["check", "equivalence", "zero.cob"], fileio.load_cobracket,
     equivalence_suite, None, None, None),
    (["build", "semidirect", "coadjoint.rep"], fileio.load_rep,
     semidirect_sum, check_algebra, "semidirect.alg", fileio.algebra_to_doc),
    (["build", "compatible-prelie", "symp.oop"], fileio.load_o_operator,
     compatible_prelie, check_prelie, "compatible.plg", fileio.prelie_to_doc),
]


@pytest.mark.parametrize("argv,load,op,check,name,to_doc", LIBRARY_ROWS,
                         ids=[" ".join(row[0][:2]) for row in LIBRARY_ROWS])
def test_library_rows_emit_the_library_result(argv, load, op, check, name,
                                              to_doc, tmp_path, capsys):
    """The structured report and the written artifact of a verb are those
    of its library call on the loaded input."""
    *key, fixture = argv
    report = obj = op(load(fx(fixture)))
    if check:
        report = check(obj)
    code, out, err = run([*key, fx(fixture), "--format", "structured",
                          "-o", str(tmp_path)], capsys)
    assert (code, out, err) == (0 if report.passed else 1,
                                fileio.dumps(report_doc(report)), "")
    assert os.listdir(tmp_path) == ([name] if name else [])
    if name:
        with open(tmp_path / name) as fh:
            assert fh.read() == fileio.dumps(to_doc(obj))


def test_build_nilpotent_bundle(tmp_path, capsys):
    # steps=2 keeps the double at dim 8, within the CLI's input cap, so the
    # emitted artifacts can be re-checked through the CLI itself
    code, _, _ = run(["build", "nilpotent", fx("n4.alg"), "--steps", "2",
                      "-o", str(tmp_path)], capsys)
    assert code == 0
    code, _, _ = run(["check", "symplectic", str(tmp_path / "double.alg"),
                      str(tmp_path / "omega.frm")], capsys)
    assert code == 0
    code, _, _ = run(["check", "metric", str(tmp_path / "double.alg"),
                      str(tmp_path / "metric.frm")], capsys)
    assert code == 0


def test_nilpotent_double_above_cap_is_refused_on_recheck(tmp_path, capsys):
    # steps=3 is still buildable (double dim 16), but the double exceeds the
    # input cap, so feeding it back is an input error, not a math failure
    code, _, _ = run(["build", "nilpotent", fx("n4.alg"), "--steps", "3",
                      "-o", str(tmp_path)], capsys)
    assert code == 0
    code, _, err = run(["check", "symplectic", str(tmp_path / "double.alg"),
                        str(tmp_path / "omega.frm")], capsys)
    assert code == 2
    assert "exceeds the supported maximum" in err
    # the library itself (no cap) confirms the artifacts are sound
    total = fileio.load_algebra(str(tmp_path / "double.alg"))
    omega = fileio.load_bilform(str(tmp_path / "omega.frm"))
    assert check_symplectic(total, omega).passed


def test_build_nilpotent_refuses_oversized_double(tmp_path, capsys):
    code, _, err = run(["build", "nilpotent", fx("n4.alg"), "--steps", "8",
                        "-o", str(tmp_path)], capsys)
    assert code == 2
    assert f"exceeds the supported maximum {4 * MAX_DIM}" in err
    assert not any(tmp_path.iterdir())


def test_derive_prelie_roundtrip(tmp_path, capsys):
    code, _, _ = run(["build", "phase-space", fx("n4prelie.plg"),
                      "-o", str(tmp_path)], capsys)
    assert code == 0
    code, _, _ = run(["derive", "prelie", fx("n4.alg"),
                      str(tmp_path / "phase_space.alg"), "-o", str(tmp_path)],
                     capsys)
    assert code == 0
    recovered = fileio.load_prelie(str(tmp_path / "prelie.plg"))
    original = fileio.load_prelie(fx("n4prelie.plg"))
    assert recovered.dim == original.dim
    assert recovered.twist == original.twist
    assert sorted(recovered.product.items()) == sorted(original.product.items())


# ------------------------------------------ serialize-parse identity

def _roundtrip(path, loader, to_doc):
    obj = fileio.load_algebra(path) if loader is None else loader(path)
    return fileio.dumps(to_doc(obj)).encode() == open(path, "rb").read()


@pytest.mark.parametrize("name,loader,to_doc", [
    ("n4.alg", fileio.load_algebra, fileio.algebra_to_doc),
    ("n4diag.alg", fileio.load_algebra, fileio.algebra_to_doc),
    ("n4prelie.plg", fileio.load_prelie, fileio.prelie_to_doc),
    ("omega.frm", fileio.load_bilform, fileio.bilform_to_doc),
    ("coadjoint.rep", fileio.load_rep, rep_to_doc),
    ("r12.rmat", fileio.load_rtensor, rtensor_to_doc),
    ("zero.cob", fileio.load_cobracket, fileio.cobracket_to_doc),
    ("morph.mat", fileio.load_matrix, fileio.matrix_to_doc),
])
def test_serialize_parse_identity(name, loader, to_doc):
    assert _roundtrip(fx(name), loader, to_doc)


@pytest.fixture(scope="module")
def size_limit_bundle():
    """The nilpotent bundle of N4 at steps 7: double dim 48, the limit."""
    bundle, _ = nilpotent_extension(n4(), 7)
    return bundle


@pytest.mark.parametrize("field, loader, to_doc", [
    ("extension", fileio.load_algebra, fileio.algebra_to_doc),
    ("derivation", fileio.load_matrix, fileio.matrix_to_doc),
    ("double", fileio.load_algebra, fileio.algebra_to_doc),
    ("metric", fileio.load_bilform, fileio.bilform_to_doc),
    ("omega", fileio.load_bilform, fileio.bilform_to_doc),
])
def test_size_limit_artifacts_serialize_parse_identity(
        tmp_path, size_limit_bundle, field, loader, to_doc):
    path = str(tmp_path / field)
    fileio.dump(to_doc(getattr(size_limit_bundle, field)), path)
    assert _roundtrip(path, loader, to_doc)


def test_emitted_artifacts_serialize_parse_identity(tmp_path, capsys):
    code = main(["build", "phase-space", fx("n4prelie.plg"), "-o", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert _roundtrip(str(tmp_path / "phase_space.alg"),
                      fileio.load_algebra, fileio.algebra_to_doc)
    assert _roundtrip(str(tmp_path / "omega.frm"),
                      fileio.load_bilform, fileio.bilform_to_doc)


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(st.text()),
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(st.text(), kids)),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(_JSON_TREES)
@example({"f": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
          "e": [[], {}, (), ""], "s": ["\u00e9\u2603\ud83d\ude00", "\"\\\n\x00"]})
@example([[1, 2, 3, 4, "5/7"]])
@example([[1, True], [True, 1], [0, False]])
@example({"m": [["0", "1/2", "0"], ["1/2", "0", "-1"], ["0", "-1", "1/2"]]})
@example([[], ["a"], ()])
@example([[{"a": 1}, 1.5], [None, "\u00e9"], ["x", -0.0, None]])
@example([["\u2603", "b"], [float("nan"), "\u2603"]])
@example({"parts": [["skew", {"checked": 5, "passed": True, "parts": [],
                                "witness": None}]],
          "witness": {"at": [1, 2, 3], "check": "skew",
                      "left": ["1/2"], "right": []}})
def test_dumps_is_json_dumps(doc):
    assert fileio.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    _, out, _ = run(["check", "algebra", fx("n4.alg"), "--regular"], capsys)
    assert "regular" in out
    _, out, _ = run(["check", "algebra", fx("n4.alg")], capsys)
    assert "regular" not in out
    dims = []
    for name, steps in (("s3", ["--steps", "3"]), ("default", [])):
        code, _, _ = run(["build", "nilpotent", fx("n4.alg"), *steps,
                          "-o", str(tmp_path / name)], capsys)
        assert code == 0
        dims.append(fileio.load_algebra(str(tmp_path / name / "double.alg")).dim)
    assert dims == [16, 8]


# --------------------------------------------------------- console entry

def test_installed_entry_point():
    r = subprocess.run([sys.executable, "-m", "homlie3.cli",
                        "check", "algebra", fx("n4.alg")],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "PASS" in r.stdout
