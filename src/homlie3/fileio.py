r"""Structured-text (JSON) formats for every artifact the toolkit consumes
or emits. Indices in files are 1-based; algebra bracket rows are given only
for i<j<k and skew-completed on load; rationals travel as "p/q" strings
(denominator omitted when 1). Serializers are canonical: loading then
saving a saved file reproduces it byte for byte.

Every byte the toolkit writes goes through ``dumps``. Its contract is byte
equality with ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` for
documents of str-keyed dicts, lists, tuples, strings, ints, bools, None
and floats; it spells a list of scalars, such as a matrix row or a bracket
row, in one join instead of ``json``'s per-item Python loop. A matrix whose
entries are all strings is parsed once per distinct string, not once per
entry.

Only this module opens, renames or removes files. An artifact is written
atomically: its bytes go to NAME.tmp, which is renamed into place, and
removed if the write or the rename fails. A file is read as UTF-8 with
universal newlines ("\r\n" and a lone "\r" end a line, as in text mode),
so a JSON error names the same line as an editor does.
"""
from __future__ import annotations

import contextlib
import json
import os
import stat
from itertools import chain, repeat
from operator import lt, sub

from .exactlin import InputError, Mat, Tensor4, _unwritable, rat, rat_str
from .homlie import Algebra3
from .reps import Rep3, rep_from_upper
from .bialgebra import BilForm, Cobracket, MatchedPairData
from .prelie import OOperator, PreLie3
from .yangbaxter import RTensor

def _ctx(path: str | None, field: str) -> str:
    return f"{path or '<inline>'}: {field}"


def _read_text(path: str) -> str:
    r"""The file's bytes, read by ``os.read`` until end of file, decoded as
    UTF-8, with "\r\n" and a lone "\r" read as "\n" as text mode reads
    them."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = b"".join(iter(lambda: os.read(fd, 1 << 20), b""))
    finally:
        os.close(fd)
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(_read_text(path))
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except OSError as e:  # a directory, an unreadable file, ...
        raise InputError(f"{path}: cannot read ({e.strerror})")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text (byte {e.start})")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno}: invalid JSON ({e.msg})")
    except RecursionError:  # json decodes each nested array by recursion
        raise InputError(f"{path}: invalid JSON (nesting too deep)")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _need(doc: dict, field: str, path: str | None):
    if field not in doc:
        raise InputError(f"{_ctx(path, field)}: missing field")
    return doc[field]


def _need_rows(doc: dict, field: str, path: str | None) -> list:
    rows = _need(doc, field, path)
    if not isinstance(rows, list):
        raise InputError(f"{_ctx(path, field)}: expected a list of rows")
    return rows


def _parse_rat(v, where: str):
    try:
        return rat(v)
    except InputError as e:  # rat's reason: "bad rational ...: why"
        raise InputError(f"{where}: {e}") from None


def _parse_matrix(v, where: str, rows: int, cols: int) -> Mat:
    """A matrix parsed once per distinct entry when every entry is a
    string, so a file's many "0" cost one ``rat`` call. Any other entry
    sends the whole matrix through the row-major loop, which names the
    first bad entry. Only ``str`` may take the fast path: a str equals only
    a str, so a type test on the distinct entries covers every entry. For
    any other type it would not, as a set merges values equal across
    types: {1, True} is {1}."""
    if (not isinstance(v, list) or len(v) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in v)):
        raise InputError(f"{where}: expected a {rows}x{cols} row-major matrix")
    try:
        distinct = set().union(*v)
        if all(type(x) is str for x in distinct):
            memo = {x: rat(x) for x in distinct}
            return Mat._of([tuple(map(memo.__getitem__, row)) for row in v])
    except (TypeError, InputError):  # an unhashable or a bad entry
        pass
    return Mat([[_parse_rat(x, where) for x in row] for row in v])


def _matrix_doc(m: Mat) -> list:
    """The rows of m as "p/q" strings, read from its nonzero view: each
    distinct value is converted once (equal values spell alike: an integral
    Fraction as its int), and every zero is the one string "0"."""
    spell = {v: rat_str(v) for v in {v for r in m.nonzeros for _, v in r}}
    rows = [["0"] * m.cols for _ in m.nonzeros]
    for row, pairs in zip(rows, m.nonzeros):
        for j, v in pairs:
            row[j] = spell[v]
    return rows


def _parse_dim(doc: dict, path: str | None, max_dim: int | None,
               field: str = "dim") -> int:
    n = _need(doc, field, path)
    if type(n) is not int or n < 1:  # type(), so that a JSON boolean is refused
        raise InputError(f"{_ctx(path, field)}: expected a positive integer")
    if max_dim is not None and n > max_dim:
        raise InputError(f"{_ctx(path, field)}: dimension {n} exceeds the "
                         f"supported maximum {max_dim}")
    return n


def _parse_basis(doc: dict, path: str | None, n: int) -> tuple:
    basis = doc.get("basis", [f"e{i + 1}" for i in range(n)])
    if (not isinstance(basis, list) or len(basis) != n
            or not all(isinstance(b, str) for b in basis)):
        raise InputError(f"{_ctx(path, 'basis')}: expected {n} names")
    return tuple(basis)


def _parse_label(doc: dict, path: str | None) -> str:
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise InputError(f"{_ctx(path, 'label')}: expected a string")
    return label


def _index(v, where: str, n: int) -> int:
    if type(v) is not int or not 1 <= v <= n:  # a JSON boolean is refused too
        raise InputError(f"{where}: index {v!r} out of range 1..{n}")
    return v - 1


def _well_formed_rows(rows: list, where: str, width: int, n: int, value,
                      ordered: int):
    """``_read_rows``'s result if every row is well formed, read column by
    column with no per-row work but the value's parse, and each distinct
    string value parsed once; else None."""
    if not rows:
        return {}
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {width}:
        return None
    *idx, vals = zip(*rows)
    flat = list(chain.from_iterable(idx))
    # type(), so that a JSON boolean is refused
    if set(map(type, flat)) != {int} or min(flat) < 1 or max(flat) > n:
        return None
    if not all(all(map(lt, a, b)) for a, b in zip(idx, idx[1:ordered])):
        return None
    keys = list(zip(*[map(sub, c, repeat(1)) for c in idx]))
    if len(set(keys)) < len(keys):
        return None
    try:
        if set(map(type, vals)) == {str}:
            vals = map({s: value(s, where) for s in set(vals)}.__getitem__, vals)
        else:
            vals = map(value, vals, repeat(where))
        return dict(zip(keys, vals))
    except InputError:
        return None


def _read_rows(doc: dict, field: str, path: str | None, n: int,
               shape: str, value, ordered: int = 0, repeated: str = "",
               unordered: str = "", duplicate: str = "duplicate row") -> dict:
    """The rows of ``field`` as {0-based index tuple: value}, in file order.
    Each row is a list shaped as ``shape`` says, such as "[i, j, matrix]":
    indices in 1..n, then the item that ``value(item, where)`` parses. The
    first ``ordered`` indices must be strictly increasing. A row where they
    repeat is refused with ``repeated`` (or, if that is empty,
    ``unordered``), any other row out of order with ``unordered``, and a
    repeated index tuple with ``duplicate``; each message is a
    ``str.format`` template over the row's items.

    Well-formed rows are read by ``_well_formed_rows``. Only if some row is
    not are the rows checked one by one, in file order, with each row's
    location "field[r]" formatted, so the first failing check names the
    error."""
    rows = _need_rows(doc, field, path)
    where, width = _ctx(path, field), shape.count(",") + 1
    out = _well_formed_rows(rows, where, width, n, value, ordered)
    if out is not None:
        return out
    out = {}
    for rnum, row in enumerate(rows, 1):
        loc = f"{where}[{rnum}]"
        if not isinstance(row, list) or len(row) != width:
            raise InputError(f"{loc}: expected {shape}")
        key = tuple([_index(v, loc, n) for v in row[:-1]])
        if not all(map(lt, key, key[1:ordered])):
            if repeated and len(set(key[:ordered])) < ordered:
                raise InputError(f"{loc}: {repeated.format(*row)}")
            raise InputError(f"{loc}: {unordered.format(*row)}")
        if key in out:
            raise InputError(f"{loc}: {duplicate.format(*row)}")
        out[key] = value(row[-1], loc)
    return out


def _skew_bracket(doc: dict, path: str | None, n: int) -> Tensor4:
    """The skew-completed bracket of rows [i, j, k, l, value], i < j < k,
    built as the rows of a ``Tensor4`` directly: each value is parsed and
    negated once, and the (i, j, k, l) are distinct, so no entry is added
    to another."""
    rows = _read_rows(doc, "bracket", path, n, "[i, j, k, l, value]", _parse_rat,
                      ordered=3, repeated="repeated index among ({0},{1},{2})",
                      unordered="indices must be strictly increasing",
                      duplicate="duplicate row ({0}, {1}, {2}, {3})")
    out: dict = {}
    at = out.setdefault
    for (i, j, k, l), v in rows.items():
        if v:
            w = -v
            at((i, j, k), {})[l] = v
            at((j, k, i), {})[l] = v
            at((k, i, j), {})[l] = v
            at((i, k, j), {})[l] = w
            at((k, j, i), {})[l] = w
            at((j, i, k), {})[l] = w
    return Tensor4._of((n,) * 4, out)


def _prelie_product(doc: dict, path: str | None, n: int) -> Tensor4:
    """The product of rows [i, j, k, l, value], i < j, skew-completed in
    its first two slots, built as rows directly as in ``_skew_bracket``."""
    rows = _read_rows(doc, "bracket", path, n, "[i, j, k, l, value]", _parse_rat,
                      ordered=2, repeated="repeated index in the skew pair",
                      unordered="first two indices must satisfy i < j")
    out: dict = {}
    for (i, j, k, l), v in rows.items():
        if v:  # (i, j, k, l) and (j, i, k, l) are distinct keys
            out.setdefault((i, j, k), {})[l] = v
            out.setdefault((j, i, k), {})[l] = -v
    return Tensor4._of((n,) * 4, out)


def _read_bracketed(doc: dict, path: str | None, max_dim: int | None,
                    tensor) -> tuple:
    """(dim, tensor, twist, label) of an algebra or pre-Lie document, read
    in the order dim, basis, label, bracket rows (by ``tensor``), twist."""
    n = _parse_dim(doc, path, max_dim)
    _parse_basis(doc, path, n)
    label = _parse_label(doc, path)
    t = tensor(doc, path, n)
    twist = _parse_matrix(_need(doc, "twist", path), _ctx(path, "twist"), n, n)
    return n, t, twist, label


def _bracketed_doc(x, rows: list) -> dict:
    """The document of an algebra or pre-Lie product ``x`` with the rows
    ((i, j, k), {l: value}) of ``rows`` as [i, j, k, l, value], 1-based and
    sorted; a caller selects them in a comprehension, with no call per row."""
    doc = {"dim": x.dim,
           "basis": [f"e{i + 1}" for i in range(x.dim)],
           "bracket": [[i + 1, j + 1, k + 1, l + 1, rat_str(v)]
                       for (i, j, k), vec in sorted(rows)
                       for l, v in sorted(vec.items())],
           "twist": _matrix_doc(x.twist)}
    if x.label:
        doc["label"] = x.label
    return doc


def load_algebra(path: str, max_dim: int | None = None) -> Algebra3:
    return algebra_from_doc(_load_json(path), path, max_dim)


def algebra_from_doc(doc: dict, path: str | None = None,
                     max_dim: int | None = None) -> Algebra3:
    return Algebra3(*_read_bracketed(doc, path, max_dim, _skew_bracket))


def algebra_to_doc(a: Algebra3) -> dict:
    return _bracketed_doc(a, [(t, vec) for t, vec in a.bracket.rows()
                              if t[0] < t[1] < t[2]])


def _algebra(doc: dict, field: str, path: str, max_dim) -> Algebra3:
    """The algebra in ``field``: an inline object or a path relative to the
    referencing file."""
    ref = _need(doc, field, path)
    if isinstance(ref, dict):
        return algebra_from_doc(ref, None, max_dim)
    if isinstance(ref, str):
        ref_path = os.path.join(os.path.dirname(path), ref)
        return algebra_from_doc(_load_json(ref_path), ref, max_dim)
    raise InputError(f"{_ctx(path, 'algebra')}: expected a file path or inline object")


def load_rep(path: str, max_dim: int | None = None) -> Rep3:
    doc = _load_json(path)
    base = _algebra(doc, "algebra", path, max_dim)
    m = _parse_dim(doc, path, max_dim, "vdim")
    return _rep_from_rows(doc, path, base, m, "rho", "A")


def _rep_from_rows(doc: dict, path: str | None, base: Algebra3, vdim: int,
                   field: str, twist_field: str) -> Rep3:
    """A representation from rows [i, j, matrix], i < j and each pair at
    most once, in ``field`` and its carrier twist in ``twist_field``."""
    upper = _read_rows(doc, field, path, base.dim, "[i, j, matrix]",
                       lambda v, loc: _parse_matrix(v, loc, vdim, vdim),
                       ordered=2, unordered="indices must satisfy i < j",
                       duplicate="duplicate pair ({0},{1})")
    A = _parse_matrix(_need(doc, twist_field, path), _ctx(path, twist_field),
                      vdim, vdim)
    return rep_from_upper(base, vdim, upper, A)


def load_cobracket(path: str, max_dim: int | None = None) -> Cobracket:
    doc = _load_json(path)
    base = _algebra(doc, "algebra", path, max_dim)
    n = base.dim
    rows = _read_rows(doc, "delta", path, n, "[i, j, l, k, value]", _parse_rat)
    out: dict = {}
    for (i, j, l, k), v in rows.items():
        if v:  # the keys are distinct, so no value is added to another
            out.setdefault((i, j, l), {})[k] = v
    return Cobracket(base, Tensor4._of((n,) * 4, out))


def cobracket_to_doc(c: Cobracket) -> dict:
    rows = [[i + 1, j + 1, l + 1, k + 1, rat_str(v)]
            for i, j, l, k, v in sorted(c.dual_c.items())]
    return {"algebra": algebra_to_doc(c.base), "delta": rows}


def load_prelie(path: str, max_dim: int | None = None) -> PreLie3:
    return PreLie3(*_read_bracketed(_load_json(path), path, max_dim,
                                    _prelie_product))


def prelie_to_doc(p: PreLie3) -> dict:
    return _bracketed_doc(p, [(t, vec) for t, vec in p.product.rows()
                              if t[0] < t[1]])


def load_rtensor(path: str, max_dim: int | None = None) -> RTensor:
    doc = _load_json(path)
    base = _algebra(doc, "algebra", path, max_dim)
    m = _parse_matrix(_need(doc, "matrix", path), _ctx(path, "matrix"),
                      base.dim, base.dim)
    return RTensor(base, m)


def load_bilform(path: str, max_dim: int | None = None) -> BilForm:
    doc = _load_json(path)
    n = _parse_dim(doc, path, max_dim)
    kind = _need(doc, "kind", path)
    if kind not in ("symmetric", "skew"):
        raise InputError(f"{_ctx(path, 'kind')}: expected 'symmetric' or 'skew'")
    m = _parse_matrix(_need(doc, "matrix", path), _ctx(path, "matrix"), n, n)
    return BilForm(n, m, kind)


def bilform_to_doc(f: BilForm) -> dict:
    return {"dim": f.dim, "kind": f.kind, "matrix": _matrix_doc(f.matrix)}


def load_matrix(path: str, max_dim: int | None = None) -> Mat:
    doc = _load_json(path)
    n = _parse_dim(doc, path, max_dim)
    return _parse_matrix(_need(doc, "matrix", path), _ctx(path, "matrix"), n, n)


def matrix_to_doc(m: Mat) -> dict:
    return {"dim": m.rows, "matrix": _matrix_doc(m)}


def load_matched_pair(path: str, max_dim: int | None = None) -> MatchedPairData:
    doc = _load_json(path)
    left = _algebra(doc, "left", path, max_dim)
    right = _algebra(doc, "right", path, max_dim)
    return MatchedPairData(
        left, right, _rep_from_rows(doc, path, left, right.dim, "rho", "rho_A"),
        _rep_from_rows(doc, path, right, left.dim, "mu", "mu_A"))


def load_o_operator(path: str, max_dim: int | None = None) -> OOperator:
    doc = _load_json(path)
    rep_ref = _need(doc, "rep", path)
    if not isinstance(rep_ref, str):
        raise InputError(f"{_ctx(path, 'rep')}: expected a representation file path")
    rep = load_rep(os.path.join(os.path.dirname(path), rep_ref), max_dim)
    T = _parse_matrix(_need(doc, "T", path), _ctx(path, "T"),
                      rep.base.dim, rep.vdim)
    return OOperator(rep, T)


_esc = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    r = float.__repr__(x)
    return _NONFINITE.get(r, r)


# How json.dumps spells a scalar, by its exact type.
_SCALAR = {str: _esc, int: int.__repr__, float: _float,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): lambda _: "null"}
_SCALARS = frozenset(_SCALAR)
_LISTS = frozenset((list, tuple))


def _not_json(o) -> TypeError:
    return TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _spell(x) -> str:
    try:
        return _SCALAR[type(x)](x)
    except KeyError:
        raise _not_json(x) from None


def _items(o, indent: str, spell) -> str:
    """The list ``o`` of scalars, each spelled by ``spell``, in one join."""
    if not o:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + (",\n" + inner).join(map(spell, o)) + f"\n{indent}]"


def _row_spell(rows):
    """The spelling of the items of ``rows``, a list of lists, if every
    item is a scalar, else None. The items are told apart by their distinct
    values, so a str, which equals only a str, is escaped once per value;
    a set merges 1 with True, so other scalars are spelled one by one."""
    if not set(map(type, rows[0])) <= _SCALARS:  # a report part, a rho row
        return None
    try:
        distinct = set().union(*rows)
    except TypeError:  # a later row holds a list or a dict
        return None
    leaves = set(map(type, distinct))
    if leaves == {str}:
        return {s: _esc(s) for s in distinct}.__getitem__
    return _spell if leaves <= _SCALARS else None


def _encode(o, indent: str) -> str:
    """``o`` as ``json.dumps(o, indent=2, sort_keys=True)`` spells it at
    the nesting whose line prefix is ``indent``. Each value is dispatched
    on its exact type, so a subclass of a JSON type is refused as json
    refuses any other type. A list of scalars (a bracket row, a witness
    ``at``) is spelled in one join, and so is each row of a list of scalar
    rows (a matrix, a bracket); only other lists recurse per item."""
    t = type(o)
    if t in _SCALARS:
        return _SCALAR[t](o)
    inner = indent + "  "
    if t is dict:
        if not o:
            return "{}"
        body = (",\n" + inner).join([f"{_esc(k)}: {_encode(x, inner)}"
                                      for k, x in sorted(o.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    if t not in _LISTS:
        raise _not_json(o)
    kinds = set(map(type, o))
    if kinds <= _SCALARS:
        return _items(o, indent, _esc if kinds == {str} else _spell)
    spell = _row_spell(o) if kinds <= _LISTS else None
    body = ([_items(row, inner, spell) for row in o] if spell
            else [_encode(x, inner) for x in o])
    return f"[\n{inner}" + (",\n" + inner).join(body) + f"\n{indent}]"


def _text(doc: dict) -> str:
    """The encoded ``doc`` and its newline; an InputError when an int in it
    has more digits than the interpreter spells."""
    try:
        return _encode(doc, "") + "\n"
    except ValueError:  # past sys.get_int_max_str_digits()
        raise _unwritable() from None


def dump(doc: dict, path: str) -> None:
    """Atomic, canonical write of ``dumps(doc)``: its ASCII bytes are
    written to NAME.tmp, which is then renamed over NAME. If the write or
    the rename fails, NAME.tmp is removed and the error raised. A regular
    file NAME that already holds exactly these bytes is left untouched."""
    data = _text(doc).encode("ascii")
    with contextlib.suppress(OSError):  # else the write below
        if stat.S_ISREG(os.lstat(path).st_mode):
            with open(path, "rb") as fh:
                if fh.read(len(data) + 1) == data:
                    return
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # keep the error that matters
            os.unlink(tmp)
        raise


def dumps(doc: dict) -> str:
    """Canonical text: sorted keys, two-space indent, ASCII, newline."""
    return _text(doc)
