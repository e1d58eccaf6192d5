"""Exact rational matrices, sparse rank-4 tensors, kernels and inverses.

Everything downstream works over the rationals with no rounding: structure
constants, twist maps and bilinear forms are matrices/tensors of exact
rationals. An element is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise: ``rat`` parses every input to that form,
``Mat`` and ``Tensor4`` store what it returns, and sums and products of
ints stay ints, so integral data is never promoted to ``Fraction``.
Arithmetic that mixes in a ``Fraction`` may leave an integral ``Fraction``
in a result; it compares, hashes and prints as the int it equals.
Matrix sums and products, ``mat_inverse``, ``sparse_kernel``, the
reciprocals of elimination and ``unlift`` turn one into its int
(``_normal``). Values are divided only in this module, always with a
``Fraction`` numerator so that the result stays exact: in
``_gauss_jordan`` and ``unlift``. All containers are immutable after
construction and all functions are pure.

Values pass ``rat`` once, at the boundary: the public constructors
``Mat(...)``, ``Mat.diag``, ``Tensor4(...)`` and ``Tensor4.from_entries``
parse their arguments, while ``Mat._of``, ``Mat._sparse`` and
``Tensor4._of`` trust rows that are already parsed and checked, and are
what every result built here from such values goes through.

Fraction-free checks lift rational data to ints. A ``Mat`` or ``Tensor4``
has a denominator ``den``, the lcm D of its entries' denominators (1 when
they are all ints), formed at most once per object, or set by the
producer that already knows it. ``lifted()`` is the copy D * x with int
entries, p/q becoming p * (D // q): the object itself when D is 1, so
integral data is never copied. An identity is compared on ints, each of
its terms scaled to one common factor, and ``unlift`` divides a lifted
value back by that factor only where it is shown (Bareiss's
integer-preserving arithmetic, *Math. Comp.* 22, 1968).

Kernels and inverses run on one sparse Gauss-Jordan routine,
``_gauss_jordan``: rows are {col: value} dicts and a pivot map takes each
pivot column to its normalised row, so a sparse system costs what its
nonzero entries cost. ``mat_rank`` eliminates forward on lifted ints, with
no ``Fraction``. A ``Mat`` holds its dense rows, the view of its rows'
nonzero (j, value) pairs, or both, and forms the other once, on first
read; one built by ``Mat._sparse`` holds only the view. Products, sums,
transposes, elimination and every scan of a matrix elsewhere read the
view, so O(n) nonzero entries cost O(n), not O(n**2). Equality compares
dense rows when both sides hold them, the views otherwise, so a matrix
read from a file keeps its dense path. A kernel basis is canonical: the
reduced row echelon form of the kernel, one vector per free column f with
a leading 1 at f. It depends only on the kernel, not on the rows that
define it or their order.
"""
from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

Rat = Fraction
ZERO = 0
ONE = 1


class InputError(ValueError):
    """Malformed or dimensionally inconsistent input."""


# The exponent of a decimal string such as "1.5e-3", as Fraction reads it.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def rat(x):
    """Parse a rational from an int, a Fraction, or a "p/q" string: an int
    when the value is integral, a Fraction otherwise. A bool is refused.

    A string of ASCII digits with an optional leading "-" is read by
    ``int``; any other string by ``Fraction``, so the strings accepted are
    those ``Fraction`` accepts, less those whose exponent is at least
    ``sys.get_int_max_str_digits()`` in size. Such an exponent alone puts
    a digit count past the limit up to which a value can be written, and
    it is refused before ``Fraction`` forms its power of ten, which for a
    short string such as "1e999999999" takes minutes.
    """
    # ints and strings first: isinstance(x, Fraction) is a slow ABC check
    if type(x) is int:
        return x
    if isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        try:
            if digits.isascii() and digits.isdigit():
                return int(x)
            exp, limit = _EXPONENT.search(x), sys.get_int_max_str_digits()
            if exp and limit and abs(int(exp[1])) >= limit:
                raise ValueError(f"exponent past the {limit}-digit limit")
            return _normal(Fraction(x))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational {x!r}: {e}") from None
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        if isinstance(x, bool):  # an int subclass, but not a number in a file
            raise InputError(f"bad rational {x!r} (type bool)")
        return int(x)
    raise InputError(f"bad rational {x!r} (type {type(x).__name__})")


def _normal(v):
    """A value of exact arithmetic in ``rat``'s form: an integral Fraction
    becomes its int numerator."""
    return v if type(v) is int or v.denominator != 1 else v.numerator


def rat_str(x) -> str:
    """Canonical "p/q" form, "p" when the denominator is 1."""
    try:
        return str(x)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise _unwritable() from None


def _unwritable() -> InputError:
    """The error for a value with more digits than the interpreter spells."""
    return InputError(f"a value has more than {sys.get_int_max_str_digits()} "
                      "digits, too many to write")


class Mat:
    """Immutable matrix of rationals.  ``M[i][j]``, row-major, with
    ``entries`` its dense rows, ``nonzeros`` the view of its nonzero
    entries (see the module notes) and ``den`` its denominator. The hash
    reads ``entries``."""

    __slots__ = ("rows", "cols", "_entries", "_nz", "_den")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(rat(v) for v in row) for row in entries)
        if not rows or not rows[0]:
            raise InputError("matrix must have positive dimensions")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise InputError("ragged matrix rows")
        self.rows, self.cols, self._entries = len(rows), cols, rows
        self._nz = self._den = None

    @staticmethod
    def _of(rows: Sequence[Sequence]) -> "Mat":
        """A Mat of rows of one length whose entries are already ``rat``
        values (an int when integral, else a Fraction), as ``Mat`` methods,
        the constructors and the file parser build them: nothing is parsed,
        and only an empty shape is refused."""
        m = object.__new__(Mat)
        m._entries = tuple(map(tuple, rows))
        if not m._entries or not m._entries[0]:
            raise InputError("matrix must have positive dimensions")
        m.rows, m.cols = len(m._entries), len(m._entries[0])
        m._nz = m._den = None
        return m

    @staticmethod
    def _sparse(nz: Sequence, cols: int) -> "Mat":
        """The Mat of ``cols`` columns whose rows have the nonzero (j, value)
        pairs nz, in column order, holding only this view."""
        if not nz or cols < 1:
            raise InputError("matrix must have positive dimensions")
        m = object.__new__(Mat)
        m.rows, m.cols, m._nz = len(nz), cols, tuple(map(tuple, nz))
        m._entries = m._den = None
        return m

    @property
    def entries(self) -> tuple:
        """The dense rows, formed from the view on first read."""
        if self._entries is None:
            rows = []
            for pairs in self._nz:
                row = [ZERO] * self.cols
                for j, v in pairs:
                    row[j] = v
                rows.append(tuple(row))
            self._entries = tuple(rows)
        return self._entries

    @property
    def nonzeros(self) -> tuple:
        """For each row i, the (j, M[i][j]) with nonzero entries."""
        if self._nz is None:
            self._nz = tuple(tuple(compress(enumerate(r), r))
                             for r in self._entries)
        return self._nz

    @property
    def den(self) -> int:
        """The lcm of the denominators of the entries, 1 when all are ints."""
        if self._den is None:
            self._den = lcm(*{v.denominator for pairs in self.nonzeros
                              for _, v in pairs})
        return self._den

    def lifted(self, d: int | None = None) -> "Mat":
        """d * M with int entries, for a d that ``den`` divides (``den`` by
        default); M itself when d is 1."""
        d = self.den if d is None else d
        if d == 1:
            return self
        m = Mat._sparse([[(j, v.numerator * (d // v.denominator))
                          for j, v in pairs] for pairs in self.nonzeros],
                        self.cols)
        m._den = 1
        return m

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat.diag([ONE] * n)

    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return Mat._sparse(((),) * r, c)

    @staticmethod
    def diag(values: Sequence) -> "Mat":
        vals = [rat(v) for v in values]
        return Mat._sparse([((i, v),) if v else () for i, v in enumerate(vals)],
                           len(vals))

    @staticmethod
    def block_diag(a: "Mat", b: "Mat") -> "Mat":
        shifted = tuple(tuple((j + a.cols, v) for j, v in pairs)
                        for pairs in b.nonzeros)
        m = Mat._sparse(a.nonzeros + shifted, a.cols + b.cols)
        if a._den is not None and b._den is not None:
            m._den = lcm(a._den, b._den)
        return m

    def __getitem__(self, i: int) -> Sequence:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return False
        if self._entries is not None and other._entries is not None:
            return self._entries == other._entries
        return self.cols == other.cols and self.nonzeros == other.nonzeros

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        out = []
        for pairs, more in zip(self.nonzeros, other.nonzeros):
            row = dict(pairs)
            for j, v in more:
                row[j] = row.get(j, ZERO) + v
            out.append(sorted((j, _normal(v)) for j, v in row.items() if v))
        return Mat._sparse(out, self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def __neg__(self) -> "Mat":
        if self._nz is None:
            return Mat._of([[-a for a in row] for row in self.entries])
        return Mat._sparse([[(j, -v) for j, v in pairs]
                            for pairs in self.nonzeros], self.cols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise InputError(f"matmul shape mismatch {self.shape} @ {other.shape}")
        # row i is the sum of a * other[k] over the nonzero a = self[i][k]
        nz = other.nonzeros
        out = []
        for pairs in self.nonzeros:
            acc: dict = {}
            for k, a in pairs:
                for j, b in nz[k]:
                    acc[j] = acc.get(j, ZERO) + a * b
            out.append(sorted((j, v if type(v) is int else _normal(v))
                              for j, v in acc.items() if v))
        return Mat._sparse(out, other.cols)

    def transpose(self) -> "Mat":
        if self._nz is None:
            m = Mat._of(zip(*self.entries))
        else:
            m = Mat._sparse(self.col_support(), self.rows)
        m._den = self._den
        return m

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Mat.identity(self.rows)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def col_support(self) -> list:
        """For each column j, the list of (i, M[i][j]) with nonzero entries."""
        cols = [[] for _ in range(self.cols)]
        for i, pairs in enumerate(self.nonzeros):
            for j, v in pairs:
                cols[j].append((i, v))
        return cols

    def _same_shape(self, other: "Mat") -> None:
        if self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(v) for v in row) for row in self.entries)
        return f"Mat[{body}]"


def _gauss_jordan(rows: Iterable, last: bool = False) -> dict:
    """Sparse Gauss-Jordan elimination of rows {col: value} or their pairs.

    Each row in turn is reduced by the pivot rows found so far. Its first
    nonzero column (its last when ``last``) becomes a new pivot: the row is
    scaled to 1 there and the column is cleared from every other pivot row.
    Returns the map of each pivot column to its row.

    Every pivot row keeps its pivot as its first (last) nonzero column and
    is zero at every other pivot, so the pivot rows in column order are the
    reduced row echelon form of the input, whatever the row order (with the
    columns read from the highest down when ``last``).
    """
    pick = max if last else min
    piv: dict = {}
    for row in rows:
        row = dict(row)
        for p in [c for c in row if c in piv]:
            vec_add_into(row, piv[p], -row[p])
        if not row:
            continue
        p = pick(row)
        v = row[p]
        if v != 1:
            inv = -1 if v == -1 else _normal(Fraction(1) / v)  # exact
            row = {c: x * inv for c, x in row.items()}
        for other in piv.values():
            f = other.get(p)
            if f:
                vec_add_into(other, row, -f)
        piv[p] = row
    return piv


def sparse_kernel(rows: Iterable[Mapping], ncols: int) -> list:
    """Canonical basis of {x : row . x = 0 for every row} as sparse vectors.

    The basis is the reduced row echelon form of the kernel: one vector per
    free column f, with a leading 1 at f and its other entries at pivot
    columns after f. Eliminating with pivots from the highest column down
    gives exactly these vectors: for each free f, e_f minus the column f of
    the pivot rows.
    """
    piv = _gauss_jordan(rows, last=True)
    basis = {f: {f: ONE} for f in range(ncols) if f not in piv}
    for p, row in piv.items():
        for f, v in row.items():
            if f != p:
                basis[f][p] = _normal(-v)
    return list(basis.values())


def mat_inverse(m: Mat) -> Mat | None:
    """Exact inverse, or None when singular: [m | I] is reduced, and row p
    of the inverse is the identity part of the pivot row at column p."""
    if m.rows != m.cols:
        raise InputError(f"inverse of non-square {m.shape}")
    n = m.rows
    piv = _gauss_jordan(pairs + ((n + i, ONE),)
                        for i, pairs in enumerate(m.nonzeros))
    if any(p not in piv for p in range(n)):
        return None
    return Mat._sparse([sorted((c - n, _normal(v)) for c, v in piv[p].items()
                               if c >= n) for p in range(n)], n)


def mat_rank(m: Mat) -> int:
    """The rank of m, by fraction-free forward elimination of its lifted
    rows: each row is cleared at its first column by the pivot row there,
    as b * row - a * pivot (a, b the two entries over their gcd), until it
    vanishes or becomes a pivot row, divided by the gcd of its entries to
    bound their growth. A square m is invertible exactly when its rank is
    its size, so this decides nondegeneracy without building an inverse."""
    piv: dict = {}
    for pairs in m.lifted().nonzeros:
        row = dict(pairs)
        while row:
            p = min(row)
            top = piv.get(p)
            if top is None:
                g = gcd(*row.values())
                piv[p] = {c: v // g for c, v in row.items()} if g != 1 else row
                break
            a, b = row[p], top[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = {c: b * v for c, v in row.items()} if b != 1 else row
            vec_add_into(row, top, -a)
    return len(piv)


# ---------------------------------------------------------------------------
# Sparse rank-4 tensors (structure constants c_{ijk}^l and friends).
# Stored as {(i, j, k): {l: value}} with no explicit zeros.


class Tensor4:
    """Immutable sparse tensor indexed (i, j, k, l), grouped by (i, j, k).

    ``Tensor4(dims, rows)`` parses every value with ``rat``;
    ``from_entries`` parses each entry once as it adds it up, and ``_of``
    trusts rows that are already clean. ``den`` is its denominator (see
    the module notes)."""

    __slots__ = ("dims", "_rows", "_den")

    def __init__(self, dims: Sequence[int], rows: Mapping):
        self.dims = _tensor_dims(dims)
        clean = {}
        for (i, j, k), vec in rows.items():
            _check_key(self.dims, i, j, k)
            v = {l: rat(x) for l, x in vec.items() if x}
            _check_outputs(self.dims, v)
            if v:
                clean[(i, j, k)] = v
        self._rows, self._den = clean, None

    @staticmethod
    def _of(dims: tuple, rows: dict, den: int | None = None) -> "Tensor4":
        """A Tensor4 of rows {(i, j, k): {l: value}} that are already clean
        (in range, no zero entries or empty rows, ``rat`` values), as this
        module and the file parser build them: nothing is parsed, checked
        or copied. ``den``, when the caller knows it, is its denominator."""
        t = object.__new__(Tensor4)
        t.dims, t._rows, t._den = dims, rows, den
        return t

    @staticmethod
    def zero(dims: Sequence[int]) -> "Tensor4":
        return Tensor4._of(_tensor_dims(dims), {}, 1)

    @staticmethod
    def from_entries(dims: Sequence[int], entries: Iterable) -> "Tensor4":
        """Build from an iterable of (i, j, k, l, value); duplicates add up.
        The indices of the sum are checked as ``Tensor4(dims, rows)`` checks
        them."""
        rows: dict = {}
        for (i, j, k, l, v) in entries:
            vec = rows.setdefault((i, j, k), {})
            v = rat(v)
            if l in vec:
                v = _normal(v + vec[l])
            if v:
                vec[l] = v
            else:
                vec.pop(l, None)
        dims = _tensor_dims(dims)
        for (i, j, k), vec in rows.items():
            _check_key(dims, i, j, k)
            _check_outputs(dims, vec)
        return Tensor4._of(dims, {key: vec for key, vec in rows.items() if vec})

    @property
    def den(self) -> int:
        """The lcm of the denominators of the entries, 1 when all are ints."""
        if self._den is None:
            self._den = lcm(*{v.denominator for vec in self._rows.values()
                              for v in vec.values()})
        return self._den

    def lifted(self, d: int | None = None) -> "Tensor4":
        """d * t with int entries, for a d that ``den`` divides (``den`` by
        default); t itself when d is 1."""
        d = self.den if d is None else d
        if d == 1:
            return self
        return Tensor4._of(self.dims, {
            key: {l: v.numerator * (d // v.denominator) for l, v in vec.items()}
            for key, vec in self._rows.items()}, 1)

    def get(self, i: int, j: int, k: int, l: int):
        return self._rows.get((i, j, k), {}).get(l, ZERO)

    def row(self, i: int, j: int, k: int) -> Mapping:
        """The sparse vector {l: c_{ijk}^l}; empty mapping when zero."""
        return self._rows.get((i, j, k), {})

    def rows(self) -> Iterator:
        return iter(self._rows.items())

    def items(self) -> Iterator:
        for key, vec in self._rows.items():
            for l, v in vec.items():
                yield (*key, l, v)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor4) and self.dims == other.dims
                and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash((self.dims, tuple(sorted(
            (k, tuple(sorted(v.items()))) for k, v in self._rows.items()))))

    def scale(self, s) -> "Tensor4":
        s = rat(s)
        if s == 0:
            return Tensor4.zero(self.dims)
        return Tensor4._of(self.dims, {k: {l: _normal(s * v) for l, v in vec.items()}
                                       for k, vec in self._rows.items()},
                           self._den if s in (1, -1) else None)


def _tensor_dims(dims: Sequence[int]) -> tuple:
    out = tuple(dims)
    if len(out) != 4 or any(d <= 0 for d in out):
        raise InputError(f"bad tensor dims {dims}")
    return out


def _check_key(dims: tuple, i: int, j: int, k: int) -> None:
    if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
        raise InputError(f"tensor index {(i, j, k)} out of range {dims}")


def _check_outputs(dims: tuple, vec: Mapping) -> None:
    for l in vec:
        if not 0 <= l < dims[3]:
            raise InputError(f"tensor index l={l} out of range {dims}")


# Sparse vector helpers used by the identity checkers.

def vec_add_into(acc: dict, vec: Mapping, scale=ONE) -> None:
    """acc += scale * vec, dropping entries that cancel; a new entry is
    stored as it is, not added to a zero."""
    if not scale:
        return
    for l, v in vec.items():
        nv = scale * v
        if l in acc:
            nv += acc[l]
        if nv:
            acc[l] = nv
        else:
            acc.pop(l, None)


def dense(vec: Mapping, n: int) -> tuple:
    return tuple(vec.get(i, ZERO) for i in range(n))


def unlift(rows: Mapping, d: int) -> Mapping:
    """The rows {key: {l: v / d}} of rows of ints lifted by d, in ``rat``
    form; rows itself when d is 1."""
    if d == 1:
        return rows
    return {key: {l: _normal(Fraction(v, d)) for l, v in vec.items()}
            for key, vec in rows.items()}

