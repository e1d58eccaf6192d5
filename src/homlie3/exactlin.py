"""Exact rational matrices, sparse rank-4 tensors, and linear solving.

Everything downstream works over the rationals with no rounding: structure
constants, twist maps and bilinear forms are matrices/tensors of
``fractions.Fraction``.  All containers are immutable after construction and
all functions are pure.

All linear algebra runs on one sparse Gauss-Jordan routine,
``_gauss_jordan``: rows are {col: value} dicts and a pivot map takes each
pivot column to its normalised row, so a sparse system costs what its
nonzero entries cost. ``rref``, ``kernel_basis``, ``sparse_kernel``,
``solve_linear``, ``linear_solver``, ``mat_inverse`` and ``mat_rank`` use
it. Two contracts are fixed:

- A kernel basis is canonical: the reduced row echelon form of the kernel,
  one vector per free column f with a leading 1 at f. It depends only on
  the kernel, not on the rows that define it or their order.
- A particular solution is the one read off the reduced row echelon form
  of [system | rhs]: every free variable is zero.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

Rat = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


class InputError(ValueError):
    """Malformed or dimensionally inconsistent input."""


def rat(x) -> Fraction:
    """Parse a rational from an int, Fraction, or a "p/q" string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational {x!r}: {e}") from None
    raise InputError(f"bad rational {x!r} (type {type(x).__name__})")


def rat_str(x: Fraction) -> str:
    """Canonical "p/q" form, "p" when the denominator is 1."""
    return str(x)


class Mat:
    """Immutable dense matrix of Fractions.  ``M[i][j]``, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Fraction]]):
        rows = tuple(tuple(rat(v) for v in row) for row in entries)
        if not rows or not rows[0]:
            raise InputError("matrix must have positive dimensions")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise InputError("ragged matrix rows")
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    @staticmethod
    def _of(rows: Sequence[Sequence[Fraction]]) -> "Mat":
        """A Mat of non-empty rows of Fractions of one length, as ``Mat``
        methods build them: nothing is parsed or checked."""
        m = object.__new__(Mat)
        m.entries = tuple(map(tuple, rows))
        m.rows, m.cols = len(m.entries), len(m.entries[0])
        return m

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return Mat([[ZERO] * c for _ in range(r)])

    @staticmethod
    def diag(values: Sequence) -> "Mat":
        vals = [rat(v) for v in values]
        n = len(vals)
        return Mat([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def block_diag(a: "Mat", b: "Mat") -> "Mat":
        n, m = a.rows, b.rows
        out = [[ZERO] * (a.cols + b.cols) for _ in range(n + m)]
        for i in range(n):
            for j in range(a.cols):
                out[i][j] = a.entries[i][j]
        for i in range(m):
            for j in range(b.cols):
                out[n + i][a.cols + j] = b.entries[i][j]
        return Mat._of(out)

    def __getitem__(self, i: int) -> Sequence[Fraction]:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._of([[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._of([[a - b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return Mat._of([[-a for a in row] for row in self.entries])

    def scale(self, s) -> "Mat":
        s = rat(s)
        return Mat._of([[s * a for a in row] for row in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise InputError(f"matmul shape mismatch {self.shape} @ {other.shape}")
        # row k of other as its nonzero (j, b); row i of the product is the
        # sum of a * other[k] over the nonzero a = self[i][k]
        nz = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [ZERO] * other.cols
            for a, brow in zip(row, nz):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            out.append(acc)
        return Mat._of(out)

    def apply(self, vec: Sequence[Fraction]) -> tuple:
        if len(vec) != self.cols:
            raise InputError(f"apply shape mismatch {self.shape} to len {len(vec)}")
        return tuple(sum((a * v for a, v in zip(row, vec) if a and v), ZERO)
                     for row in self.entries)

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Mat":
        return Mat._of(zip(*self.entries))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Mat.identity(self.rows)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def col_support(self) -> list:
        """For each column j, the list of (i, M[i][j]) with nonzero entries."""
        return [[(i, self.entries[i][j]) for i in range(self.rows)
                 if self.entries[i][j]] for j in range(self.cols)]

    def _same_shape(self, other: "Mat") -> None:
        if self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(v) for v in row) for row in self.entries)
        return f"Mat[{body}]"


def _gauss_jordan(rows: Iterable[Mapping], last: bool = False,
                  width: Optional[int] = None) -> tuple:
    """Sparse Gauss-Jordan elimination of rows {col: value}.

    Each row in turn is reduced by the pivot rows found so far. Its first
    nonzero column (its last when ``last``) becomes a new pivot if it lies
    below ``width``: the row is scaled to 1 there and the column is cleared
    from every other pivot row. Returns (pivots, rest): pivots maps each
    pivot column to its row, and rest lists the nonzero rows left with no
    column below ``width`` (``width`` is for the first-column order).

    Every pivot row keeps its pivot as its first (last) nonzero column and
    is zero at every other pivot, so the pivot rows in column order are the
    reduced row echelon form of the input, whatever the row order (with the
    columns read from the highest down when ``last``).
    """
    pick = max if last else min
    piv: dict = {}
    rest = []
    for row in rows:
        row = dict(row)
        for p in [c for c in row if c in piv]:
            vec_add_into(row, piv[p], -row[p])
        if not row:
            continue
        p = pick(row)
        if width is not None and p >= width:
            rest.append(row)
            continue
        inv = ONE / row[p]
        row = {c: v * inv for c, v in row.items()}
        for other in piv.values():
            f = other.get(p)
            if f:
                vec_add_into(other, row, -f)
        piv[p] = row
    return piv, rest


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple:
    """Reduced row echelon form.  Returns (rows, pivot_columns); the rows
    keep their number, zero rows last."""
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    piv, _ = _gauss_jordan(map(sparse_of, rows))
    pivots = sorted(piv)
    out = [list(dense(piv[p], ncols)) for p in pivots]
    return out + [[ZERO] * ncols for _ in range(len(rows) - len(out))], pivots


def sparse_kernel(rows: Iterable[Mapping], ncols: int) -> list:
    """Canonical basis of {x : row . x = 0 for every row} as sparse vectors.

    The basis is the reduced row echelon form of the kernel: one vector per
    free column f, with a leading 1 at f and its other entries at pivot
    columns after f. Eliminating with pivots from the highest column down
    gives exactly these vectors: for each free f, e_f minus the column f of
    the pivot rows.
    """
    piv, _ = _gauss_jordan(rows, last=True)
    basis = {f: {f: ONE} for f in range(ncols) if f not in piv}
    for p, row in piv.items():
        for f, v in row.items():
            if f != p:
                basis[f][p] = -v
    return list(basis.values())


class LinearSolution:
    """Outcome of an exact linear solve: particular solution + kernel basis."""

    __slots__ = ("consistent", "particular", "kernel")

    def __init__(self, consistent: bool, particular, kernel):
        self.consistent = consistent
        self.particular = particular
        self.kernel = kernel


def kernel_basis(system: Mat) -> tuple:
    """Canonical basis (reduced echelon rows) of the nullspace of ``system``."""
    n = system.cols
    return tuple(dense(v, n)
                 for v in sparse_kernel(map(sparse_of, system.entries), n))


def _factor(m: Mat) -> tuple:
    """Eliminate [m | I] with pivots among m's columns, first column first.

    Returns (pivots, null) with the identity part of each row as {i: value}:
    pivot p's row T_p gives x_p = T_p . b in the reduced echelon form of
    [m | b], and the rows of null span the vectors y with y m = 0.
    """
    n = m.cols
    piv, rest = _gauss_jordan(({**sparse_of(row), n + i: ONE}
                               for i, row in enumerate(m.entries)), width=n)
    tag = lambda row: {c - n: v for c, v in row.items() if c >= n}
    return {p: tag(row) for p, row in piv.items()}, [tag(row) for row in rest]


def linear_solver(system: Mat):
    """Factor ``system`` once, for many right-hand sides.

    Returns a function rhs -> the particular solution of system @ x = rhs
    read off the reduced echelon form of [system | rhs] (free variables
    zero), or None when rhs is inconsistent.
    """
    piv, null = _factor(system)
    n = system.cols

    def solve(rhs: Sequence) -> Optional[tuple]:
        b = [rat(v) for v in rhs]
        if len(b) != system.rows:
            raise InputError(f"rhs length {len(b)} vs {system.rows} rows")
        dot = lambda t: sum((v * b[i] for i, v in t.items()), ZERO)
        if any(dot(y) for y in null):
            return None
        x = [ZERO] * n
        for p, t in piv.items():
            x[p] = dot(t)
        return tuple(x)

    return solve


def solve_linear(system: Mat, rhs: Sequence) -> LinearSolution:
    """Solve ``system @ x = rhs`` exactly.

    Returns one particular solution (or None if inconsistent) together with a
    canonical basis of the kernel of ``system``.  The particular solution
    has every free variable zero.
    """
    x = linear_solver(system)(rhs)
    return LinearSolution(x is not None, x, kernel_basis(system))


def mat_inverse(m: Mat) -> Optional[Mat]:
    """Exact inverse, or None when singular."""
    if m.rows != m.cols:
        raise InputError(f"inverse of non-square {m.shape}")
    n = m.rows
    piv, _ = _factor(m)
    if len(piv) != n:
        return None
    return Mat([dense(piv[p], n) for p in range(n)])


def mat_rank(m: Mat) -> int:
    return len(_gauss_jordan(map(sparse_of, m.entries))[0])


# ---------------------------------------------------------------------------
# Sparse rank-4 tensors (structure constants c_{ijk}^l and friends).
# Stored as {(i, j, k): {l: value}} with no explicit zeros.

SparseVec = dict  # {int: Fraction}


class Tensor4:
    """Immutable sparse tensor indexed (i, j, k, l), grouped by (i, j, k)."""

    __slots__ = ("dims", "_rows")

    def __init__(self, dims: Sequence[int], rows: Mapping):
        self.dims = tuple(dims)
        if len(self.dims) != 4 or any(d <= 0 for d in self.dims):
            raise InputError(f"bad tensor dims {dims}")
        clean = {}
        for (i, j, k), vec in rows.items():
            if not (0 <= i < self.dims[0] and 0 <= j < self.dims[1]
                    and 0 <= k < self.dims[2]):
                raise InputError(f"tensor index {(i, j, k)} out of range {self.dims}")
            v = {l: rat(x) for l, x in vec.items() if x}
            for l in v:
                if not 0 <= l < self.dims[3]:
                    raise InputError(f"tensor index l={l} out of range {self.dims}")
            if v:
                clean[(i, j, k)] = v
        self._rows = clean

    @staticmethod
    def zero(dims: Sequence[int]) -> "Tensor4":
        return Tensor4(dims, {})

    @staticmethod
    def from_entries(dims: Sequence[int], entries: Iterable) -> "Tensor4":
        """Build from an iterable of (i, j, k, l, value); duplicates add up."""
        rows: dict = {}
        for (i, j, k, l, v) in entries:
            vec = rows.setdefault((i, j, k), {})
            nv = vec.get(l, ZERO) + rat(v)
            if nv:
                vec[l] = nv
            else:
                vec.pop(l, None)
        return Tensor4(dims, rows)

    def get(self, i: int, j: int, k: int, l: int) -> Fraction:
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

    def is_zero(self) -> bool:
        return not self._rows

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
        return Tensor4(self.dims, {k: {l: s * v for l, v in vec.items()}
                                   for k, vec in self._rows.items()})


# Sparse vector helpers used by the identity checkers.

def vec_add_into(acc: dict, vec: Mapping, scale: Fraction = ONE) -> None:
    if not scale:
        return
    for l, v in vec.items():
        nv = acc.get(l, ZERO) + scale * v
        if nv:
            acc[l] = nv
        else:
            acc.pop(l, None)


def unit_vec(n: int, i: int) -> dict:
    return {i: ONE}


def dense(vec: Mapping, n: int) -> tuple:
    return tuple(vec.get(i, ZERO) for i in range(n))


def sparse_of(vec: Sequence[Fraction]) -> dict:
    return {i: v for i, v in enumerate(vec) if v}


# Sparse matrices {p: {q: value}} with no zero entries and no empty rows, so
# two of them compare equal exactly when the matrices they stand for do.

def spmat_of(m: Mat) -> dict:
    return {p: row for p, row in enumerate(map(sparse_of, m.entries)) if row}


def spmat_to_mat(s: Mapping, rows: int, cols: int) -> Mat:
    return Mat._of([dense(s.get(p, {}), cols) for p in range(rows)])


def spmat_add_into(acc: dict, s: Mapping, scale: Fraction = ONE) -> None:
    """acc += scale * s."""
    for p, row in s.items():
        r = acc.setdefault(p, {})
        vec_add_into(r, row, scale)
        if not r:
            del acc[p]


def spmat_matmul(a: Mapping, b: Mapping, acc: Optional[dict] = None) -> dict:
    """a @ b, accumulated into ``acc`` when one is given; returns the sum."""
    out = {} if acc is None else acc
    if not b:
        return out
    for p, arow in a.items():
        r = out.setdefault(p, {})
        for k, v in arow.items():
            brow = b.get(k)
            if brow:
                vec_add_into(r, brow, v)
        if not r:
            del out[p]
    return out
