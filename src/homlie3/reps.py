"""Representations of 3-Hom-Lie algebras: checker, dual, semidirect sum.

A representation is a skew bilinear family rho(x, y) of operators on a
carrier V together with a carrier twist A, subject to three compatibility
identities (checked exhaustively on basis tuples, in lex order).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Mapping

from .exactlin import (
    InputError, Mat, Tensor4, ZERO, spmat_add_into, spmat_matmul, spmat_of,
    spmat_to_mat,
)
from .homlie import (
    Algebra3, CheckReport, Witness, _permuted, _require, _skew_check,
    check_algebra,
)


@dataclass(frozen=True)
class Rep3:
    """(V, rho, A): rho[i][j] is the operator for (e_i, e_j), skew in (i, j)."""
    base: Algebra3
    vdim: int
    rho: tuple  # tuple of tuples of Mat, n x n
    A: Mat

    def __post_init__(self):
        m = self.vdim
        _check_family(self.rho, self.base.dim, m, "rho")
        if self.A.shape != (m, m):
            raise InputError(f"carrier twist shape {self.A.shape} for vdim {m}")


def _check_family(fam, n: int, m: int, name: str, skew: bool = True) -> None:
    """An n x n family of m x m operators, skew in (i, j) when ``skew``; the
    first offending pair in row-major order is named."""
    if len(fam) != n or any(len(r) != n for r in fam):
        raise InputError(f"{name} family must be dim x dim")
    for i in range(n):
        for j in range(n):
            if fam[i][j].shape != (m, m):
                raise InputError(f"{name}({i},{j}) shape {fam[i][j].shape}")
            # the pair (i, j) with j >= i is met first in row-major order
            if skew and j >= i and not _negates(fam[i][j], fam[j][i]):
                raise InputError(f"{name} not skew at ({i},{j})")


def _negates(a: Mat, b: Mat) -> bool:
    """a == -b, entry by entry, without building -b."""
    return a.shape == b.shape and all(
        x == -y for ra, rb in zip(a.entries, b.entries)
        for x, y in zip(ra, rb))


def rep_from_upper(base: Algebra3, vdim: int, upper: Mapping, A: Mat) -> Rep3:
    """Build a Rep3 from matrices given only for i < j (skew-completed)."""
    n = base.dim
    zero = Mat.zeros(vdim, vdim)
    fam = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), m in upper.items():
        if not 0 <= i < j < n:
            raise InputError(f"rho index ({i},{j}) must satisfy 0 <= i < j < dim")
        fam[i][j] = m
        fam[j][i] = -m
    return Rep3(base, vdim, tuple(tuple(r) for r in fam), A)


def _action_tensor(fam) -> Tensor4:
    """An n x n family of m x m operators rho(x, y) as rows,
    (x, y, v) -> rho(x, y) v: a Tensor4 of dims (n, n, m, m)."""
    n, m = len(fam), fam[0][0].rows
    return Tensor4.from_entries((n, n, m, m), (
        (i, j, q, p, v) for i in range(n) for j in range(n)
        for p, row in enumerate(fam[i][j].entries)
        for q, v in enumerate(row) if v))


def _rep_family(t: Tensor4) -> tuple:
    """The n x n family of m x m matrices rho(x, y) of an action tensor with
    rows (x, y, v) -> rho(x, y) v (the inverse of _action_tensor)."""
    n, _, m, _ = t.dims
    fam = [[[[ZERO] * m for _ in range(m)] for _ in range(n)]
           for _ in range(n)]
    for i, j, k, l, v in t.items():
        fam[i][j][l][k] = v
    return tuple(tuple(Mat(rows) for rows in row) for row in fam)


def _coadjoint_tensor(a: Algebra3) -> Tensor4:
    """ad* as rows, (x, y, k) -> ad*(x, y) e_k* = -sum_l [x, y, e_l]_k e_l*."""
    return _permuted(a.bracket, (0, 1, 3, 2)).scale(-1)


def coadjoint_family(a: Algebra3) -> tuple:
    """Matrices of ad*_{e_i, e_j} on dual coordinates: M[l][k] = -c[i,j,l,k]."""
    return _rep_family(_coadjoint_tensor(a))


def _combine(terms) -> dict:
    """Sum of scale * s over (s, scale) pairs of sparse matrices."""
    acc: dict = {}
    for s, f in terms:
        spmat_add_into(acc, s, f)
    return acc


def check_representation(r: Rep3) -> CheckReport:
    """Exhaustive check of the three representation identities.

        intertwine  rho(a(u), a(v)) B = B rho(u, v)
        action      rho([x,y,z], a(u)) B = rho(a(y), a(z)) rho(x, u)
                        + rho(a(z), a(x)) rho(y, u) + rho(a(x), a(y)) rho(z, u)
        exchange    rho(a(x), a(y)) rho(z, u) = rho(a(z), a(u)) rho(x, y)
                        + rho([x,y,z], a(u)) B + rho(a(z), [x,y,u]) B

    where a is the algebra twist and B the carrier twist. A part's witness
    is its lex-first failing tuple (u, v) or (x, y, z, u), and ``checked``
    its lex position (n**2 or n**4 on a pass). Only the sorted tuple of each
    orbit on which both sides are skew is evaluated: (u, v) and (z, u), as
    ``Rep3`` validates rho skew, and, if the base bracket is skew, (x, y, z)
    of action and (x, y) of exchange. A repeated index there makes both
    sides zero, and the sorted tuple, which comes first, has the same sides
    up to sign. Twisted operators are sparse and built on first use.
    """
    n, m, c = r.base.dim, r.vdim, r.base.bracket
    B = spmat_of(r.A)
    rho = [[spmat_of(mat) for mat in row] for row in r.rho]
    cols = r.base.twist.col_support()  # cols[u]: (a, alpha[a][u]) nonzero
    skew = _skew_check(r.base).passed

    @cache
    def half2(a, v):  # rho(a, a(v))
        return _combine((rho[a][b], f) for b, f in cols[v])

    @cache
    def tw(u, v):  # rho(a(u), a(v)); with a skew base only u < v is read
        return _combine((half2(a, v), f) for a, f in cols[u])

    @cache
    def half2B(k, u):  # rho(k, a(u)) B
        return spmat_matmul(half2(k, u), B)

    @cache
    def half1B(u, b):  # rho(a(u), b) B
        return spmat_matmul(_combine((rho[a][b], f) for a, f in cols[u]), B)

    def fail(check, at, checked, lhs, rhs):
        return CheckReport(False, checked, Witness(
            check, at, tuple(spmat_to_mat(lhs, m, m).entries),
            tuple(spmat_to_mat(rhs, m, m).entries)))

    def bracket_half2B(x, y, z, u):
        # rho([x,y,z], a(u)) B
        acc: dict = {}
        for k, f in c.row(x, y, z).items():
            spmat_add_into(acc, half2B(k, u), f)
        return acc

    def intertwine():
        for checked, (u, v) in enumerate(product(range(n), repeat=2), 1):
            if u >= v:
                continue
            lhs = spmat_matmul(tw(u, v), B)
            rhs = spmat_matmul(B, rho[u][v])
            if lhs != rhs:
                return fail("rep_intertwine", (u, v), checked, lhs, rhs)
        return CheckReport(True, n ** 2)

    def action():
        for checked, (x, y, z, u) in enumerate(product(range(n), repeat=4), 1):
            if skew and not x < y < z:
                continue
            lhs = bracket_half2B(x, y, z, u)
            rhs = spmat_matmul(tw(y, z), rho[x][u])
            # rho(a(z), a(x)) rho(y, u), with both factors negated
            spmat_matmul(tw(x, z), rho[u][y], rhs)
            spmat_matmul(tw(x, y), rho[z][u], rhs)
            if lhs != rhs:
                return fail("rep_action", (x, y, z, u), checked, lhs, rhs)
        return CheckReport(True, n ** 4)

    def exchange():
        for checked, (x, y, z, u) in enumerate(product(range(n), repeat=4), 1):
            if z >= u or skew and x >= y:
                continue
            lhs = spmat_matmul(tw(x, y), rho[z][u])
            rhs = spmat_matmul(tw(z, u), rho[x][y], bracket_half2B(x, y, z, u))
            for k, f in c.row(x, y, u).items():
                spmat_add_into(rhs, half1B(z, k), f)
            if lhs != rhs:
                return fail("rep_exchange", (x, y, z, u), checked, lhs, rhs)
        return CheckReport(True, n ** 4)

    return CheckReport.combine([("intertwine", intertwine()),
                                ("action", action()),
                                ("exchange", exchange())])


def adjoint_rep(a: Algebra3) -> Rep3:
    """ad(e_i, e_j): z -> [e_i, e_j, z], carrier twist = the algebra twist."""
    _require(check_algebra(a), "adjoint_rep needs a valid algebra")
    return Rep3(a, a.dim, _rep_family(a.bracket), a.twist)


def dual_representation(r: Rep3) -> tuple:
    """Naive dual (rho*, A*) = (-rho^T, A^T) plus its checker verdict.

    The source gives no formula for the dual, so validity is established at
    runtime instead of assumed: the returned report records whether the dual
    actually satisfies the representation identities.
    """
    n = r.base.dim
    fam = tuple(tuple(-r.rho[i][j].transpose() for j in range(n)) for i in range(n))
    dual = Rep3(r.base, r.vdim, fam, r.A.transpose())
    return dual, check_representation(dual)


def coadjoint_rep(a: Algebra3) -> Rep3:
    """The coadjoint action: <ad*_{x,y} xi, z> = -<xi, [x,y,z]>, carrier
    twist transpose(alpha).

    This is not a representation for every twist. For an orthogonal twist
    that is not diagonal it fails the representation identities: on the
    Cayley-twisted A4, check_representation reports intertwine at (e1, e2).
    """
    _require(check_algebra(a), "coadjoint_rep needs a valid algebra")
    return Rep3(a, a.dim, coadjoint_family(a), a.twist.transpose())


def semidirect_sum(a: Algebra3, r: Rep3, check: bool = True) -> Algebra3:
    """3-Hom-Lie structure on L + V induced by a representation.

    [x1+v1, x2+v2, x3+v3] = [x1,x2,x3] + rho(x1,x2)v3 + rho(x2,x3)v1
                            + rho(x3,x1)v2, twist = alpha (+) A.
    """
    if r.base is not a and r.base != a:
        raise InputError("representation base differs from the given algebra")
    if check:
        _require(check_representation(r), "representation fails its axioms")
    return _semidirect(a, _action_tensor(r.rho), r.A)


def _semidirect(a: Algebra3, act: Tensor4, A: Mat) -> Algebra3:
    """The semidirect bracket on L + V of an action tensor with rows
    (x, y, v) -> rho(x, y) v and carrier twist A (see semidirect_sum)."""
    n, m = a.dim, act.dims[2]
    entries = [*a.bracket.items(), *_placed(act, 0, n)]
    bracket = Tensor4.from_entries((n + m,) * 4, entries)
    twist = Mat.block_diag(a.twist, A)
    return Algebra3(n + m, bracket, twist,
                    label=f"{a.label}|x|V" if a.label else "semidirect")


def _placed(act: Tensor4, x0: int, v0: int):
    """The entries of an action in a direct-sum bracket: rho(e_i, e_j) f_q =
    sum_p v f_p goes into its three slots [e_i, e_j, f_q], [f_q, e_i, e_j]
    and [e_j, f_q, e_i], with e offset by x0 and f by v0."""
    for i, j, q, p, v in act.items():
        i, j, q, p = i + x0, j + x0, q + v0, p + v0
        yield from ((i, j, q, p, v), (q, i, j, p, v), (j, q, i, p, v))

