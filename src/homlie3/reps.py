"""Representations of 3-Hom-Lie algebras: checker, dual, semidirect sum.

A representation of an algebra, whose bracket must be skew, is a skew
bilinear family rho(x, y) of operators on a carrier V with a carrier twist
A, subject to three identities (checked exhaustively on basis tuples).
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from itertools import combinations, product
from math import lcm

from .exactlin import InputError, Mat, Tensor4, ZERO, dense, unlift, vec_add_into
from .homlie import (
    Algebra3, CheckReport, Record, Witness, _permuted, _require, check_algebra,
)


class Rep3(Record):
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
        for p, row in enumerate(fam[i][j].nonzeros) for q, v in row))


def _rep_family(t: Tensor4) -> tuple:
    """The n x n family of m x m matrices rho(x, y) of an action tensor with
    rows (x, y, v) -> rho(x, y) v (the inverse of _action_tensor)."""
    n, _, m, _ = t.dims
    fam = [[[[ZERO] * m for _ in range(m)] for _ in range(n)]
           for _ in range(n)]
    for i, j, k, l, v in t.items():
        fam[i][j][l][k] = v
    return tuple(tuple(Mat._of(rows) for rows in row) for row in fam)


def _coadjoint_tensor(a: Algebra3) -> Tensor4:
    """ad* as rows, (x, y, k) -> ad*(x, y) e_k* = -sum_l [x, y, e_l]_k e_l*."""
    return _permuted(a.bracket, (0, 1, 3, 2)).scale(-1)


def coadjoint_family(a: Algebra3) -> tuple:
    """Matrices of ad*_{e_i, e_j} on dual coordinates: M[l][k] = -c[i,j,l,k]."""
    return _rep_family(_coadjoint_tensor(a))


# Sparse matrices {p: {q: value}} with no zero entries and no empty rows (so
# equal exactly when their matrices are): check_representation's kernel.

def _spmat_of(m: Mat) -> dict:
    return {p: dict(row) for p, row in enumerate(m.nonzeros) if row}


def _spmat_to_mat(s: Mapping, rows: int, cols: int) -> Mat:
    return Mat._of([dense(s.get(p, {}), cols) for p in range(rows)])


def _spmat_add_into(acc: dict, s: Mapping, scale) -> None:
    """acc += scale * s."""
    for p, row in s.items():
        r = acc.setdefault(p, {})
        vec_add_into(r, row, scale)
        if not r:
            del acc[p]


def _spmat_matmul(a: Mapping, b: Mapping) -> dict:
    """a @ b."""
    out: dict = {}
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


def _combine(terms) -> dict:
    """Sum of scale * s over (s, scale) pairs of sparse matrices."""
    acc: dict = {}
    for s, f in terms:
        _spmat_add_into(acc, s, f)
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
    its lex position (n**2 or n**4 on a pass). Each part generates, in lex
    order, only the sorted tuple of each orbit on which both sides are
    skew: (u, v) and (z, u), as ``Rep3`` validates rho skew, and (x, y, z)
    of action and (x, y) of exchange, as the base bracket must be skew. A
    repeated index there makes both sides zero, and the sorted tuple, which
    comes first, has the same sides up to sign.

    Operators are sparse and built on first use, once per call. The rho rho
    terms are read from a table of the products rho(a(p), a(q)) rho(r, s)
    with p < q and r < s, each formed once: every other term is +-1 times
    one of them, and one with a zero rho(r, s) is skipped. As rho is skew,
    the last exchange term is -rho([x,y,u], a(z)) B, built like the bracket
    term of action from the products rho(k, a(u)) B.

    The identities are compared on ints: rho, B, the twist and the bracket
    are lifted by their denominators Dr (the lcm of the operators' ``den``),
    DB, Da and Dc, through ``Mat.lifted`` and ``Tensor4.lifted`` as every
    check lifts, and each term's missing factors are folded into an operator,
    so that both sides of a part carry one scale. intertwine multiplies
    B rho by Da**2 and has scale Dr*Da**2*DB; action and exchange multiply
    the rho rho terms by Dc*DB and the bracket rows by Dc*Dr*Da, and have
    scale Dc*Dr**2*Da**2*DB. The sides of a witness are divided back by
    their part's scale. With integral data every scale is 1 and nothing is
    lifted.
    """
    _require(r.base._skew, "base bracket is not skew")
    n, m = r.base.dim, r.vdim
    # rho is skew: rho[i][j] is read for i < j only, and is {} elsewhere
    Dr = lcm(*(mat.den for i, row in enumerate(r.rho) for mat in row[i + 1:]))
    rho = [[_spmat_of(mat.lifted(Dr)) if i < j else {}
            for j, mat in enumerate(row)] for i, row in enumerate(r.rho)]
    lifted, Dc, Da = r.base._lift
    DB = r.A.den
    B, BA = _spmat_of(r.A.lifted()), _spmat_of(r.A.lifted(DB * Da * Da))
    cols = lifted.twist.col_support()  # cols[u]: (a, Da alpha[a][u]) nonzero
    # (x, y, z): Dc Dr Da [x, y, z], nonzero
    rows = dict(r.base.bracket.lifted(Dc * Dr * Da).rows())
    S = Dc * DB  # the factor of the rho rho terms of action and exchange
    D2, D4 = Dr * Da * Da * DB, S * Dr * Dr * Da * Da  # the parts' scales

    @cache
    def half2(a, v):  # rho(a, a(v))
        return _combine((rho[a][b], f) if a < b else (rho[b][a], -f)
                        for b, f in cols[v] if a != b)

    @cache
    def tw(u, v):  # rho(a(u), a(v)), read only for u < v
        return _combine((half2(a, v), f) for a, f in cols[u])

    # S * rho(a(u), a(v)), for action and exchange
    twS = tw if S == 1 else cache(lambda u, v: _combine([(tw(u, v), S)]))

    @cache
    def half2B(k, u):  # rho(k, a(u)) B
        return _spmat_matmul(half2(k, u), B)

    @cache
    def prod(p, q, r, s):  # S rho(a(p), a(q)) rho(r, s), p < q and r < s
        return _spmat_matmul(twS(p, q), rho[r][s])

    def add_prod(acc, p, q, r, s):  # acc += S rho(a(p), a(q)) rho(r, s)
        sign = 1
        if p > q:
            p, q, sign = q, p, -1
        if r > s:
            r, s, sign = s, r, -sign
        if p != q and rho[r][s]:
            _spmat_add_into(acc, prod(p, q, r, s), sign)

    def add_bracket(acc, x, y, z, u, sign=1):  # acc += sign rho([x,y,z], a(u)) B
        for k, f in rows.get((x, y, z), {}).items():
            _spmat_add_into(acc, half2B(k, u), sign * f)
        return acc

    def fail(check, at, lhs, rhs, scale):  # checked: the lex position of at
        checked = sum(i * n ** k for k, i in enumerate(reversed(at))) + 1
        lhs, rhs = unlift(lhs, scale), unlift(rhs, scale)
        return CheckReport(False, checked, Witness(
            check, at, tuple(_spmat_to_mat(lhs, m, m).entries),
            tuple(_spmat_to_mat(rhs, m, m).entries), "rows"))

    pairs = list(combinations(range(n), 2))

    def intertwine():
        for u, v in pairs:
            lhs = _spmat_matmul(tw(u, v), B)
            rhs = _spmat_matmul(BA, rho[u][v])
            if lhs != rhs:
                return fail("rep_intertwine", (u, v), lhs, rhs, D2)
        return CheckReport(True, n ** 2)

    def action():
        for (x, y, z), u in product(combinations(range(n), 3), range(n)):
            lhs = add_bracket({}, x, y, z, u)
            rhs: dict = {}
            add_prod(rhs, y, z, x, u)
            add_prod(rhs, z, x, y, u)
            add_prod(rhs, x, y, z, u)
            if lhs != rhs:
                return fail("rep_action", (x, y, z, u), lhs, rhs, D4)
        return CheckReport(True, n ** 4)

    def exchange():
        for (x, y), (z, u) in product(pairs, pairs):
            lhs: dict = {}
            add_prod(lhs, x, y, z, u)
            rhs = add_bracket({}, x, y, z, u)
            add_bracket(rhs, x, y, u, z, -1)
            add_prod(rhs, z, u, x, y)
            if lhs != rhs:
                return fail("rep_exchange", (x, y, z, u), lhs, rhs, D4)
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
    # the entries fall on distinct keys, so the values are a's and act's
    dens = (a.bracket._den, act._den)
    bracket = Tensor4.from_entries((n + m,) * 4, entries,
                                   None if None in dens else lcm(*dens))
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

