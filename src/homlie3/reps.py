"""Representations of 3-Hom-Lie algebras: checker, dual, semidirect sum.

A representation of an algebra, whose bracket must be skew, is a skew
bilinear family rho(x, y) of operators on a carrier V with a carrier twist
A, subject to three identities (checked exhaustively on basis tuples). The
checker lifts a rep to ints and packs each operator column into one int
once per ``Rep3``; packing is injective for the slot width it picks.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import cache, cached_property
from itertools import combinations, product
from math import lcm

from .exactlin import InputError, Mat, Tensor4, dense, unlift
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

    @cached_property
    def _packed(self) -> tuple:
        """check_representation's data, lifted and packed once per rep: (w,
        rho, ents, B, BA, cols, rows, S, D2, D4), where rho[a, b] packs each
        nonzero Dr rho(a, b) in both orders, ents[r][s] holds the
        ``nonzeros`` of Dr rho(r, s) for r < s, B those of DB B and BA packs
        DB Da**2 B."""
        n, m = self.base.dim, self.vdim
        Dr = lcm(*(mat.den for i, row in enumerate(self.rho)
                   for mat in row[i + 1:]))
        lifted, Dc, Da = self.base._lift
        DB = self.A.den
        ups = {(i, j): mat.lifted(Dr) for i, row in enumerate(self.rho)
               for j, mat in enumerate(row) if i < j and any(mat.nonzeros)}
        B, BA = self.A.lifted(), self.A.lifted(DB * Da * Da)
        rows = dict(self.base.bracket.lifted(Dc * Dr * Da).rows())
        S = Dc * DB
        vs = [v for mat in (BA, lifted.twist, *ups.values())
              for pairs in mat.nonzeros for _, v in pairs]
        vs += [v for row in rows.values() for v in row.values()]
        M = max(S, max(vs, default=0), -min(vs, default=0))
        w = (4 * m * n * n * M ** 5).bit_length() + 1
        rho, ents = {}, [[()] * n for _ in range(n)]
        for (i, j), mat in ups.items():
            rho[i, j] = packed = _packed_columns(mat, w)
            rho[j, i] = {k: -x for k, x in packed.items()}
            ents[i][j] = mat.nonzeros
        return (w, rho, ents, B.nonzeros, _packed_columns(BA, w),
                lifted.twist.col_support(), rows, S, Dr * Da * Da * DB,
                S * Dr * Dr * Da * Da)


def _check_family(fam, n: int, m: int, name: str, skew: bool = True) -> None:
    """An n x n family of m x m operators, skew in (i, j) when ``skew``; the
    first offending pair in row-major order is named."""
    if len(fam) != n or any(len(r) != n for r in fam):
        raise InputError(f"{name} family must be dim x dim")
    for i, row in enumerate(fam):
        for j, mat in enumerate(row):
            if mat.rows != m or mat.cols != m:
                raise InputError(f"{name}({i},{j}) shape {mat.shape}")
            # the pair (i, j) with j >= i is met first in row-major order
            if skew and j >= i and not _negates(mat, fam[j][i]):
                raise InputError(f"{name} not skew at ({i},{j})")


def _negates(a: Mat, b: Mat) -> bool:
    """a == -b, compared on the nonzero views without building -b."""
    return a.shape == b.shape and a.nonzeros == tuple(
        tuple([(j, -x) for j, x in row]) for row in b.nonzeros)


def rep_from_upper(base: Algebra3, vdim: int, upper: Mapping, A: Mat) -> Rep3:
    """Build a Rep3 from matrices given only for i < j (skew-completed)."""
    n = base.dim
    zero = Mat.zeros(vdim, vdim)
    fam = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), m in upper.items():
        if not 0 <= i < j < n:
            raise InputError(f"rho index ({i},{j}) must satisfy 0 <= i < j < dim")
        fam[i][j] = m
        # negated on its view, which the skew test and the check read
        fam[j][i] = Mat._sparse([[(k, -v) for k, v in pairs]
                                 for pairs in m.nonzeros], m.cols)
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
    fam = [[[[] for _ in range(m)] for _ in range(n)] for _ in range(n)]
    for (i, j, k), vec in t.rows():
        rows = fam[i][j]
        for l, v in vec.items():
            rows[l].append((k, v))
    return tuple(tuple(Mat._sparse([sorted(r) for r in rows], m)
                       for rows in row) for row in fam)


def _coadjoint_tensor(a: Algebra3) -> Tensor4:
    """ad* as rows, (x, y, k) -> ad*(x, y) e_k* = -sum_l [x, y, e_l]_k e_l*."""
    return _permuted(a.bracket, (0, 1, 3, 2)).scale(-1)


def coadjoint_family(a: Algebra3) -> tuple:
    """Matrices of ad*_{e_i, e_j} on dual coordinates: M[l][k] = -c[i,j,l,k]."""
    return _rep_family(_coadjoint_tensor(a))


# An m x m int matrix X is packed as the dict {j: sum_p X[p][j] 2**(w p)} of
# its columns, one int each with signed slots of w bits; a zero column may be
# absent or 0, so packed operators are compared by their difference.

def _packed_columns(mat: Mat, w: int) -> dict:
    out: dict = {}
    for p, pairs in enumerate(mat.nonzeros):
        for j, v in pairs:
            out[j] = out.get(j, 0) + (v << w * p)
    return out


def _sum(terms) -> dict:
    """The packed sum of f X over the (packed X, f) terms."""
    acc: dict = {}
    for X, f in terms:
        for j, x in X.items():
            acc[j] = acc.get(j, 0) + f * x
    return acc


def _matmul(X: dict, Y: tuple) -> dict:
    """The packed X Y of a packed X and Y's ``nonzeros``."""
    acc: dict = {}
    for k, pairs in enumerate(Y):
        x = X.get(k)
        if x:
            for j, v in pairs:
                acc[j] = acc.get(j, 0) + v * x
    return acc


def _unpacked_rows(X: dict, w: int, m: int, scale: int) -> tuple:
    """The rows of the packed X / scale, each slot a balanced residue."""
    rows: dict = {p: {} for p in range(m)}
    half = 1 << w - 1
    for j, x in X.items():
        for p in range(m):
            rows[p][j] = v = ((x + half) & (2 * half - 1)) - half
            x = (x - v) >> w
    rows = unlift(rows, scale)
    return tuple(dense(rows[p], m) for p in range(m))


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
    orbit is formed, in lex order: (u, v) and (z, u), as rho is skew, and
    (x, y, z) of action and (x, y) of exchange, as the bracket is. A tuple
    with a repeat has both sides zero; any other has those of its sorted
    tuple, which comes first, up to sign.

    Operators are formed on first use, once per call. Each rho rho term is
    +-1 times a product rho(a(p), a(q)) rho(r, s) with p < q, r < s and
    rho(r, s) nonzero. As rho is skew, the last exchange term is
    -rho([x,y,u], a(z)) B; each rho([x,y,z], a(u)) B is formed once per
    sorted triple with a nonzero bracket row and u, from the rho(k, a(u)) B.

    The identities are compared on ints. rho, B, the twist and the bracket
    are lifted by their denominators Dr, DB, Da and Dc, and each term's
    missing factors are folded into an operator: intertwine scales B rho by
    Da**2 and has scale Dr*Da**2*DB; action and exchange scale the rho rho
    terms by S = Dc*DB and the bracket rows by Dc*Dr*Da, and have scale
    Dc*Dr**2*Da**2*DB, which divides a witness's sides back.

    Operators are packed (Kronecker substitution): a sum adds one int per
    column, and a product X Y, whose right factor is a source rho(r, s) or
    B, adds v X[k] into column j for each nonzero v = Y[k][j]. A rep is
    lifted and packed once (``Rep3._packed``). With M the largest lifted
    magnitude, S included, a compared entry is a sum of at most 3 m n**2
    terms of at most M**5, so the slot width w = bitlen(4 m n**2 M**5) + 1
    keeps packing injective: the sides are equal exactly when every packed
    column of their difference is 0, and only a witness is unpacked.
    """
    _require(r.base._skew, "base bracket is not skew")
    n, m = r.base.dim, r.vdim
    w, rho, ents, B, BA, cols, rows, S, D2, D4 = r._packed

    @cache
    def half2(a, v):  # rho(a, a(v))
        return _sum((rho[a, b], f) for b, f in cols[v] if (a, b) in rho)

    @cache
    def tw(u, v):  # rho(a(u), a(v)), read only for u < v
        return _sum((half2(a, v), f) for a, f in cols[u])

    # S * rho(a(u), a(v)), for action and exchange
    twS = tw if S == 1 else cache(lambda u, v: _sum([(tw(u, v), S)]))

    @cache
    def half2B(k, u):  # rho(k, a(u)) B
        return _matmul(half2(k, u), B)

    @cache
    def prod(p, q, r, s):  # S rho(a(p), a(q)) rho(r, s), p < q and r < s
        return _matmul(twS(p, q), ents[r][s])

    @cache
    def bracket(t, u):  # rho([t], a(u)) B for a sorted triple t with a row
        return _sum((half2B(k, u), f) for k, f in rows[t].items())

    # a tuple's terms sum to lhs - rhs; the first k of them are the lhs
    def add_prod(terms, sign, p, q, r, s):  # += sign S rho(a(p), a(q)) rho(r, s)
        if p > q:
            p, q, sign = q, p, -sign
        if r > s:
            r, s, sign = s, r, -sign
        if p != q and ents[r][s]:
            terms.append((prod(p, q, r, s), sign))

    def add_bracket(terms, sign, x, y, z, u):  # += sign rho([x,y,z], a(u)) B
        if z < y:  # x < y: sort the triple
            x, y, z, sign = (z, x, y, sign) if z < x else (x, z, y, -sign)
        if (x, y, z) in rows:
            terms.append((bracket((x, y, z), u), sign))

    def fail(check, at, terms, k, scale):  # checked: the lex position of at
        checked = sum(i * n ** e for e, i in enumerate(reversed(at))) + 1
        sides = _sum(terms[:k]), _sum((X, -f) for X, f in terms[k:])
        return CheckReport(False, checked, Witness(check, at, *(
            _unpacked_rows(side, w, m, scale) for side in sides), "rows"))

    pairs = list(combinations(range(n), 2))

    def intertwine():
        for u, v in pairs:
            terms = [(_matmul(tw(u, v), B), 1), (_matmul(BA, ents[u][v]), -1)]
            if any(_sum(terms).values()):
                return fail("rep_intertwine", (u, v), terms, 1, D2)
        return CheckReport(True, n ** 2)

    def action():
        for (x, y, z), u in product(combinations(range(n), 3), range(n)):
            terms = []
            add_bracket(terms, 1, x, y, z, u)
            k = len(terms)
            add_prod(terms, -1, y, z, x, u)
            add_prod(terms, -1, z, x, y, u)
            add_prod(terms, -1, x, y, z, u)
            if terms and any(_sum(terms).values()):
                return fail("rep_action", (x, y, z, u), terms, k, D4)
        return CheckReport(True, n ** 4)

    def exchange():
        for (x, y), (z, u) in product(pairs, pairs):
            # both products have their pairs sorted
            terms = [(prod(x, y, z, u), 1)] if ents[z][u] else []
            k = len(terms)
            if ents[x][y]:
                terms.append((prod(z, u, x, y), -1))
            add_bracket(terms, -1, x, y, z, u)
            add_bracket(terms, 1, x, y, u, z)
            if terms and any(_sum(terms).values()):
                return fail("rep_exchange", (x, y, z, u), terms, k, D4)
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

    Not a representation for every twist: it passes on N4, A4 and nilp5
    (identity twists) and fails at intertwine (e1, e2) on N4 twisted by
    diag(2,2,2,8) and on the Cayley-twisted A4 (see ROADMAP item 1).
    """
    _require(check_algebra(a), "coadjoint_rep needs a valid algebra")
    return Rep3(a, a.dim, coadjoint_family(a), a.twist.transpose())


def semidirect_sum(r: Rep3) -> Algebra3:
    """3-Hom-Lie structure on L + V induced by a representation of L.

    [x1+v1, x2+v2, x3+v3] = [x1,x2,x3] + rho(x1,x2)v3 + rho(x2,x3)v1
                            + rho(x3,x1)v2, twist = alpha (+) A.
    """
    _require(check_representation(r), "representation fails its axioms")
    label = r.base.label
    return _semidirect(r.base, _action_tensor(r.rho), r.A,
                       f"{label}|x|V" if label else "semidirect")


def _semidirect(a: Algebra3, act: Tensor4, A: Mat, label: str) -> Algebra3:
    """The semidirect bracket on L + V of an action tensor with rows
    (x, y, v) -> rho(x, y) v and carrier twist A (see semidirect_sum),
    labelled ``label``."""
    n, m = a.dim, act.dims[2]
    rows = dict(a.bracket.rows())
    _place(rows, act, 0, n)
    dens = (a.bracket._den, act._den)
    bracket = Tensor4._of((n + m,) * 4, rows,
                          None if None in dens else lcm(*dens))
    return Algebra3(n + m, bracket, Mat.block_diag(a.twist, A), label)


def _place(rows: dict, act: Tensor4, x0: int, v0: int) -> None:
    """Put an action into the rows of a direct-sum bracket: rho(e_i, e_j) f_q
    = sum_p v f_p goes into [e_i, e_j, f_q], [f_q, e_i, e_j] and [e_j, f_q,
    e_i], e offset by x0 and f by v0. The slot of f tells the three keys
    apart, so they share one row."""
    for (i, j, q), vec in act.rows():
        i, j, q = i + x0, j + x0, q + v0
        rows[i, j, q] = rows[q, i, j] = rows[j, q, i] = {
            p + v0: v for p, v in vec.items()}
