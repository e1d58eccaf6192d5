"""3-Hom-Lie algebras: axiom checkers, twist constructions, derivations.

An algebra is a triple (L, [.,.,.], alpha) with a totally skew ternary
bracket and a linear twist map alpha satisfying the twisted Jacobi identity

    [a(x), a(y), [u,v,w]] = [[x,y,u], a(v), a(w)] + [a(u), [x,y,v], a(w)]
                            + [a(u), a(v), [x,y,w]]

for all x, y, u, v, w.  Every check is exhaustive and exact, and reports
the lexicographically first violation.

Every multilinear identity in the package (Hom-Jacobi, derivations, the
pre-Lie, pre-Lie representation and matched-pair identities, O-operator
transport, invariance of forms, the closed-form and cocycle identities, the
double-construction equations (2.10)-(2.12), the ternary classical
Yang-Baxter tensor [[r,r,r]], the dual-bracket formula of a coboundary
cobracket and the residual identity) is a signed sum of terms, each
composing one bracket-like tensor into one slot of another, with twists in
the other slots. They are all evaluated by one sparse residual engine,
``_residual``: a term is (sign, inner, outer, order), where ``inner`` maps
an input tuple to a sparse vector {m: f} (the rows of a bracket, a cobracket
or a representation's action, or the columns of a matrix) and ``outer`` maps
m to [(others, vec)] (built by ``_slot_outer`` from twist_slots, by
``_by_output`` from a tensor, or from a matrix). Only nonzero structure
constants are visited, and a key absent from the residual has residual zero,
so the verdict is exhaustive without enumerating basis tuples. ``_identity``
turns the residual into a report whose witness is its lex-first key, with
``checked`` the witness's lex position, as for a loop that stops at its
first failure. The coboundary cobracket and [[r,r,r]] themselves are
residuals of such sums.

A residual skew in a group of key indices is zero at a repeated index and
elsewhere +-1 times its value at the key with the group sorted, which is
lex before it. So once ``_skew_check`` passes, the Hom-Jacobi and
multiplicativity terms are prefiltered to the sorted key of each orbit.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import prod
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .exactlin import (
    InputError, Mat, ONE, Tensor4, ZERO, dense, mat_inverse, sparse_kernel,
    vec_add_into,
)

class PreconditionError(ValueError):
    """A documented precondition failed; carries a witness when available."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Witness:
    """First violated instance of a check: where, at which basis tuple."""
    check: str
    at: tuple
    left: tuple
    right: tuple


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    checked: int
    witness: Optional[Witness] = None
    parts: tuple = ()  # ((name, CheckReport), ...)

    @staticmethod
    def combine(parts: Sequence) -> "CheckReport":
        total = sum(r.checked for _, r in parts)
        for _, r in parts:
            if not r.passed:
                return CheckReport(False, total, r.witness, tuple(parts))
        return CheckReport(True, total, None, tuple(parts))

    def part(self, name: str) -> "CheckReport":
        for n, r in self.parts:
            if n == name:
                return r
        raise KeyError(name)


def _flag(ok: bool, check: str, checked: int = 1) -> CheckReport:
    """A part that tests one condition; its witness names the check."""
    return CheckReport(ok, checked, None if ok else Witness(check, (), (), ()))


def _require(report: CheckReport, message: str) -> CheckReport:
    """A precondition check's report if it passed; otherwise raise
    PreconditionError(message) carrying its witness."""
    if not report.passed:
        raise PreconditionError(message, witness=report.witness)
    return report


@dataclass(frozen=True)
class Algebra3:
    """A 3-Hom-Lie algebra by structure constants.

    bracket holds c with [e_i, e_j, e_k] = sum_l c[i,j,k,l] e_l (fully
    stored, skewness is validated by check_algebra rather than assumed);
    twist is the matrix of alpha.
    """
    dim: int
    bracket: Tensor4
    twist: Mat
    label: str = ""

    def __post_init__(self):
        n = self.dim
        if self.bracket.dims != (n, n, n, n):
            raise InputError(f"bracket dims {self.bracket.dims} for dim {n}")
        if self.twist.shape != (n, n):
            raise InputError(f"twist shape {self.twist.shape} for dim {n}")

    @staticmethod
    def abelian(n: int, twist: Optional[Mat] = None, label: str = "abelian") -> "Algebra3":
        return Algebra3(n, Tensor4.zero((n,) * 4),
                        twist if twist is not None else Mat.identity(n), label)


def bracket_vec(c: Tensor4, x: Mapping, y: Mapping, z: Mapping) -> dict:
    """[x, y, z] for sparse coefficient vectors x, y, z."""
    out: dict = {}
    for i, xi in x.items():
        for j, yj in y.items():
            f = xi * yj
            for k, zk in z.items():
                row = c.row(i, j, k)
                if row:
                    vec_add_into(out, row, f * zk)
    return out


def twist_slots(c: Tensor4, mats: Mapping[int, Mat]) -> dict:
    """Compose the bracket with linear maps in the given argument slots.

    Returns {(i,j,k): {l: val}} for the tensor of (x,y,z) ->
    [m0(x), m1(y), m2(z)] where ms is mats.get(slot, identity).
    """
    # for each original index a, the columns x with M[a][x] != 0
    row_sup = {}
    for s, m in mats.items():
        row_sup[s] = [[(x, m.entries[a][x]) for x in range(m.cols)
                       if m.entries[a][x]] for a in range(m.rows)]
    out: dict = {}
    for (a, b, k), lvec in c.rows():
        ch0 = row_sup[0][a] if 0 in row_sup else ((a, ONE),)
        ch1 = row_sup[1][b] if 1 in row_sup else ((b, ONE),)
        ch2 = row_sup[2][k] if 2 in row_sup else ((k, ONE),)
        for x, fx in ch0:
            for y, fy in ch1:
                fxy = fx * fy
                for z, fz in ch2:
                    row = out.setdefault((x, y, z), {})
                    vec_add_into(row, lvec, fxy * fz)
    return {key: vec for key, vec in out.items() if vec}


def _skew_check(a: Algebra3) -> CheckReport:
    """Total skewness, compared in lex order only at the triples that can
    fail: nonzero rows with a repeated index, and every permutation of a
    nonzero row with distinct indices. The witness and ``checked`` (its
    1-based lex position, n**3 on a pass) are those of a scan of every
    triple."""
    n, c = a.dim, a.bracket
    visit = set()
    for t, _ in c.rows():
        visit.update([t] if len(set(t)) < 3 else permutations(t))
    for t in sorted(visit):
        i, j, k = t
        checked = (i * n + j) * n + k + 1
        row = c.row(i, j, k)
        if len(set(t)) < 3:
            l = min(row)
            return CheckReport(False, checked, Witness(
                "skew", (i, j, k, l), (row[l],), (ZERO,)))
        inversions = sum(1 for p in range(3) for q in range(p + 1, 3)
                         if t[p] > t[q])
        sign = -1 if inversions % 2 else 1
        canon = c.row(*sorted(t))
        for l in sorted(set(row) | set(canon)):
            lhs = row.get(l, ZERO)
            rhs = sign * canon.get(l, ZERO)
            if lhs != rhs:
                return CheckReport(False, checked, Witness(
                    "skew", (i, j, k, l), (lhs,), (rhs,)))
    return CheckReport(True, n ** 3)


def _residual(terms) -> dict:
    """The sparse residual {key: {l: value}} of a signed sum of terms.

    A term (sign, inner, outer, order) composes two tensors: for each input
    tuple t with inner[t] = {m: f}, and each (others, vec) in outer[m], it
    adds sign * f * vec at the key that ``order`` (a permutation) picks
    from t + others; a fifth element, when present, is a predicate that
    limits the term to the keys it keeps. Keys whose sum vanishes are
    dropped.
    """
    res: dict = {}
    for sign, inner, outer, order, *keep in terms:
        pick = itemgetter(*order)
        keep = keep[0] if keep else None
        for t, ivec in inner.items():
            for m, f in ivec.items():
                sf = sign * f
                for others, vec in outer.get(m, ()):
                    key = pick(t + others)
                    if keep is None or keep(key):
                        vec_add_into(res.setdefault(key, {}), vec, sf)
    return {key: vec for key, vec in res.items() if vec}


def _at(terms, key: tuple) -> dict:
    """The sum of the terms at one key, from the one t + others of each
    term that its order maps there."""
    out: dict = {}
    for sign, inner, outer, order, *keep in terms:
        if keep and not keep[0](key):
            continue
        src = tuple(key[order.index(s)] for s in range(len(order)))
        k = len(next(iter(inner), ()))
        for m, f in inner.get(src[:k], {}).items():
            for others, vec in outer.get(m, ()):
                if others == src[k:]:
                    vec_add_into(out, vec, sign * f)
    return out


def _identity(name: str, terms, dims: tuple, width: int,
              lhs: Optional[int] = None, nominal: bool = False) -> CheckReport:
    """Check that the terms sum to zero at every key of shape ``dims``.

    The witness is the lex-first nonzero key. Its left side is the sum of
    the first ``lhs`` terms there (the residual itself when lhs is None),
    its right side the left side minus the residual, both as dense vectors
    of length ``width``. ``checked`` is the 1-based lex position of the
    witness's first len(dims) indices, as if those tuples had been
    enumerated up to it, and prod(dims) when the identity holds or the count
    is ``nominal``. Keys may be longer than ``dims``: the indices past them
    locate the witness within the value at that tuple.
    """
    res = _residual(terms)
    if not res:
        return CheckReport(True, prod(dims))
    key = min(res)
    left = dense(res[key] if lhs is None else _at(terms[:lhs], key), width)
    right = tuple(v - res[key].get(l, ZERO) for l, v in enumerate(left))
    checked = 0
    for k, d in zip(key, dims):
        checked = checked * d + k
    return CheckReport(False, prod(dims) if nominal else checked + 1,
                       Witness(name, key, left, right))


def _slot_outer(c: Tensor4, slot: int, mats: Mapping[int, Mat]) -> dict:
    """{m: [(others, vec)]}: the tensor of twist_slots(c, mats) grouped by
    its index in one argument slot, the other two indices kept in order."""
    out: dict = {}
    for key, vec in twist_slots(c, mats).items():
        out.setdefault(key[slot], []).append((key[:slot] + key[slot + 1:], vec))
    return out


def _by_output(t: Tensor4) -> dict:
    """{l: [((i, j, k), {0: t[i,j,k,l]})]}: an outer part that contracts the
    vector with the output index of t, moving t's input indices into the
    key (for the scalar identities)."""
    out: dict = {}
    for i, j, k, l, v in t.items():
        out.setdefault(l, []).append(((i, j, k), {0: v}))
    return out


def _permuted(t: Tensor4, order: tuple) -> Tensor4:
    """t with its four indices rearranged: entry e goes to (e[s] for s in
    order)."""
    return Tensor4.from_entries(tuple(t.dims[s] for s in order),
                                map(itemgetter(*order, 4), t.items()))


def _columns(m: Mat) -> dict:
    """{(x,): column x}: a matrix as the inner part of a term."""
    return {(x,): dict(col) for x, col in enumerate(m.col_support()) if col}


def _image(m: Mat) -> dict:
    """{l: [((), column l)]}: an outer part that maps the vector through m."""
    return {x: [((), col)] for (x,), col in _columns(m).items()}


def _pairing(m: Mat) -> dict:
    """{l: [((w,), {0: m[l][w]})]}: an outer part that pairs the vector with
    each basis vector w through the form m (for the scalar identities)."""
    return {l: [((w,), {0: v}) for w, v in enumerate(row) if v]
            for l, row in enumerate(m.entries)}


def _increasing(outer: dict) -> dict:
    """The outer part's (others, vec) with others[0] < others[1]."""
    out = {m: [(o, vec) for o, vec in pairs if o[0] < o[1]]
           for m, pairs in outer.items()}
    return {m: pairs for m, pairs in out.items() if pairs}


def _tail_increasing(key: tuple) -> bool:
    """The last three indices of a residual key increase."""
    return key[-3] < key[-2] < key[-1]


def _hom_jacobi_terms(a: Algebra3, t12: dict, skew: bool) -> list:
    """The Hom-Jacobi residual at key (x, y, u, v, w), t12 being [a(x),
    a(y), m] by m; with ``skew`` only at x < y, u < v < w.

    A skew bracket makes every term skew in (x, y); swapping two of u, v, w
    negates the first term and takes each other one to minus another."""
    c, A = dict(a.bracket.rows()), a.twist
    t23 = _slot_outer(a.bracket, 0, {1: A, 2: A})
    t13 = _slot_outer(a.bracket, 1, {0: A, 2: A})
    uvw = xy = c
    keep = ()
    if skew:
        uvw = {t: v for t, v in c.items() if t[0] < t[1] < t[2]}
        xy = {t: v for t, v in c.items() if t[0] < t[1]}
        t12, t23, t13 = map(_increasing, (t12, t23, t13))
        keep = (_tail_increasing,)
    # [a(x),a(y),[u,v,w]] - [[x,y,u],a(v),a(w)] - [a(u),[x,y,v],a(w)]
    #   - [a(u),a(v),[x,y,w]]; the key test orders u, v, w across parts
    return [(1, uvw, t12, (3, 4, 0, 1, 2)),
            (-1, xy, t23, (0, 1, 2, 3, 4), *keep),
            (-1, xy, t13, (0, 1, 3, 2, 4), *keep),
            (-1, xy, t12, (0, 1, 3, 4, 2), *keep)]


def _morphism_terms(a: Algebra3, phi: Mat, t12: dict, skew: bool) -> list:
    """phi([x,y,z]) - [phi x, phi y, phi z] at key (x, y, z), t12 being
    [phi x, phi y, m] by m; with ``skew``, as a skew bracket makes both
    sides skew in (x, y, z), only at x < y < z."""
    c = dict(a.bracket.rows())
    keep = ()
    if skew:
        c = {t: v for t, v in c.items() if t[0] < t[1] < t[2]}
        t12, keep = _increasing(t12), (_tail_increasing,)
    return [(1, c, _image(phi), (0, 1, 2)),
            (-1, _columns(phi), t12, (1, 2, 0), *keep)]


def check_algebra(a: Algebra3, skew: bool = True, hom_jacobi: bool = True,
                  multiplicative: bool = True, regular: bool = False) -> CheckReport:
    """Run the selected axiom checks; skew failure short-circuits the rest."""
    parts = [("skew", _skew_check(a))] if skew else []
    if parts and not parts[0][1].passed:
        return CheckReport.combine(parts)
    # [a(x), a(y), z] grouped by z, shared by both checks, which a passed
    # skew check lets decide each orbit of keys at its sorted key
    A, n = a.twist, a.dim
    t12 = _slot_outer(a.bracket, 2, {0: A, 1: A})
    if hom_jacobi:
        parts.append(("hom_jacobi", _identity(
            "hom_jacobi", _hom_jacobi_terms(a, t12, skew), (n,) * 5, n,
            lhs=1, nominal=True)))
    if multiplicative:
        parts.append(("multiplicative", _identity(
            "multiplicative", _morphism_terms(a, A, t12, skew), (n,) * 3, n,
            lhs=1)))
    if regular:
        parts.append(("regular", _flag(mat_inverse(A) is not None, "regular")))
    return CheckReport.combine(parts)


def is_bracket_morphism(a: Algebra3, phi: Mat) -> Optional[Witness]:
    """None when phi([x,y,z]) = [phi x, phi y, phi z] on all basis triples."""
    if phi.shape != (a.dim, a.dim):
        raise InputError(f"morphism shape {phi.shape} for dim {a.dim}")
    # the bracket has not been checked for skewness: every key is formed
    terms = _morphism_terms(
        a, phi, _slot_outer(a.bracket, 2, {0: phi, 1: phi}), False)
    return _identity("morphism", terms, (a.dim,) * 3, a.dim, lhs=1).witness


def yau_twist(a: Algebra3, morph: Mat) -> Algebra3:
    """Twist a 3-Lie algebra (identity twist) along a bracket morphism.

    The new bracket is [x,y,z]' = [phi(x), phi(y), phi(z)] and the new twist
    is phi itself.
    """
    if not a.twist.is_identity():
        raise PreconditionError("yau_twist needs a 3-Lie algebra (identity twist)")
    w = is_bracket_morphism(a, morph)
    if w is not None:
        raise PreconditionError("morph is not a bracket morphism", witness=w)
    rows = twist_slots(a.bracket, {0: morph, 1: morph, 2: morph})
    return Algebra3(a.dim, Tensor4((a.dim,) * 4, rows), morph,
                    label=f"{a.label}~yau" if a.label else "yau")


def composition_twist(a: Algebra3, beta: Mat) -> Algebra3:
    """New bracket [.,.,.] o (beta x beta x alpha) with twist alpha o beta."""
    w = is_bracket_morphism(a, beta)
    if w is not None:
        raise PreconditionError("beta is not a bracket morphism", witness=w)
    if a.twist @ beta != beta @ a.twist:
        raise PreconditionError("beta does not commute with the twist")
    rows = twist_slots(a.bracket, {0: beta, 1: beta, 2: a.twist})
    return Algebra3(a.dim, Tensor4((a.dim,) * 4, rows), a.twist @ beta,
                    label=f"{a.label}~comp" if a.label else "comp")


def _derivation_rows(a: Algebra3, form: Optional[Mat]) -> list:
    """The nonzero rows {col: value} of the system over vec(D) (D[p][q] ->
    p*n+q) whose kernel is Der(L) (Der_B(L) given B), built from the nonzero
    twist, bracket and form entries: c[u,v,w,x] enters O(n) Leibniz rows."""
    n, A = a.dim, a.twist
    if form is not None and form.shape != (n, n):
        raise InputError(f"form shape {form.shape} for dim {n}")
    rows: dict = {}

    def add(key, col, v):
        row = rows.setdefault(key, {})
        row[col] = row.get(col, ZERO) + v

    # D o alpha = alpha o D at (0, p, q):
    #   sum_m D[p][m] A[m][q] - A[p][m] D[m][q]
    for r, cols in enumerate(A.entries):
        for s, v in enumerate(cols):
            if v:
                for p in range(n):
                    add((0, p, s), p * n + r, v)
                    add((0, r, p), s * n + p, -v)
    # Leibniz over basis triples i<j<k (skewness makes the rest redundant)
    # at (1, i, j, k, l): sum_m D[l][m] c[i,j,k,m] - D[m][i] c[m,j,k,l]
    #   - D[m][j] c[i,m,k,l] - D[m][k] c[i,j,m,l]
    for u, v, w, x, val in a.bracket.items():
        if u < v < w:
            for l in range(n):
                add((1, u, v, w, l), l * n + x, val)
        if v < w:
            for i in range(v):
                add((1, i, v, w, x), u * n + i, -val)
        for j in range(u + 1, w):
            add((1, u, j, w, x), v * n + j, -val)
        if u < v:
            for k in range(v + 1, n):
                add((1, u, v, k, x), w * n + k, -val)
    # B-skewness at (2, p, q): sum_m D[m][p] B[m][q] + B[p][m] D[m][q]
    if form is not None:
        for r, cols in enumerate(form.entries):
            for s, v in enumerate(cols):
                if v:
                    for p in range(n):
                        add((2, p, s), r * n + p, v)
                        add((2, r, p), s * n + p, v)
    out = ({col: v for col, v in rows[key].items() if v} for key in sorted(rows))
    return [row for row in out if row]


def derivation_space(a: Algebra3, form: Optional[Mat] = None) -> tuple:
    """Canonical basis of Der(L) (or Der_B(L) when B is given) as matrices:
    the reduced echelon basis of the kernel of ``_derivation_rows``."""
    n = a.dim
    basis = sparse_kernel(_derivation_rows(a, form), n * n)
    return tuple(Mat([[v.get(p * n + q, ZERO) for q in range(n)]
                      for p in range(n)]) for v in basis)


def is_derivation(a: Algebra3, d: Mat) -> Optional[Witness]:
    """None when d commutes with the twist and satisfies the Leibniz rule."""
    n, c, A = a.dim, a.bracket, a.twist
    if d.shape != (n, n):
        raise InputError(f"derivation shape {d.shape} for dim {n}")
    if d @ A != A @ d:
        return Witness("derivation_commutes", (), (), ())
    # D[x,y,z] - [Dx,y,z] - [x,Dy,z] - [x,y,Dz] at key (x, y, z)
    terms = [(1, dict(c.rows()), _image(d), (0, 1, 2)),
             (-1, _columns(d), _slot_outer(c, 0, {}), (0, 1, 2)),
             (-1, _columns(d), _slot_outer(c, 1, {}), (1, 0, 2)),
             (-1, _columns(d), _slot_outer(c, 2, {}), (1, 2, 0))]
    return _identity("derivation", terms, (n,) * 3, n, lhs=1).witness
