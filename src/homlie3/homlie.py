"""3-Hom-Lie algebras: axiom checkers, twist constructions, derivations.

An algebra is a triple (L, [.,.,.], alpha) with a totally skew ternary
bracket and a linear twist map alpha satisfying the twisted Jacobi identity

    [a(x), a(y), [u,v,w]] = [[x,y,u], a(v), a(w)] + [a(u), [x,y,v], a(w)]
                            + [a(u), a(v), [x,y,w]]

for all x, y, u, v, w.  All checks enumerate basis tuples exhaustively and
report the lexicographically first violation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .exactlin import (
    InputError, Mat, ONE, Tensor4, ZERO, dense, kernel_basis, mat_inverse,
    rat, vec_add_into,
)

_PERM_SIGNS = (
    ((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
    ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1),
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
    n, c = a.dim, a.bracket
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                checked += 1
                row = c.row(i, j, k)
                if len({i, j, k}) < 3:
                    if row:
                        l = min(row)
                        return CheckReport(False, checked, Witness(
                            "skew", (i, j, k, l), (row[l],), (ZERO,)))
                    continue
                srt = tuple(sorted((i, j, k)))
                t = (i, j, k)
                inversions = sum(1 for p in range(3) for q in range(p + 1, 3)
                                 if t[p] > t[q])
                sign = -1 if inversions % 2 else 1
                canon = c.row(*srt)
                for l in sorted(set(row) | set(canon)):
                    lhs = row.get(l, ZERO)
                    rhs = sign * canon.get(l, ZERO)
                    if lhs != rhs:
                        return CheckReport(False, checked, Witness(
                            "skew", (i, j, k, l), (lhs,), (rhs,)))
    return CheckReport(True, checked)


def _hom_jacobi_check(a: Algebra3) -> CheckReport:
    # Sparse strategy: instead of walking all n^5 basis tuples, accumulate
    # the residual of the identity from pairs of composable bracket
    # entries.  A tuple absent from the accumulator has residual zero, so
    # the verdict is exhaustive; witnesses are reconstructed per tuple.
    n, c, A = a.dim, a.bracket, a.twist
    t12 = twist_slots(c, {0: A, 1: A})
    t23 = twist_slots(c, {1: A, 2: A})
    t13 = twist_slots(c, {0: A, 2: A})
    t12_by_third: dict = {}
    for (i, j, m), vec in t12.items():
        t12_by_third.setdefault(m, []).append((i, j, vec))
    t23_by_first: dict = {}
    for (m, j, k), vec in t23.items():
        t23_by_first.setdefault(m, []).append((j, k, vec))
    t13_by_mid: dict = {}
    for (i, m, k), vec in t13.items():
        t13_by_mid.setdefault(m, []).append((i, k, vec))

    residual: dict = {}

    def add(key, vec, scale):
        for l, v in vec.items():
            val = residual.get(key, {}).get(l, ZERO) + scale * v
            slot = residual.setdefault(key, {})
            if val:
                slot[l] = val
            else:
                slot.pop(l, None)
                if not slot:
                    residual.pop(key, None)

    for (i, j, k), row in c.rows():
        for m, f in row.items():
            # [a(x), a(y), [u,v,w]] with (u,v,w) = (i,j,k)
            for x, y, vec in t12_by_third.get(m, ()):
                add((x, y, i, j, k), vec, f)
            # -[[x,y,u], a(v), a(w)] with (x,y,u) = (i,j,k)
            for v, w, vec in t23_by_first.get(m, ()):
                add((i, j, k, v, w), vec, -f)
            # -[a(u), [x,y,v], a(w)] with (x,y,v) = (i,j,k)
            for u, w, vec in t13_by_mid.get(m, ()):
                add((i, j, u, k, w), vec, -f)
            # -[a(u), a(v), [x,y,w]] with (x,y,w) = (i,j,k)
            for u, v, vec in t12_by_third.get(m, ()):
                add((i, j, u, v, k), vec, -f)

    checked = n ** 5
    bad = [key for key, slot in residual.items() if slot]
    if not bad:
        return CheckReport(True, checked)
    x, y, u, v, w = min(bad)
    lhs: dict = {}
    mxy = {m: t12.get((x, y, m)) for m in range(n)}
    for m, f in c.row(u, v, w).items():
        t = mxy.get(m)
        if t:
            vec_add_into(lhs, t, f)
    rhs = dict(lhs)
    for l, v2 in residual[(x, y, u, v, w)].items():
        rhs[l] = rhs.get(l, ZERO) - v2
    return CheckReport(False, checked, Witness(
        "hom_jacobi", (x, y, u, v, w), dense(lhs, n), dense(rhs, n)))


def _multiplicative_check(a: Algebra3) -> CheckReport:
    n, c, A = a.dim, a.bracket, a.twist
    full = twist_slots(c, {0: A, 1: A, 2: A})
    colsup = A.col_support()
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                checked += 1
                lhs: dict = {}
                for m, f in c.row(i, j, k).items():
                    for l, v in colsup[m]:
                        nv = lhs.get(l, ZERO) + f * v
                        if nv:
                            lhs[l] = nv
                        else:
                            lhs.pop(l, None)
                rhs = full.get((i, j, k), {})
                if lhs != rhs:
                    return CheckReport(False, checked, Witness(
                        "multiplicative", (i, j, k), dense(lhs, n), dense(rhs, n)))
    return CheckReport(True, checked)


def _regular_check(a: Algebra3) -> CheckReport:
    ok = mat_inverse(a.twist) is not None
    w = None if ok else Witness("regular", (), (), ())
    return CheckReport(ok, 1, w)


def check_algebra(a: Algebra3, skew: bool = True, hom_jacobi: bool = True,
                  multiplicative: bool = True, regular: bool = False) -> CheckReport:
    """Run the selected axiom checks; skew failure short-circuits the rest."""
    parts = []
    if skew:
        r = _skew_check(a)
        parts.append(("skew", r))
        if not r.passed:
            return CheckReport.combine(parts)
    if hom_jacobi:
        parts.append(("hom_jacobi", _hom_jacobi_check(a)))
    if multiplicative:
        parts.append(("multiplicative", _multiplicative_check(a)))
    if regular:
        parts.append(("regular", _regular_check(a)))
    return CheckReport.combine(parts)


def is_bracket_morphism(a: Algebra3, phi: Mat) -> Optional[Witness]:
    """None when phi([x,y,z]) = [phi x, phi y, phi z] on all basis triples."""
    n, c = a.dim, a.bracket
    if phi.shape != (n, n):
        raise InputError(f"morphism shape {phi.shape} for dim {n}")
    full = twist_slots(c, {0: phi, 1: phi, 2: phi})
    colsup = phi.col_support()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs: dict = {}
                for m, f in c.row(i, j, k).items():
                    for l, v in colsup[m]:
                        nv = lhs.get(l, ZERO) + f * v
                        if nv:
                            lhs[l] = nv
                        else:
                            lhs.pop(l, None)
                rhs = full.get((i, j, k), {})
                if lhs != rhs:
                    return Witness("morphism", (i, j, k), dense(lhs, n), dense(rhs, n))
    return None


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


def derivation_system(a: Algebra3, form: Optional[Mat] = None) -> Mat:
    """Linear system over vec(D) (row-major, D[p][q] -> p*n+q) whose kernel
    is the space of derivations commuting with the twist (and B-skew when a
    symmetric form B is supplied)."""
    n, c, A = a.dim, a.bracket, a.twist
    idx = lambda p, q: p * n + q
    rows = []
    # D o alpha = alpha o D
    for p in range(n):
        for q in range(n):
            row = [ZERO] * (n * n)
            for m in range(n):
                row[idx(p, m)] += A.entries[m][q]
                row[idx(m, q)] -= A.entries[p][m]
            if any(row):
                rows.append(row)
    # Leibniz over basis triples i<j<k (skewness makes the rest redundant)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    row = [ZERO] * (n * n)
                    for m in range(n):
                        row[idx(l, m)] += c.get(i, j, k, m)
                        row[idx(m, i)] -= c.get(m, j, k, l)
                        row[idx(m, j)] -= c.get(i, m, k, l)
                        row[idx(m, k)] -= c.get(i, j, m, l)
                    if any(row):
                        rows.append(row)
    if form is not None:
        if form.shape != (n, n):
            raise InputError(f"form shape {form.shape} for dim {n}")
        for p in range(n):
            for q in range(n):
                row = [ZERO] * (n * n)
                for m in range(n):
                    row[idx(m, p)] += form.entries[m][q]
                    row[idx(m, q)] += form.entries[p][m]
                if any(row):
                    rows.append(row)
    if not rows:
        rows = [[ZERO] * (n * n)]
    return Mat(rows)


def derivation_space(a: Algebra3, form: Optional[Mat] = None) -> tuple:
    """Canonical basis of Der(L) (or Der_B(L) when B is given) as matrices."""
    n = a.dim
    basis = kernel_basis(derivation_system(a, form))
    return tuple(Mat([list(v[p * n:(p + 1) * n]) for p in range(n)]) for v in basis)


def is_derivation(a: Algebra3, d: Mat) -> Optional[Witness]:
    """None when d commutes with the twist and satisfies the Leibniz rule."""
    n, c, A = a.dim, a.bracket, a.twist
    if d.shape != (n, n):
        raise InputError(f"derivation shape {d.shape} for dim {n}")
    if d @ A != A @ d:
        return Witness("derivation_commutes", (), (), ())
    # Sparse residual accumulation: each bracket entry contributes to
    # D[x,y,z] at (i,j,k) and to the three Leibniz terms at the triples
    # reachable by replacing one slot through a row of D.
    drow = [[(i, d.entries[m][i]) for i in range(n) if d.entries[m][i]]
            for m in range(n)]
    residual: dict = {}

    def add(key, l, v):
        slot = residual.setdefault(key, {})
        val = slot.get(l, ZERO) + v
        if val:
            slot[l] = val
        else:
            slot.pop(l, None)
            if not slot:
                residual.pop(key, None)

    for i, j, k, m, v in c.items():
        for l in range(n):
            dv = d.entries[l][m]
            if dv:
                add((i, j, k), l, v * dv)
        for x, dv in drow[i]:
            add((x, j, k), m, -v * dv)
        for x, dv in drow[j]:
            add((i, x, k), m, -v * dv)
        for x, dv in drow[k]:
            add((i, j, x), m, -v * dv)
    if not residual:
        return None
    i, j, k = min(residual)
    lhs = [sum((c.get(i, j, k, m) * d.entries[l][m]
                for m in range(n)), ZERO) for l in range(n)]
    rhs = [lhs[l] - residual[(i, j, k)].get(l, ZERO) for l in range(n)]
    return Witness("derivation", (i, j, k), tuple(lhs), tuple(rhs))
