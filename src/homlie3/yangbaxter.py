"""Skew r-matrices on a 3-Hom-Lie algebra: the ternary classical
Yang-Baxter tensor [[r,r,r]], the induced coboundary cobracket, and the
correspondence between invertible solutions and closed invariant 2-forms.

An element r = sum R[a][b] e_a (x) e_b is stored by its coefficient matrix
R; the induced map L* -> L has matrix transpose(R) in the dual/primal
coordinate pair (<r(xi), eta> = <r, xi (x) eta>).
"""
from __future__ import annotations

from dataclasses import dataclass

from .exactlin import InputError, Mat, Tensor4, ZERO, mat_inverse
from .homlie import (
    Algebra3, CheckReport, PreconditionError, Witness, _identity, _pairing,
    check_algebra,
)
from .bialgebra import BilForm, Cobracket, coadjoint_family


@dataclass(frozen=True)
class RTensor:
    base: Algebra3
    entries: Mat  # R[a][b] = coefficient of e_a (x) e_b

    def __post_init__(self):
        n = self.base.dim
        if self.entries.shape != (n, n):
            raise InputError(f"r-matrix shape {self.entries.shape} for dim {n}")

    def sharp(self) -> Mat:
        """Matrix of the induced map from dual to primal coordinates."""
        return self.entries.transpose()

    def is_skew(self) -> bool:
        return self.entries.transpose() == -self.entries


def alpha_invariance(r: RTensor) -> CheckReport:
    """(alpha (x) alpha) r = r, i.e. A R A^T = R entrywise."""
    A, R = r.base.twist, r.entries
    diff = A @ R @ A.transpose() - R
    n = r.base.dim
    for i in range(n):
        for j in range(n):
            if diff.entries[i][j]:
                return CheckReport(False, n * n, Witness(
                    "alpha_invariance", (i, j), (diff.entries[i][j] + R.entries[i][j],),
                    (R.entries[i][j],)))
    return CheckReport(True, n * n)


def triple_bracket(r: RTensor) -> dict:
    """[[r,r,r]] as a sparse 4-tensor {(p,q,s,t): coeff} on L^(x)4.

    With N = A.R (twist applied to first legs) and M = A.R^T (twist applied
    to second legs), the four summands contract the bracket tensor against
    columns of N and M:
      sum [x_i,x_j,x_k] (x) a(y_i) (x) a(y_j) (x) a(y_k)
      + a(x_i) (x) [y_i,x_j,x_k] (x) a(y_j) (x) a(y_k)
      + a(x_i) (x) a(x_j) (x) [y_i,y_j,x_k] (x) a(y_k)
      + a(x_i) (x) a(x_j) (x) a(x_k) (x) [y_i,y_j,y_k].
    """
    a = r.base
    c, A, R = a.bracket, a.twist, r.entries
    n = a.dim
    ncols = (A @ R).col_support()          # N[:, a'] pairs x_i-leg with y-index a'
    mcols = (A @ R.transpose()).col_support()  # M[:, a] pairs y_i-leg with x-index a
    out: dict = {}

    def add(key, v):
        nv = out.get(key, ZERO) + v
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)

    # slot patterns: which legs carry the bracket's three inputs, and whether
    # each remaining leg contracts through M (input was an x-index) or N.
    for i, j, k, l, v in c.items():
        for q, fq in mcols[i]:
            for s, fs in mcols[j]:
                f2 = v * fq * fs
                for t, ft in mcols[k]:
                    add((l, q, s, t), f2 * ft)          # bracket in slot 1
        for p, fp in ncols[i]:
            for s, fs in mcols[j]:
                f2 = v * fp * fs
                for t, ft in mcols[k]:
                    add((p, l, s, t), f2 * ft)          # bracket in slot 2
        for p, fp in ncols[i]:
            for q, fq in ncols[j]:
                f2 = v * fp * fq
                for t, ft in mcols[k]:
                    add((p, q, l, t), f2 * ft)          # bracket in slot 3
        for p, fp in ncols[i]:
            for q, fq in ncols[j]:
                f2 = v * fp * fq
                for t, ft in ncols[k]:
                    add((p, q, t, l), f2 * ft)          # bracket in slot 4
    return out


def check_chybe(r: RTensor) -> CheckReport:
    """r solves the ternary classical Yang-Baxter equation: [[r,r,r]] = 0.

    Preconditions (skewness and twist invariance) are reported as parts
    rather than raised, so a failing input still yields a verdict.
    """
    n = r.base.dim
    parts = [("skew", CheckReport(r.is_skew(), n * n,
                                  None if r.is_skew() else Witness("r_skew", (), (), ()))),
             ("alpha_invariance", alpha_invariance(r))]
    t = triple_bracket(r)
    if t:
        key = min(t)
        w = Witness("chybe", key, (t[key],), (ZERO,))
    else:
        w = None
    parts.append(("triple_bracket", CheckReport(w is None, n ** 4, w)))
    return CheckReport.combine(parts)


def _adstar_matrix(fam, u, v, n: int) -> Mat:
    """ad*_{u,v} for sparse primal vectors u, v (fam = coadjoint family)."""
    m = [[ZERO] * n for _ in range(n)]
    for i, ui in u.items():
        for j, vj in v.items():
            f = ui * vj
            if not f:
                continue
            ent = fam[i][j].entries
            for l in range(n):
                row = ent[l]
                for k in range(n):
                    if row[k]:
                        m[l][k] += f * row[k]
    return Mat(m)


def coboundary_cobracket(r: RTensor) -> tuple:
    """The cobracket Delta = Delta_1 + Delta_2 + Delta_3 induced by r.

    Returns (Cobracket, CheckReport); the report's parts record skewness of
    r, twist invariance, and the closed-form identity
      [xi,eta,gamma]* = ad*_{r(xi),r(eta)} gamma + ad*_{r(eta),r(gamma)} xi
                        + ad*_{r(gamma),r(xi)} eta
    recomputed independently from the coadjoint action.
    """
    a = r.base
    n, c, A, R = a.dim, a.bracket, a.twist, r.entries
    rcols = R.col_support()  # column b: pairs (a, R[a][b])
    acols = A.col_support()
    # Delta(e_x): bracket leg [e_x, e_a, e_c] with partners a(e_b), a(e_d)
    # placed per the three summands' slot orders.
    entries = []
    for x in range(n):
        for b in range(n):
            pairs_ab = [(ai, v) for ai, v in ((i, R.entries[i][b]) for i in range(n)) if v]
            if not pairs_ab:
                continue
            for d in range(n):
                pairs_cd = [(ci, v) for ci, v in ((i, R.entries[i][d]) for i in range(n)) if v]
                if not pairs_cd:
                    continue
                for ai, ra in pairs_ab:
                    for ci, rc in pairs_cd:
                        f = ra * rc
                        row = c.row(x, ai, ci)
                        if not row:
                            continue
                        for l, cv in row.items():
                            v = f * cv
                            for p, fb in acols[b]:
                                for q, fd in acols[d]:
                                    # Delta_1: bracket (x) a(y_j) (x) a(y_i)
                                    entries.append((l, q, p, x, v * fb * fd))
                                    # Delta_2: a(y_i) (x) bracket (x) a(y_j)
                                    entries.append((p, l, q, x, v * fb * fd))
                                    # Delta_3: a(y_j) (x) a(y_i) (x) bracket
                                    entries.append((q, p, l, x, v * fb * fd))
    dual_c = Tensor4.from_entries((n,) * 4, entries)
    cob = Cobracket(a, dual_c)

    parts = [("skew", CheckReport(r.is_skew(), n * n,
                                  None if r.is_skew() else Witness("r_skew", (), (), ()))),
             ("alpha_invariance", alpha_invariance(r))]
    fam = coadjoint_family(a)
    # every r in the closed form acts through the dual twist: r o a*
    reff = (A @ R).transpose()
    rsharp_cols = [dict((i, v) for i, v in enumerate(reff.col(j)) if v)
                   for j in range(n)]
    witness = None
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                checked += 1
                m = _adstar_matrix(fam, rsharp_cols[i], rsharp_cols[j], n)
                expect = list(m.col(k))
                m = _adstar_matrix(fam, rsharp_cols[j], rsharp_cols[k], n)
                ci = m.col(i)
                m = _adstar_matrix(fam, rsharp_cols[k], rsharp_cols[i], n)
                cj = m.col(j)
                for l in range(n):
                    expect[l] += ci[l] + cj[l]
                got = [dual_c.get(i, j, k, l) for l in range(n)]
                if got != expect and witness is None:
                    witness = Witness("dual_bracket_formula", (i, j, k),
                                      tuple(got), tuple(expect))
    parts.append(("dual_bracket_formula", CheckReport(witness is None, checked, witness)))
    return cob, CheckReport.combine(parts)


def verify_residual(r: RTensor) -> CheckReport:
    """[r(xi),r(eta),r(gamma)] - r([xi,eta,gamma]*) = [[r,r,r]](xi,eta,gamma)
    on all dual basis triples, with the two sides computed by independent
    routes (cobracket + induced map vs the 4-tensor contraction)."""
    cob, rep = coboundary_cobracket(r)
    if not rep.passed:
        return rep
    a = r.base
    n, c = a.dim, a.bracket
    # as in the closed form, the induced map is r o a*
    rs = (a.twist @ r.entries).transpose()
    t = triple_bracket(r)
    by_pqs: dict = {}
    for (p, q, s, l), v in t.items():
        by_pqs.setdefault((p, q, s), {})[l] = v
    witness = None
    checked = 0
    rcols = [dict((i, v) for i, v in enumerate(rs.col(j)) if v) for j in range(n)]
    from .homlie import bracket_vec
    for i in range(n):
        for j in range(n):
            for k in range(n):
                checked += 1
                lhs = bracket_vec(c, rcols[i], rcols[j], rcols[k])
                for l in range(n):
                    dv = cob.dual_c.get(i, j, k, l)
                    if dv:
                        for m, rv in rcols[l].items():
                            nv = lhs.get(m, ZERO) - dv * rv
                            if nv:
                                lhs[m] = nv
                            else:
                                lhs.pop(m, None)
                rhs = by_pqs.get((i, j, k), {})
                if lhs != rhs and witness is None:
                    witness = Witness("residual", (i, j, k),
                                      tuple(sorted(lhs.items())),
                                      tuple(sorted(rhs.items())))
    return CheckReport(witness is None, checked, witness,
                       rep.parts + (("residual", CheckReport(witness is None, checked, witness)),))


def form_from_r(r: RTensor) -> BilForm:
    """B(x,y) = <r^{-1}(x), y> for invertible skew r: matrix inverse(R)."""
    inv = mat_inverse(r.sharp())
    if inv is None:
        raise PreconditionError("r is degenerate; no associated 2-form")
    return BilForm(r.base.dim, inv.transpose(), "skew")


def closed_form_check(a: Algebra3, form: BilForm) -> CheckReport:
    """B(a[x,y,z],w) - B(a[x,y,w],z) + B(a[x,z,w],y) - B(a[y,z,w],x) = 0."""
    n = a.dim
    if form.dim != n:
        raise InputError(f"form dim {form.dim} vs algebra dim {n}")
    # with bw(x,y,z,w) = B(a[x,y,z], w), at key (x, y, z, w)
    AB = _pairing(a.twist.transpose() @ form.matrix)
    c = dict(a.bracket.rows())
    terms = [(1, c, AB, (0, 1, 2, 3)), (-1, c, AB, (0, 1, 3, 2)),
             (1, c, AB, (0, 3, 1, 2)), (-1, c, AB, (3, 0, 1, 2))]
    return _identity("closed_form", terms, (n,) * 4, 1)


def cocycle_form_check(r: RTensor) -> CheckReport:
    """For a regular base and invertible twist-invariant skew r: r solves
    the Yang-Baxter equation iff the 2-form B(x,y) = <r^-1(x), y> is closed.
    Both verdicts are computed and the biconditional is asserted as a part."""
    rep = check_algebra(r.base, regular=True)
    if not rep.passed:
        raise PreconditionError("not a regular 3-Hom-Lie algebra",
                                witness=rep.witness)
    if not r.is_skew():
        raise PreconditionError("r must be skew-symmetric")
    inv = alpha_invariance(r)
    if not inv.passed:
        raise PreconditionError("r is not twist-invariant", witness=inv.witness)
    form = form_from_r(r)
    chybe = check_chybe(r)
    closed = closed_form_check(r.base, form)
    agree = chybe.passed == closed.passed
    parts = (("chybe", chybe), ("closed_form", closed),
             ("biconditional", CheckReport(agree, 1, None if agree else
                                           Witness("biconditional", (), (), ()))))
    return CheckReport(agree,
                       chybe.checked + closed.checked + 1,
                       None if agree else Witness("biconditional", (), (), ()),
                       parts)
