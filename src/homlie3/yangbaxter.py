"""Skew r-matrices on a 3-Hom-Lie algebra: the ternary classical
Yang-Baxter tensor [[r,r,r]], the induced coboundary cobracket, and the
correspondence between invertible solutions and closed invariant 2-forms.

An element r = sum R[a][b] e_a (x) e_b is stored by its coefficient matrix
R; the induced map L* -> L has matrix transpose(R) in the dual/primal
coordinate pair (<r(xi), eta> = <r, xi (x) eta>).
"""
from __future__ import annotations

from .exactlin import InputError, Mat, Tensor4, mat_inverse
from .homlie import (
    Algebra3, CheckReport, PreconditionError, Record, Witness, _flag,
    _fourterm_terms, _identity, _image, _pairing, _require, _residual,
    check_algebra, twist_slots,
)
from .reps import _coadjoint_tensor
from .bialgebra import BilForm, Cobracket


class RTensor(Record):
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
    for i, pairs in enumerate(diff.nonzeros):
        for j, v in pairs[:1]:  # the lex-first nonzero entry
            return CheckReport(False, n * n, Witness(
                "alpha_invariance", (i, j), (v + R[i][j],), (R[i][j],)))
    return CheckReport(True, n * n)


def _chybe_terms(r: RTensor) -> list:
    """[[r,r,r]] as terms keyed (p, q, s, t), one per leg that carries the
    bracket.

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
    # twist_slots maps slot index x to sum_a m[a][x] e_a: N, M enter transposed
    Nt, Mt = (A @ R).transpose(), (A @ R.transpose()).transpose()
    leg = _pairing(Mat.identity(a.dim))  # moves the bracket's output to the key
    return [(1, twist_slots(c, {0: Mt, 1: Mt, 2: Mt}), leg, (3, 0, 1, 2)),
            (1, twist_slots(c, {0: Nt, 1: Mt, 2: Mt}), leg, (0, 3, 1, 2)),
            (1, twist_slots(c, {0: Nt, 1: Nt, 2: Mt}), leg, (0, 1, 3, 2)),
            (1, twist_slots(c, {0: Nt, 1: Nt, 2: Nt}), leg, (0, 1, 2, 3))]


def triple_bracket(r: RTensor) -> dict:
    """[[r,r,r]] as a sparse 4-tensor {(p,q,s,t): coeff} on L^(x)4."""
    return {key: vec[0] for key, vec in _residual(_chybe_terms(r)).items()}


def _r_parts(r: RTensor) -> list:
    """The skew and alpha_invariance parts of a report on r."""
    return [("skew", _flag(r.is_skew(), "r_skew", r.base.dim ** 2)),
            ("alpha_invariance", alpha_invariance(r))]


def check_chybe(r: RTensor) -> CheckReport:
    """r solves the ternary classical Yang-Baxter equation: [[r,r,r]] = 0.

    Preconditions (skewness and twist invariance) are reported as parts
    rather than raised, so a failing input still yields a verdict.
    """
    n = r.base.dim
    return CheckReport.combine(_r_parts(r) + [
        ("triple_bracket", _identity("chybe", _chybe_terms(r), (n,) * 4, 1,
                                     nominal=True))])


def _induced_map(r: RTensor) -> Mat:
    """The map of the closed form and the residual identity, r o a*, from
    dual to primal coordinates: column j is r(a*(e_j*))."""
    return (r.base.twist @ r.entries).transpose()


def _dual_bracket_formula(r: RTensor, dual_c: Tensor4) -> CheckReport:
    """[xi,eta,gamma]* = ad*_{r(xi),r(eta)} gamma + ad*_{r(eta),r(gamma)} xi
    + ad*_{r(gamma),r(xi)} eta on all dual basis triples (i, j, k)."""
    n, rs = r.base.dim, _induced_map(r)
    # (i, j, k) -> ad*_{r(e_i*), r(e_j*)} e_k*
    coad = twist_slots(_coadjoint_tensor(r.base), {0: rs, 1: rs})
    same = _image(Mat.identity(n))
    terms = [(1, dict(dual_c.rows()), same, (0, 1, 2)),
             (-1, coad, same, (0, 1, 2)), (-1, coad, same, (2, 0, 1)),
             (-1, coad, same, (1, 2, 0))]
    return _identity("dual_bracket_formula", terms, (n,) * 3, n, lhs=1,
                     nominal=True)


def coboundary_cobracket(r: RTensor) -> tuple:
    """The cobracket Delta = Delta_1 + Delta_2 + Delta_3 induced by r.

    Returns (Cobracket, CheckReport); the report's parts record skewness of
    r, twist invariance, and the closed-form identity
      [xi,eta,gamma]* = ad*_{r(xi),r(eta)} gamma + ad*_{r(eta),r(gamma)} xi
                        + ad*_{r(gamma),r(xi)} eta
    recomputed independently from the coadjoint action.
    """
    a = r.base
    n, A, R = a.dim, a.twist, r.entries
    # Delta(e_x) pairs the bracket leg [e_x, e_a, e_c] with the partners
    # a(e_b), a(e_d) for r = sum R[a][b] e_a (x) e_b taken twice: rows
    # (x, p, q) -> {l: coeff}, p and q the partners; each summand puts
    # l, p, q on its own legs of the keys (i, j, k, x) of dual_c
    RA = R @ A.transpose()
    legs = twist_slots(a.bracket, {1: RA, 2: RA})
    out = _pairing(Mat.identity(n))  # moves the bracket's output to the key
    terms = [(1, legs, out, (3, 2, 1, 0)),  # Delta_1: bracket (x) a(y_j) (x) a(y_i)
             (1, legs, out, (1, 3, 2, 0)),  # Delta_2: a(y_i) (x) bracket (x) a(y_j)
             (1, legs, out, (2, 1, 3, 0))]  # Delta_3: a(y_j) (x) a(y_i) (x) bracket
    dual_c = Tensor4.from_entries((n,) * 4, (
        (*key, vec[0]) for key, vec in _residual(terms).items()))
    return Cobracket(a, dual_c), CheckReport.combine(_r_parts(r) + [
        ("dual_bracket_formula", _dual_bracket_formula(r, dual_c))])


def verify_residual(r: RTensor) -> CheckReport:
    """[r(xi),r(eta),r(gamma)] - r([xi,eta,gamma]*) = [[r,r,r]](xi,eta,gamma)
    on all dual basis triples, with the two sides computed by independent
    routes (cobracket + induced map vs the 4-tensor contraction)."""
    cob, rep = coboundary_cobracket(r)
    if not rep.passed:
        return rep
    n, rs = r.base.dim, _induced_map(r)
    rrr = Tensor4.from_entries((n,) * 4, (
        (*key, v) for key, v in triple_bracket(r).items()))
    same = _image(Mat.identity(n))
    terms = [(1, twist_slots(r.base.bracket, {0: rs, 1: rs, 2: rs}), same,
              (0, 1, 2)),
             (-1, dict(cob.dual_c.rows()), _image(rs), (0, 1, 2)),
             (-1, dict(rrr.rows()), same, (0, 1, 2))]
    res = _identity("residual", terms, (n,) * 3, n, lhs=2, nominal=True)
    if not res.passed:
        # both sides as their nonzero (l, value) pairs
        w = res.witness
        pairs = lambda vec: tuple((l, v) for l, v in enumerate(vec) if v)
        res = res.replace(witness=w.replace(left=pairs(w.left),
                                            right=pairs(w.right), kind="pairs"))
    return res.replace(parts=rep.parts + (("residual", res),))


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
    _require(a._skew, "bracket is not skew")
    terms = _fourterm_terms(a, a.twist.transpose() @ form.matrix)
    return _identity("closed_form", terms, (n,) * 4, 1)


def cocycle_form_check(r: RTensor) -> CheckReport:
    """For a regular base and invertible twist-invariant skew r: r solves
    the Yang-Baxter equation iff the 2-form B(x,y) = <r^-1(x), y> is closed.
    Both verdicts are computed and the biconditional is asserted as a part."""
    _require(check_algebra(r.base, regular=True),
             "not a regular 3-Hom-Lie algebra")
    if not r.is_skew():
        raise PreconditionError("r must be skew-symmetric")
    _require(alpha_invariance(r), "r is not twist-invariant")
    form = form_from_r(r)
    chybe = check_chybe(r)
    closed = closed_form_check(r.base, form)
    agree = chybe.passed == closed.passed
    both = _flag(agree, "biconditional")
    parts = (("chybe", chybe), ("closed_form", closed), ("biconditional", both))
    return CheckReport(agree, chybe.checked + closed.checked + 1,
                       both.witness, parts)
