"""Matched pairs, invariant forms, standard Manin triples, and the
double-construction bialgebra equations, with the three-way equivalence
between them as an executable suite.

Conventions: dual basis pairing <e_i*, e_j> = delta_ij; the twist on the
dual space has matrix transpose(alpha); coadjoint actions are defined by
<ad*_{x,y} xi, z> = -<xi, [x,y,z]> (and dually for the action of the dual).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .exactlin import InputError, Mat, ONE, Tensor4, ZERO
from .homlie import (
    Algebra3, CheckReport, PreconditionError, Witness, _identity, _pairing,
    _skew_check, _slot_outer, check_algebra,
)
from .reps import Rep3, _action_tensor, check_representation


@dataclass(frozen=True)
class BilForm:
    """A bilinear form by its Gram matrix; kind is 'symmetric' or 'skew'."""
    dim: int
    matrix: Mat
    kind: str

    def __post_init__(self):
        if self.matrix.shape != (self.dim, self.dim):
            raise InputError(f"form shape {self.matrix.shape} for dim {self.dim}")
        t = self.matrix.transpose()
        if self.kind == "symmetric":
            if t != self.matrix:
                raise InputError("matrix is not symmetric")
        elif self.kind == "skew":
            if t != -self.matrix:
                raise InputError("matrix is not skew-symmetric")
        else:
            raise InputError(f"unknown form kind {self.kind!r}")

    def value(self, x: Sequence, y: Sequence):
        return sum((self.matrix.entries[i][j] * xi * yj
                    for i, xi in enumerate(x) if xi
                    for j, yj in enumerate(y) if yj), ZERO)


@dataclass(frozen=True)
class Cobracket:
    """A cobracket via the structure constants of the induced dual bracket:
    [e_i*, e_j*, e_k*]* = sum_l dual_c[i,j,k,l] e_l*, equivalently
    Delta(e_k) = sum dual_c[i,j,l,k] e_i (x) e_j (x) e_l."""
    base: Algebra3
    dual_c: Tensor4

    def __post_init__(self):
        n = self.base.dim
        if self.dual_c.dims != (n,) * 4:
            raise InputError(f"dual bracket dims {self.dual_c.dims} for dim {n}")


@dataclass(frozen=True)
class MatchedPairData:
    left: Algebra3
    right: Algebra3
    rho: Rep3   # left acting on right's carrier
    mu: Rep3    # right acting on left's carrier

    def __post_init__(self):
        if self.rho.base != self.left or self.rho.vdim != self.right.dim:
            raise InputError("rho must represent left on right's space")
        if self.mu.base != self.right or self.mu.vdim != self.left.dim:
            raise InputError("mu must represent right on left's space")


def dual_algebra(c: Cobracket) -> Algebra3:
    return Algebra3(c.base.dim, c.dual_c, c.base.twist.transpose(),
                    label=f"{c.base.label}*" if c.base.label else "dual")


def coadjoint_family(a: Algebra3) -> tuple:
    """Matrices of ad*_{e_i, e_j} on dual coordinates: M[l][k] = -c[i,j,l,k]."""
    n, c = a.dim, a.bracket
    fam = []
    for i in range(n):
        row = []
        for j in range(n):
            m = [[ZERO] * n for _ in range(n)]
            for l in range(n):
                for k, v in c.row(i, j, l).items():
                    m[l][k] = -v
            row.append(Mat(m))
        fam.append(tuple(row))
    return tuple(fam)


def standard_manin_reps(c: Cobracket) -> MatchedPairData:
    """(L, L*, ad*, a-partial*) with dual twists."""
    left = c.base
    right = dual_algebra(c)
    rho = Rep3(left, left.dim, coadjoint_family(left), right.twist)
    mu = Rep3(right, left.dim, coadjoint_family(right), left.twist)
    return MatchedPairData(left, right, rho, mu)


def _matched_side(c: Tensor4, A: Mat, act: Tensor4, B: Mat,
                  other: Tensor4) -> tuple:
    """Term lists of the three matched-pair equations on one side.

    c, A are the bracket and twist of the algebra that ``act`` acts on, B
    the twist of the acting algebra, ``other`` the action the other way
    (all actions as rows, see _action_tensor). With (L, mu, rho) this is
    (2.1)-(2.3), keyed (x, x, x, a, a); its mirror with (L', rho, mu) is
    (2.4)-(2.6). The bare second arguments of an action carry the twist, so
    every term has twist degree two, matching the Hom-Jacobi expansion; at
    identity twist these are the printed equations.
    """
    cr, ar, orr = dict(c.rows()), dict(act.rows()), dict(other.rows())
    act_bb = _slot_outer(act, 2, {0: B, 1: B})
    act_0 = _slot_outer(act, 0, {1: B, 2: A})
    c_0 = _slot_outer(c, 0, {1: A, 2: A})
    c_2 = _slot_outer(c, 2, {0: A, 1: A})
    return (
        # mu(a'(a4), a'(a5))[x1,x2,x3] - [mu(a4,a5)x1, a(x2), a(x3)]
        #   - [a(x1), mu(a4,a5)x2, a(x3)] - [a(x1), a(x2), mu(a4,a5)x3]
        [(1, cr, act_bb, (0, 1, 2, 3, 4)),
         (-1, ar, c_0, (2, 3, 4, 0, 1)),
         (-1, ar, _slot_outer(c, 1, {0: A, 2: A}), (3, 2, 4, 0, 1)),
         (-1, ar, c_2, (3, 4, 2, 0, 1))],
        # mu(rho(x1,x4)a5, a'(a3))a(x2) - mu(rho(x2,x4)a5, a'(a3))a(x1)
        #   - mu(rho(x1,x2)a3, a'(a5))a(x4) + [a(x1), a(x2), mu(a3,a5)x4]
        [(1, orr, act_0, (0, 4, 1, 3, 2)),
         (-1, orr, act_0, (4, 0, 1, 3, 2)),
         (-1, orr, act_0, (0, 1, 4, 2, 3)),
         (1, ar, c_2, (3, 4, 2, 0, 1))],
        # [mu(a2,a3)x1, a(x4), a(x5)] - mu(a'(a2), a'(a3))[x1,x4,x5]
        #   - mu(rho(x4,x5)a2, a'(a3))a(x1) - mu(a'(a2), rho(x4,x5)a3)a(x1)
        [(1, ar, c_0, (2, 3, 4, 0, 1)),
         (-1, cr, act_bb, (0, 1, 2, 3, 4)),
         (-1, orr, act_0, (4, 0, 1, 2, 3)),
         (-1, orr, _slot_outer(act, 1, {0: B, 2: A}), (4, 0, 1, 3, 2))],
    )


def check_matched_pair(m: MatchedPairData) -> CheckReport:
    """Exhaustive check of the six matched-pair equations.

    Also assembles the direct-sum bracket and cross-checks it against the
    algebra axioms; the two verdicts appearing in the parts must agree for a
    coherent input (disagreement is an internal-inconsistency finding).
    Each equation reports its residual at the lex-first failing tuple.
    """
    for name, rep in (("rho", m.rho), ("mu", m.mu)):
        r = check_representation(rep)
        if not r.passed:
            raise PreconditionError(f"{name} fails the representation axioms",
                                    witness=r.witness)
    n, p = m.left.dim, m.right.dim
    rho, mu = _action_tensor(m.rho), _action_tensor(m.mu)
    eqs = (_matched_side(m.left.bracket, m.left.twist, mu, m.right.twist, rho)
           + _matched_side(m.right.bracket, m.right.twist, rho, m.left.twist,
                           mu))
    parts = []
    for k, terms in enumerate(eqs, 1):
        name = f"eq_2_{k}"
        r = _identity(name, terms, (n,) * 3 + (p,) * 2 if k <= 3
                      else (p,) * 3 + (n,) * 2, max(n, p))
        if not r.passed:
            r = CheckReport(False, r.checked, replace(r.witness, right=()))
        parts.append((name, r))

    eqs_passed = all(r.passed for _, r in parts)
    eq_witness = next((r.witness for _, r in parts if not r.passed), None)
    total_checked = sum(r.checked for _, r in parts)

    assembled = assemble_matched_pair(m, checked=False)
    alg_report = check_algebra(assembled)
    parts.append(("assembled_algebra", alg_report))
    agree = eqs_passed == alg_report.passed
    parts.append(("verdicts_agree", CheckReport(
        agree, 1, None if agree else Witness("internal_inconsistency", (), (), ()))))
    return CheckReport(eqs_passed and agree, total_checked, eq_witness
                       if eq_witness else (None if agree else alg_report.witness),
                       tuple(parts))


def assemble_matched_pair(m: MatchedPairData, checked: bool = True) -> Algebra3:
    """The bracket on L + L' built from both brackets and both actions."""
    if checked:
        rep = check_matched_pair(m)
        if not rep.passed:
            raise PreconditionError("not a matched pair", witness=rep.witness)
    n, p = m.left.dim, m.right.dim
    N = n + p
    rho, mu = m.rho.rho, m.mu.rho
    entries = list(m.left.bracket.items())
    for i, j, k, l, v in m.right.bracket.items():
        entries.append((n + i, n + j, n + k, n + l, v))
    for i in range(n):
        for j in range(n):
            mat = rho[i][j]
            for a in range(p):
                for b in range(p):
                    v = mat.entries[a][b]
                    if v:
                        entries.append((i, j, n + b, n + a, v))
                        entries.append((n + b, i, j, n + a, v))
                        entries.append((j, n + b, i, n + a, v))
    for i in range(p):
        for j in range(p):
            mat = mu[i][j]
            for a in range(n):
                for b in range(n):
                    v = mat.entries[a][b]
                    if v:
                        entries.append((n + i, n + j, b, a, v))
                        entries.append((b, n + i, n + j, a, v))
                        entries.append((n + j, b, n + i, a, v))
    bracket = Tensor4.from_entries((N,) * 4, entries)
    twist = Mat.block_diag(m.left.twist, m.right.twist)
    return Algebra3(N, bracket, twist, label="matched-pair-sum")


def check_invariance(a: Algebra3, form: BilForm) -> CheckReport:
    """([x,y,z], a(u)) + ([x,y,u], a(z)) = 0 on all basis 4-tuples."""
    n, A = a.dim, a.twist
    if form.dim != n:
        raise InputError(f"form dim {form.dim} vs algebra dim {n}")
    BA = _pairing(form.matrix @ A)
    c = dict(a.bracket.rows())
    terms = [(1, c, BA, (0, 1, 2, 3)), (1, c, BA, (0, 1, 3, 2))]
    return _identity("invariance", terms, (n,) * 4, 1)


def standard_form(n: int) -> BilForm:
    """(x+xi, y+eta) = <x,eta> + <xi,y> on L + L*: block anti-diagonal I."""
    m = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[i][n + i] = ONE
        m[n + i][i] = ONE
    return BilForm(2 * n, Mat(m), "symmetric")


def manin_bracket(c: Cobracket) -> tuple:
    """The standard Manin bracket on L + L* plus its full report.

    The report carries the algebra verdict, invariance of the natural
    symmetric form, isotropy of both factors, and the projection conditions.
    """
    skew = _skew_check(dual_algebra(c))
    if not skew.passed:
        raise PreconditionError("induced dual bracket is not skew",
                                witness=skew.witness)
    m = standard_manin_reps(c)
    total = assemble_matched_pair(m, checked=False)
    n = c.base.dim
    parts = [("algebra", check_algebra(total)),
             ("invariance", check_invariance(total, standard_form(n)))]

    form = standard_form(n)
    iso_w = None
    for i in range(n):
        for j in range(n):
            if form.matrix.entries[i][j] or form.matrix.entries[n + i][n + j]:
                iso_w = Witness("isotropy", (i, j), (), ())
    parts.append(("isotropy", CheckReport(iso_w is None, 2 * n * n, iso_w)))

    proj_w = None
    checked = 0
    for i, j, k, l, v in total.bracket.items():
        n_first = sum(1 for t in (i, j, k) if t < n)
        checked += 1
        if n_first == 2 and l < n:
            proj_w = Witness("projection_pr1", (i, j, k, l), (v,), (ZERO,))
            break
        if n_first == 1 and l >= n:
            proj_w = Witness("projection_pr2", (i, j, k, l), (v,), (ZERO,))
            break
    parts.append(("projection", CheckReport(proj_w is None, checked, proj_w)))
    return total, CheckReport.combine(parts)


def _delta_tensors(c: Cobracket) -> list:
    """Delta(e_k) as sparse 3-tensors {(i,j,l): coeff}, one per k."""
    n = c.base.dim
    out = [dict() for _ in range(n)]
    for i, j, l, k, v in c.dual_c.items():
        out[k][(i, j, l)] = v
    return out


def _apply_triple(p_cols, q_cols, r_cols, t: Mapping) -> dict:
    """(P (x) Q (x) R) applied to a sparse 3-tensor; args are col supports."""
    out: dict = {}
    for (i, j, l), v in t.items():
        for a, fa in p_cols[i]:
            for b, fb in q_cols[j]:
                f = v * fa * fb
                for d, fd in r_cols[l]:
                    key = (a, b, d)
                    nv = out.get(key, ZERO) + f * fd
                    if nv:
                        out[key] = nv
                    else:
                        out.pop(key, None)
    return out


def check_double_construction(c: Cobracket) -> CheckReport:
    """The three compatibility equations between the bracket and cobracket.

    The third equation is reported separately in the parts (the definition
    of the bialgebra names only the first two; the matched-pair theorem
    lists all three); the overall verdict requires all three.
    """
    Lstar = dual_algebra(c)
    pre = check_algebra(Lstar)
    if not pre.passed:
        raise PreconditionError("dual bracket is not a valid algebra",
                                witness=pre.witness)
    a = c.base
    n, cb, A = a.dim, a.bracket, a.twist
    deltas = _delta_tensors(c)
    alpha_cols = A.col_support()
    ad_cols = {}
    for i in range(n):
        for j in range(n):
            cols = [[] for _ in range(n)]
            for k in range(n):
                for l, v in cb.row(i, j, k).items():
                    cols[k].append((l, v))
            ad_cols[(i, j)] = cols

    def delta_of_bracket(x, y, z) -> dict:
        acc: dict = {}
        for m, f in cb.row(x, y, z).items():
            for key, v in deltas[m].items():
                nv = acc.get(key, ZERO) + f * v
                if nv:
                    acc[key] = nv
                else:
                    acc.pop(key, None)
        return acc

    def tensor_sub(x: dict, y: Mapping) -> dict:
        out = dict(x)
        for key, v in y.items():
            nv = out.get(key, ZERO) - v
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
        return out

    parts = []

    def run(name, evaluate):
        checked = 0
        witness = None
        for x in range(n):
            if witness:
                break
            for y in range(n):
                if witness:
                    break
                for z in range(n):
                    checked += 1
                    lhs, rhs = evaluate(x, y, z)
                    if tensor_sub(lhs, rhs):
                        key = min(tensor_sub(lhs, rhs))
                        witness = Witness(name, (x, y, z) + key,
                                          (lhs.get(key, ZERO),),
                                          (rhs.get(key, ZERO),))
                        break
        parts.append((name, CheckReport(witness is None, checked, witness)))

    def eq_one(x, y, z):
        lhs = delta_of_bracket(x, y, z)
        rhs: dict = {}
        for (u, v), w in (((y, z), x), ((z, x), y), ((x, y), z)):
            t = _apply_triple(alpha_cols, alpha_cols, ad_cols[(u, v)], deltas[w])
            for key, val in t.items():
                nv = rhs.get(key, ZERO) + val
                if nv:
                    rhs[key] = nv
                else:
                    rhs.pop(key, None)
        return lhs, rhs

    def eq_two(x, y, z):
        lhs = delta_of_bracket(x, y, z)
        ad = ad_cols[(y, z)]
        rhs: dict = {}
        for combo in ((alpha_cols, alpha_cols, ad),
                      (alpha_cols, ad, alpha_cols),
                      (ad, alpha_cols, alpha_cols)):
            t = _apply_triple(*combo, deltas[x])
            for key, val in t.items():
                nv = rhs.get(key, ZERO) + val
                if nv:
                    rhs[key] = nv
                else:
                    rhs.pop(key, None)
        return lhs, rhs

    def eq_three(x, y, z):
        adxy = ad_cols[(x, y)]
        lhs: dict = {}
        for combo in ((adxy, alpha_cols, alpha_cols),
                      (alpha_cols, alpha_cols, adxy)):
            t = _apply_triple(*combo, deltas[z])
            for key, val in t.items():
                nv = lhs.get(key, ZERO) + val
                if nv:
                    lhs[key] = nv
                else:
                    lhs.pop(key, None)
        rhs: dict = {}
        for fam, w in ((ad_cols[(z, x)], y), (ad_cols[(y, z)], x)):
            t = _apply_triple(alpha_cols, fam, alpha_cols, deltas[w])
            for key, val in t.items():
                nv = rhs.get(key, ZERO) + val
                if nv:
                    rhs[key] = nv
                else:
                    rhs.pop(key, None)
        return lhs, rhs

    run("eq_2_10", eq_one)
    run("eq_2_11", eq_two)
    run("eq_2_12", eq_three)
    return CheckReport.combine(parts)


@dataclass(frozen=True)
class EquivalenceResult:
    double: CheckReport
    manin: CheckReport
    matched: CheckReport
    agree: bool


def equivalence_suite(c: Cobracket) -> EquivalenceResult:
    """Run bialgebra / Manin-triple / matched-pair checks and compare them.

    A matched-pair precondition failure (the coadjoint actions are not
    representations, which happens when the twist does not preserve the
    canonical pairing) is recorded as a failed verdict rather than raised,
    so the suite always returns three comparable verdicts.
    """
    double = check_double_construction(c)
    _, manin = manin_bracket(c)
    try:
        matched = check_matched_pair(standard_manin_reps(c))
    except PreconditionError as e:
        matched = CheckReport(False, 0, e.witness)
    agree = double.passed == manin.passed == matched.passed
    return EquivalenceResult(double, manin, matched, agree)
