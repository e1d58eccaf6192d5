"""Matched pairs, invariant forms, standard Manin triples, and the
double-construction bialgebra equations, with the three-way equivalence
between them as an executable suite.

Conventions: dual basis pairing <e_i*, e_j> = delta_ij; the twist on the
dual space has matrix transpose(alpha); coadjoint actions are defined by
<ad*_{x,y} xi, z> = -<xi, [x,y,z]> (and dually for the action of the dual).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

from .exactlin import InputError, Mat, ONE, Tensor4, ZERO
from .homlie import (
    Algebra3, CheckReport, PreconditionError, Witness, _by_output, _flag,
    _identity, _pairing, _permuted, _require, _skew_check, _slot_outer,
    check_algebra, twist_slots,
)
from .reps import (
    Rep3, _action_tensor, _coadjoint_tensor, _placed, check_representation,
    coadjoint_family,
)


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
        _require(check_representation(rep),
                 f"{name} fails the representation axioms")
    n, p = m.left.dim, m.right.dim
    rho, mu = _action_tensor(m.rho.rho), _action_tensor(m.mu.rho)
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

    assembled = _matched_sum(m.left, m.right, rho, mu)
    alg_report = check_algebra(assembled)
    parts.append(("assembled_algebra", alg_report))
    agree = eqs_passed == alg_report.passed
    parts.append(("verdicts_agree", _flag(agree, "internal_inconsistency")))
    return CheckReport(eqs_passed and agree, total_checked, eq_witness
                       if eq_witness else (None if agree else alg_report.witness),
                       tuple(parts))


def assemble_matched_pair(m: MatchedPairData, checked: bool = True) -> Algebra3:
    """The bracket on L + L' built from both brackets and both actions."""
    if checked:
        _require(check_matched_pair(m), "not a matched pair")
    return _matched_sum(m.left, m.right, _action_tensor(m.rho.rho),
                        _action_tensor(m.mu.rho))


def _matched_sum(left: Algebra3, right: Algebra3, rho: Tensor4,
                 mu: Tensor4) -> Algebra3:
    """The bracket on L + L' of two brackets and the action tensors of L on
    L' (rho) and of L' on L (mu), twist alpha (+) alpha'."""
    n, N = left.dim, left.dim + right.dim
    shifted = ((n + i, n + j, n + k, n + l, v)
               for i, j, k, l, v in right.bracket.items())
    bracket = Tensor4.from_entries((N,) * 4, chain(
        left.bracket.items(), shifted, _placed(rho, 0, n), _placed(mu, n, 0)))
    return Algebra3(N, bracket, Mat.block_diag(left.twist, right.twist),
                    label="matched-pair-sum")


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
    dual = dual_algebra(c)
    _require(_skew_check(dual), "induced dual bracket is not skew")
    total = _matched_sum(c.base, dual, _coadjoint_tensor(c.base),
                         _coadjoint_tensor(dual))
    n = c.base.dim
    form = standard_form(n)
    parts = [("algebra", check_algebra(total)),
             ("invariance", check_invariance(total, form))]
    iso_w = None
    for i in range(n):
        for j in range(n):
            if form.matrix.entries[i][j] or form.matrix.entries[n + i][n + j]:
                iso_w = Witness("isotropy", (i, j), (), ())
    parts.append(("isotropy", CheckReport(iso_w is None, 2 * n * n, iso_w)))

    proj_w = None
    checked = 0
    for i, j, k, l, v in sorted(total.bracket.items()):
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


def _delta_legs(c: Cobracket) -> list:
    """Delta(e_k) = sum dual_c[i,j,l,k] e_i (x) e_j (x) e_l with the twist on
    two of its legs, once for each leg s that is left bare: rows
    (k, p, q) -> {m: coeff}, m the index on leg s and p, q the twisted
    indices on the other two legs, in order."""
    At = c.base.twist.transpose()
    return [twist_slots(_permuted(c.dual_c, order), {1: At, 2: At})
            for order in ((3, 1, 2, 0), (3, 0, 2, 1), (3, 0, 1, 2))]


def check_double_construction(c: Cobracket) -> CheckReport:
    """The three compatibility equations between the bracket and cobracket.

    The third equation is reported separately in the parts (the definition
    of the bialgebra names only the first two; the matched-pair theorem
    lists all three); the overall verdict requires all three. Each equation
    compares two 3-tensors at every basis triple (x, y, z); its witness is
    at (x, y, z) + (a, b, d), the lex-first nonzero entry of the residual,
    and ``checked`` the lex position of (x, y, z).
    """
    Lstar = dual_algebra(c)
    _require(check_algebra(Lstar), "dual bracket is not a valid algebra")
    a = c.base
    d0, d1, d2 = _delta_legs(c)
    # ad(u, v) on one leg of a twisted Delta(e_w): a term contracts the rows
    # (w, p, q) of Delta with ad's (u, v, e), e the image of that leg, and
    # puts the six indices in the order of the key (x, y, z, a, b, d)
    ad = _by_output(_permuted(a.bracket, (0, 1, 3, 2)))
    delta_of_bracket = (1, dict(a.bracket.rows()), _by_output(c.dual_c),
                        (0, 1, 2, 3, 4, 5))
    eqs = (
        # Delta([x,y,z]) - sum over cyclic (u,v,w) of
        #   (a (x) a (x) ad(u,v)) Delta(w)
        ("eq_2_10", 1, [delta_of_bracket,
                        (-1, d2, ad, (0, 3, 4, 1, 2, 5)),
                        (-1, d2, ad, (4, 0, 3, 1, 2, 5)),
                        (-1, d2, ad, (3, 4, 0, 1, 2, 5))]),
        # Delta([x,y,z]) - (a (x) a (x) ad(y,z) + a (x) ad(y,z) (x) a
        #   + ad(y,z) (x) a (x) a) Delta(x)
        ("eq_2_11", 1, [delta_of_bracket,
                        (-1, d2, ad, (0, 3, 4, 1, 2, 5)),
                        (-1, d1, ad, (0, 3, 4, 1, 5, 2)),
                        (-1, d0, ad, (0, 3, 4, 5, 1, 2))]),
        # (ad(x,y) (x) a (x) a + a (x) a (x) ad(x,y)) Delta(z)
        #   - (a (x) ad(z,x) (x) a) Delta(y) - (a (x) ad(y,z) (x) a) Delta(x)
        ("eq_2_12", 2, [(1, d0, ad, (3, 4, 0, 5, 1, 2)),
                        (1, d2, ad, (3, 4, 0, 1, 2, 5)),
                        (-1, d1, ad, (4, 0, 3, 1, 5, 2)),
                        (-1, d1, ad, (0, 3, 4, 1, 5, 2))]),
    )
    return CheckReport.combine([
        (name, _identity(name, terms, (a.dim,) * 3, 1, lhs=lhs))
        for name, lhs, terms in eqs])


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
