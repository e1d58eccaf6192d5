"""Symplectic and metric structures on 3-Hom-Lie algebras, the derivation
correspondence for metric algebras, phase spaces, and the nilpotent
polynomial-truncation extension used to produce metric symplectic examples.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exactlin import InputError, Mat, ONE, Tensor4, ZERO, linear_solver, mat_inverse
from .homlie import (
    Algebra3, CheckReport, PreconditionError, Witness, _identity, _pairing,
    _flag, _require, check_algebra, is_derivation,
)
from .reps import (
    Rep3, _coadjoint_tensor, _semidirect, dual_representation, semidirect_sum,
)
from .bialgebra import BilForm, standard_form
from .prelie import PreLie3, check_prelie, left_multiplication, subadjacent_tensor


def _fourterm_check(a: Algebra3, W: Mat) -> CheckReport:
    """w([x,y,z], a(w)) - w([y,z,w], a(x)) + w([z,w,x], a(y))
    - w([w,x,y], a(z)) = 0 on all basis 4-tuples."""
    # with term(x,y,z,w) = w([x,y,z], a(w)), at key (x, y, z, w)
    WA, c = _pairing(W @ a.twist), dict(a.bracket.rows())
    terms = [(1, c, WA, (0, 1, 2, 3)), (-1, c, WA, (3, 0, 1, 2)),
             (1, c, WA, (2, 3, 0, 1)), (-1, c, WA, (1, 2, 3, 0))]
    return _identity("symplectic_cocycle", terms, (a.dim,) * 4, 1,
                     nominal=True)


def check_symplectic(a: Algebra3, form: BilForm) -> CheckReport:
    """Skew, nondegenerate, twist-compatible (w(a(x),a(y)) = w(x,y)),
    and the four-term cocycle identity."""
    n = a.dim
    if form.dim != n:
        raise InputError(f"form dim {form.dim} vs algebra dim {n}")
    W, A = form.matrix, a.twist
    parts = []
    parts.append(("skew", _flag(W.transpose() == -W, "form_skew")))
    parts.append(("nondegenerate", _flag(mat_inverse(W) is not None,
                                         "form_nondegenerate")))
    parts.append(("twist_compatible", _flag(A.transpose() @ W @ A == W,
                                            "twist_compatible")))
    parts.append(("cocycle", _fourterm_check(a, W)))
    return CheckReport.combine(parts)


def check_metric(a: Algebra3, form: BilForm) -> CheckReport:
    """Symmetric, nondegenerate, B([x,y,z],w) + B(z,[x,y,w]) = 0.

    Note the metric identity carries no twist (unlike pseudo-metric
    invariance, which pairs against a(w))."""
    n = a.dim
    if form.dim != n:
        raise InputError(f"form dim {form.dim} vs algebra dim {n}")
    B = form.matrix
    parts = []
    parts.append(("symmetric", _flag(B.transpose() == B, "form_symmetric")))
    parts.append(("nondegenerate", _flag(mat_inverse(B) is not None,
                                         "form_nondegenerate")))
    c = dict(a.bracket.rows())
    terms = [(1, c, _pairing(B), (0, 1, 2, 3)),
             (1, c, _pairing(B.transpose()), (0, 1, 3, 2))]
    parts.append(("invariance", _identity("metric", terms, (n,) * 4, 1)))
    return CheckReport.combine(parts)


def is_metric_derivation(a: Algebra3, form: BilForm, D: Mat) -> CheckReport:
    """D is a derivation, skew with respect to the metric, and invertible."""
    parts = []
    w = is_derivation(a, D)
    parts.append(("derivation", CheckReport(w is None, 1, w)))
    B = form.matrix
    bskew = D.transpose() @ B + B @ D == Mat.zeros(a.dim, a.dim)
    parts.append(("B_skew", _flag(bskew, "B_skew")))
    parts.append(("invertible", _flag(mat_inverse(D) is not None,
                                      "D_invertible")))
    return CheckReport.combine(parts)


def symplectic_from_derivation(a: Algebra3, form: BilForm, D: Mat) -> tuple:
    """From a metric and an invertible B-skew derivation, the 2-form defined
    by w(a(x), y) = B(Dx, y); in matrices transpose(A).W = transpose(D).B.

    Returns (BilForm, CheckReport) where the report re-verifies all
    symplectic axioms on the constructed form.
    """
    return _symplectic_from_derivation(a, form, D)[:2]


def _symplectic_from_derivation(a: Algebra3, form: BilForm, D: Mat) -> tuple:
    """``symplectic_from_derivation`` plus the reports of its preconditions:
    (omega, report, is_metric_derivation report, check_metric report)."""
    pre = _require(is_metric_derivation(a, form, D),
                   "need an invertible metric-skew derivation")
    met = _require(check_metric(a, form), "form is not a metric")
    At_inv = mat_inverse(a.twist.transpose())
    if At_inv is None:
        raise PreconditionError("twist must be invertible")
    W = At_inv @ D.transpose() @ form.matrix
    if W.transpose() != -W:
        raise PreconditionError("constructed form is not skew; the metric, "
                                "twist and derivation are incompatible")
    omega = BilForm(a.dim, W, "skew")
    return omega, check_symplectic(a, omega), pre, met


def derivation_from_symplectic(a: Algebra3, metric: BilForm,
                               omega: BilForm) -> tuple:
    """Recover D with B(Dx,y) = w(a(x),y): D = transpose(B^-1).(tA.W)^T...
    concretely D = inverse(B) applied on the left of transpose(tA.W).

    Returns (D, CheckReport) with the metric-derivation verdict."""
    Binv = mat_inverse(metric.matrix)
    if Binv is None:
        raise PreconditionError("metric is degenerate")
    # transpose(D).B = transpose(A).W  =>  D = transpose(B^-1 . W^T . A)
    D = (Binv @ omega.matrix.transpose() @ a.twist).transpose()
    return D, is_metric_derivation(a, metric, D)


def compatible_prelie_from_symplectic(a: Algebra3, omega: BilForm) -> tuple:
    """The product with w({x,y,z}, a(w)) = -w(a(z), [x,y,w]).

    Solved per basis triple from nondegeneracy, against one factorisation
    of the system; the result is re-verified as a pre-Lie structure whose
    cyclic sum returns the original bracket.
    Returns (PreLie3, CheckReport).
    """
    _require(check_symplectic(a, omega), "not a symplectic structure")
    n, c, A, W = a.dim, a.bracket, a.twist, omega.matrix
    # {x,y,z} = u where (W.A)^T u = g, g_w = -w(a(z), [x,y,w])
    solve = linear_solver((W @ A).transpose())
    acols = [A.col(i) for i in range(n)]
    entries = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                g = []
                az = acols[k]
                for w in range(n):
                    row = c.row(i, j, w)
                    g.append(-sum((az[l] * W.entries[l][m] * v
                                   for m, v in row.items()
                                   for l in range(n) if az[l] and W.entries[l][m]),
                                  ZERO))
                if not any(g):
                    continue  # {x,y,z} = 0
                x = solve(g)
                if x is None:
                    raise PreconditionError("defining system inconsistent")
                for l, v in enumerate(x):
                    if v:
                        entries.append((i, j, k, l, v))
    product = Tensor4.from_entries((n,) * 4, entries)
    p = PreLie3(n, product, A, label="symplectic-compatible")
    parts = [("prelie", check_prelie(p))]
    parts.append(("compatible",
                  _flag(subadjacent_tensor(p.product) == c, "compatible")))
    return p, CheckReport.combine(parts)


def canonical_phase_form(n: int) -> BilForm:
    """w(x+f, y+g) = <f,y> - <g,x> on L + L*: blocks [[0,-I],[I,0]]."""
    m = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[i][n + i] = -ONE
        m[n + i][i] = ONE
    return BilForm(2 * n, Mat(m), "skew")


def check_phase_space(base: Algebra3, total: Algebra3) -> CheckReport:
    """total (on L + L*) is a phase space of base: valid algebra whose twist
    is a + a*, both summands are subalgebras, the first projection restricts
    to base's bracket, and the canonical pairing form is symplectic."""
    n = base.dim
    if total.dim != 2 * n:
        raise InputError(f"phase space dim {total.dim}, expected {2 * n}")
    parts = [("algebra", check_algebra(total))]
    tw = Mat.block_diag(base.twist, base.twist.transpose())
    parts.append(("twist_split", _flag(total.twist == tw, "twist_split")))
    sub_w = None
    proj_w = None
    checked = 0
    for i, j, k, l, v in sorted(total.bracket.items()):
        checked += 1
        if i < n and j < n and k < n:
            if l >= n and sub_w is None:
                sub_w = Witness("subalgebra_base", (i, j, k, l), (v,), (ZERO,))
            elif l < n and v != base.bracket.get(i, j, k, l) and proj_w is None:
                proj_w = Witness("base_bracket", (i, j, k, l), (v,),
                                 (base.bracket.get(i, j, k, l),))
        if i >= n and j >= n and k >= n and l < n and sub_w is None:
            sub_w = Witness("subalgebra_dual", (i, j, k, l), (v,), (ZERO,))
    if proj_w is None:
        for i, j, k, l, v in sorted(base.bracket.items()):
            if total.bracket.get(i, j, k, l) != v:
                proj_w = Witness("base_bracket", (i, j, k, l),
                                 (total.bracket.get(i, j, k, l),), (v,))
                break
    parts.append(("subalgebras", CheckReport(sub_w is None, checked, sub_w)))
    parts.append(("base_bracket", CheckReport(proj_w is None, checked, proj_w)))
    parts.append(("symplectic", check_symplectic(total, canonical_phase_form(n))))
    return CheckReport.combine(parts)


def phase_space_from_prelie(p: PreLie3) -> tuple:
    """The semidirect sum of the sub-adjacent algebra with the dual of the
    left-multiplication representation, together with its phase-space
    verdict. Returns (Algebra3, CheckReport)."""
    _require(check_prelie(p), "not a 3-Hom-pre-Lie algebra")
    from .prelie import subadjacent
    base = subadjacent(p)
    lrep = Rep3(base, p.dim, left_multiplication(p), p.twist)
    dual, dual_rep_ok = dual_representation(lrep)
    _require(dual_rep_ok,
             "dual of left multiplication fails the representation axioms")
    total = semidirect_sum(base, dual, check=False)
    total = Algebra3(total.dim, total.bracket, total.twist, label="phase-space")
    return total, check_phase_space(base, total)


def prelie_from_phase_space(base: Algebra3, total: Algebra3) -> tuple:
    """A pre-Lie structure on base extracted from one of its phase spaces.

    The compatible product of the canonical symplectic form is computed on
    the whole phase space and restricted along the first factor (isotropy of
    the first factor makes the restriction close). Returns
    (PreLie3, CheckReport); the report covers the phase-space axioms,
    closure of the restriction, validity of the restricted product, and
    sub-adjacency to base's bracket.
    """
    n = base.dim
    parts = [("phase_space", check_phase_space(base, total))]
    if not parts[0][1].passed:
        return None, CheckReport.combine(parts)
    big, big_rep = compatible_prelie_from_symplectic(total, canonical_phase_form(n))
    parts.append(("total_prelie", big_rep))
    entries = []
    closure_w = None
    for i, j, k, l, v in sorted(big.product.items()):
        if i < n and j < n and k < n:
            if l < n:
                entries.append((i, j, k, l, v))
            elif closure_w is None:
                closure_w = Witness("restriction_closure", (i, j, k, l), (v,), (ZERO,))
    parts.append(("closure", CheckReport(closure_w is None,
                                         len(entries), closure_w)))
    p = PreLie3(n, Tensor4.from_entries((n,) * 4, entries), base.twist,
                label="from-phase-space")
    parts.append(("prelie", check_prelie(p)))
    compat = subadjacent_tensor(p.product) == base.bracket
    parts.append(("subadjacent", _flag(compat, "subadjacent")))
    return p, CheckReport.combine(parts)


@dataclass(frozen=True)
class NilpotentExtension:
    """L_n = L (x) (t F[t] / t^n F[t]) with its counting derivation, and the
    metric symplectic double on L_n + L_n*."""
    base: Algebra3
    steps: int
    extension: Algebra3   # dim = base.dim * (steps - 1)
    derivation: Mat       # x (x) t^p -> p * x (x) t^p
    double: Algebra3      # extension + dual via coadjoint action
    metric: BilForm       # f(y) + g(x)
    double_derivation: Mat  # D + D*, D* f = -f . D
    omega: BilForm        # w(twist(u), v) = B(D^ u, v)


def _truncated_extension(a: Algebra3, steps: int) -> Algebra3:
    """L (x) (t F[t] / t^steps F[t]), basis e_i (x) t^p at (p - 1) * dim + i
    for p = 1..steps-1, with the bracket [x t^p, y t^q, z t^r] =
    [x,y,z] t^(p+q+r) and the twist a (x) id."""
    n, deg = a.dim, steps - 1
    N = n * deg

    def idx(i, p):  # basis e_i (x) t^p, p = 1..deg
        return (p - 1) * n + i

    entries = []
    for i, j, k, l, v in a.bracket.items():
        for p in range(1, deg + 1):
            for q in range(1, deg + 1):
                for r in range(1, deg + 1):
                    if p + q + r <= deg:
                        entries.append((idx(i, p), idx(j, q), idx(k, r),
                                        idx(l, p + q + r), v))
    bracket = Tensor4.from_entries((N,) * 4, entries)
    twist = a.twist
    for _ in range(deg - 1):
        twist = Mat.block_diag(twist, a.twist)
    return Algebra3(N, bracket, twist, label=f"{a.label or 'L'}[t]/t^{steps}")


def nilpotent_extension(a: Algebra3, steps: int) -> tuple:
    """Build the truncated-polynomial extension bundle; steps is the power n
    of the truncation (degrees 1..n-1 survive). Returns the bundle plus a
    report re-verifying every claimed structure from scratch.
    """
    if steps < 2:
        raise InputError("steps must be at least 2 (degree range is 1..steps-1)")
    _require(check_algebra(a), "base is not a 3-Hom-Lie algebra")
    n, deg = a.dim, steps - 1
    N = n * deg
    ext = _truncated_extension(a, steps)
    D = Mat.diag([p for p in range(1, deg + 1) for _ in range(n)])

    double = _semidirect(ext, _coadjoint_tensor(ext), ext.twist.transpose())
    double = Algebra3(double.dim, double.bracket, double.twist,
                      label="nilpotent-double")
    metric = standard_form(N)
    Dhat = Mat.block_diag(D, -D.transpose())
    omega, om_rep, der_rep, met_rep = _symplectic_from_derivation(
        double, metric, Dhat)

    ext_der = is_derivation(ext, D)
    parts = [
        ("extension_algebra", check_algebra(ext)),
        ("derivation", CheckReport(ext_der is None, 1, ext_der)),
        ("double_algebra", check_algebra(double)),
        ("metric", met_rep),
        ("double_derivation", der_rep),
        ("symplectic", om_rep),
    ]
    bundle = NilpotentExtension(a, steps, ext, D, double, metric, Dhat, omega)
    return bundle, CheckReport.combine(parts)
