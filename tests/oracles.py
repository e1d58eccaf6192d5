"""Test oracles: one reference per identity, each written from its formula.

No oracle calls the package's residual engine, its term lists or the
checker it stands in for (``tests/test_imports.py`` lints this). Each walks
basis tuples in lex order, or accumulates a residual with no symmetry
assumed; the package's reports must equal theirs byte for byte.

- ``check_representation_walk``: intertwine, action and exchange, on
  sparse {(p, q): v} operators (formulas in its docstring).
- ``skew_check_dense``: [x,y,z] = sgn(s) [s(x,y,z)], s the sorting
  permutation, and 0 at a repeated index, at every triple.
- ``hom_jacobi_check_loop``/``hom_jacobi_residual_loop``: [a(x), a(y),
  [u,v,w]] = [[x,y,u], a(v), a(w)] + [a(u), [x,y,v], a(w)]
  + [a(u), a(v), [x,y,w]].
- ``multiplicative_check_loop``/``multiplicative_residual_loop``:
  a([x,y,z]) = [a(x), a(y), a(z)]; with phi for a, bracket morphisms.
- ``check_algebra_loop``: skew, then the two above.
- ``is_derivation_loop``/``leibniz_residual_loop``: D a = a D and
  D[x,y,z] = [Dx,y,z] + [x,Dy,z] + [x,y,Dz].
- ``pair_skew_check_dense``, ``check_prelie_dense``,
  ``prelie_identity_2_dense``: {x,y,z} = -{y,x,z} and the two 3-Hom-pre-Lie
  identities (in ``check_prelie_dense``).
- ``literal_prelie_rep_check_loop``: the four printed pre-Lie
  representation identities.
- ``check_o_operator_dense``: a T = T A and [Tu,Tv,Tw] = T(rho(Tu,Tv)w
  + rho(Tv,Tw)u + rho(Tw,Tu)v).
- ``check_matched_pair_dense``: matched-pair equations (2.1)-(2.6).
- ``check_invariance_dense``: B([x,y,z], a(u)) + B([x,y,u], a(z)) = 0.
- ``fourterm_check_loop``/``fourterm_residual_loop``: w([x,y,z], a(w))
  - w([y,z,w], a(x)) + w([z,w,x], a(y)) - w([w,x,y], a(z)) = 0.
- ``check_metric_dense``/``metric_residual_loop``: B symmetric and
  nondegenerate, B([x,y,z],w) + B(z,[x,y,w]) = 0.
- ``closed_form_check_dense``: B(a[x,y,z],w) - B(a[x,y,w],z)
  + B(a[x,z,w],y) - B(a[y,z,w],x) = 0.
- ``check_double_construction_loop``: (2.10)-(2.12) on Delta of the
  cobracket.
- ``triple_bracket_loop``/``check_chybe_loop``: [[r,r,r]] = 0 from its four
  summands.
- ``coboundary_cobracket_loop``/``dual_bracket_formula_loop``: Delta
  = Delta_1 + Delta_2 + Delta_3 and [xi,eta,gamma]* = ad*_{r xi, r eta}
  gamma + cyclic.
- ``verify_residual_loop``: [r xi, r eta, r gamma] - r([xi,eta,gamma]*)
  = [[r,r,r]](xi,eta,gamma).
- ``symplectic_compatible_check_dense``: w({x,y,z}, a(w))
  = -w(a(z), [x,y,w]).
- ``rref_dense``, ``kernel_basis_dense``, ``mat_inverse_dense``,
  ``mat_rank_dense``, ``derivation_system_dense``,
  ``derivation_space_dense``: dense Gauss-Jordan and the Leibniz system.
- Constructions read entry by entry from dense families:
  ``semidirect_sum_dense``, ``assemble_matched_pair_dense``,
  ``semidirect_prelie_dense``, ``compatible_prelie_dense`` ({x,y,z}
  = T rho(x,y) T^-1 z), ``coadjoint_family_loop`` and ``compose_slots``
  ((x,y,z) -> [m0 x, m1 y, m2 z]).

``compose_slots`` and ``hom_jacobi_residual_loop`` clear denominators
with their own lift (``lift_rows``: multiply by the lcm, compose on ints,
divide back), not the package's ``lifted`` and ``unlift``; with
``lift=False`` they compose the rational values.

The rest are helpers that only tests call: ``fraction_ops`` counts the
``Fraction`` arithmetic of an action, ``derivation_system`` and
``sparse_kernel_rows`` lay the package's sparse rows out densely,
``left_multiplication`` and ``right_multiplication`` are the operator
families of a pre-Lie product, and ``base_projection`` reads a base
bracket back out of a semidirect sum.
"""
import fractions
import itertools
import math
import sys
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Mapping, Optional

from homlie3.exactlin import (
    InputError, Mat, Tensor4, dense, mat_inverse, sparse_kernel, vec_add_into,
)
from homlie3.homlie import (
    Algebra3, CheckReport, PreconditionError, Witness, _derivation_rows,
    _permuted,
)
from homlie3.reps import Rep3, _rep_family
from homlie3.bialgebra import (
    BilForm, Cobracket, MatchedPairData, dual_algebra,
)
from homlie3.prelie import (
    OOperator, PreLie3, PreLieRep, subadjacent_tensor,
)
from homlie3.yangbaxter import RTensor, alpha_invariance

# the oracles' own constants: exact under division whatever the element
# type the package uses
ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Helpers that only the oracles and the tests call, as the package had them
# (its ints stay ints).

def mat_scale(m: Mat, s) -> Mat:
    """s * m."""
    return Mat([[s * a for a in row] for row in m.entries])


FRACTION_OPS = frozenset({"_add", "_sub", "_mul", "_div"})


def fraction_ops(action) -> tuple:
    """(action(), the names of the ``Fraction`` additions, subtractions,
    multiplications and divisions it made, in call order)."""
    calls = []

    def count(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name in FRACTION_OPS
                and code.co_filename == fractions.__file__):
            calls.append(code.co_name)

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        out = action()
    finally:
        sys.setprofile(outer)
    return out, calls


def sparse_of(vec) -> dict:
    return dict(itertools.compress(enumerate(vec), vec))


def column(m: Mat, j: int) -> tuple:
    return tuple(row[j] for row in m.entries)


def apply(m: Mat, vec) -> tuple:
    if len(vec) != m.cols:
        raise InputError(f"apply shape mismatch {m.shape} to len {len(vec)}")
    return tuple(sum((a * v for a, v in zip(row, vec) if a and v), 0)
                 for row in m.entries)


def form_value(form: BilForm, x, y):
    return sum((form.matrix.entries[i][j] * xi * yj
                for i, xi in enumerate(x) if xi
                for j, yj in enumerate(y) if yj), 0)


def unit_vec(n: int, i: int) -> dict:
    return {i: 1}


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


def left_multiplication(p: PreLie3) -> tuple:
    """L(x,y): z -> {x,y,z} as an n x n family of matrices."""
    return _rep_family(p.product)


def right_multiplication(p: PreLie3) -> tuple:
    """R(x,y): z -> {z,x,y}."""
    return _rep_family(_permuted(p.product, (1, 2, 0, 3)))


def regular_prelie_rep(p: PreLie3) -> PreLieRep:
    """The regular actions: rho = left multiplication, mu = right."""
    return PreLieRep(p, p.dim, left_multiplication(p), right_multiplication(p),
                     p.twist)


def sparse_kernel_rows(system: Mat) -> tuple:
    """The canonical kernel basis of ``sparse_kernel`` as dense rows."""
    n = system.cols
    return tuple(dense(v, n)
                 for v in sparse_kernel(map(sparse_of, system.entries), n))


def lift_rows(rows: Mapping, lift: bool = True) -> tuple:
    """(d, {key: {l: d * v}}) for rows {key: {l: v}} of rationals, d the lcm
    of their denominators, so that the lifted values are ints: the oracles'
    own lift, apart from the package's. (1, rows) without ``lift``."""
    if not lift:
        return 1, rows
    d = math.lcm(*(v.denominator for vec in rows.values() for v in vec.values()))
    return d, {key: {l: v.numerator * (d // v.denominator)
                     for l, v in vec.items()} for key, vec in rows.items()}


def divided(rows: Mapping, d: int) -> dict:
    """The rows {key: {l: v / d}}; rows itself when d is 1."""
    if d == 1:
        return rows
    return {key: {l: Fraction(v, d) for l, v in vec.items()}
            for key, vec in rows.items()}


def compose_lifted(c: Tensor4, mats: Mapping, lift: bool = True) -> tuple:
    """(d, d * compose_slots(c, mats)), composed on the inputs lifted to ints
    by ``lift_rows``, d the product of their denominators; (1, the
    composition of the rational values) without ``lift``."""
    d, rows = lift_rows(dict(c.rows()), lift)
    # for each original index a, the (x, M[a][x]) with M[a][x] != 0
    row_sup = {}
    for s, m in mats.items():
        dm, sup = lift_rows(dict(enumerate(map(dict, m.nonzeros))), lift)
        d *= dm
        row_sup[s] = [tuple(vec.items()) for vec in sup.values()]
    out: dict = {}
    for (a, b, k), lvec in rows.items():
        ch0 = row_sup[0][a] if 0 in row_sup else ((a, 1),)
        ch1 = row_sup[1][b] if 1 in row_sup else ((b, 1),)
        ch2 = row_sup[2][k] if 2 in row_sup else ((k, 1),)
        for x, fx in ch0:
            for y, fy in ch1:
                fxy = fx * fy
                for z, fz in ch2:
                    row = out.setdefault((x, y, z), {})
                    vec_add_into(row, lvec, fxy * fz)
    return d, {key: vec for key, vec in out.items() if vec}


def compose_slots(c: Tensor4, mats: Mapping, lift: bool = True) -> dict:
    """Compose the bracket with linear maps in the given argument slots.

    Returns {(i,j,k): {l: val}} for the tensor of (x,y,z) ->
    [m0(x), m1(y), m2(z)] where ms is mats.get(slot, identity): composed
    on ints and divided back once (``compose_lifted``), or on the rational
    values without ``lift``.
    """
    d, rows = compose_lifted(c, mats, lift)
    return divided(rows, d)


def _op(m: Mat) -> dict:
    """A matrix as the sparse operator {(p, q): m[p][q]} of its nonzeros."""
    return {(p, q): v for p, row in enumerate(m.entries)
            for q, v in enumerate(row) if v}


def _op_sum(terms) -> dict:
    """The sparse sum of f X over the (X, f) terms."""
    out: dict = {}
    for X, f in terms:
        if f:
            for key, v in X.items():
                v = v if f == 1 else f * v
                out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if v}


def _op_mul(X: Mapping, Y: Mapping) -> dict:
    """The sparse product X Y."""
    if not X or not Y:
        return {}
    rows: dict = {}
    for (k, q), y in Y.items():
        rows.setdefault(k, []).append((q, y))
    out: dict = {}
    for (p, k), x in X.items():
        for q, y in rows.get(k, ()):
            out[p, q] = out[p, q] + x * y if (p, q) in out else x * y
    return {key: v for key, v in out.items() if v}


def check_representation_walk(r: Rep3) -> CheckReport:
    """The three representation identities, each side formed from its
    formula at every (u, v) and (x, y, z, u) in lex order:

        intertwine  rho(a(u), a(v)) B = B rho(u, v)
        action      rho([x,y,z], a(u)) B = rho(a(y), a(z)) rho(x, u)
                        + rho(a(z), a(x)) rho(y, u) + rho(a(x), a(y)) rho(z, u)
        exchange    rho(a(x), a(y)) rho(z, u) = rho(a(z), a(u)) rho(x, y)
                        + rho([x,y,z], a(u)) B + rho(a(z), [x,y,u]) B

    with a the algebra twist and B the carrier twist. Each part stops at
    the first tuple whose sides differ, its witness, and ``checked`` is
    that tuple's 1-based lex position (n**2 or n**4 on a pass)."""
    n, m, c = r.base.dim, r.vdim, r.base.bracket
    A = r.base.twist.entries
    rho = [[_op(mat) for mat in fam] for fam in r.rho]
    B = _op(r.A)

    @cache
    def tw(u, v):  # rho(a(u), a(v))
        return _op_sum((rho[a][b], A[a][u] * A[b][v])
                       for a in range(n) for b in range(n))

    @cache
    def half2B(k, u):  # rho(k, a(u)) B
        return _op_mul(_op_sum((rho[k][b], A[b][u]) for b in range(n)), B)

    @cache
    def half1B(z, k):  # rho(a(z), k) B
        return _op_mul(_op_sum((rho[a][k], A[a][z]) for a in range(n)), B)

    @cache
    def bracket_left(x, y, z, u):  # rho([x,y,z], a(u)) B
        return _op_sum((half2B(k, u), f) for k, f in c.row(x, y, z).items())

    @cache
    def prod(p, q, s, u):  # rho(a(p), a(q)) rho(s, u)
        return _op_mul(tw(p, q), rho[s][u])

    def intertwine(u, v):
        return _op_mul(tw(u, v), B), _op_mul(B, rho[u][v])

    def action(x, y, z, u):
        return bracket_left(x, y, z, u), _op_sum((
            (prod(y, z, x, u), 1), (prod(z, x, y, u), 1),
            (prod(x, y, z, u), 1)))

    def exchange(x, y, z, u):
        right = _op_sum((half1B(z, k), f) for k, f in c.row(x, y, u).items())
        return prod(x, y, z, u), _op_sum((
            (prod(z, u, x, y), 1), (bracket_left(x, y, z, u), 1), (right, 1)))

    def rows(X):
        return tuple(tuple(X.get((p, q), ZERO) for q in range(m))
                     for p in range(m))

    def walk(check, arity, sides):
        for checked, at in enumerate(product(range(n), repeat=arity), 1):
            lhs, rhs = sides(*at)
            if lhs != rhs:
                return CheckReport(False, checked, Witness(
                    check, at, rows(lhs), rows(rhs), "rows"))
        return CheckReport(True, n ** arity)

    return CheckReport.combine([
        ("intertwine", walk("rep_intertwine", 2, intertwine)),
        ("action", walk("rep_action", 4, action)),
        ("exchange", walk("rep_exchange", 4, exchange))])


def hom_jacobi_residual_loop(a: Algebra3, lift: bool = True) -> dict:
    """The Hom-Jacobi residual {(x, y, u, v, w): {l: value}} at every key it
    is nonzero, using no skewness (the accumulation of
    hom_jacobi_check_loop). Every term composes the bracket and the twist
    twice each, so it is accumulated on ints, from the bracket lifted by Dc
    and the twisted parts by Dc Da**2, and divided back by (Dc Da)**2;
    without ``lift``, on the rational values."""
    A = a.twist
    dc, c = lift_rows(dict(a.bracket.rows()), lift)
    d, t12 = compose_lifted(a.bracket, {0: A, 1: A}, lift)
    t23 = compose_lifted(a.bracket, {1: A, 2: A}, lift)[1]
    t13 = compose_lifted(a.bracket, {0: A, 2: A}, lift)[1]
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
        vec_add_into(residual.setdefault(key, {}), vec, scale)

    for (i, j, k), row in c.items():
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
    return divided({key: slot for key, slot in residual.items() if slot},
                   dc * d)


def hom_jacobi_check_loop(a: Algebra3,
                          residual: Optional[dict] = None) -> CheckReport:
    """``residual`` is hom_jacobi_residual_loop(a) when already computed."""
    # Sparse strategy: instead of walking all n^5 basis tuples, accumulate
    # the residual of the identity from pairs of composable bracket
    # entries.  A tuple absent from the accumulator has residual zero, so
    # the verdict is exhaustive; witnesses are reconstructed per tuple.
    n, c, A = a.dim, a.bracket, a.twist
    if residual is None:
        residual = hom_jacobi_residual_loop(a)
    checked = n ** 5
    bad = [key for key, slot in residual.items() if slot]
    if not bad:
        return CheckReport(True, checked)
    t12 = compose_slots(c, {0: A, 1: A})
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


def multiplicative_check_loop(a: Algebra3) -> CheckReport:
    n, c, A = a.dim, a.bracket, a.twist
    full = compose_slots(c, {0: A, 1: A, 2: A})
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


def check_algebra_loop(a: Algebra3) -> CheckReport:
    """Skewness, then the Hom-Jacobi identity and multiplicativity; a skew
    failure short-circuits the rest."""
    parts = [("skew", skew_check_dense(a))]
    if parts[0][1].passed:
        parts += [("hom_jacobi", hom_jacobi_check_loop(a)),
                  ("multiplicative", multiplicative_check_loop(a))]
    return CheckReport.combine(parts)


def multiplicative_residual_loop(a: Algebra3) -> dict:
    """alpha([x,y,z]) - [alpha x, alpha y, alpha z] at every basis triple
    where it is nonzero (multiplicative_check_loop without its early
    exit)."""
    n, c, A = a.dim, a.bracket, a.twist
    full = compose_slots(c, {0: A, 1: A, 2: A})
    colsup = A.col_support()
    out = {}
    for key in itertools.product(range(n), repeat=3):
        diff: dict = {}
        for m, f in c.row(*key).items():
            for l, v in colsup[m]:
                diff[l] = diff.get(l, ZERO) + f * v
        for l, v in full.get(key, {}).items():
            diff[l] = diff.get(l, ZERO) - v
        diff = {l: v for l, v in diff.items() if v}
        if diff:
            out[key] = diff
    return out


def is_derivation_loop(a: Algebra3, d: Mat) -> Optional[Witness]:
    """None when d commutes with the twist and satisfies the Leibniz rule."""
    n, c, A = a.dim, a.bracket, a.twist
    if d.shape != (n, n):
        raise InputError(f"derivation shape {d.shape} for dim {n}")
    if d @ A != A @ d:
        return Witness("derivation_commutes", (), (), ())
    residual = leibniz_residual_loop(a, d)
    if not residual:
        return None
    i, j, k = min(residual)
    lhs = [sum((c.get(i, j, k, m) * d.entries[l][m]
                for m in range(n)), ZERO) for l in range(n)]
    rhs = [lhs[l] - residual[(i, j, k)].get(l, ZERO) for l in range(n)]
    return Witness("derivation", (i, j, k), tuple(lhs), tuple(rhs))


def leibniz_residual_loop(a: Algebra3, d: Mat) -> dict:
    """D[x,y,z] - [Dx,y,z] - [x,Dy,z] - [x,y,Dz] at every key (x, y, z)
    where it is nonzero, using no skewness."""
    n, c = a.dim, a.bracket
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
    return residual


def pair_skew_check_dense(p: PreLie3) -> CheckReport:
    n, t = p.dim, p.product
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                checked += 1
                row = t.row(i, j, k)
                if i == j:
                    if row:
                        l = min(row)
                        return CheckReport(False, checked, Witness(
                            "prelie_skew", (i, j, k, l), (row[l],), (ZERO,)))
                    continue
                other = t.row(j, i, k)
                for l in sorted(set(row) | set(other)):
                    lhs = row.get(l, ZERO)
                    rhs = -other.get(l, ZERO)
                    if lhs != rhs:
                        return CheckReport(False, checked, Witness(
                            "prelie_skew", (i, j, k, l), (lhs,), (rhs,)))
    return CheckReport(True, checked)


def check_prelie_dense(p: PreLie3) -> CheckReport:
    """Skewness in the first two slots plus the two pre-Lie identities.

    Occurrences of the bracket inside the identities use the sub-adjacent
    commutator (cyclic sum of the product).
    """
    parts = [("skew_pair", pair_skew_check_dense(p))]
    if not parts[0][1].passed:
        return CheckReport.combine(parts)
    n, t, A = p.dim, p.product, p.twist
    cc = subadjacent_tensor(t)
    q1 = compose_slots(t, {0: A, 1: A})
    q23 = compose_slots(t, {1: A, 2: A})
    q13 = compose_slots(t, {0: A, 2: A})
    rng = range(n)

    def contract(coeffs: Mapping, table, key3) -> dict:
        acc: dict = {}
        for m, f in coeffs.items():
            vec = table.get(key3(m))
            if vec:
                vec_add_into(acc, vec, f)
        return acc

    # identity A: {a(x),a(y),{z,u,v}} = {[x,y,z]_C,a(u),a(v)}
    #             + {a(z),[x,y,u]_C,a(v)} + {a(z),a(u),[x,y,v]_C}
    checked = 0
    witness = None
    for x in rng:
        if witness:
            break
        for y in rng:
            if witness:
                break
            for z in rng:
                if witness:
                    break
                for u in rng:
                    if witness:
                        break
                    for v in rng:
                        checked += 1
                        lhs = contract(t.row(z, u, v), q1, lambda m: (x, y, m))
                        rhs: dict = {}
                        for m, f in cc.row(x, y, z).items():
                            vec = q23.get((m, u, v))
                            if vec:
                                vec_add_into(rhs, vec, f)
                        for m, f in cc.row(x, y, u).items():
                            vec = q13.get((z, m, v))
                            if vec:
                                vec_add_into(rhs, vec, f)
                        for m, f in cc.row(x, y, v).items():
                            vec = q1.get((z, u, m))
                            if vec:
                                vec_add_into(rhs, vec, f)
                        if lhs != rhs:
                            witness = Witness("prelie_identity_1", (x, y, z, u, v),
                                              dense(lhs, n), dense(rhs, n))
                            break
    parts.append(("identity_1", CheckReport(witness is None, checked, witness)))
    if witness:
        return CheckReport.combine(parts)
    parts.append(("identity_2", prelie_identity_2_dense(p)))
    return CheckReport.combine(parts)


def prelie_identity_2_dense(p: PreLie3) -> CheckReport:
    """The identity-2 loop of check_prelie_dense on its own: check_prelie
    never reaches it when identity 1 fails."""
    n, t, A = p.dim, p.product, p.twist
    cc = subadjacent_tensor(t)
    q1 = compose_slots(t, {0: A, 1: A})
    q23 = compose_slots(t, {1: A, 2: A})
    rng = range(n)

    # identity B: {[x,y,z]_C,a(u),a(v)} = {a(x),a(y),[z,u,v]_C}
    #             + {a(y),a(z),[x,u,v]_C} + {a(z),a(x),[y,u,v]_C}
    checked = 0
    witness = None
    for x in rng:
        if witness:
            break
        for y in rng:
            if witness:
                break
            for z in rng:
                if witness:
                    break
                for u in rng:
                    if witness:
                        break
                    for v in rng:
                        checked += 1
                        lhs: dict = {}
                        for m, f in cc.row(x, y, z).items():
                            vec = q23.get((m, u, v))
                            if vec:
                                vec_add_into(lhs, vec, f)
                        rhs: dict = {}
                        for (a, b), w in (((x, y), z), ((y, z), x), ((z, x), y)):
                            for m, f in cc.row(w, u, v).items():
                                vec = q1.get((a, b, m))
                                if vec:
                                    vec_add_into(rhs, vec, f)
                        if lhs != rhs:
                            witness = Witness("prelie_identity_2", (x, y, z, u, v),
                                              dense(lhs, n), dense(rhs, n))
                            break
    return CheckReport(witness is None, checked, witness)


def _rho_at(rep: Rep3, x, y) -> Mat:
    """rho(x, y) for sparse vectors x, y in the base."""
    acc = Mat.zeros(rep.vdim, rep.vdim)
    for i, xi in x.items():
        for j, yj in y.items():
            f = xi * yj
            if f:
                acc = acc + mat_scale(rep.rho[i][j], f)
    return acc


def check_o_operator_dense(o: OOperator) -> CheckReport:
    """alpha o T = T o A, and T transports the cyclic action to the bracket."""
    rep_ok = check_representation_walk(o.rep)
    if not rep_ok.passed:
        raise PreconditionError("underlying representation fails",
                                witness=rep_ok.witness)
    base = o.rep.base
    n, m = base.dim, o.rep.vdim
    parts = []
    inter = base.twist @ o.T == o.T @ o.rep.A
    parts.append(("intertwine", CheckReport(
        inter, 1, None if inter else Witness(
            "o_intertwine", (), tuple((base.twist @ o.T).entries),
            tuple((o.T @ o.rep.A).entries), "rows"))))
    tcols = [sparse_of(column(o.T, p)) for p in range(m)]
    checked = 0
    witness = None
    for u in range(m):
        if witness:
            break
        for v in range(m):
            if witness:
                break
            ruv = _rho_at(o.rep, tcols[u], tcols[v])
            for w in range(m):
                checked += 1
                lhs = bracket_vec(base.bracket, tcols[u], tcols[v], tcols[w])
                inner = [ruv.entries[p][w] for p in range(m)]
                rvw = _rho_at(o.rep, tcols[v], tcols[w])
                rwu = _rho_at(o.rep, tcols[w], tcols[u])
                for p in range(m):
                    inner[p] = inner[p] + rvw.entries[p][u] + rwu.entries[p][v]
                rhs = apply(o.T, inner)
                if dense(lhs, n) != rhs:
                    witness = Witness("o_operator", (u, v, w), dense(lhs, n), rhs)
                    break
    parts.append(("transport", CheckReport(witness is None, checked, witness)))
    return CheckReport.combine(parts)


def _apply_family(fam, u: Mapping, v: Mapping, w: Mapping, dim_out: int) -> dict:
    """fam(u, v) applied to w, all sparse vectors."""
    out: dict = {}
    for i, ui in u.items():
        for j, vj in v.items():
            f = ui * vj
            if not f:
                continue
            m = fam[i][j]
            for k, wk in w.items():
                col = column(m, k)
                for l in range(dim_out):
                    val = col[l]
                    if val:
                        nv = out.get(l, ZERO) + f * wk * val
                        if nv:
                            out[l] = nv
                        else:
                            out.pop(l, None)
    return out


def check_matched_pair_dense(m: MatchedPairData) -> CheckReport:
    """Exhaustive check of the six matched-pair equations.

    Also assembles the direct-sum bracket and cross-checks it against the
    algebra axioms; the two verdicts appearing in the parts must agree for a
    coherent input (disagreement is an internal-inconsistency finding).
    """
    for name, rep in (("rho", m.rho), ("mu", m.mu)):
        r = check_representation_walk(rep)
        if not r.passed:
            raise PreconditionError(f"{name} fails the representation axioms",
                                    witness=r.witness)
    n, p = m.left.dim, m.right.dim
    cl, cr = m.left.bracket, m.right.bracket
    al, ar = m.left.twist, m.right.twist
    rho, mu = m.rho.rho, m.mu.rho
    ucL = [unit_vec(n, i) for i in range(n)]
    ucR = [unit_vec(p, i) for i in range(p)]
    colL = [sparse_of(column(al, i)) for i in range(n)]
    colR = [sparse_of(column(ar, i)) for i in range(p)]

    def muv(u, v, w):
        return _apply_family(mu, u, v, w, n)

    def rhov(u, v, w):
        return _apply_family(rho, u, v, w, p)

    parts = []

    def run(name, index_dims, evaluate):
        checked = 0
        witness = None
        idx = [0] * len(index_dims)

        def rec(d):
            nonlocal checked, witness
            if witness:
                return
            if d == len(index_dims):
                checked += 1
                val = evaluate(*idx)
                if val:
                    witness = Witness(name, tuple(idx),
                                      dense(val, max(n, p)), ())
                return
            for t in range(index_dims[d]):
                idx[d] = t
                rec(d + 1)
                if witness:
                    return

        rec(0)
        parts.append((name, CheckReport(witness is None, checked, witness)))

    # (i) mu(a'(a4), a'(a5))[x1,x2,x3] - [mu(a4,a5)x1, a(x2), a(x3)]
    #     - [a(x1), mu(a4,a5)x2, a(x3)] - [a(x1), a(x2), mu(a4,a5)x3] = 0
    def eq1(x1, x2, x3, a4, a5):
        acc = muv(colR[a4], colR[a5], cl.row(x1, x2, x3))
        mx = [muv(ucR[a4], ucR[a5], ucL[x]) for x in (x1, x2, x3)]
        vec_add_into(acc, bracket_vec(cl, mx[0], colL[x2], colL[x3]), -ONE)
        vec_add_into(acc, bracket_vec(cl, colL[x1], mx[1], colL[x3]), -ONE)
        vec_add_into(acc, bracket_vec(cl, colL[x1], colL[x2], mx[2]), -ONE)
        return acc

    run("eq_2_1", (n, n, n, p, p), eq1)

    # (ii) mu(rho(x1,x4)a5, a'(a3))a(x2) - mu(rho(x2,x4)a5, a'(a3))a(x1)
    #      - mu(rho(x1,x2)a3, a'(a5))a(x4) + [a(x1), a(x2), mu(a3,a5)x4] = 0
    # (the bare second mu-arguments carry the dual twist so every term has
    # twist degree two, matching the Hom-Jacobi expansion; at identity
    # twist this is the printed equation)
    def eq2(x1, x2, x4, a3, a5):
        acc = muv(rhov(ucL[x1], ucL[x4], ucR[a5]), colR[a3], colL[x2])
        vec_add_into(acc, muv(rhov(ucL[x2], ucL[x4], ucR[a5]), colR[a3], colL[x1]), -ONE)
        vec_add_into(acc, muv(rhov(ucL[x1], ucL[x2], ucR[a3]), colR[a5], colL[x4]), -ONE)
        vec_add_into(acc, bracket_vec(cl, colL[x1], colL[x2],
                                      muv(ucR[a3], ucR[a5], ucL[x4])))
        return acc

    run("eq_2_2", (n, n, n, p, p), eq2)

    # (iii) [mu(a2,a3)x1, a(x4), a(x5)] - mu(a'(a2), a'(a3))[x1,x4,x5]
    #       - mu(rho(x4,x5)a2, a'(a3))a(x1) - mu(a'(a2), rho(x4,x5)a3)a(x1) = 0
    # (same twist-degree balancing on the bare mu-arguments)
    def eq3(x1, x4, x5, a2, a3):
        acc = bracket_vec(cl, muv(ucR[a2], ucR[a3], ucL[x1]), colL[x4], colL[x5])
        vec_add_into(acc, muv(colR[a2], colR[a3], cl.row(x1, x4, x5)), -ONE)
        rv = rhov(ucL[x4], ucL[x5], ucR[a2])
        vec_add_into(acc, muv(rv, colR[a3], colL[x1]), -ONE)
        rv = rhov(ucL[x4], ucL[x5], ucR[a3])
        vec_add_into(acc, muv(colR[a2], rv, colL[x1]), -ONE)
        return acc

    run("eq_2_3", (n, n, n, p, p), eq3)

    # (iv) rho(a(x4), a(x5))[a1,a2,a3]' - [rho(x4,x5)a1, a'(a2), a'(a3)]'
    #      - [a'(a1), rho(x4,x5)a2, a'(a3)]' - [a'(a1), a'(a2), rho(x4,x5)a3]' = 0
    def eq4(a1, a2, a3, x4, x5):
        acc = rhov(colL[x4], colL[x5], cr.row(a1, a2, a3))
        ra = [rhov(ucL[x4], ucL[x5], ucR[a]) for a in (a1, a2, a3)]
        vec_add_into(acc, bracket_vec(cr, ra[0], colR[a2], colR[a3]), -ONE)
        vec_add_into(acc, bracket_vec(cr, colR[a1], ra[1], colR[a3]), -ONE)
        vec_add_into(acc, bracket_vec(cr, colR[a1], colR[a2], ra[2]), -ONE)
        return acc

    run("eq_2_4", (p, p, p, n, n), eq4)

    # (v) rho(mu(a1,a4)x5, a(x3))a'(a2) - rho(mu(a2,a4)x5, a(x3))a'(a1)
    #     - rho(mu(a1,a2)x3, a(x5))a'(a4) + [a'(a1), a'(a2), rho(x3,x5)a4]' = 0
    # (mirror of eq (2.2) with the same twist-degree balancing)
    def eq5(a1, a2, a4, x3, x5):
        acc = rhov(muv(ucR[a1], ucR[a4], ucL[x5]), colL[x3], colR[a2])
        vec_add_into(acc, rhov(muv(ucR[a2], ucR[a4], ucL[x5]), colL[x3], colR[a1]), -ONE)
        vec_add_into(acc, rhov(muv(ucR[a1], ucR[a2], ucL[x3]), colL[x5], colR[a4]), -ONE)
        vec_add_into(acc, bracket_vec(cr, colR[a1], colR[a2],
                                      rhov(ucL[x3], ucL[x5], ucR[a4])))
        return acc

    run("eq_2_5", (p, p, p, n, n), eq5)

    # (vi) [rho(x2,x3)a1, a'(a4), a'(a5)]' - rho(a(x2), a(x3))[a1,a4,a5]'
    #      - rho(mu(a4,a5)x2, a(x3))a'(a1) - rho(a(x2), mu(a4,a5)x3)a'(a1) = 0
    # (mirror of eq (2.3) with the same twist-degree balancing)
    def eq6(a1, a4, a5, x2, x3):
        acc = bracket_vec(cr, rhov(ucL[x2], ucL[x3], ucR[a1]), colR[a4], colR[a5])
        vec_add_into(acc, rhov(colL[x2], colL[x3], cr.row(a1, a4, a5)), -ONE)
        mv = muv(ucR[a4], ucR[a5], ucL[x2])
        vec_add_into(acc, rhov(mv, colL[x3], colR[a1]), -ONE)
        mv = muv(ucR[a4], ucR[a5], ucL[x3])
        vec_add_into(acc, rhov(colL[x2], mv, colR[a1]), -ONE)
        return acc

    run("eq_2_6", (p, p, p, n, n), eq6)

    eqs_passed = all(r.passed for _, r in parts)
    eq_witness = next((r.witness for _, r in parts if not r.passed), None)
    total_checked = sum(r.checked for _, r in parts)

    assembled = assemble_matched_pair_dense(m)
    alg_report = check_algebra_loop(assembled)
    parts.append(("assembled_algebra", alg_report))
    agree = eqs_passed == alg_report.passed
    parts.append(("verdicts_agree", CheckReport(
        agree, 1, None if agree else Witness("internal_inconsistency", (), (), ()))))
    return CheckReport(eqs_passed and agree, total_checked, eq_witness
                       if eq_witness else (None if agree else alg_report.witness),
                       tuple(parts))


def check_invariance_dense(a: Algebra3, form: BilForm) -> CheckReport:
    """([x,y,z], a(u)) + ([x,y,u], a(z)) = 0 on all basis 4-tuples."""
    n, c, A = a.dim, a.bracket, a.twist
    if form.dim != n:
        raise InputError(f"form dim {form.dim} vs algebra dim {n}")
    cols = [column(A, i) for i in range(n)]
    checked = 0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                rz = c.row(x, y, z)
                for u in range(n):
                    checked += 1
                    ru = c.row(x, y, u)
                    if not rz and not ru:
                        continue
                    val = (form_value(form, dense(rz, n), cols[u])
                           + form_value(form, dense(ru, n), cols[z]))
                    if val:
                        return CheckReport(False, checked, Witness(
                            "invariance", (x, y, z, u), (val,), (ZERO,)))
    return CheckReport(True, checked)


def fourterm_check_loop(a: Algebra3, W: Mat) -> CheckReport:
    """w([x,y,z], a(w)) - w([y,z,w], a(x)) + w([z,w,x], a(y))
    - w([w,x,y], a(z)) = 0 on all basis 4-tuples."""
    residual = fourterm_residual_loop(a, W)
    checked = a.dim ** 4
    if not residual:
        return CheckReport(True, checked)
    key = min(residual)
    return CheckReport(False, checked, Witness(
        "symplectic_cocycle", key, (residual[key],), (ZERO,)))


def fourterm_residual_loop(a: Algebra3, W: Mat) -> dict:
    """The four-term sum {(x, y, z, w): value} at every key where it is
    nonzero, using no skewness."""
    n, c, A = a.dim, a.bracket, a.twist
    # term(x, y, z, w) = sum_l c(x, y, z, l) * (W @ A)[l][w]; accumulate the
    # alternating sum sparsely: each bracket entry lands in one of the four
    # slot patterns for every choice of the remaining pairing index.
    WA = W @ A
    residual: dict = {}

    def add(key, v):
        val = residual.get(key, ZERO) + v
        if val:
            residual[key] = val
        else:
            residual.pop(key, None)

    for i, j, k, l, v in c.items():
        for t in range(n):
            wt = WA.entries[l][t]
            if not wt:
                continue
            vw = v * wt
            add((i, j, k, t), vw)
            add((t, i, j, k), -vw)
            add((k, t, i, j), vw)
            add((j, k, t, i), -vw)
    return residual


def check_metric_dense(a: Algebra3, form: BilForm) -> CheckReport:
    """Symmetric, nondegenerate, B([x,y,z],w) + B(z,[x,y,w]) = 0.

    Note the metric identity carries no twist (unlike pseudo-metric
    invariance, which pairs against a(w))."""
    n, c = a.dim, a.bracket
    if form.dim != n:
        raise InputError(f"form dim {form.dim} vs algebra dim {n}")
    B = form.matrix
    parts = []
    sym = B.transpose() == B
    parts.append(("symmetric", CheckReport(sym, 1, None if sym else
                                           Witness("form_symmetric", (), (), ()))))
    nondeg = mat_inverse(B) is not None
    parts.append(("nondegenerate", CheckReport(nondeg, 1, None if nondeg else
                                               Witness("form_nondegenerate", (), (), ()))))
    witness = None
    checked = 0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                rz = c.row(x, y, z)
                for w in range(n):
                    checked += 1
                    rw = c.row(x, y, w)
                    if not rz and not rw:
                        continue
                    val = (sum((v * B.entries[l][w] for l, v in rz.items()), ZERO)
                           + sum((v * B.entries[z][l] for l, v in rw.items()), ZERO))
                    if val:
                        witness = Witness("metric", (x, y, z, w), (val,), (ZERO,))
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    parts.append(("invariance", CheckReport(witness is None, checked, witness)))
    return CheckReport.combine(parts)


def metric_residual_loop(a: Algebra3, B: Mat) -> dict:
    """B([x,y,z],w) + B(z,[x,y,w]) {(x, y, z, w): value} at every key where
    it is nonzero, using no skewness: each entry c[x,y,u,l] adds
    c * B[l][w] at (x, y, u, w) and c * B[z][l] at (x, y, z, u)."""
    n = a.dim
    residual: dict = {}

    def add(key, v):
        val = residual.get(key, ZERO) + v
        if val:
            residual[key] = val
        else:
            residual.pop(key, None)

    for x, y, u, l, v in a.bracket.items():
        for t in range(n):
            if B.entries[l][t]:
                add((x, y, u, t), v * B.entries[l][t])
            if B.entries[t][l]:
                add((x, y, t, u), v * B.entries[t][l])
    return residual


def closed_form_check_dense(a: Algebra3, form: BilForm) -> CheckReport:
    """B(a[x,y,z],w) - B(a[x,y,w],z) + B(a[x,z,w],y) - B(a[y,z,w],x) = 0."""
    n, c, A = a.dim, a.bracket, a.twist
    if form.dim != n:
        raise InputError(f"form dim {form.dim} vs algebra dim {n}")

    def bw(x, y, z, w):
        row = c.row(x, y, z)
        if not row:
            return ZERO
        tw = [ZERO] * n
        for l, v in row.items():
            col = column(A, l)
            for m in range(n):
                tw[m] += v * col[m]
        return sum((form.matrix.entries[m][w] * tm for m, tm in enumerate(tw) if tm),
                   ZERO)

    checked = 0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    checked += 1
                    val = (bw(x, y, z, w) - bw(x, y, w, z)
                           + bw(x, z, w, y) - bw(y, z, w, x))
                    if val:
                        return CheckReport(False, checked, Witness(
                            "closed_form", (x, y, z, w), (val,), (ZERO,)))
    return CheckReport(True, checked)


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


def check_double_construction_loop(c: Cobracket) -> CheckReport:
    """The three compatibility equations between the bracket and cobracket.

    The third equation is reported separately in the parts (the definition
    of the bialgebra names only the first two; the matched-pair theorem
    lists all three); the overall verdict requires all three.
    """
    Lstar = dual_algebra(c)
    pre = check_algebra_loop(Lstar)
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


def coadjoint_family_loop(a: Algebra3) -> tuple:
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


def triple_bracket_loop(r: RTensor) -> dict:
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


def check_chybe_loop(r: RTensor) -> CheckReport:
    """r solves the ternary classical Yang-Baxter equation: [[r,r,r]] = 0.

    Preconditions (skewness and twist invariance) are reported as parts
    rather than raised, so a failing input still yields a verdict.
    """
    n = r.base.dim
    parts = [("skew", CheckReport(r.is_skew(), n * n,
                                  None if r.is_skew() else Witness("r_skew", (), (), ()))),
             ("alpha_invariance", alpha_invariance(r))]
    t = triple_bracket_loop(r)
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


def dual_bracket_formula_loop(r: RTensor, dual_c: Tensor4) -> CheckReport:
    """The dual-bracket formula part of coboundary_cobracket_loop."""
    a = r.base
    n, A, R = a.dim, a.twist, r.entries
    fam = coadjoint_family_loop(a)
    # every r in the closed form acts through the dual twist: r o a*
    reff = (A @ R).transpose()
    rsharp_cols = [dict((i, v) for i, v in enumerate(column(reff, j)) if v)
                   for j in range(n)]
    witness = None
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                checked += 1
                m = _adstar_matrix(fam, rsharp_cols[i], rsharp_cols[j], n)
                expect = list(column(m, k))
                m = _adstar_matrix(fam, rsharp_cols[j], rsharp_cols[k], n)
                ci = column(m, i)
                m = _adstar_matrix(fam, rsharp_cols[k], rsharp_cols[i], n)
                cj = column(m, j)
                for l in range(n):
                    expect[l] += ci[l] + cj[l]
                got = [dual_c.get(i, j, k, l) for l in range(n)]
                if got != expect and witness is None:
                    witness = Witness("dual_bracket_formula", (i, j, k),
                                      tuple(got), tuple(expect))
    return CheckReport(witness is None, checked, witness)


def coboundary_cobracket_loop(r: RTensor) -> tuple:
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
    parts.append(("dual_bracket_formula", dual_bracket_formula_loop(r, dual_c)))
    return cob, CheckReport.combine(parts)


def verify_residual_loop(r: RTensor) -> CheckReport:
    """[r(xi),r(eta),r(gamma)] - r([xi,eta,gamma]*) = [[r,r,r]](xi,eta,gamma)
    on all dual basis triples, with the two sides computed by independent
    routes (cobracket + induced map vs the 4-tensor contraction)."""
    cob, rep = coboundary_cobracket_loop(r)
    if not rep.passed:
        return rep
    a = r.base
    n, c = a.dim, a.bracket
    # as in the closed form, the induced map is r o a*
    rs = (a.twist @ r.entries).transpose()
    t = triple_bracket_loop(r)
    by_pqs: dict = {}
    for (p, q, s, l), v in t.items():
        by_pqs.setdefault((p, q, s), {})[l] = v
    witness = None
    checked = 0
    rcols = [dict((i, v) for i, v in enumerate(column(rs, j)) if v) for j in range(n)]
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
                                      tuple(sorted(rhs.items())), "pairs")
    return CheckReport(witness is None, checked, witness,
                       rep.parts + (("residual", CheckReport(witness is None, checked, witness)),))


# ---------------------------------------------------------------------------
# Dense exact linear algebra, replaced by the sparse Gauss-Jordan routine of
# homlie3.exactlin: the dense rref loop, the routines that ran on it (the
# kernel canonicalised by a second rref), and the dense derivation system
# filled by c.get over every (i<j<k, l, m).

def rref_dense(rows) -> tuple:
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def kernel_basis_dense(system: Mat) -> tuple:
    """Canonical basis (reduced echelon rows) of the nullspace of ``system``."""
    reduced, pivots = rref_dense(system.entries)
    n = system.cols
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    if not basis:
        return ()
    canon, _ = rref_dense(basis)
    return tuple(tuple(row) for row in canon if any(v != 0 for v in row))


def mat_inverse_dense(m: Mat) -> Optional[Mat]:
    """Exact inverse, or None when singular."""
    if m.rows != m.cols:
        raise InputError(f"inverse of non-square {m.shape}")
    n = m.rows
    aug = [list(m.entries[i]) + [ONE if i == j else ZERO for j in range(n)]
           for i in range(n)]
    reduced, pivots = rref_dense(aug)
    if pivots != list(range(n)):
        return None
    return Mat([row[n:] for row in reduced])


def mat_rank_dense(m: Mat) -> int:
    _, pivots = rref_dense(m.entries)
    return len(pivots)


def derivation_system_dense(a: Algebra3, form: Optional[Mat] = None) -> Mat:
    """Linear system over vec(D) (row-major, D[p][q] -> p*n+q) whose kernel
    is the space of derivations commuting with the twist (and B-skew when a
    symmetric form B is supplied). It imposes Leibniz only at i < j < k,
    which is the whole rule over a skew bracket only: on any other bracket
    its kernel holds non-derivations, and ``derivation_space`` refuses it."""
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


def derivation_system(a: Algebra3, form: Optional[Mat] = None) -> Mat:
    """The rows of ``homlie3.homlie._derivation_rows`` as a dense system over
    vec(D) (row-major, D[p][q] -> p*n+q)."""
    m = a.dim * a.dim
    return Mat([dense(row, m) for row in _derivation_rows(a, form)]
               or [[ZERO] * m])


def derivation_space_dense(a: Algebra3, form: Optional[Mat] = None,
                           system: Optional[Mat] = None) -> tuple:
    """Canonical basis of Der(L) (or Der_B(L) when B is given) as matrices,
    from ``system`` when the derivation system is given."""
    n = a.dim
    if system is None:
        system = derivation_system_dense(a, form)
    basis = kernel_basis_dense(system)
    return tuple(Mat([list(v[p * n:(p + 1) * n]) for p in range(n)]) for v in basis)


def skew_check_dense(a: Algebra3) -> CheckReport:
    """Total skewness, scanning every basis triple in lex order."""
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


def semidirect_sum_dense(a: Algebra3, r: Rep3) -> Algebra3:
    """The semidirect sum L + V of a representation, read from its dense
    family of operators (no representation check)."""
    n, m = a.dim, r.vdim
    N = n + m
    entries = []
    for i, j, k, l, v in a.bracket.items():
        entries.append((i, j, k, l, v))
    for i in range(n):
        for j in range(n):
            mat = r.rho[i][j]
            for p in range(m):
                for q in range(m):
                    v = mat.entries[p][q]
                    if not v:
                        continue
                    # rho(e_i, e_j) f_q = sum_p v f_p, placed per slot of f_q
                    entries.append((i, j, n + q, n + p, v))
                    entries.append((n + q, i, j, n + p, v))
                    entries.append((j, n + q, i, n + p, v))
    bracket = Tensor4.from_entries((N,) * 4, entries)
    twist = Mat.block_diag(a.twist, r.A)
    return Algebra3(N, bracket, twist,
                    label=f"{a.label}|x|V" if a.label else "semidirect")


def assemble_matched_pair_dense(m: MatchedPairData) -> Algebra3:
    """The bracket on L + L' built from both brackets and both actions
    (no matched-pair check)."""
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


def semidirect_prelie_dense(r: PreLieRep) -> PreLie3:
    """{x1+v1, x2+v2, x3+v3} = {x1,x2,x3} + rho(x1,x2)v3 + mu(x2,x3)v1
    - mu(x1,x3)v2, twist = alpha (+) B."""
    p = r.base
    n, m = p.dim, r.vdim
    N = n + m
    entries = list(p.product.items())
    for i in range(n):
        for j in range(n):
            rm = r.rho[i][j]
            mm = r.mu[i][j]
            for a in range(m):
                for b in range(m):
                    v = rm.entries[a][b]
                    if v:
                        entries.append((i, j, n + b, n + a, v))
                    v = mm.entries[a][b]
                    if v:
                        # mu(x2,x3)v1 with (x2,x3) = (e_i,e_j)
                        entries.append((n + b, i, j, n + a, v))
                        # -mu(x1,x3)v2 with (x1,x3) = (e_i,e_j)
                        entries.append((i, n + b, j, n + a, -v))
    return PreLie3(N, Tensor4.from_entries((N,) * 4, entries),
                   Mat.block_diag(p.twist, r.B), label="semidirect-prelie")


def literal_prelie_rep_check_loop(r: PreLieRep) -> CheckReport:
    """Literal reading of the four printed representation identities.

    The printed equations carry typesetting damage; this applies the minimal
    repair (a '+' joining the broken terms in the first equation, and the
    left side of the third read with x2 in its first argument).  They also
    carry no twist maps, so this literal route is only meaningful for
    identity twists; the operational route is authoritative.
    """
    p = r.base
    n = p.dim
    t = p.product
    cc = subadjacent_tensor(t)
    rho, mu = r.rho, r.mu

    def mu_bracket(tensor, i, j, k, x4) -> Mat:
        acc = Mat.zeros(r.vdim, r.vdim)
        for m, f in tensor.row(i, j, k).items():
            acc = acc + mat_scale(mu[m][x4], f)
        return acc

    def mu_second(tensor, x, i, j, k) -> Mat:
        acc = Mat.zeros(r.vdim, r.vdim)
        for m, f in tensor.row(i, j, k).items():
            acc = acc + mat_scale(mu[x][m], f)
        return acc

    checked = 0
    witness = None
    for x1 in range(n):
        if witness:
            break
        for x2 in range(n):
            if witness:
                break
            for x3 in range(n):
                if witness:
                    break
                for x4 in range(n):
                    checked += 4
                    # (i) rho(1,2)mu(3,4) = mu(3,4)rho(1,2) - mu(3,4)mu(2,1)
                    #     + mu(3,4)mu(1,2) + mu([1,2,3]_C,4) + mu(3,{1,2,4})
                    lhs = rho[x1][x2] @ mu[x3][x4]
                    rhs = (mu[x3][x4] @ rho[x1][x2]
                           - mu[x3][x4] @ mu[x2][x1]
                           + mu[x3][x4] @ mu[x1][x2]
                           + mu_bracket(cc, x1, x2, x3, x4)
                           + mu_second(t, x3, x1, x2, x4))
                    if lhs != rhs:
                        witness = Witness("prelie_rep_eq1", (x1, x2, x3, x4),
                                          tuple(lhs.entries), tuple(rhs.entries), "rows")
                        break
                    # (ii) mu([1,2,3]_C,4) = rho(1,2)mu(3,4) + rho(2,3)mu(1,4)
                    #      + rho(3,1)mu(2,4)
                    lhs = mu_bracket(cc, x1, x2, x3, x4)
                    rhs = (rho[x1][x2] @ mu[x3][x4] + rho[x2][x3] @ mu[x1][x4]
                           + rho[x3][x1] @ mu[x2][x4])
                    if lhs != rhs:
                        witness = Witness("prelie_rep_eq2", (x1, x2, x3, x4),
                                          tuple(lhs.entries), tuple(rhs.entries), "rows")
                        break
                    # (iii) mu(2,{1,3,4}) = mu(3,4)mu(1,2) + mu(3,4)rho(1,2)
                    #       - mu(3,4)mu(2,1) - mu(2,4)mu(1,3) - mu(2,4)rho(1,3)
                    #       + mu(2,4)mu(3,1) + rho(2,3)mu(1,4)
                    lhs = mu_second(t, x2, x1, x3, x4)
                    rhs = (mu[x3][x4] @ mu[x1][x2] + mu[x3][x4] @ rho[x1][x2]
                           - mu[x3][x4] @ mu[x2][x1] - mu[x2][x4] @ mu[x1][x3]
                           - mu[x2][x4] @ rho[x1][x3] + mu[x2][x4] @ mu[x3][x1]
                           + rho[x2][x3] @ mu[x1][x4])
                    if lhs != rhs:
                        witness = Witness("prelie_rep_eq3", (x1, x2, x3, x4),
                                          tuple(lhs.entries), tuple(rhs.entries), "rows")
                        break
                    # (iv) mu(3,4)rho(1,2) = mu(3,4)mu(2,1) - mu(3,4)mu(1,2)
                    #      + rho(1,2)rho(3,4) - mu(2,{1,3,4}) + mu(1,{2,3,4})
                    lhs = mu[x3][x4] @ rho[x1][x2]
                    rhs = (mu[x3][x4] @ mu[x2][x1] - mu[x3][x4] @ mu[x1][x2]
                           + rho[x1][x2] @ rho[x3][x4]
                           - mu_second(t, x2, x1, x3, x4)
                           + mu_second(t, x1, x2, x3, x4))
                    if lhs != rhs:
                        witness = Witness("prelie_rep_eq4", (x1, x2, x3, x4),
                                          tuple(lhs.entries), tuple(rhs.entries), "rows")
                        break
    return CheckReport(witness is None, checked, witness)


def compatible_prelie_dense(a: Algebra3, o: OOperator) -> PreLie3:
    """{x,y,z} = T rho(x,y) T^{-1} z for an invertible O-operator on a."""
    tinv = mat_inverse(o.T)
    if tinv is None:
        raise PreconditionError("T is singular")
    rep = check_o_operator_dense(o)
    if not rep.passed:
        raise PreconditionError("not an O-operator", witness=rep.witness)
    n = a.dim
    entries = []
    for i in range(n):
        for j in range(n):
            m = o.T @ o.rep.rho[i][j] @ tinv
            for k in range(n):
                for l in range(n):
                    if m.entries[l][k]:
                        entries.append((i, j, k, l, m.entries[l][k]))
    p = PreLie3(n, Tensor4.from_entries((n,) * 4, entries), a.twist,
                label=f"{a.label}~prelie" if a.label else "compatible")
    if subadjacent_tensor(p.product) != a.bracket:
        raise PreconditionError("sub-adjacent bracket does not recover the input")
    return p


def symplectic_compatible_check_dense(a: Algebra3, omega: BilForm,
                                      p: PreLie3) -> CheckReport:
    """The defining identity w({x,y,z}, a(w)) = -w(a(z), [x,y,w]) of the
    compatible product of a symplectic form, on every basis 4-tuple in lex
    order, stopping at the first failure."""
    n, A = a.dim, a.twist
    checked = 0
    for x, y, z, w in product(range(n), repeat=4):
        checked += 1
        lhs = form_value(omega, dense(p.product.row(x, y, z), n), column(A, w))
        rhs = -form_value(omega, column(A, z), dense(a.bracket.row(x, y, w), n))
        if lhs != rhs:
            return CheckReport(False, checked, Witness(
                "symplectic_compatible", (x, y, z, w), (lhs,), (rhs,)))
    return CheckReport(True, checked)


def base_projection(total: Algebra3, n: int) -> Tensor4:
    """Structure constants of the first n basis vectors, projected to them."""
    entries = [(i, j, k, l, v) for i, j, k, l, v in total.bracket.items()
               if i < n and j < n and k < n and l < n]
    return Tensor4.from_entries((n,) * 4, entries)
