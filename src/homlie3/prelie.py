"""3-Hom-pre-Lie algebras, O-operators, and pre-Lie representations.

The ternary product {x,y,z} is skew in its first two slots only; its cyclic
sum [x,y,z]_C = {x,y,z} + {y,z,x} + {z,x,y} is the sub-adjacent 3-Hom-Lie
bracket.  An O-operator T transports a representation action onto the
bracket; invertible O-operators produce compatible pre-Lie structures.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exactlin import InputError, Mat, Tensor4, ZERO, mat_inverse
from .homlie import (
    Algebra3, CheckReport, PreconditionError, Witness, _at, _columns,
    _identity, _image, _permuted, _require, _residual, _slot_outer,
    twist_slots,
)
from .reps import (
    Rep3, _action_tensor, _check_family, _rep_family, check_representation,
)


@dataclass(frozen=True)
class PreLie3:
    """product holds p with {e_i, e_j, e_k} = sum_l p[i,j,k,l] e_l."""
    dim: int
    product: Tensor4
    twist: Mat
    label: str = ""

    def __post_init__(self):
        n = self.dim
        if self.product.dims != (n,) * 4:
            raise InputError(f"product dims {self.product.dims} for dim {n}")
        if self.twist.shape != (n, n):
            raise InputError(f"twist shape {self.twist.shape} for dim {n}")


@dataclass(frozen=True)
class OOperator:
    rep: Rep3
    T: Mat  # carrier -> base

    def __post_init__(self):
        if self.T.shape != (self.rep.base.dim, self.rep.vdim):
            raise InputError(f"T shape {self.T.shape}, want "
                             f"({self.rep.base.dim}, {self.rep.vdim})")


@dataclass(frozen=True)
class PreLieRep:
    """(rho, mu) acting on a carrier with twist B; rho skew in (i, j)."""
    base: PreLie3
    vdim: int
    rho: tuple
    mu: tuple
    B: Mat

    def __post_init__(self):
        n, m = self.base.dim, self.vdim
        _check_family(self.rho, n, m, "rho")
        _check_family(self.mu, n, m, "mu", skew=False)
        if self.B.shape != (m, m):
            raise InputError(f"carrier twist shape {self.B.shape}")


def subadjacent_tensor(p: Tensor4) -> Tensor4:
    n = p.dims[0]
    entries = []
    for i, j, k, l, v in p.items():
        entries.append((i, j, k, l, v))
        entries.append((k, i, j, l, v))
        entries.append((j, k, i, l, v))
    return Tensor4.from_entries((n,) * 4, entries)


def _pair_skew_check(p: PreLie3) -> CheckReport:
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


def check_prelie(p: PreLie3) -> CheckReport:
    """Skewness in the first two slots plus the two pre-Lie identities.

    Occurrences of the bracket inside the identities use the sub-adjacent
    commutator (cyclic sum of the product).
    """
    parts = [("skew_pair", _pair_skew_check(p))]
    if not parts[0][1].passed:
        return CheckReport.combine(parts)
    for name, r in _prelie_identities(p):
        parts.append((name, r))
        if not r.passed:
            break
    return CheckReport.combine(parts)


def _prelie_identities(p: PreLie3):
    """Reports of the two pre-Lie identities, each computed only when the
    caller asks for it; brackets inside them are sub-adjacent."""
    t, A = p.product, p.twist
    prod, cyc = dict(t.rows()), dict(subadjacent_tensor(t).rows())
    q1 = _slot_outer(t, 2, {0: A, 1: A})
    q23 = _slot_outer(t, 0, {1: A, 2: A})
    # {a(x),a(y),{z,u,v}} = {[x,y,z]_C,a(u),a(v)} + {a(z),[x,y,u]_C,a(v)}
    #                       + {a(z),a(u),[x,y,v]_C}   at key (x, y, z, u, v)
    one = [(1, prod, q1, (3, 4, 0, 1, 2)),
           (-1, cyc, q23, (0, 1, 2, 3, 4)),
           (-1, cyc, _slot_outer(t, 1, {0: A, 2: A}), (0, 1, 3, 2, 4)),
           (-1, cyc, q1, (0, 1, 3, 4, 2))]
    # {[x,y,z]_C,a(u),a(v)} = {a(x),a(y),[z,u,v]_C} + {a(y),a(z),[x,u,v]_C}
    #                         + {a(z),a(x),[y,u,v]_C}
    two = [(1, cyc, q23, (0, 1, 2, 3, 4)),
           (-1, cyc, q1, (3, 4, 0, 1, 2)),
           (-1, cyc, q1, (0, 3, 4, 1, 2)),
           (-1, cyc, q1, (4, 0, 3, 1, 2))]
    for k, terms in ((1, one), (2, two)):
        yield f"identity_{k}", _identity(f"prelie_identity_{k}", terms,
                                         (p.dim,) * 5, p.dim, lhs=1)


def subadjacent(p: PreLie3) -> Algebra3:
    """The induced 3-Hom-Lie algebra [x,y,z]_C = {x,y,z}+{y,z,x}+{z,x,y}."""
    _require(check_prelie(p), "invalid pre-Lie product")
    return Algebra3(p.dim, subadjacent_tensor(p.product), p.twist,
                    label=f"{p.label}^C" if p.label else "subadjacent")


def check_o_operator(o: OOperator) -> CheckReport:
    """alpha o T = T o A, and T transports the cyclic action to the bracket."""
    _require(check_representation(o.rep), "underlying representation fails")
    base = o.rep.base
    n, m = base.dim, o.rep.vdim
    parts = []
    T = o.T
    inter = base.twist @ T == T @ o.rep.A
    parts.append(("intertwine", CheckReport(
        inter, 1, None if inter else Witness(
            "o_intertwine", (), tuple((base.twist @ T).entries),
            tuple((T @ o.rep.A).entries)))))
    act = _acted(o)
    # [Tu,Tv,Tw] - T(rho(Tu,Tv)w + rho(Tv,Tw)u + rho(Tw,Tu)v) at key (u, v, w)
    terms = [(1, _columns(T), _slot_outer(base.bracket, 2, {0: T, 1: T}),
              (1, 2, 0)),
             (-1, act, _image(T), (0, 1, 2)),
             (-1, act, _image(T), (2, 0, 1)),
             (-1, act, _image(T), (1, 2, 0))]
    parts.append(("transport", _identity("o_operator", terms, (m,) * 3, n,
                                         lhs=1)))
    return CheckReport.combine(parts)


def _acted(o: OOperator) -> dict:
    """{(u, v, w): rho(Tu, Tv)w} on the carrier basis."""
    return twist_slots(_action_tensor(o.rep.rho), {0: o.T, 1: o.T})


def induced_prelie_on_module(o: OOperator) -> PreLie3:
    """{u,v,w} = rho(Tu, Tv)w on the carrier, twist = A."""
    _require(check_o_operator(o), "not an O-operator")
    m = o.rep.vdim
    entries = sorted((*key, l, v) for key, vec in _acted(o).items()
                     for l, v in vec.items())
    p = PreLie3(m, Tensor4.from_entries((m,) * 4, entries), o.rep.A,
                label="induced")
    _require(check_prelie(p), "induced product fails the pre-Lie identities")
    return p


def compatible_prelie(a: Algebra3, o: OOperator) -> PreLie3:
    """{x,y,z} = T rho(x,y) T^{-1} z for an invertible O-operator on a."""
    tinv = mat_inverse(o.T)
    if tinv is None:
        raise PreconditionError("T is singular")
    _require(check_o_operator(o), "not an O-operator")
    n = a.dim
    # T rho(x, y) T^{-1} z at key (x, y, z)
    rows = _residual([(1, twist_slots(_action_tensor(o.rep.rho), {2: tinv}),
                       _image(o.T), (0, 1, 2))])
    p = PreLie3(n, Tensor4((n,) * 4, rows), a.twist,
                label=f"{a.label}~prelie" if a.label else "compatible")
    if subadjacent_tensor(p.product) != a.bracket:
        raise PreconditionError("sub-adjacent bracket does not recover the input")
    return p


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


def semidirect_prelie(r: PreLieRep) -> PreLie3:
    """{x1+v1, x2+v2, x3+v3} = {x1,x2,x3} + rho(x1,x2)v3 + mu(x2,x3)v1
    - mu(x1,x3)v2, twist = alpha (+) B."""
    p = r.base
    n, N = p.dim, p.dim + r.vdim
    entries = list(p.product.items())
    for i, j, b, a, v in _action_tensor(r.rho).items():
        entries.append((i, j, n + b, n + a, v))
    for i, j, b, a, v in _action_tensor(r.mu).items():
        # mu(x2,x3)v1 and -mu(x1,x3)v2 with (e_i, e_j) in the named slots
        entries += [(n + b, i, j, n + a, v), (i, n + b, j, n + a, -v)]
    return PreLie3(N, Tensor4.from_entries((N,) * 4, entries),
                   Mat.block_diag(p.twist, r.B), label="semidirect-prelie")


def _prelie_rep_equations(r: PreLieRep) -> tuple:
    """Term lists of the four printed representation identities, keyed
    (x1, x2, x3, x4, v): each is the operator identity applied to the
    carrier basis vector v, its left side first.

    The printed equations carry typesetting damage; these apply the minimal
    repair (a '+' joining the broken terms in the first equation, and the
    left side of the third read with x2 in its first argument).  They also
    carry no twist maps, so this literal route is only meaningful for
    identity twists; the operational route is authoritative.
    """
    t = r.base.product
    rho, mu = _action_tensor(r.rho), _action_tensor(r.mu)
    R, M = dict(rho.rows()), dict(mu.rows())
    prod, cyc = dict(t.rows()), dict(subadjacent_tensor(t).rows())
    # rho(a, b) or mu(a, b) after the inner operator: keyed by its input v
    rho_after, mu_after = _slot_outer(rho, 2, {}), _slot_outer(mu, 2, {})
    # mu(bracket, x) and mu(x, bracket): keyed by the bracket's output
    mu_0, mu_1 = _slot_outer(mu, 0, {}), _slot_outer(mu, 1, {})
    return (
        # rho(1,2)mu(3,4) = mu(3,4)rho(1,2) - mu(3,4)mu(2,1)
        #   + mu(3,4)mu(1,2) + mu([1,2,3]_C,4) + mu(3,{1,2,4})
        [(1, M, rho_after, (3, 4, 0, 1, 2)),
         (-1, R, mu_after, (0, 1, 3, 4, 2)),
         (1, M, mu_after, (1, 0, 3, 4, 2)),
         (-1, M, mu_after, (0, 1, 3, 4, 2)),
         (-1, cyc, mu_0, (0, 1, 2, 3, 4)),
         (-1, prod, mu_1, (0, 1, 3, 2, 4))],
        # mu([1,2,3]_C,4) = rho(1,2)mu(3,4) + rho(2,3)mu(1,4)
        #   + rho(3,1)mu(2,4)
        [(1, cyc, mu_0, (0, 1, 2, 3, 4)),
         (-1, M, rho_after, (3, 4, 0, 1, 2)),
         (-1, M, rho_after, (0, 3, 4, 1, 2)),
         (-1, M, rho_after, (4, 0, 3, 1, 2))],
        # mu(2,{1,3,4}) = mu(3,4)mu(1,2) + mu(3,4)rho(1,2) - mu(3,4)mu(2,1)
        #   - mu(2,4)mu(1,3) - mu(2,4)rho(1,3) + mu(2,4)mu(3,1)
        #   + rho(2,3)mu(1,4)
        [(1, prod, mu_1, (0, 3, 1, 2, 4)),
         (-1, M, mu_after, (0, 1, 3, 4, 2)),
         (-1, R, mu_after, (0, 1, 3, 4, 2)),
         (1, M, mu_after, (1, 0, 3, 4, 2)),
         (1, M, mu_after, (0, 3, 1, 4, 2)),
         (1, R, mu_after, (0, 3, 1, 4, 2)),
         (-1, M, mu_after, (1, 3, 0, 4, 2)),
         (-1, M, rho_after, (0, 3, 4, 1, 2))],
        # mu(3,4)rho(1,2) = mu(3,4)mu(2,1) - mu(3,4)mu(1,2)
        #   + rho(1,2)rho(3,4) - mu(2,{1,3,4}) + mu(1,{2,3,4})
        [(1, R, mu_after, (0, 1, 3, 4, 2)),
         (-1, M, mu_after, (1, 0, 3, 4, 2)),
         (1, M, mu_after, (0, 1, 3, 4, 2)),
         (-1, R, rho_after, (3, 4, 0, 1, 2)),
         (1, prod, mu_1, (0, 3, 1, 2, 4)),
         (-1, prod, mu_1, (3, 0, 1, 2, 4))],
    )


def _literal_prelie_rep_check(r: PreLieRep) -> CheckReport:
    """The four printed identities (see _prelie_rep_equations), as a loop
    over (x1, x2, x3, x4) in lex order that tries them in turn would report
    them: the witness is the lex-first tuple where one fails, the first of
    those that fail there, with its dense m x m sides, and ``checked`` is 4
    per tuple up to it (4 n**4 on a pass)."""
    n, m = r.base.dim, r.vdim
    eqs = _prelie_rep_equations(r)
    res = [_residual(terms) for terms in eqs]
    fails = [(min(rk)[:4], k) for k, rk in enumerate(res) if rk]
    if not fails:
        return CheckReport(True, 4 * n ** 4)
    at, k = min(fails)
    cols = [_at(eqs[k][:1], (*at, v)) for v in range(m)]
    left = tuple(tuple(col.get(l, ZERO) for col in cols) for l in range(m))
    right = tuple(tuple(x - res[k].get((*at, v), {}).get(l, ZERO)
                        for v, x in enumerate(row))
                  for l, row in enumerate(left))
    x1, x2, x3, x4 = at
    return CheckReport(False, 4 * (((x1 * n + x2) * n + x3) * n + x4 + 1),
                       Witness(f"prelie_rep_eq{k + 1}", at, left, right))


def check_prelie_rep(r: PreLieRep) -> CheckReport:
    """Two verdicts: operational (authoritative) and literal.

    The operational verdict builds the semidirect pre-Lie product and runs
    the pre-Lie checker on it.  The overall verdict is the operational one;
    a literal/operational disagreement is visible in the parts.
    """
    operational = check_prelie(semidirect_prelie(r))
    literal = _literal_prelie_rep_check(r)
    parts = (("operational", operational), ("literal", literal))
    return CheckReport(operational.passed,
                       operational.checked + literal.checked,
                       operational.witness, parts)


def subadjacent_family(r: PreLieRep) -> tuple:
    """rho - mu o tau + mu as a matrix family."""
    n = r.base.dim
    return tuple(tuple(r.rho[i][j] - r.mu[j][i] + r.mu[i][j] for j in range(n))
                 for i in range(n))


def subadjacent_rep(r: PreLieRep) -> Rep3:
    """The induced representation of the sub-adjacent algebra."""
    _require(check_prelie_rep(r), "invalid pre-Lie representation")
    return Rep3(subadjacent(r.base), r.vdim, subadjacent_family(r), r.B)


def dual_prelie_rep(r: PreLieRep) -> tuple:
    """((rho - mu tau + mu)*, -mu*) on the dual carrier, plus its verdict."""
    _require(check_prelie_rep(r), "invalid pre-Lie representation")
    n = r.base.dim
    sub = subadjacent_family(r)
    rho_new = tuple(tuple(-sub[i][j].transpose() for j in range(n))
                    for i in range(n))
    mu_new = tuple(tuple(r.mu[i][j].transpose() for j in range(n))
                   for i in range(n))
    dual = PreLieRep(r.base, r.vdim, rho_new, mu_new, r.B.transpose())
    return dual, check_prelie_rep(dual)
