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
    Algebra3, CheckReport, PreconditionError, Witness, _columns, _identity,
    _image, _permuted, _slot_outer, twist_slots,
)
from .reps import Rep3, _action_tensor, _rep_family, check_representation


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
        for fam, skew in ((self.rho, True), (self.mu, False)):
            if len(fam) != n or any(len(r) != n for r in fam):
                raise InputError("operator family must be dim x dim")
            for i in range(n):
                for j in range(n):
                    if fam[i][j].shape != (m, m):
                        raise InputError("operator shape mismatch")
                    if skew and fam[i][j] != -fam[j][i]:
                        raise InputError(f"rho not skew at ({i},{j})")
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
    rep = check_prelie(p)
    if not rep.passed:
        raise PreconditionError("invalid pre-Lie product", witness=rep.witness)
    return Algebra3(p.dim, subadjacent_tensor(p.product), p.twist,
                    label=f"{p.label}^C" if p.label else "subadjacent")


def check_o_operator(o: OOperator) -> CheckReport:
    """alpha o T = T o A, and T transports the cyclic action to the bracket."""
    rep_ok = check_representation(o.rep)
    if not rep_ok.passed:
        raise PreconditionError("underlying representation fails",
                                witness=rep_ok.witness)
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
    return twist_slots(_action_tensor(o.rep), {0: o.T, 1: o.T})


def induced_prelie_on_module(o: OOperator) -> PreLie3:
    """{u,v,w} = rho(Tu, Tv)w on the carrier, twist = A."""
    rep = check_o_operator(o)
    if not rep.passed:
        raise PreconditionError("not an O-operator", witness=rep.witness)
    m = o.rep.vdim
    entries = sorted((*key, l, v) for key, vec in _acted(o).items()
                     for l, v in vec.items())
    p = PreLie3(m, Tensor4.from_entries((m,) * 4, entries), o.rep.A,
                label="induced")
    rep2 = check_prelie(p)
    if not rep2.passed:
        raise PreconditionError("induced product fails the pre-Lie identities",
                                witness=rep2.witness)
    return p


def compatible_prelie(a: Algebra3, o: OOperator) -> PreLie3:
    """{x,y,z} = T rho(x,y) T^{-1} z for an invertible O-operator on a."""
    tinv = mat_inverse(o.T)
    if tinv is None:
        raise PreconditionError("T is singular")
    rep = check_o_operator(o)
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


def _literal_prelie_rep_check(r: PreLieRep) -> CheckReport:
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
            acc = acc + mu[m][x4].scale(f)
        return acc

    def mu_second(tensor, x, i, j, k) -> Mat:
        acc = Mat.zeros(r.vdim, r.vdim)
        for m, f in tensor.row(i, j, k).items():
            acc = acc + mu[x][m].scale(f)
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
                                          tuple(lhs.entries), tuple(rhs.entries))
                        break
                    # (ii) mu([1,2,3]_C,4) = rho(1,2)mu(3,4) + rho(2,3)mu(1,4)
                    #      + rho(3,1)mu(2,4)
                    lhs = mu_bracket(cc, x1, x2, x3, x4)
                    rhs = (rho[x1][x2] @ mu[x3][x4] + rho[x2][x3] @ mu[x1][x4]
                           + rho[x3][x1] @ mu[x2][x4])
                    if lhs != rhs:
                        witness = Witness("prelie_rep_eq2", (x1, x2, x3, x4),
                                          tuple(lhs.entries), tuple(rhs.entries))
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
                                          tuple(lhs.entries), tuple(rhs.entries))
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
                                          tuple(lhs.entries), tuple(rhs.entries))
                        break
    return CheckReport(witness is None, checked, witness)


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
    rep = check_prelie_rep(r)
    if not rep.passed:
        raise PreconditionError("invalid pre-Lie representation",
                                witness=rep.witness)
    return Rep3(subadjacent(r.base), r.vdim, subadjacent_family(r), r.B)


def dual_prelie_rep(r: PreLieRep) -> tuple:
    """((rho - mu tau + mu)*, -mu*) on the dual carrier, plus its verdict."""
    rep = check_prelie_rep(r)
    if not rep.passed:
        raise PreconditionError("invalid pre-Lie representation",
                                witness=rep.witness)
    n = r.base.dim
    sub = subadjacent_family(r)
    rho_new = tuple(tuple(-sub[i][j].transpose() for j in range(n))
                    for i in range(n))
    mu_new = tuple(tuple(r.mu[i][j].transpose() for j in range(n))
                   for i in range(n))
    dual = PreLieRep(r.base, r.vdim, rho_new, mu_new, r.B.transpose())
    return dual, check_prelie_rep(dual)
