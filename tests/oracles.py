"""Reference implementations kept as test oracles.

``check_representation_dense`` is the literal dense checker that the sparse
kernel in ``homlie3.reps`` replaced: every identity is evaluated as ``Mat``
products on every basis tuple, in lex order, stopping at the first failure.
The sparse kernel must reproduce its reports byte for byte.
"""
from homlie3.exactlin import Mat, ONE, ZERO
from homlie3.homlie import CheckReport, Witness
from homlie3.reps import Rep3


def _twisted_family(rep: Rep3, left: bool, right: bool) -> list:
    """Family rho(alpha^?x, alpha^?y) as an n x n table of matrices."""
    n, A = rep.base.dim, rep.base.twist
    out = [[None] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            acc = Mat.zeros(rep.vdim, rep.vdim)
            for a in range(n):
                fa = A.entries[a][u] if left else (ONE if a == u else ZERO)
                if not fa:
                    continue
                for b in range(n):
                    fb = A.entries[b][v] if right else (ONE if b == v else ZERO)
                    if fa * fb:
                        acc = acc + rep.rho[a][b].scale(fa * fb)
            out[u][v] = acc
    return out


def check_representation_dense(r: Rep3) -> CheckReport:
    """Exhaustive check of the three representation identities."""
    n, c, A = r.base.dim, r.base.bracket, r.base.twist
    B = r.A
    tw = _twisted_family(r, True, True)     # rho(a(u), a(v))
    half2 = _twisted_family(r, False, True)  # rho(u, a(v))
    half1 = _twisted_family(r, True, False)  # rho(a(u), v)
    parts = []

    checked = 0
    witness = None
    for u in range(n):
        if witness:
            break
        for v in range(n):
            checked += 1
            lhs = tw[u][v] @ B
            rhs = B @ r.rho[u][v]
            if lhs != rhs:
                witness = Witness("rep_intertwine", (u, v),
                                  tuple(lhs.entries), tuple(rhs.entries))
                break
    parts.append(("intertwine", CheckReport(witness is None, checked, witness)))

    def rho_bracket_half2(x, y, z, u):
        # rho([x,y,z], a(u)) o B
        acc = Mat.zeros(r.vdim, r.vdim)
        for m, f in c.row(x, y, z).items():
            acc = acc + half2[m][u].scale(f)
        return acc @ B

    checked = 0
    witness = None
    for x in range(n):
        if witness:
            break
        for y in range(n):
            if witness:
                break
            for z in range(n):
                if witness:
                    break
                for u in range(n):
                    checked += 1
                    lhs = rho_bracket_half2(x, y, z, u)
                    rhs = (tw[y][z] @ r.rho[x][u] + tw[z][x] @ r.rho[y][u]
                           + tw[x][y] @ r.rho[z][u])
                    if lhs != rhs:
                        witness = Witness("rep_action", (x, y, z, u),
                                          tuple(lhs.entries), tuple(rhs.entries))
                        break
    parts.append(("action", CheckReport(witness is None, checked, witness)))

    def rho_half1_bracket(z, x, y, u):
        # rho(a(z), [x,y,u]) o B
        acc = Mat.zeros(r.vdim, r.vdim)
        for m, f in c.row(x, y, u).items():
            acc = acc + half1[z][m].scale(f)
        return acc @ B

    checked = 0
    witness = None
    for x in range(n):
        if witness:
            break
        for y in range(n):
            if witness:
                break
            for z in range(n):
                if witness:
                    break
                for u in range(n):
                    checked += 1
                    lhs = tw[x][y] @ r.rho[z][u]
                    rhs = (tw[z][u] @ r.rho[x][y]
                           + rho_bracket_half2(x, y, z, u)
                           + rho_half1_bracket(z, x, y, u))
                    if lhs != rhs:
                        witness = Witness("rep_exchange", (x, y, z, u),
                                          tuple(lhs.entries), tuple(rhs.entries))
                        break
    parts.append(("exchange", CheckReport(witness is None, checked, witness)))
    return CheckReport.combine(parts)
