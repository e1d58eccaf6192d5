"""Shared fixtures: canonical small algebras and seeded random generators.

Random families are built so validity is guaranteed by construction
(2-step nilpotent brackets with graded scalar twists, annihilator-supported
pre-Lie products, r-tensors supported on null subalgebras), which lets the
theorem-test suites demand a 100% pass rate.
"""
import itertools
import random
from fractions import Fraction

import pytest

from homlie3 import (Algebra3, Mat, PreLie3, Rep3, RTensor, Tensor4,
                     mat_inverse, rep_from_upper, yau_twist)

F = Fraction
PERMS3 = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]


def skew_tensor(n, triples):
    """Build a totally skew Tensor4 from {(i,j,k): {l: coeff}} seeds."""
    entries = []
    for (i, j, k), row in triples.items():
        for l, v in row.items():
            for perm, sign in PERMS3:
                idx = (i, j, k)
                entries.append((idx[perm[0]], idx[perm[1]], idx[perm[2]], l,
                                sign * F(v)))
    return Tensor4.from_entries((n,) * 4, entries)


def n4(twist=None, label="n4"):
    """dim 4, [e1,e2,e3] = e4, arbitrary twist (default identity)."""
    c = skew_tensor(4, {(0, 1, 2): {3: 1}})
    return Algebra3(4, c, twist if twist is not None else Mat.identity(4),
                    label)


N4_DIAG = Mat.diag([F(2), F(2), F(2), F(8)])
N4_NEG = Mat.diag([F(-1)] * 4)


def a4():
    """Filippov's simple 3-Lie algebra: [e_i, e_j, e_k] = eps_ijkl e_l."""
    levi = []
    for p in itertools.permutations(range(4)):
        inv = sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4))
        levi.append((*p, F((-1) ** inv)))
    return Algebra3(4, Tensor4.from_entries((4,) * 4, levi), Mat.identity(4),
                    "a4")


# Skew S whose Cayley transform (I - S)(I + S)^-1 is a rational rotation,
# hence an automorphism of A4 and a non-diagonal orthogonal twist.
CAYLEY_S = Mat([[F(v) for v in row] for row in
                ((0, 1, 0, 2), (-1, 0, 1, 0), (0, -1, 0, 1), (-2, 0, -1, 0))])


def a4_cayley():
    """A4 Yau-twisted along the Cayley rotation of CAYLEY_S: a non-diagonal
    twist and 96 nonzero structure constants."""
    eye = Mat.identity(4)
    return yau_twist(a4(), (eye - CAYLEY_S) @ mat_inverse(eye + CAYLEY_S))


def nilp5():
    """dim 5, [e_i, e_j, e_k] = e5 for i < j < k <= 4: every skew r on N4
    solves the Yang-Baxter equation, so the non-solutions live here."""
    triples = {(0, 1, 2): {4: 1}, (0, 1, 3): {4: 1},
               (0, 2, 3): {4: 1}, (1, 2, 3): {4: 1}}
    return Algebra3(5, skew_tensor(5, triples), Mat.identity(5), "nilp5")


def corrupted_n4():
    """N4 with one flipped structure constant: breaks total skewness."""
    entries = [(i, j, k, l, v) for (i, j, k, l, v) in n4().bracket.items()]
    fixed = [(i, j, k, l, -v if (i, j, k) == (0, 1, 2) else v)
             for (i, j, k, l, v) in entries]
    return Algebra3(4, Tensor4.from_entries((4,) * 4, fixed),
                    Mat.identity(4), "n4-corrupt")


def rand_rat(rng, lo=-3, hi=3, den=2):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def graded_twist(gens, cdim, lam):
    """lambda on generators, lambda^3 on the centre: always multiplicative
    for 2-step nilpotent brackets supported on generators."""
    lam = F(lam)
    return Mat.diag([lam] * gens + [lam ** 3] * cdim)


def random_nilpotent(rng, gens=3, cdim=1, lam=1, label="rand-nilp"):
    """2-step nilpotent: [gens,gens,gens] in centre, centre annihilates."""
    n = gens + cdim
    triples = {}
    for i, j, k in itertools.combinations(range(gens), 3):
        row = {gens + c: rand_rat(rng) for c in range(cdim)}
        row = {l: v for l, v in row.items() if v}
        if row:
            triples[(i, j, k)] = row
    return Algebra3(n, skew_tensor(n, triples), graded_twist(gens, cdim, lam),
                    label)


def random_prelie(rng, gens=3, cdim=1, lam=1):
    """Products of generators land in an annihilator centre; every identity
    term then contains a product with a central argument and vanishes."""
    n = gens + cdim
    entries = []
    for i, j in itertools.combinations(range(gens), 2):
        for k in range(gens):
            for c in range(cdim):
                v = rand_rat(rng)
                if v:
                    entries.append((i, j, k, gens + c, v))
                    entries.append((j, i, k, gens + c, -v))
    return PreLie3(n, Tensor4.from_entries((n,) * 4, entries),
                   graded_twist(gens, cdim, lam), "rand-prelie")


def n4_prelie():
    """{e2,e3,e1} = e4 (and the skew pair); sub-adjacent bracket is N4."""
    entries = [(1, 2, 0, 3, F(1)), (2, 1, 0, 3, F(-1))]
    return PreLie3(4, Tensor4.from_entries((4,) * 4, entries),
                   Mat.identity(4), "n4-prelie")


def rank1_rep(rng, base, gens, m=3):
    """rho(i,j) = v_ij * phi^T with a shared kernel covector phi = e_m*:
    all products rho*rho vanish, so the representation axioms collapse
    to 0 = 0 once rho kills the centre (it is only set on generator pairs).
    Valid whenever the base twist squares to the identity on generators."""
    upper = {}
    for i, j in itertools.combinations(range(gens), 2):
        col = [rand_rat(rng) for _ in range(m - 1)] + [F(0)]
        rows = [[F(0)] * (m - 1) + [col[a]] for a in range(m)]
        upper[(i, j)] = Mat(rows)
    return rep_from_upper(base, m, upper, Mat.identity(m))


def random_skew_mat(rng, n, support=None, lo=-3, hi=3):
    """Random skew matrix, optionally supported on index set `support`."""
    rows = [[F(0)] * n for _ in range(n)]
    idx = sorted(support) if support is not None else range(n)
    for i, j in itertools.combinations(idx, 2):
        v = rand_rat(rng, lo, hi)
        rows[i][j] = v
        rows[j][i] = -v
    return Mat(rows)


def chybe_solution_on_n4(rng, drop, twist=None):
    """Skew r supported away from basis index `drop` (one of 0,1,2): the
    support spans a null subalgebra, so every [[r,r,r]] term vanishes."""
    support = [i for i in range(4) if i != drop]
    return RTensor(n4(twist), random_skew_mat(rng, 4, support))


def n4_omega():
    """Symplectic form on N4: w(e1,e4) = w(e2,e3) = 1."""
    return Mat([[F(0), F(0), F(0), F(1)], [F(0), F(0), F(1), F(0)],
                [F(0), F(-1), F(0), F(0)], [F(-1), F(0), F(0), F(0)]])


def symplectic_o_operator():
    """Invertible O-operator on the coadjoint carrier of N4 induced by the
    symplectic form above (the Prop 5.5 mechanism)."""
    from homlie3 import OOperator, coadjoint_rep, mat_inverse
    return OOperator(coadjoint_rep(n4()), mat_inverse(n4_omega()))


def symp_prelie():
    """Nontrivial compatible pre-Lie on N4 from the symplectic O-operator."""
    from homlie3 import compatible_prelie
    return compatible_prelie(symplectic_o_operator())


def closed_form_kernel(a):
    """Basis (as vectors over the i<j entries) of the space of skew forms
    satisfying the four-term closed-form identity — it is linear in B."""
    from homlie3.exactlin import ZERO
    from oracles import sparse_kernel_rows
    n = a.dim
    c, A = a.bracket, a.twist
    pairs = list(itertools.combinations(range(n), 2))

    def skew_from_vec(v):
        rows = [[F(0)] * n for _ in range(n)]
        for (i, j), val in zip(pairs, v):
            rows[i][j] = val
            rows[j][i] = -val
        return Mat(rows)

    def residues(B):
        def bw(row, w):
            s = ZERO
            for l, cv in row.items():
                for m in range(n):
                    s += cv * A.entries[m][l] * B.entries[m][w]
            return s
        out = []
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    for w in range(n):
                        out.append(bw(c.row(x, y, z), w)
                                   - bw(c.row(x, y, w), z)
                                   + bw(c.row(x, z, w), y)
                                   - bw(c.row(y, z, w), x))
        return out

    cols = []
    for p in range(len(pairs)):
        e = [F(0)] * len(pairs)
        e[p] = F(1)
        cols.append(residues(skew_from_vec(e)))
    system = Mat([[cols[p][q] for p in range(len(pairs))]
                  for q in range(len(cols[0]))])
    return pairs, skew_from_vec, sparse_kernel_rows(system)


def invertible_chybe_solution(rng, a):
    """An invertible skew CHYBE solution on `a` (identity twist), built as
    the inverse of a closed skew form sampled from the kernel above."""
    from homlie3 import mat_inverse
    pairs, skew_from_vec, ker = closed_form_kernel(a)
    for _ in range(300):
        v = [sum((F(rng.randint(-3, 3)) * kv[i] for kv in ker), F(0))
             for i in range(len(pairs))]
        B = skew_from_vec(v)
        inv = mat_inverse(B)
        if inv is not None:
            return RTensor(a, inv.transpose())
    raise RuntimeError("no invertible closed form found")


@pytest.fixture
def rng():
    return random.Random(20260826)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
