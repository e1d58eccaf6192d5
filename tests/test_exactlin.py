"""Exact linear algebra against an independent sympy oracle and against
the dense routines it replaced (``oracles.py``), plus algebraic property
tests for Mat and Tensor4."""
import glob
import os
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie3 import (InputError, Mat, Tensor4, derivation_space, fileio,
                     mat_inverse, mat_rank, nilpotent_extension, rat, rat_str,
                     solve_linear)
from homlie3.exactlin import kernel_basis, linear_solver, rref
from homlie3.symplectic import _truncated_extension

import oracles
from conftest import (N4_DIAG, N4_NEG, a4, a4_cayley, corrupted_n4, n4,
                      nilp5, random_nilpotent)

F = Fraction


def random_mat(rng, r, c, lo=-5, hi=5):
    return Mat([[F(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(c)]
                for _ in range(r)])


def to_sympy(m: Mat):
    return sympy.Matrix([[sympy.Rational(v) for v in row]
                         for row in m.entries])


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat(-2) == F(-2)
    assert rat_str(F(5, 3)) == "5/3"
    assert rat_str(F(4)) == "4"
    with pytest.raises(InputError):
        rat("1.5e3x")
    with pytest.raises(InputError):
        rat(0.5)


def sparse_low_rank(rng, r, c, rank, density=0.4):
    """An r x c matrix of rank <= ``rank`` with mostly zero entries: a
    product of two sparse random factors."""
    if rank == 0:
        return Mat.zeros(r, c)
    cell = lambda: (F(rng.randint(-3, 3), rng.randint(1, 2))
                    if rng.random() < density else F(0))
    left = Mat([[cell() for _ in range(rank)] for _ in range(r)])
    right = Mat([[cell() for _ in range(c)] for _ in range(rank)])
    return left @ right


def sympy_canonical_kernel(sm) -> tuple:
    """The reduced echelon rows of sympy's nullspace."""
    null = sm.nullspace()
    if not null:
        return ()
    canon, _ = sympy.Matrix.hstack(*null).T.rref()
    return tuple(tuple(F(int(v.p), int(v.q)) for v in canon.row(i))
                 for i in range(canon.rows))


def sparse_square_cases(rng) -> list:
    """12 x 12 matrices: sparse products of rank at most 12, 11, 9 and 6,
    and a permuted upper-triangular invertible one."""
    cases = [sparse_low_rank(rng, 12, 12, rank, density=0.3)
             for rank in (12, 12, 12, 11, 9, 6)]
    perm = list(range(12))
    rng.shuffle(perm)
    cases.append(Mat([[F(rng.randint(1, 3)) if q == perm[p] else
                       F(rng.randint(-2, 2)) if q > perm[p] and rng.random() < 0.2
                       else F(0) for q in range(12)] for p in range(12)]))
    return cases


def test_rank_and_inverse_against_sympy():
    rng = random.Random(101)
    cases = [random_mat(rng, rng.randint(1, 6), rng.randint(1, 6))
             for _ in range(40)]
    for m in cases + sparse_square_cases(random.Random(505)):
        r, c = m.shape
        sm = to_sympy(m)
        assert mat_rank(m) == sm.rank()
        if r == c:
            inv = mat_inverse(m)
            if sm.det() == 0:
                assert inv is None
            else:
                assert inv is not None
                assert to_sympy(inv) == sm.inv()


def test_rref_matches_sympy():
    rng = random.Random(202)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = random_mat(rng, r, c)
        reduced, pivots = rref([list(row) for row in m.entries])
        s_reduced, s_pivots = to_sympy(m).rref()
        assert tuple(pivots) == tuple(s_pivots)
        assert to_sympy(Mat(reduced)) == s_reduced


def test_kernel_matches_sympy_nullspace():
    """The kernel basis is exactly the reduced echelon form of sympy's
    nullspace, on dense random and sparse rank-deficient matrices."""
    rng = random.Random(303)
    cases = [random_mat(rng, rng.randint(1, 5), rng.randint(1, 6))
             for _ in range(30)]
    for _ in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        cases.append(sparse_low_rank(rng, r, c, rng.randint(0, min(r, c))))
    for m in cases:
        r, c = m.shape
        ker = kernel_basis(m)
        sm = to_sympy(m)
        assert len(ker) == c - sm.rank()
        for v in ker:
            assert sm * sympy.Matrix([sympy.Rational(x) for x in v]) == \
                sympy.zeros(r, 1)
        assert ker == sympy_canonical_kernel(sm)


def sympy_particular(sm, b) -> tuple:
    """The solution read off sympy's rref of [m | b] with every free
    variable zero, or None when a pivot falls on b."""
    n = sm.cols
    reduced, pivots = sm.row_join(sympy.Matrix(b)).rref()
    if n in pivots:
        return None
    x = [F(0)] * n
    for r, p in enumerate(pivots):
        v = reduced[r, n]
        x[p] = F(int(v.p), int(v.q))
    return tuple(x)


def test_solve_linear_particular_solution_matches_sympy_on_singular_systems():
    """Rank-deficient systems: the particular solution sets every free
    variable to zero, and a right-hand side outside the column space is
    reported inconsistent."""
    rng = random.Random(414)
    seen = {True: 0, False: 0}
    for _ in range(40):
        r, c = rng.randint(2, 7), rng.randint(2, 7)
        m = sparse_low_rank(rng, r, c, rng.randint(1, min(r, c) - 1))
        sm = to_sympy(m)
        inside = m.apply([F(rng.randint(-3, 3)) for _ in range(c)])
        outside = [F(rng.randint(-3, 3)) for _ in range(r)]
        for b in (inside, outside):
            x = sympy_particular(sm, [sympy.Rational(v) for v in b])
            sol = solve_linear(m, b)
            assert sol.consistent is (x is not None)
            assert sol.particular == x
            assert sol.kernel == sympy_canonical_kernel(sm)
            seen[sol.consistent] += 1
    assert min(seen.values()) >= 10


# ------------------------------------------------ against the dense oracle

def fixture_algebras() -> list:
    files = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                          "fixtures", "*.alg")))
    loaded = []
    for path in files:
        try:
            loaded.append(fileio.load_algebra(path))
        except InputError:
            continue  # the deliberately broken fixtures
    return loaded + [n4(), n4(N4_DIAG), n4(N4_NEG), a4(), a4_cayley(), nilp5(),
                     corrupted_n4()]


@pytest.fixture(scope="module")
def derivation_corpus() -> list:
    """(algebra, form) pairs: every fixture algebra with no form and with
    the identity form; the N4 and N4diag extensions for steps 3-5; their
    doubles for steps 2-3 with and without the standard metric; seeded
    random nilpotent algebras."""
    cases = []
    for a in fixture_algebras():
        cases += [(a, None), (a, Mat.identity(a.dim))]
    for base in (n4(), n4(N4_DIAG)):
        cases += [(_truncated_extension(base, steps), None)
                  for steps in (3, 4, 5)]
        for steps in (2, 3):
            bundle, _ = nilpotent_extension(base, steps)
            cases += [(bundle.double, None),
                      (bundle.double, bundle.metric.matrix)]
    rng = random.Random(606)
    for gens, cdim, lam in ((4, 1, 1), (4, 2, 2), (5, 1, -1), (5, 2, F(1, 2))):
        a = random_nilpotent(rng, gens, cdim, lam)
        cases += [(a, None), (a, Mat.identity(a.dim))]
    return cases


def test_derivation_kernels_match_dense_oracle(derivation_corpus):
    """The sparse derivation system equals the dense one (up to dim 8, where
    the dense build is cheap), and the sparse kernel and
    ``derivation_space`` give the dense route's canonical basis byte for
    byte (the dense kernel of the system, as matrices and as rows)."""
    assert max(a.dim for a, _ in derivation_corpus) == 16
    for a, form in derivation_corpus:
        system = oracles.derivation_system(a, form)
        if a.dim <= 8:
            assert system == oracles.derivation_system_dense(a, form)
        dense_space = oracles.derivation_space_dense(a, form, system)
        assert derivation_space(a, form) == dense_space
        assert kernel_basis(system) == tuple(sum(d.entries, ())
                                             for d in dense_space)


def test_solves_and_inverses_match_dense_oracle(derivation_corpus):
    """Particular solutions (consistent and inconsistent right-hand sides)
    on the derivation systems up to dim 6, and inverses and ranks of their
    twists, forms and leading square blocks, as the dense rref route
    computes them."""
    rng = random.Random(707)
    seen = {True: 0, False: 0}
    for a, form in derivation_corpus:
        for m in (a.twist, form if form is not None else Mat.identity(a.dim)):
            assert mat_inverse(m) == oracles.mat_inverse_dense(m)
        if a.dim > 6:
            continue
        system = oracles.derivation_system(a, form)
        solve = linear_solver(system)
        cols = system.cols
        k = min(system.rows, cols)
        block = Mat([row[:k] for row in system.entries[:k]])
        assert mat_inverse(block) == oracles.mat_inverse_dense(block)
        assert mat_rank(system) == oracles.mat_rank_dense(system)
        for b in (system.apply([F(rng.randint(-2, 2)) for _ in range(cols)]),
                  [F(rng.randint(-2, 2)) for _ in range(system.rows)]):
            want = oracles.solve_linear_dense(system, b)
            got = solve_linear(system, b)
            assert (got.consistent, got.particular, got.kernel) == \
                (want.consistent, want.particular, want.kernel)
            assert solve(b) == want.particular
            seen[got.consistent] += 1
    assert min(seen.values()) >= 10


def test_solve_linear_consistent_and_inconsistent():
    rng = random.Random(404)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = random_mat(rng, r, c)
        x = [F(rng.randint(-4, 4)) for _ in range(c)]
        rhs = m.apply(x)
        sol = solve_linear(m, rhs)
        assert sol.consistent
        assert m.apply(sol.particular) == tuple(rhs)
    # x + y = 0 and x + y = 1 cannot both hold
    bad = solve_linear(Mat([[F(1), F(1)], [F(1), F(1)]]), [F(0), F(1)])
    assert not bad.consistent


small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def square_pair(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    mk = lambda: Mat([[draw(small_rats) for _ in range(n)] for _ in range(n)])
    return mk(), mk()


@settings(max_examples=60, deadline=None)
@given(square_pair())
def test_matmul_transpose_antihomomorphism(pair):
    a, b = pair
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


@settings(max_examples=60, deadline=None)
@given(square_pair())
def test_inverse_is_two_sided(pair):
    a, _ = pair
    inv = mat_inverse(a)
    if inv is not None:
        n = a.shape[0]
        assert a @ inv == Mat.identity(n)
        assert inv @ a == Mat.identity(n)


@settings(max_examples=60, deadline=None)
@given(square_pair())
def test_add_sub_neg(pair):
    a, b = pair
    assert (a + b) - b == a
    assert -(-a) == a
    assert a - a == Mat.zeros(*a.shape)


def matmul_cases(rng) -> list:
    """Seeded (a, b) pairs of rectangular shapes up to 12x12, dense and
    sparse, with zero rows of a and zero columns of b, and one product
    entry made to cancel to zero from nonzero terms."""
    cases = []
    for _ in range(60):
        r, k, c = (rng.randint(1, 12) for _ in range(3))
        density = rng.choice((0.1, 0.3, 1.0))
        draw = lambda: (F(rng.randint(-4, 4), rng.randint(1, 3))
                        if rng.random() < density else F(0))
        a = [[draw() for _ in range(k)] for _ in range(r)]
        b = [[draw() for _ in range(c)] for _ in range(k)]
        a[rng.randrange(r)] = [F(0)] * k
        zero_col = rng.randrange(c)
        for row in b:
            row[zero_col] = F(0)
        i, j = rng.randrange(r), rng.randrange(c)
        site = None
        if k >= 2 and j != zero_col:
            # a[i] . b[:, j] = 0 with two or more nonzero terms
            p, q = rng.sample(range(k), 2)
            a[i] = [F(0)] * k
            a[i][p], a[i][q] = F(rng.randint(1, 4)), F(rng.randint(1, 4), 3)
            b[p][j] = F(rng.randint(1, 4), 2)
            b[q][j] = -a[i][p] * b[p][j] / a[i][q]
            site = (i, j)
        cases.append((Mat(a), Mat(b), site))
    return cases


def test_matmul_matches_sympy():
    cancelled = 0
    for a, b, site in matmul_cases(random.Random(1212)):
        prod = a @ b
        expect = to_sympy(a) * to_sympy(b)
        assert prod.shape == expect.shape
        assert prod.entries == tuple(
            tuple(F(int(v.p), int(v.q)) for v in expect.row(i))
            for i in range(expect.rows))
        assert all(type(v) is F for row in prod.entries for v in row)
        if site is not None:
            assert prod[site[0]][site[1]] == 0
            cancelled += 1
    assert cancelled >= 20
    with pytest.raises(InputError, match="matmul shape mismatch"):
        Mat.identity(3) @ Mat.zeros(2, 3)


def test_block_diag_shapes_and_content():
    a = Mat([[F(1), F(2)], [F(3), F(4)]])
    b = Mat([[F(5)]])
    m = Mat.block_diag(a, b)
    assert m.shape == (3, 3)
    assert m.entries[0][:2] == (F(1), F(2))
    assert m.entries[2][2] == F(5)
    assert m.entries[0][2] == F(0)


def test_tensor4_accumulates_and_drops_zeros():
    t = Tensor4.from_entries((2, 2, 2, 2),
                             [(0, 0, 0, 0, F(1)), (0, 0, 0, 0, F(-1)),
                              (1, 1, 1, 1, F(2)), (1, 1, 1, 1, F(3))])
    assert t.get(0, 0, 0, 0) == F(0)
    assert t.get(1, 1, 1, 1) == F(5)
    assert dict(t.row(0, 0, 0)) == {}
    assert t.scale(F(2)).get(1, 1, 1, 1) == F(10)
    assert Tensor4.zero((2, 2, 2, 2)).is_zero()


def test_col_support():
    m = Mat([[F(0), F(1)], [F(0), F(2)]])
    sup = m.col_support()
    assert list(sup[0]) == []
    assert [(i, v) for i, v in sup[1]] == [(0, F(1)), (1, F(2))]
