"""Exact linear algebra against an independent sympy oracle and against
the dense routines it replaced (``oracles.py``), plus algebraic property
tests for Mat and Tensor4."""
import collections
import fractions
import glob
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie3 import (InputError, Mat, PreconditionError, Tensor4,
                     check_algebra, check_metric, check_symplectic,
                     derivation_space, exactlin, fileio, is_derivation,
                     mat_inverse, mat_rank, nilpotent_extension, rat,
                     rat_str)
from homlie3.exactlin import _gauss_jordan, dense, sparse_kernel
from homlie3.symplectic import _truncated_extension, is_metric_derivation

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


# "-" then ASCII digits is read by int(); the rest by Fraction, which
# accepts signs, spaces, leading zeros, decimals, exponents, underscores and
# non-ASCII digits, and refuses "1/0", "", "--3" and "1/-2"; rat also
# refuses an exponent of 4300 (the int-digit limit) or more
RAT_STRINGS = ("3", "-0", "+3", " 3 ", "03", "6/2", "1.5", "1e2", "1/0", "",
               "--3", "\u0663", "-", "1/-2", "1_0", "\u00b2", "0x1", "-7/14",
               "3\n", "-12/3", "9" * 5000, "1e4299", "1E-4_299", "1e4300",
               "0e-4300 ")


def assert_rat_is_fraction(s):
    """rat(s) equals Fraction(s), an int when integral, and raises
    InputError exactly when Fraction(s) raises or the exponent that
    Fraction reads in s is at least the int-digit limit."""
    exp = fractions._RATIONAL_FORMAT.match(s)
    try:
        want = F(s)
        if exp and exp["exp"] and (abs(int(exp["exp"]))
                                   >= sys.get_int_max_str_digits()):
            want = None
    except (ValueError, ZeroDivisionError):
        want = None
    if want is None:
        with pytest.raises(InputError):
            rat(s)
        return
    got = rat(s)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else F)


@pytest.mark.parametrize("s", RAT_STRINGS,
                         ids=lambda s: repr(s) if len(s) < 9 else f"{len(s)} chars")
def test_rat_strings_match_fraction(s):
    assert_rat_is_fraction(s)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789-+/ ._e\u0663\n", max_size=8))
def test_rat_random_strings_match_fraction(s):
    assert_rat_is_fraction(s)


def test_rat_types_after_the_string_test():
    """``rat`` tests for a string before the slower Fraction check; a str
    subclass is still a string, an integral Fraction still an int, and a
    bool still refused."""
    class Text(str):
        pass

    got = rat(Text("3/4"))
    assert got == F(3, 4) and type(got) is F
    got = rat(F(6, 3))
    assert got == 2 and type(got) is int
    with pytest.raises(InputError, match="type bool"):
        rat(True)


def test_rat_values_are_int_when_integral():
    assert [type(rat(v)) for v in (3, F(6, 2), F(1, 2), "4", "4/3")] \
        == [int, int, F, int, F]
    # a JSON boolean is not a number, although bool subclasses int
    for v in (True, False):
        with pytest.raises(InputError, match="type bool"):
            rat(v)
    bundle, _ = nilpotent_extension(n4(), 5)
    values = [v for a in (bundle.extension, bundle.double)
              for *_, v in a.bracket.items()]
    for m in (bundle.extension.twist, bundle.double.twist, bundle.derivation,
              bundle.double_derivation, bundle.metric.matrix,
              bundle.omega.matrix):
        values += [v for row in m.entries for v in row]
    assert values and {type(v) for v in values} == {int}


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


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def rational_low_rank(rng, r, c, rank, scale=1):
    """An r x c matrix of rank at most ``rank``: a product of two int
    factors with entries up to about 3 * ``scale`` in size, its row i
    divided by PRIMES[i] and its column j by PRIMES[r + j], so that each
    entry is divided by its own pair of primes."""
    k = max(rank, 1)
    left = Mat([[rng.randint(-3, 3) * scale if rank else 0 for _ in range(k)]
                for _ in range(r)])
    right = Mat([[rng.randint(-3, 3) * scale + rng.randint(-9, 9)
                  for _ in range(c)] for _ in range(k)])
    return Mat([[F(v, PRIMES[i] * PRIMES[r + j]) for j, v in enumerate(row)]
                for i, row in enumerate((left @ right).entries)])


def large_cases(rng) -> list:
    """Matrices with entries of about 10**20: random ones, ones with a row
    that is a combination of two others, and a rational one."""
    big = 10 ** 20
    out = []
    for n in (3, 5, 8):
        rows = [[rng.randint(-big, big) for _ in range(n)] for _ in range(n)]
        out.append(Mat(rows))
        rows = [list(r) for r in rows]
        rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
        out.append(Mat(rows))
    out.append(Mat([[F(rng.randint(-big, big), rng.randint(1, 10 ** 6))
                     for _ in range(4)] for _ in range(4)]))
    return out


def test_rank_and_inverse_against_sympy():
    """Rank and inverse against sympy on small dense and 12 x 12 sparse
    matrices, on rank-deficient rational ones whose entries are each
    divided by their own pair of primes, and on entries of about 10**20."""
    rng = random.Random(101)
    cases = [random_mat(rng, rng.randint(1, 6), rng.randint(1, 6))
             for _ in range(40)]
    cases += [rational_low_rank(rng, r, c, rank)
              for r, c, rank in ((5, 5, 3), (6, 6, 5), (4, 7, 2), (7, 4, 3),
                                 (6, 6, 0), (8, 8, 6))]
    cases += [rational_low_rank(rng, 6, 6, rank, scale=10 ** 20)
              for rank in (4, 6)]
    cases += large_cases(rng)
    deficient = 0
    for m in cases + sparse_square_cases(random.Random(505)):
        r, c = m.shape
        sm = to_sympy(m)
        assert mat_rank(m) == sm.rank()
        deficient += sm.rank() < min(r, c)
        if r == c:
            inv = mat_inverse(m)
            if sm.det() == 0:
                assert inv is None
            else:
                assert inv is not None
                assert to_sympy(inv) == sm.inv()
    assert deficient >= 10


def test_rank_makes_no_fraction_arithmetic():
    """``mat_rank`` of a rational matrix eliminates on lifted ints: it makes
    no ``Fraction`` addition, subtraction, multiplication or division."""
    rng = random.Random(606)
    for m in (rational_low_rank(rng, 6, 6, 4), rational_low_rank(rng, 5, 7, 5),
              random_mat(rng, 6, 6), large_cases(rng)[-1]):
        assert m.den > 1
        fresh = Mat(m.entries)
        rank, calls = oracles.fraction_ops(lambda: mat_rank(fresh))
        assert rank == to_sympy(m).rank()
        assert calls == []


def test_rref_matches_sympy():
    """The pivot rows of the sparse Gauss-Jordan routine, in column order
    and padded with zero rows, are sympy's reduced row echelon form."""
    rng = random.Random(202)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = random_mat(rng, r, c)
        piv = _gauss_jordan(m.nonzeros)
        pivots = sorted(piv)
        reduced = [dense(piv[p], c) for p in pivots]
        reduced += [(0,) * c] * (r - len(pivots))
        s_reduced, s_pivots = to_sympy(m).rref()
        assert tuple(pivots) == tuple(s_pivots)
        assert to_sympy(Mat(reduced)) == s_reduced


def test_kernel_matches_sympy_nullspace():
    """The kernel basis is exactly the reduced echelon form of sympy's
    nullspace, on dense random and sparse rank-deficient matrices, the
    latter also at ranks strictly between 0 and both sides."""
    rng = random.Random(303)
    cases = [random_mat(rng, rng.randint(1, 5), rng.randint(1, 6))
             for _ in range(30)]
    for _ in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        cases.append(sparse_low_rank(rng, r, c, rng.randint(0, min(r, c))))
    rng = random.Random(414)
    for _ in range(40):
        r, c = rng.randint(2, 7), rng.randint(2, 7)
        cases.append(sparse_low_rank(rng, r, c, rng.randint(1, min(r, c) - 1)))
    for m in cases:
        r, c = m.shape
        ker = oracles.sparse_kernel_rows(m)
        sm = to_sympy(m)
        assert len(ker) == c - sm.rank()
        for v in ker:
            assert sm * sympy.Matrix([sympy.Rational(x) for x in v]) == \
                sympy.zeros(r, 1)
        assert ker == sympy_canonical_kernel(sm)


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
    """On the skew brackets, the sparse derivation system equals the dense
    one (up to dim 8, where the dense build is cheap), and the sparse
    kernel and ``derivation_space`` give the dense route's canonical basis
    byte for byte (the dense kernel of the system, as matrices and as
    rows), each of whose matrices passes ``is_derivation``. Both systems
    impose Leibniz at i < j < k only, so ``derivation_space`` refuses the
    non-skew corrupted N4 with its skew witness."""
    assert max(a.dim for a, _ in derivation_corpus) == 16
    refused = 0
    for a, form in derivation_corpus:
        if not a._skew.passed:
            with pytest.raises(PreconditionError) as err:
                derivation_space(a, form)
            assert err.value.witness == a._skew.witness
            refused += 1
            continue
        system = oracles.derivation_system(a, form)
        if a.dim <= 8:
            assert system == oracles.derivation_system_dense(a, form)
        dense_space = oracles.derivation_space_dense(a, form, system)
        assert derivation_space(a, form) == dense_space
        assert oracles.sparse_kernel_rows(system) == \
            tuple(sum(d.entries, ()) for d in dense_space)
        assert all(is_derivation(a, d) is None for d in dense_space), a.label
    assert refused == 2


def test_solves_and_inverses_match_dense_oracle(derivation_corpus):
    """Kernels of the derivation systems up to dim 6, and inverses and ranks
    of their twists, forms and leading square blocks, as the dense rref
    route computes them."""
    for a, form in derivation_corpus:
        for m in (a.twist, form if form is not None else Mat.identity(a.dim)):
            assert mat_inverse(m) == oracles.mat_inverse_dense(m)
        if a.dim > 6:
            continue
        system = oracles.derivation_system(a, form)
        k = min(system.rows, system.cols)
        block = Mat([row[:k] for row in system.entries[:k]])
        assert mat_inverse(block) == oracles.mat_inverse_dense(block)
        assert mat_rank(system) == oracles.mat_rank_dense(system)
        assert oracles.sparse_kernel_rows(system) == \
            oracles.kernel_basis_dense(system)


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


def integral(m: Mat) -> Mat:
    """m times the lcm of its denominators: a matrix of ints."""
    d = math.lcm(*(v.denominator for row in m.entries for v in row))
    return Mat([[v * d for v in row] for row in m.entries])


def test_matmul_matches_sympy():
    """Products equal sympy's, every entry is an int or a Fraction, and a
    product of matrices of ints is a matrix of ints, so integral data never
    falls back to Fraction."""
    cancelled = 0
    for a, b, site in matmul_cases(random.Random(1212)):
        for x, y in ((a, b), (integral(a), integral(b))):
            prod = x @ y
            expect = to_sympy(x) * to_sympy(y)
            assert prod.shape == expect.shape
            assert prod.entries == tuple(
                tuple(F(int(v.p), int(v.q)) for v in expect.row(i))
                for i in range(expect.rows))
            types = {type(v) for m in (x, y, prod) for row in m.entries
                     for v in row}
            assert types <= {int, F}
            if x is not a:
                assert types == {int}
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


def sparse_mats(rng, count: int) -> list:
    """Seeded matrices up to 6x6, sparse and dense, of ints and Fractions,
    half of them with a zero row and a zero column, and count // 4 sparse
    invertible ones."""
    out = []
    for _ in range(count):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.15, 0.4, 1.0))
        rows = [[rng.choice((rng.randint(-3, 3), F(rng.randint(-3, 3), 2)))
                 if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)]
        if rng.random() < 0.5:
            rows[rng.randrange(r)] = [0] * c
            zero_col = rng.randrange(c)
            for row in rows:
                row[zero_col] = 0
        out.append(Mat(rows))
    for _ in range(count // 4):  # sparse and invertible: P (D + U)
        n = rng.randint(1, 6)
        rows = [[0 if j < i or rng.random() < 0.7 else rng.randint(-2, 2)
                 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice((1, -1, 3, F(1, 2)))
        rng.shuffle(rows)
        out.append(Mat(rows))
    return out


def dense_nonzeros(m: Mat) -> tuple:
    return tuple(tuple((j, v) for j, v in enumerate(row) if v)
                 for row in m.entries)


def views(m: Mat) -> list:
    """Copies of m that hold its dense rows only, its rows and its nonzero
    view, and its nonzero view only."""
    formed = Mat._of(m.entries)
    assert formed.nonzeros == dense_nonzeros(m)
    return [Mat._of(m.entries), formed, Mat._sparse(dense_nonzeros(m), m.cols)]


def test_nonzero_view_agrees_with_dense_definitions():
    """Every Mat operation that reads or forms the nonzero view gives the
    dense definition's entries, and every view it forms is the nonzero
    pairs of those entries, whether its operands hold their dense rows,
    their views or both: products, sums, negation, transpose, diag,
    block_diag, column supports, rank, kernel, inverse and matrix
    documents."""
    rng = random.Random(2207)
    mats = sparse_mats(rng, 60)
    checked, seen = 0, collections.Counter()
    for a in mats:
        b = rng.choice([m for m in mats if m.rows == a.cols] or [a.transpose()])
        same = Mat([[rng.choice((0, 0, 1, F(-2, 3))) for _ in range(a.cols)]
                    for _ in range(a.rows)])
        for x in views(a):
            for y in views(b):
                # the expected entries read a, b and same, so that a copy
                # that holds only its view keeps it up to its first sum
                want = [[sum((a[i][k] * b[k][j] for k in range(a.cols)), 0)
                         for j in range(b.cols)] for i in range(a.rows)]
                got = [x @ y, Mat.block_diag(x, y)]
                assert got[0] == Mat(want)
                corner = [[0] * b.cols for _ in range(a.rows)]
                lower = [[0] * a.cols for _ in range(b.rows)]
                assert got[1] == Mat([list(r) + z for r, z in zip(a, corner)]
                                     + [z + list(r) for z, r in zip(lower, b)])
                got += [-x, x.transpose()]
                assert got[-2] == Mat([[-v for v in r] for r in a])
                assert got[-1] == Mat(list(zip(*a.entries)))
                for z in views(same):
                    got += [x + z, x - z]
                    assert got[-2] == Mat([[p + q for p, q in zip(r, t)]
                                           for r, t in zip(a, same)])
                    assert got[-1] == Mat([[p - q for p, q in zip(r, t)]
                                           for r, t in zip(a, same)])
                for m in got:
                    assert m.nonzeros == dense_nonzeros(m)
                    checked += 1
            assert x.col_support() == [
                [(i, x[i][j]) for i in range(x.rows) if x[i][j]]
                for j in range(x.cols)]
            assert fileio._matrix_doc(x) == [[rat_str(v) for v in row]
                                             for row in x.entries]
            assert mat_rank(x) == oracles.mat_rank_dense(x)
            kernel = oracles.kernel_basis_dense(x)
            assert tuple(dense(v, x.cols) for v in sparse_kernel(
                x.nonzeros, x.cols)) == kernel
            seen["kernel" if kernel else "no kernel"] += 1
            if x.rows == x.cols:
                assert mat_inverse(x) == oracles.mat_inverse_dense(x)
                seen["invertible"] += mat_rank(x) == x.rows
    d = Mat.diag([0, F(1, 2), 3])
    assert d.nonzeros == dense_nonzeros(d) == ((), ((1, F(1, 2)),), ((2, 3),))
    assert checked > 1000 and min(seen.values()) >= 10, seen


def test_sparse_built_mats_equal_and_hash_as_their_dense_twins():
    """A Mat built from nonzero rows (a product, a negation, block_diag,
    diag, and a sum and a difference of operands that hold only their
    views) holds no dense rows until they are read, equals its dense twins
    (``Mat(...)`` of the same values, and ``Mat._of`` rows that hold an
    integral Fraction where it holds an int) on either side of ``==``
    without forming them, and hashes as they do, with the same entries. A
    copy with an extra zero column or one changed entry differs."""
    x = Mat([[F(1, 2), 0, 3], [0, 0, 0], [F(4, 3), -1, 0]])
    y = Mat([[4, 0], [0, 0], [F(1, 3), 0]])
    assert x.nonzeros  # formed, so that -x holds only its view
    xs = Mat._sparse(x.nonzeros, 3)
    zs = Mat._sparse([[(0, F(1, 2))], [], [(0, F(-1, 3)), (1, 1)]], 3)
    cases = {  # each with its dense rows; 1/2 * 4 + 3 * 1/3 = 3 is integral
        "product": (lambda: x @ y, [[3, 0], [0, 0], [F(16, 3), 0]]),
        "negation": (lambda: -x,
                     [[F(-1, 2), 0, -3], [0, 0, 0], [F(-4, 3), 1, 0]]),
        "block_diag": (lambda: Mat.block_diag(y, x),
                       [[4, 0, 0, 0, 0], [0, 0, 0, 0, 0], [F(1, 3), 0, 0, 0, 0],
                        [0, 0, F(1, 2), 0, 3], [0, 0, 0, 0, 0],
                        [0, 0, F(4, 3), -1, 0]]),
        "diag": (lambda: Mat.diag([F(6, 3), 0, F(-1, 2)]),
                 [[2, 0, 0], [0, 0, 0], [0, 0, F(-1, 2)]]),
        # 1/2 + 1/2 = 1 is integral and -1 + 1 = 0 drops out
        "sum": (lambda: xs + zs, [[1, 0, 3], [0, 0, 0], [1, 0, 0]]),
        "difference": (lambda: xs - zs,
                       [[0, 0, 3], [0, 0, 0], [F(5, 3), -2, 0]]),
    }
    for name, (build, rows) in cases.items():
        assert any(not any(r) for r in rows), name  # an all-zero row
        fraction_rows = [[F(v) if type(v) is int and v else v for v in r]
                         for r in rows]
        for twin in (Mat(rows), Mat._of(fraction_rows)):
            m = build()
            assert m._entries is None, name
            assert m == twin and twin == m and not m != twin, name
            assert m._entries is None, name
            assert hash(m) == hash(twin), name
            assert m.entries == twin.entries, name
            assert m == twin and twin == m, name  # now both hold rows
            assert m.nonzeros == dense_nonzeros(twin), name
        assert any(type(v) is F and v.denominator == 1
                   for r in fraction_rows for v in r), name
        wider = Mat([list(r) + [0] for r in rows])
        changed = Mat([[rows[0][0] + 1, *rows[0][1:]], *rows[1:]])
        for other in (wider, changed):
            m = build()
            assert m != other and other != m, name
        assert build() != rows
    assert xs._entries is None and zs._entries is None


def test_tensor4_accumulates_and_drops_zeros():
    t = Tensor4.from_entries((2, 2, 2, 2),
                             [(0, 0, 0, 0, F(1)), (0, 0, 0, 0, F(-1)),
                              (1, 1, 1, 1, F(2)), (1, 1, 1, 1, F(3))])
    assert t.get(0, 0, 0, 0) == F(0)
    assert t.get(1, 1, 1, 1) == F(5)
    assert dict(t.row(0, 0, 0)) == {}
    assert t.scale(F(2)).get(1, 1, 1, 1) == F(10)
    assert not dict(Tensor4.zero((2, 2, 2, 2)).rows())


def test_col_support():
    m = Mat([[F(0), F(1)], [F(0), F(2)]])
    sup = m.col_support()
    assert list(sup[0]) == []
    assert [(i, v) for i, v in sup[1]] == [(0, F(1)), (1, F(2))]


def count_calls(func, action):
    """(action(), the number of calls of the Python function func it made),
    counted by code object, so that a name imported into another module
    is counted too."""
    code, calls = func.__code__, []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        out = action()
    finally:
        sys.setprofile(outer)
    return out, len(calls)


def test_values_are_parsed_once_and_nondegeneracy_needs_no_inverse(tmp_path):
    """Loading the dim-48 N4 double calls ``rat`` at most once per value in
    its file (each bracket row's value and each distinct twist string),
    ``derivation_space`` of the dim-16 extension never (its rows come from
    values already parsed), and the symplectic, metric, metric-derivation
    and regular-twist checks decide nondegeneracy by rank, with no
    ``mat_inverse``. Building a result through ``Mat(...)``, or a tensor
    through ``Tensor4(...)`` after ``from_entries``, fails this."""
    bundle, _ = nilpotent_extension(n4(), 7)
    path = str(tmp_path / "double.alg")
    fileio.dump(fileio.algebra_to_doc(bundle.double), path)
    with open(path) as fh:
        doc = json.load(fh)
    values = len(doc["bracket"]) + len(set().union(*doc["twist"]))
    double, calls = count_calls(exactlin.rat, lambda: fileio.load_algebra(path))
    assert double == bundle.double and 0 < calls <= values
    ext = nilpotent_extension(n4(), 5)[0].extension
    basis, calls = count_calls(exactlin.rat, lambda: derivation_space(ext))
    assert ext.dim == 16 and basis and calls == 0
    metric = bundle.metric
    for check in (lambda: check_symplectic(double, bundle.omega),
                  lambda: check_metric(double, metric),
                  lambda: is_metric_derivation(double, metric,
                                               bundle.double_derivation),
                  lambda: check_algebra(double, regular=True)):
        report, calls = count_calls(exactlin.mat_inverse, check)
        assert report.passed and calls == 0


_VALUES = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    st.sampled_from(["0", "2", "-1", "1/2", "-3/4", "6/3"]))
_ENTRIES = st.lists(st.tuples(*[st.integers(0, 2)] * 4, _VALUES), max_size=30)


def int_when_integral(values) -> bool:
    return all(type(v) is int or v.denominator != 1 for v in values)


def tensor_values(t: Tensor4) -> list:
    return [v for *_, v in t.items()]


@settings(max_examples=100, deadline=None)
@given(_ENTRIES, st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4),
                                    st.integers(1, 4), st.integers(1, 4),
                                    st.sampled_from(["0", "3", "-1/2", "4/2"])),
                          max_size=8))
def test_trusted_tensors_equal_validated_ones(entries, rows):
    """A tensor from ``from_entries`` or the algebra loader equals the one
    ``Tensor4(...)`` builds by parsing every value of the same rows, and
    holds ints when integral."""
    acc: dict = {}
    for i, j, k, l, v in entries:
        vec = acc.setdefault((i, j, k), {})
        vec[l] = vec.get(l, 0) + F(v)
    t = Tensor4.from_entries((3,) * 4, entries)
    want = Tensor4((3,) * 4, acc)
    assert t == want and dict(t.rows()) == dict(want.rows())
    assert int_when_integral(tensor_values(t))
    # the loader skew-completes rows [i, j, k, l, value] with i < j < k
    upper = {}
    for i, j, k, l, v in rows:
        if len({i, j, k}) == 3:
            upper[(*sorted((i, j, k)), l)] = v
    doc = {"dim": 4, "twist": [["1" if p == q else "0" for q in range(4)]
                               for p in range(4)],
           "bracket": [[*key, v] for key, v in upper.items()]}
    acc = {}
    for (i, j, k, l), v in upper.items():
        src = (i - 1, j - 1, k - 1)
        for perm in itertools.permutations(range(3)):
            sign = -1 if sum(perm[a] > perm[b] for a in range(3)
                             for b in range(a + 1, 3)) % 2 else 1
            key = tuple(src[p] for p in perm)
            acc.setdefault(key, {})[l - 1] = sign * F(v)
    loaded = fileio.algebra_from_doc(doc).bracket
    assert loaded == Tensor4((4,) * 4, acc)
    assert int_when_integral(tensor_values(loaded))


def test_trusted_constructors_keep_their_errors():
    """Out-of-range indices, a JSON ``true`` value and an empty matrix shape
    raise InputError with the messages of the validating constructors."""
    dims = (2, 2, 2, 2)
    for entry, message in (((0, 0, 2, 0, 1), "tensor index (0, 0, 2) out of range (2, 2, 2, 2)"),
                           ((0, 0, 1, 5, 1), "tensor index l=5 out of range (2, 2, 2, 2)"),
                           ((0, -1, 0, 0, 0), "tensor index (0, -1, 0) out of range (2, 2, 2, 2)")):
        for build in (lambda: Tensor4.from_entries(dims, [entry]),
                      lambda: Tensor4(dims, {entry[:3]: {entry[3]: entry[4]}})):
            with pytest.raises(InputError) as e:
                build()
            assert str(e.value) == message
    with pytest.raises(InputError, match=r"^bad tensor dims \[2, 2\]$"):
        Tensor4.from_entries([2, 2], [])
    ident = [["1" if p == q else "0" for q in range(3)] for p in range(3)]
    for doc, message in (
            ({"bracket": [[1, 2, 3, 1, True]], "twist": ident},
             "<inline>: bracket[1]: bad rational True (type bool)"),
            ({"bracket": [], "twist": [["1", "0", "0"], ["0", True, "0"],
                                       ["0", "0", "1"]]},
             "<inline>: twist: bad rational True (type bool)")):
        with pytest.raises(InputError) as e:
            fileio.algebra_from_doc({"dim": 3, **doc})
        assert str(e.value) == message
    for build in (lambda: Mat.identity(0), lambda: Mat.zeros(0, 2),
                  lambda: Mat.zeros(2, 0), lambda: Mat.diag([]),
                  lambda: Mat([])):
        with pytest.raises(InputError,
                           match="^matrix must have positive dimensions$"):
            build()


def test_inverses_and_derivations_hold_ints_when_integral():
    """``mat_inverse`` and ``derivation_space`` build their results without
    ``rat``; every integral value in them is still an int, including those
    that elimination reaches as a Fraction (1/2 * 2)."""
    rng = random.Random(20190322)
    mats = [random_mat(rng, 4, 4) for _ in range(20)]
    mats += [Mat([[2, 1], [1, 1]]), Mat([[F(1, 2), 0], [0, 2]]),
             Mat.diag([2, F(1, 3), -1])]
    inverses = [inv for inv in map(mat_inverse, mats) if inv is not None]
    assert len(inverses) > 15
    assert any(type(v) is int and v not in (0, 1, -1)
               for inv in inverses for row in inv.entries for v in row)
    for inv in inverses:
        assert int_when_integral(v for row in inv.entries for v in row)
    for a in (n4(), n4(N4_DIAG), a4(), a4_cayley(), nilp5()):
        for d in derivation_space(a):
            assert int_when_integral(v for row in d.entries for v in row)


def test_sums_and_products_hold_ints_when_integral():
    """A product or sum of matrices with Fraction entries holds an int
    wherever its value is integral, as 1/2 * 2 is; the Cayley rotation
    (I - S)(I + S)^-1 is such a product. Each matrix's ``den`` is the lcm
    of its denominators, and ``lifted()`` has int entries equal to den
    times its own."""
    half = Mat([[F(1, 2), 0], [0, 2]]) @ Mat([[2, 0], [0, F(1, 2)]])
    assert [type(v) for row in half.entries for v in row] == [int] * 4
    rng = random.Random(20190324)
    values = (0, 1, -1, 2, 3, F(1, 2), F(-1, 3), F(3, 2), F(2, 3), F(1, 6))
    pick = lambda: rng.choice(values)
    for _ in range(200):
        n = rng.randint(1, 4)
        a, b = (Mat([[pick() for _ in range(n)] for _ in range(n)])
                for _ in range(2))
        for m in (a @ b, a + b, a - b):
            assert int_when_integral(v for row in m.entries for v in row)
            den = math.lcm(*(F(v).denominator for row in m.entries
                             for v in row))
            assert m.den == den
            lifted = m.lifted()
            assert all(type(v) is int and v == den * w
                       for row, wrow in zip(lifted.entries, m.entries)
                       for v, w in zip(row, wrow))
            assert lifted is m or den != 1
