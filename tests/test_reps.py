"""Representations, duals, coadjoint actions, and semidirect sums."""
import os
import random
from fractions import Fraction

import pytest

from homlie3 import (Algebra3, InputError, Mat, PreconditionError, Rep3,
                     Tensor4, adjoint_rep, check_algebra,
                     check_representation, coadjoint_rep,
                     dual_representation, fileio, rep_from_upper,
                     semidirect_sum)
from homlie3.cli import report_doc

from conftest import (N4_DIAG, N4_NEG, a4, a4_cayley, n4, random_nilpotent,
                      rank1_rep, skew_tensor)
from oracles import (base_projection, check_representation_dense,
                     semidirect_sum_dense)

F = Fraction


@pytest.mark.parametrize("twist", [Mat.identity(4), N4_DIAG, N4_NEG])
def test_adjoint_is_a_representation(twist):
    rep = adjoint_rep(n4(twist))
    r = check_representation(rep)
    assert r.passed
    for name in ("intertwine", "action", "exchange"):
        assert r.part(name).passed, name


def test_zero_rep_passes():
    a = n4()
    rep = rep_from_upper(a, 3, {}, Mat.identity(3))
    assert check_representation(rep).passed


def test_coadjoint_passes_for_pairing_orthogonal_twists():
    for twist in (Mat.identity(4), N4_NEG):
        assert check_representation(coadjoint_rep(n4(twist))).passed


def test_naive_coadjoint_fails_for_scaling_twist():
    # the literal dual twist transpose(A) breaks intertwining when
    # transpose(A) @ A != identity; recorded as a real verdict, not hidden
    r = check_representation(coadjoint_rep(n4(N4_DIAG)))
    assert not r.passed
    assert not r.part("intertwine").passed


def test_dual_representation_reports_verdict():
    dual, verdict = dual_representation(adjoint_rep(n4()))
    assert verdict.passed
    assert dual.A == Mat.identity(4)
    assert check_representation(dual).passed


def test_rho_skew_completion():
    a = n4()
    m = Mat([[F(0), F(1), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(0)]])
    rep = rep_from_upper(a, 3, {(0, 1): m}, Mat.identity(3))
    assert rep.rho[1][0] == -m
    assert rep.rho[0][0].is_zero()


def test_semidirect_of_adjoint_passes_and_projects(rng):
    for _ in range(5):
        a = random_nilpotent(rng, 3, 1, rng.choice([1, -1]))
        total = semidirect_sum(a, adjoint_rep(a))
        assert check_algebra(total).passed
        assert base_projection(total, a.dim) == a.bracket


def test_semidirect_randomized_suite(rng):
    # 50 valid (algebra, representation) pairs: adjoint, coadjoint, and
    # rank-one nilpotent actions over sign-graded twists
    count = 0
    while count < 50:
        gens = rng.choice([3, 4])
        cdim = rng.choice([1, 2])
        lam = rng.choice([1, -1])
        a = random_nilpotent(rng, gens, cdim, lam)
        kind = count % 3
        if kind == 0:
            rep = adjoint_rep(a)
        elif kind == 1:
            rep = coadjoint_rep(a)
        else:
            rep = rank1_rep(rng, a, gens, m=3)
        total = semidirect_sum(a, rep)
        assert check_algebra(total).passed, (count, kind)
        assert base_projection(total, a.dim) == a.bracket
        count += 1


def test_semidirect_rejects_invalid_rep(rng):
    a = n4()
    mk = lambda: Mat([[F(rng.randint(-2, 2)) for _ in range(3)]
                      for _ in range(3)])
    rep = rep_from_upper(a, 3, {(0, 1): mk(), (0, 3): mk(), (1, 3): mk(),
                                (2, 3): mk()}, Mat.identity(3))
    r = check_representation(rep)
    if r.passed:
        pytest.skip("random family happened to be a representation")
    with pytest.raises(PreconditionError):
        semidirect_sum(a, rep)


def test_rep_shape_validation():
    with pytest.raises(Exception):
        Rep3(n4(), 3, ((Mat.identity(2),) * 4,) * 4, Mat.identity(3))


def test_rep_skew_validation_names_the_first_pair():
    """The first pair (i, j) in row-major order at which rho(i, j) is not
    -rho(j, i) or has the wrong shape is named."""
    rho = adjoint_rep(a4()).rho
    unit = Mat([[F(int(p == 1 and q == 2)) for q in range(4)] for p in range(4)])

    def family(changes):
        fam = [list(row) for row in rho]
        for (i, j), m in changes.items():
            fam[i][j] = m
        return tuple(map(tuple, fam))

    def message(changes):
        with pytest.raises(InputError) as err:
            Rep3(a4(), 4, family(changes), Mat.identity(4))
        return str(err.value)

    # only rho(3, 1) changes: (1, 3) is the first pair that sees it
    assert message({(3, 1): rho[3][1] + unit}) == "rho not skew at (1,3)"
    assert message({(3, 1): rho[3][1] + unit, (2, 2): unit}) == \
        "rho not skew at (1,3)"
    assert message({(2, 2): unit}) == "rho not skew at (2,2)"
    # a wrong shape below the diagonal makes the pair above it not skew
    assert message({(2, 0): Mat.identity(3)}) == "rho not skew at (0,2)"
    assert message({(0, 2): Mat.identity(3)}) == "rho(0,2) shape (3, 3)"
    Rep3(a4(), 4, family({(1, 3): rho[1][3] + unit, (3, 1): rho[3][1] - unit}),
         Mat.identity(4))


def test_semidirect_sum_matches_dense_oracle():
    """semidirect_sum, built from the action tensor, equals the sum read
    from the dense operator family, in bracket, twist and label."""
    reps = [build(base) for base in (n4(), a4(), a4_cayley())
            for build in (adjoint_rep, coadjoint_rep)]
    reps.append(fileio.load_rep(os.path.join(os.path.dirname(__file__),
                                             "fixtures", "coadjoint.rep")))
    for r in reps:
        new = semidirect_sum(r.base, r, check=False)
        old = semidirect_sum_dense(r.base, r)
        assert (new.bracket, new.twist, new.label) == \
            (old.bracket, old.twist, old.label)
        assert not new.bracket.is_zero()


def _mutant(rep, i, j, p, q, d):
    """rho(i, j)[p][q] += d, with rho(j, i) kept skew."""
    rho = [list(row) for row in rep.rho]
    m = [list(row) for row in rep.rho[i][j].entries]
    m[p][q] += d
    rho[i][j] = Mat(m)
    rho[j][i] = -rho[i][j]
    return Rep3(rep.base, rep.vdim, tuple(map(tuple, rho)), rep.A)


def _oracle_corpus():
    # N4 with its basis reversed ([e2,e3,e4] = e1) keeps rho(e1, -) zero, so
    # a mutant of rho(e3, e4) first fails well inside the enumeration.
    n4_rev = Algebra3(4, skew_tensor(4, {(1, 2, 3): {0: 1}}), Mat.identity(4),
                      "n4-reversed")
    bases = [(f"{name}.{kind}", build(alg))
             for name, alg in (("n4", n4()), ("a4", a4()), ("a4t", a4_cayley()))
             for kind, build in (("ad", adjoint_rep), ("coad", coadjoint_rep))]
    rng = random.Random(20190310)
    corpus = list(bases)
    for key, rep in bases:
        for _ in range(3):
            i, j = sorted(rng.sample(range(4), 2))
            site = (i, j, rng.randrange(4), rng.randrange(4))
            d = rng.choice((F(1), F(-1), F(2), F(1, 2)))
            corpus.append((f"{key}~{site}+{d}", _mutant(rep, *site, d)))
    late = _mutant(adjoint_rep(n4_rev), 2, 3, 2, 3, F(1))
    corpus.append(("n4-reversed.ad~(2, 3, 2, 3)+1", late))
    corpus.append(("nonskew", _nonskew_rep()))
    return corpus


def _nonskew_rep():
    """rho(e1, e2) = E12 on a 2-dim carrier over a base whose one bracket
    row, [e2, e1, e3] = e1, is not skew. Every product of two operators
    vanishes, so action and exchange fail only where the bracket enters,
    at tuples with x > y."""
    base = Algebra3(3, Tensor4.from_entries((3,) * 4, [(1, 0, 2, 0, 1)]),
                    Mat.identity(3), "nonskew")
    return rep_from_upper(base, 2, {(0, 1): Mat([[0, 1], [0, 0]])},
                          Mat.identity(2))


def test_sparse_checker_matches_dense_oracle():
    failed_parts = set()
    late_exit = False
    for key, rep in _oracle_corpus():
        new = check_representation(rep)
        old = check_representation_dense(rep)
        assert fileio.dumps(report_doc(new)) == fileio.dumps(report_doc(old)), key
        failed = [(name, part) for name, part in old.parts if not part.passed]
        failed_parts.update(name for name, _ in failed)
        if failed and failed[0][1].checked > rep.base.dim ** 3:
            late_exit = True
    # the corpus fails every part, and once past the first quarter of a part
    assert failed_parts == {"intertwine", "action", "exchange"}
    assert late_exit
    # a scan that took the base bracket to be skew would pass both
    r = check_representation(_nonskew_rep())
    assert [r.part(p).witness.at for p in ("action", "exchange")] == \
        [(1, 0, 2, 1), (1, 0, 1, 2)]
