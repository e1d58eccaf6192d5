"""Algebra checker, twist constructions, and derivation spaces."""
import glob
import os
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
import sympy

from homlie3 import (Algebra3, InputError, Mat, Tensor4, check_algebra,
                     composition_twist, derivation_space, fileio,
                     is_derivation, nilpotent_extension, yau_twist)
from homlie3.cli import report_doc
from homlie3.homlie import _skew_check, is_bracket_morphism
from homlie3.symplectic import _truncated_extension

from conftest import (N4_DIAG, N4_NEG, a4, a4_cayley, corrupted_n4,
                      graded_twist, n4, nilp5, random_nilpotent)
from oracles import derivation_system, skew_check_dense

F = Fraction


@pytest.mark.parametrize("twist", [Mat.identity(4), N4_DIAG, N4_NEG])
def test_n4_passes_all_parts(twist):
    rep = check_algebra(n4(twist), regular=True)
    assert rep.passed
    for name in ("skew", "hom_jacobi", "multiplicative", "regular"):
        assert rep.part(name).passed, name


def test_corrupted_n4_fails_with_lex_first_witness():
    rep = check_algebra(corrupted_n4())
    assert not rep.passed
    w = rep.part("skew").witness
    assert w is not None
    # first basis triple in lexicographic order whose row disagrees with
    # the sign-completed canonical row
    assert w.at == (0, 2, 1, 3)


def _plus(a, extra, label):
    """a with the entries (i, j, k, l, d) added to its bracket."""
    t = Tensor4.from_entries(a.bracket.dims, [*a.bracket.items(), *extra])
    return Algebra3(a.dim, t, a.twist, label)


def skew_mutants(a, rng):
    """Seeded single-site mutants of a skew algebra, one of each kind."""
    n, c, deltas = a.dim, a.bracket, (F(1), F(-1), F(2), F(1, 2))
    rows = sorted(t for t, _ in c.rows())
    i, j = rng.sample(range(n), 2)
    site = rng.choice([(i, i, j), (i, j, i), (j, i, i), (i, i, i)])
    out = [("repeated", [(*site, rng.randrange(n), rng.choice(deltas))])]
    # one entry of one permutation of a nonzero row, changed or erased
    t = rng.choice(rows)
    l = rng.choice(sorted(c.row(*t)))
    p = rng.choice(list(permutations(t)))
    out.append(("permuted", [(*p, l, rng.choice(deltas + (-c.get(*p, l),)))]))
    # a row at an unsorted permutation of a triple whose rows are all zero
    free = [t for t in combinations(range(n), 3)
            if not any(c.row(*q) for q in permutations(t))]
    if free:
        p = rng.choice(list(permutations(rng.choice(free)))[1:])
        out.append(("unsorted", [(*p, rng.randrange(n), rng.choice(deltas))]))
    # a mismatch past the first output index of a nonzero row
    early = [t for t in rows if min(c.row(*t)) < n - 1]
    if early:
        t = rng.choice(early)
        l = rng.randrange(min(c.row(*t)) + 1, n)
        p = rng.choice(list(permutations(t)))
        out.append(("later_l", [(*p, l, rng.choice(deltas))]))
    return [(kind, _plus(a, extra, f"{a.label}~{kind}{extra}"))
            for kind, extra in out]


def test_skew_sweep_matches_dense_oracle():
    """The sweep over nonzero rows gives the dense scan's report byte for
    byte: on every fixture algebra, on seeded mutants of each kind that
    breaks skewness, and on the dim-24 extension and dim-48 double."""
    corpus = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                              "fixtures", "*.alg"))):
        try:
            corpus.append(fileio.load_algebra(path))
        except InputError:
            continue  # the deliberately broken fixtures
    corpus += [n4(), n4(N4_DIAG), a4(), a4_cayley(), nilp5(), corrupted_n4()]
    rng = random.Random(909)
    kinds, late = set(), False
    for base in (n4(), a4(), a4_cayley(), nilp5(), _truncated_extension(n4(), 5)):
        for _ in range(4):
            for kind, mutant in skew_mutants(base, rng):
                old = skew_check_dense(mutant)
                assert not old.passed, mutant.label
                kinds.add(kind)
                late = late or old.checked > mutant.dim ** 3 // 2
                corpus.append(mutant)
    assert kinds == {"repeated", "permuted", "unsorted", "later_l"} and late
    corpus += [_truncated_extension(n4(), 7), nilpotent_extension(n4(), 7)[0].double]
    dump = lambda r: fileio.dumps(report_doc(r))
    for a in corpus:
        assert dump(_skew_check(a)) == dump(skew_check_dense(a)), a.label
    assert all(_skew_check(a).passed for a in corpus[-2:])


def test_abelian_passes():
    assert check_algebra(Algebra3.abelian(3)).passed


def test_non_multiplicative_twist_detected():
    rep = check_algebra(n4(Mat.diag([F(2), F(1), F(1), F(1)])))
    assert rep.part("skew").passed
    assert not rep.part("multiplicative").passed


def test_singular_twist_fails_regular_only():
    a = n4(Mat.diag([F(0)] * 4))
    rep = check_algebra(a, regular=True)
    assert rep.part("multiplicative").passed
    assert not rep.part("regular").passed
    assert check_algebra(a, regular=False).passed


def test_yau_and_composition_twist_randomized(rng):
    for trial in range(50):
        gens = rng.choice([3, 3, 4])
        cdim = rng.choice([1, 2])
        lam = rng.choice([1, -1, 2, F(1, 2)])
        a = random_nilpotent(rng, gens, cdim, lam)
        assert check_algebra(a).passed
        mu = rng.choice([1, -1, 2, 3, F(1, 3)])
        phi = graded_twist(gens, cdim, mu)
        assert is_bracket_morphism(a, phi) is None
        # yau_twist starts from an untwisted algebra
        base = random_nilpotent(rng, gens, cdim, 1)
        assert check_algebra(yau_twist(base, phi)).passed, trial
        assert check_algebra(composition_twist(a, phi)).passed, trial


def test_yau_twist_rejects_non_morphism():
    bad = Mat.diag([F(2), F(1), F(1), F(1)])
    with pytest.raises(Exception):
        yau_twist(n4(), bad)


def test_yau_twist_of_n4_by_diag_morphism():
    phi = Mat.diag([F(2), F(3), F(5), F(30)])
    t = yau_twist(n4(), phi)
    assert t.twist == phi
    assert t.bracket.get(0, 1, 2, 3) == F(30)
    assert check_algebra(t).passed


def test_derivation_space_dimension_matches_independent_oracle():
    a = n4()
    basis = derivation_space(a)
    # independent route: sympy nullspace of the constraint system
    sys_m = derivation_system(a)
    sm = sympy.Matrix([[sympy.Rational(v) for v in row]
                       for row in sys_m.entries])
    assert len(basis) == 16 - sm.rank()
    assert len(basis) == 12
    for d in basis:
        assert is_derivation(a, d) is None


def test_derivation_space_respects_twist_commutation():
    basis = derivation_space(n4(N4_DIAG))
    for d in basis:
        assert d @ N4_DIAG == N4_DIAG @ d


def test_derivation_space_at_the_size_limit():
    """N4[t]/t^7, the dim-24 extension (576 unknowns) that the dense route
    took about 20 s on: the canonical basis has the right size, is in
    reduced echelon form, and a seeded sample of it are derivations."""
    ext = _truncated_extension(n4(), 7)
    basis = derivation_space(ext)
    assert len(basis) == 279
    flat = [[v for row in d.entries for v in row] for d in basis]
    leads = [next(i for i, v in enumerate(x) if v) for x in flat]
    assert all(p < q for p, q in zip(leads, leads[1:]))
    for x, lead in zip(flat, leads):
        assert x[lead] == 1
        assert sum(1 for y in flat if y[lead]) == 1
    for d in random.Random(24).sample(basis, 10):
        assert is_derivation(ext, d) is None


def test_is_derivation_witnesses_failure():
    d = Mat.diag([F(1), F(0), F(0), F(0)])
    w = is_derivation(n4(), d)
    assert w is not None
    with pytest.raises(InputError):
        is_derivation(n4(), Mat.identity(3))


def test_random_derivations_leibniz(rng):
    for _ in range(10):
        a = random_nilpotent(rng, 3, 1, 1)
        for d in derivation_space(a):
            assert is_derivation(a, d) is None
