"""CHYBE solutions, coboundary cobrackets, the residual identity, and the
invertible-solution/closed-form biconditional."""
from fractions import Fraction

import pytest

from homlie3 import (Algebra3, BilForm, Mat, PreconditionError, RTensor,
                     check_chybe, check_double_construction,
                     coboundary_cobracket, cocycle_form_check, mat_inverse,
                     triple_bracket, verify_residual)
from homlie3.yangbaxter import alpha_invariance, closed_form_check, form_from_r

from conftest import (N4_DIAG, N4_NEG, chybe_solution_on_n4, n4, n4_omega,
                      nilp5, random_nilpotent, random_skew_mat)
from oracles import mat_scale

F = Fraction


def test_zero_r_is_a_solution():
    r = RTensor(n4(), Mat.zeros(4, 4))
    assert check_chybe(r).passed
    assert triple_bracket(r) == {}


def test_abelian_algebra_any_skew_r_is_a_solution(rng):
    a = Algebra3.abelian(4)
    r = RTensor(a, random_skew_mat(rng, 4))
    assert check_chybe(r).passed


def test_null_support_solutions(rng):
    for drop in (0, 1, 2):
        r = chybe_solution_on_n4(rng, drop)
        rep = check_chybe(r)
        assert rep.passed
        for name in ("skew", "alpha_invariance", "triple_bracket"):
            assert rep.part(name).passed, name


def test_non_solution_fails_with_lex_min_witness():
    # every skew r on N4 happens to solve the equation (the single bracket
    # value is central), so the genuine non-solution lives in dim 5
    ones = Mat([[F(0) if i == j else (F(1) if i < j else F(-1))
                 for j in range(5)] for i in range(5)])
    r = RTensor(nilp5(), ones)
    rep = check_chybe(r)
    assert not rep.passed
    w = rep.part("triple_bracket").witness
    assert w is not None
    assert w.at == min(triple_bracket(r))


def test_all_skew_r_on_n4_are_solutions(rng):
    for _ in range(10):
        assert check_chybe(RTensor(n4(), random_skew_mat(rng, 4))).passed


def test_triple_bracket_cubic_homogeneity(rng):
    r = RTensor(n4(), random_skew_mat(rng, 4))
    t = triple_bracket(r)
    scaled = triple_bracket(RTensor(n4(), mat_scale(r.entries, F(5))))
    assert scaled == {k: F(125) * v for k, v in t.items()}


def test_alpha_invariance_scaling_twist_forces_zero(rng):
    # with twist diag(2,2,2,8) no nonzero skew r is invariant: no pair of
    # eigenvalues multiplies to 1
    for _ in range(5):
        m = random_skew_mat(rng, 4)
        if m == Mat.zeros(4, 4):
            continue
        assert not alpha_invariance(RTensor(n4(N4_DIAG), m)).passed
    assert alpha_invariance(RTensor(n4(N4_DIAG), Mat.zeros(4, 4))).passed


def test_neg_twist_invariance_always_holds(rng):
    r = RTensor(n4(N4_NEG), random_skew_mat(rng, 4))
    assert alpha_invariance(r).passed


def test_non_skew_r_fails():
    m = Mat([[F(0), F(1), F(0), F(0)], [F(1), F(0), F(0), F(0)],
             [F(0), F(0), F(0), F(0)], [F(0), F(0), F(0), F(0)]])
    assert not check_chybe(RTensor(n4(), m)).passed


def test_coboundary_cobracket_of_solution_is_bialgebra(rng):
    r = chybe_solution_on_n4(rng, drop=0)
    c, rep = coboundary_cobracket(r)
    assert rep.passed
    assert rep.part("dual_bracket_formula").passed
    assert check_double_construction(c).passed


def test_residual_identity_randomized_suite(rng):
    # both sides of the residual identity computed on independent code
    # paths, 100 randomized skew invariant r over dims <= 5
    count = 0
    while count < 100:
        kind = count % 4
        if kind == 0:
            a = n4()
            m = random_skew_mat(rng, 4)
        elif kind == 1:
            a = n4(N4_NEG)
            m = random_skew_mat(rng, 4)
        elif kind == 2:
            a = random_nilpotent(rng, 3, 2, 1, label="nilp5")
            m = random_skew_mat(rng, 5)
        else:
            a = random_nilpotent(rng, 4, 1, -1, label="nilp5neg")
            # sign-graded twist: invariance needs even total degree
            m = random_skew_mat(rng, 5, support=[0, 1, 2, 3])
        r = RTensor(a, m)
        assert alpha_invariance(r).passed, count
        assert verify_residual(r).passed, count
        count += 1


def test_cocycle_form_check_requires_regular_base():
    a = n4(Mat.diag([F(0)] * 4))
    with pytest.raises(PreconditionError):
        cocycle_form_check(RTensor(a, Mat.zeros(4, 4)))


def test_form_from_r_is_inverse_matrix():
    w = n4_omega()
    r = RTensor(n4(), mat_inverse(w))
    f = form_from_r(r)
    assert f.kind == "skew"
    assert f.matrix == w


def test_closed_form_check_on_symplectic_form():
    a = n4()
    f = BilForm(4, n4_omega(), "skew")
    assert closed_form_check(a, f).passed


def test_cocycle_form_biconditional_suite(rng):
    # >= 20 invertible skew invariant r mixing solutions and non-solutions;
    # the CHYBE verdict and the closed-form verdict must agree every time.
    # Invertible skew matrices need even dimension and every skew r on N4
    # is a solution, so the mixed family lives on a dim-6 algebra.
    from conftest import invertible_chybe_solution
    a = random_nilpotent(rng, 4, 2, 1, label="nilp6")
    cases = [RTensor(n4(), mat_inverse(n4_omega())),
             RTensor(n4(), mat_scale(mat_inverse(n4_omega()), F(-3, 2)))]
    for _ in range(4):
        cases.append(invertible_chybe_solution(rng, a))
    while len(cases) < 24:
        m = random_skew_mat(rng, 6)
        if mat_inverse(m) is not None:
            cases.append(RTensor(a, m))
    verdicts = set()
    for k, r in enumerate(cases):
        rep = cocycle_form_check(r)
        assert rep.passed, k  # overall verdict is the agreement itself
        assert rep.part("chybe").passed == rep.part("closed_form").passed
        verdicts.add(rep.part("chybe").passed)
    assert verdicts == {True, False}  # the mix really mixed


def test_cocycle_form_check_rejects_singular_r():
    with pytest.raises(PreconditionError):
        cocycle_form_check(RTensor(n4(), Mat.zeros(4, 4)))
