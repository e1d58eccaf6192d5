"""Matched pairs, Manin triples, double constructions, and their agreement."""
from fractions import Fraction

import pytest

from homlie3 import (Algebra3, BilForm, Cobracket, Mat, MatchedPairData,
                     PreconditionError, Tensor4, adjoint_rep,
                     assemble_matched_pair, check_algebra,
                     check_double_construction, check_invariance,
                     check_matched_pair, coboundary_cobracket, dual_algebra,
                     equivalence_suite, manin_bracket, standard_form)
from homlie3.bialgebra import standard_manin_reps
from homlie3.exactlin import InputError
from homlie3.reps import rep_from_upper

import oracles
from conftest import (N4_NEG, chybe_solution_on_n4, n4, random_nilpotent,
                      skew_tensor)

F = Fraction


def zero_cobracket(a):
    return Cobracket(a, Tensor4.zero((a.dim,) * 4))


def test_bilform_kind_validation():
    with pytest.raises(InputError):
        BilForm(2, Mat([[F(0), F(1)], [F(1), F(0)]]), "skew")
    f = BilForm(2, Mat([[F(0), F(1)], [F(-1), F(0)]]), "skew")
    assert oracles.form_value(f, [F(1), F(0)], [F(0), F(1)]) == F(1)


def test_dual_algebra_of_zero_cobracket_is_abelian():
    d = dual_algebra(zero_cobracket(n4()))
    assert d.bracket == Tensor4.zero((4,) * 4)
    assert d.twist == Mat.identity(4)


def test_standard_form_and_invariance_example():
    a = n4()
    c = zero_cobracket(a)
    total, rep = manin_bracket(c)
    assert rep.passed
    assert total.dim == 8
    # the natural pairing really is invariant: ([x,y,z], a(u)) pairs
    # [e1,e2,e3] = e4 against e4* and cancels the mirrored term
    assert rep.part("invariance").passed
    assert rep.part("isotropy").passed
    assert rep.part("projection").passed


def test_invariance_witnesses_failure():
    # the identity form is not invariant for N4
    bad = BilForm(4, Mat.identity(4), "symmetric")
    r = check_invariance(n4(), bad)
    assert not r.passed
    assert r.witness is not None


def test_matched_pair_trivial_action_is_direct_sum(rng):
    a = random_nilpotent(rng, 3, 1, 1)
    b = Algebra3.abelian(2)
    zero_rho = rep_from_upper(a, 2, {}, Mat.identity(2))
    zero_mu = rep_from_upper(b, a.dim, {}, Mat.identity(a.dim))
    m = MatchedPairData(a, b, zero_rho, zero_mu)
    r = check_matched_pair(m)
    assert r.passed
    total = assemble_matched_pair(m)
    assert check_algebra(total).passed
    assert total.dim == a.dim + b.dim


def test_matched_pair_rejects_invalid_action(rng):
    a = n4()
    b = Algebra3.abelian(4)
    mk = lambda: Mat([[F(rng.randint(-2, 2)) for _ in range(4)]
                      for _ in range(4)])
    rho = rep_from_upper(a, 4, {(0, 1): mk(), (0, 3): mk(), (1, 3): mk(),
                                (2, 3): mk()}, Mat.identity(4))
    mu = rep_from_upper(b, 4, {}, Mat.identity(4))
    with pytest.raises(PreconditionError):
        check_matched_pair(MatchedPairData(a, b, rho, mu))


def test_double_construction_zero_cobracket_passes():
    r = check_double_construction(zero_cobracket(n4()))
    assert r.passed
    for name in ("eq_2_10", "eq_2_11", "eq_2_12"):
        assert r.part(name).passed, name


def test_coboundary_cobracket_satisfies_double_axioms(rng):
    r = chybe_solution_on_n4(rng, drop=2)
    c, rep = coboundary_cobracket(r)
    assert rep.passed
    assert check_double_construction(c).passed


def corrupted_cobracket(a):
    """A skew dual bracket that is not a valid cobracket for a."""
    return Cobracket(a, skew_tensor(a.dim, {(0, 1, 2): {0: 1}}))


@pytest.mark.parametrize("twist_name,twist",
                         [("id", None), ("neg", N4_NEG)])
def test_equivalence_agreement_on_fixture_family(rng, twist_name, twist):
    # zero cobrackets, coboundary cobrackets from CHYBE solutions, and
    # corrupted variants: the three verdicts must agree in every case
    cases = [zero_cobracket(n4(twist)), corrupted_cobracket(n4(twist))]
    for drop in (0, 1, 2):
        for _ in range(3):
            r = chybe_solution_on_n4(rng, drop, twist)
            c, _ = coboundary_cobracket(r)
            cases.append(c)
    assert len(cases) >= 11
    for k, c in enumerate(cases):
        res = equivalence_suite(c)
        assert res.passed, (twist_name, k)


def test_equivalence_corrupted_fails_everywhere():
    res = equivalence_suite(corrupted_cobracket(n4()))
    assert res.passed
    assert not res.part("double_construction").passed
    assert not res.part("manin_triple").passed
    assert not res.part("matched_pair").passed


def test_equivalence_passing_case_passes_everywhere(rng):
    c, _ = coboundary_cobracket(chybe_solution_on_n4(rng, drop=1))
    res = equivalence_suite(c)
    assert res.passed
    assert (res.part("double_construction").passed
            and res.part("manin_triple").passed
            and res.part("matched_pair").passed)


def test_scaling_twist_precondition_becomes_failed_verdict():
    # the literal dual twist breaks the coadjoint actions when the twist
    # does not preserve the pairing; the suite must still return three
    # comparable verdicts
    from conftest import N4_DIAG
    res = equivalence_suite(zero_cobracket(n4(N4_DIAG)))
    assert not res.part("matched_pair").passed


def test_standard_manin_reps_shapes():
    m = standard_manin_reps(zero_cobracket(n4()))
    assert m.rho.vdim == 4 and m.mu.vdim == 4
    assert m.left.dim == 4 and m.right.dim == 4


def test_standard_form_is_symmetric_nondegenerate():
    f = standard_form(3)
    assert f.kind == "symmetric"
    from homlie3 import mat_inverse
    assert mat_inverse(f.matrix) is not None
