"""Pre-Lie structures, O-operators, sub-adjacent algebras, pre-Lie reps."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie3 import (InputError, Mat, OOperator, PreconditionError, PreLie3,
                     PreLieRep, Tensor4,
                     adjoint_rep, check_algebra, check_o_operator,
                     check_prelie, check_prelie_rep, coadjoint_rep,
                     compatible_prelie, dual_prelie_rep,
                     induced_prelie_on_module, semidirect_prelie, subadjacent,
                     subadjacent_rep)
from homlie3 import fileio
from homlie3.cli import report_doc
from homlie3.prelie import _pair_skew_check, subadjacent_tensor
from homlie3.reps import check_representation

from homlie3 import Algebra3

from conftest import (n4, n4_prelie, random_nilpotent, random_prelie,
                      symp_prelie, symplectic_o_operator)
from oracles import (apply, bracket_vec, column, mat_scale,
                     pair_skew_check_dense, regular_prelie_rep, unit_vec)

F = Fraction


def test_zero_product_passes_and_subadjacent_abelian():
    p = PreLie3(3, Tensor4.zero((3,) * 4), Mat.identity(3), "zero")
    assert check_prelie(p).passed
    sub = subadjacent(p)
    assert sub.bracket == Tensor4.zero((3,) * 4)
    assert check_algebra(sub).passed


def test_n4_prelie_passes_and_subadjacent_is_n4():
    p = n4_prelie()
    assert check_prelie(p).passed
    sub = subadjacent(p)
    assert sub.bracket == n4().bracket
    assert check_algebra(sub).passed


def test_symmetric_corruption_fails_pair_skewness():
    entries = [(0, 1, 0, 3, F(1)), (1, 0, 0, 3, F(1))]
    p = PreLie3(4, Tensor4.from_entries((4,) * 4, entries), Mat.identity(4))
    r = check_prelie(p)
    assert not r.passed
    w = r.part("skew_pair").witness
    assert w is not None and w.at[:2] in ((0, 1), (1, 0))


PAIR_VALUES = st.sampled_from((1, -1, 2, F(1, 2)))
PAIR_PLANTS = st.tuples(st.sampled_from(("repeated", "missing", "sign",
                                         "entry")),
                        st.sampled_from(("first", "middle", "last")))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_skew_sweep_matches_the_dense_scan(data):
    """The sweep over nonzero rows gives the dense scan's report (verdict,
    witness and ``checked``) on products of dim <= 5, skew in their first
    two slots, with failures planted at the first, a middle and the last
    pair: a nonzero row with i == j, a missing partner (j, i, k), a
    partner of the wrong sign and a wrong entry."""
    n = data.draw(st.integers(2, 5), "n")
    pairs = [(i, j, k) for i in range(n) for j in range(i + 1, n)
             for k in range(n)]
    rows = {}

    def seed(t):
        i, j, k = t
        row = data.draw(st.dictionaries(st.integers(0, n - 1), PAIR_VALUES,
                                        min_size=1, max_size=2))
        rows[t], rows[j, i, k] = row, {l: -v for l, v in row.items()}

    for t in data.draw(st.lists(st.sampled_from(pairs), max_size=3,
                                unique=True)):
        seed(t)
    for kind, where in data.draw(st.lists(PAIR_PLANTS, max_size=2)):
        if kind == "repeated":
            m = n // 2
            t = {"first": (0, 0, 0), "middle": (m, m, 0),
                 "last": (n - 1, n - 1, n - 1)}[where]
            rows[t] = {data.draw(st.integers(0, n - 1)): data.draw(PAIR_VALUES)}
            continue
        t = {"first": pairs[0], "last": pairs[-1]}.get(where) \
            or data.draw(st.sampled_from(pairs))
        if t not in rows:
            seed(t)
        i, j, k = t
        t = t if where == "first" else (j, i, k)
        row = rows.pop(t, {})
        if kind == "sign":
            rows[t] = {l: -v for l, v in row.items()}
        elif kind == "entry":
            rows[t] = {**row, data.draw(st.integers(0, n - 1)):
                       data.draw(PAIR_VALUES)}
    p = PreLie3(n, Tensor4((n,) * 4, rows), Mat.identity(n))
    new, old = _pair_skew_check(p), pair_skew_check_dense(p)
    assert new == old
    assert fileio.dumps(report_doc(new)) == fileio.dumps(report_doc(old))


def test_random_prelie_theorem_suite(rng):
    # Prop 3.4 theorem-test: sub-adjacent of every valid product is valid
    for _ in range(20):
        p = random_prelie(rng, rng.choice([3, 4]), rng.choice([1, 2]),
                          rng.choice([1, -1, 2]))
        assert check_prelie(p).passed
        assert check_algebra(subadjacent(p)).passed


def test_zero_o_operator_passes():
    o = OOperator(adjoint_rep(n4()), Mat.zeros(4, 4))
    assert check_o_operator(o).passed
    induced = induced_prelie_on_module(o)
    assert induced.product == Tensor4.zero((4,) * 4)


def test_identity_on_adjoint_matches_weight_zero_reading():
    # a weight-zero operator satisfies [Tu,Tv,Tw] = T(sum of three
    # two-T terms); for T = id that forces 3[u,v,w] = [u,v,w], so the
    # identity passes exactly when the bracket vanishes
    assert check_o_operator(
        OOperator(adjoint_rep(Algebra3.abelian(4)), Mat.identity(4))).passed
    r = check_o_operator(OOperator(adjoint_rep(n4()), Mat.identity(4)))
    assert not r.passed
    w = r.part("transport").witness
    assert w is not None and w.at == (0, 1, 2)


def test_symplectic_o_operator_passes_and_induces_prelie():
    o = symplectic_o_operator()
    assert check_o_operator(o).passed
    induced = induced_prelie_on_module(o)
    assert check_prelie(induced).passed
    # scalar multiples stay solutions (both sides are cubic in T)
    scaled = OOperator(o.rep, mat_scale(o.T, F(3)))
    assert check_o_operator(scaled).passed


def test_identity_on_coadjoint_fails_with_witness():
    o = OOperator(coadjoint_rep(n4()), Mat.identity(4))
    r = check_o_operator(o)
    assert not r.passed
    assert r.witness is not None


def test_twist_intertwining_required():
    a = n4(Mat.diag([F(-1)] * 4))
    rep = adjoint_rep(a)
    t = Mat.diag([F(1), F(1), F(1), F(2)])
    # alpha compose T = T compose A holds (both scalar twists commute),
    # so any failure comes from the bracket transport identity
    r = check_o_operator(OOperator(rep, t))
    assert not r.passed


def test_compatible_prelie_roundtrip():
    # Prop 3.7: invertible T gives a pre-Lie whose sub-adjacent bracket
    # recovers the original structure constants exactly
    a = n4()
    p = compatible_prelie(symplectic_o_operator())
    assert check_prelie(p).passed
    assert p.product != Tensor4.zero((4,) * 4)
    assert subadjacent(p).bracket == a.bracket
    assert subadjacent_tensor(p.product) == a.bracket


def test_compatible_prelie_rejects_singular_t():
    a = n4()
    with pytest.raises(PreconditionError):
        compatible_prelie(OOperator(adjoint_rep(a), Mat.zeros(4, 4)))


def test_induced_prelie_intertwines_subadjacent():
    # Prop 3.6: T[u,v,w]_C = [Tu,Tv,Tw] for every passing O-operator
    from homlie3.exactlin import dense
    base = symplectic_o_operator()
    for scale in (F(1), F(-2), F(1, 3)):
        a = base.rep.base
        o = OOperator(base.rep, mat_scale(base.T, scale))
        assert check_o_operator(o).passed
        induced = induced_prelie_on_module(o)
        assert check_prelie(induced).passed
        sub = subadjacent(induced)
        n = a.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = apply(o.T, dense(
                        bracket_vec(sub.bracket, unit_vec(n, i),
                                    unit_vec(n, j), unit_vec(n, k)), n))
                    rhs = dense(bracket_vec(
                        a.bracket, dict(enumerate(column(o.T, i))),
                        dict(enumerate(column(o.T, j))),
                        dict(enumerate(column(o.T, k)))), n)
                    assert tuple(lhs) == tuple(rhs)


def test_prelie_rep_zero_and_regular():
    p = n4_prelie()
    zero = regular_prelie_rep(PreLie3(4, Tensor4.zero((4,) * 4),
                                      Mat.identity(4)))
    rz = check_prelie_rep(zero)
    assert rz.passed
    reg = regular_prelie_rep(p)
    rr = check_prelie_rep(reg)
    assert rr.part("operational").passed
    # literal reading (with the minimal repair) agrees on regular actions
    assert rr.part("literal").passed
    assert rr.passed


def test_prelie_rep_corrupted_mu_fails():
    p = symp_prelie()
    reg = regular_prelie_rep(p)
    mu = tuple(tuple(-reg.mu[i][j] for j in range(4)) for i in range(4))
    from homlie3 import PreLieRep
    bad = PreLieRep(p, 4, reg.rho, mu, p.twist)
    r = check_prelie_rep(bad)
    assert not r.part("operational").passed
    assert r.part("operational").witness is not None


def test_prelie_rep_validation_names_the_first_pair():
    """rho must be skew, mu need not be; the first pair in row-major order
    at which rho(i, j) is not -rho(j, i), or an operator has the wrong
    shape, is named."""
    reg = regular_prelie_rep(symp_prelie())
    unit = Mat([[F(int(p == 1 and q == 2)) for q in range(4)] for p in range(4)])

    def changed(fam, changes):
        out = [list(row) for row in fam]
        for (i, j), m in changes.items():
            out[i][j] = m
        return tuple(map(tuple, out))

    def message(rho, mu):
        with pytest.raises(InputError) as err:
            PreLieRep(reg.base, 4, changed(reg.rho, rho), changed(reg.mu, mu),
                      reg.B)
        return str(err.value)

    assert message({(3, 1): reg.rho[3][1] + unit, (2, 2): unit}, {}) == \
        "rho not skew at (1,3)"
    assert message({(2, 2): unit}, {}) == "rho not skew at (2,2)"
    assert message({(2, 0): Mat.identity(3)}, {}) == "rho not skew at (0,2)"
    assert message({}, {(0, 2): Mat.identity(3)}) == "mu(0,2) shape (3, 3)"
    PreLieRep(reg.base, 4, reg.rho, changed(reg.mu, {(3, 1): unit}), reg.B)


def test_semidirect_prelie_passes(rng):
    for _ in range(5):
        p = random_prelie(rng, 3, 1, 1)
        reg = regular_prelie_rep(p)
        assert check_prelie(semidirect_prelie(reg)).passed


def test_subadjacent_rep_is_representation():
    p = n4_prelie()
    rep = subadjacent_rep(regular_prelie_rep(p))
    assert check_representation(rep).passed
    assert rep.base.bracket == n4().bracket


def test_cor_4_4_subadjacent_structure_constants_agree():
    # L x_{rho,mu} V and L x_{rho - mu tau + mu, 0} V have the same
    # sub-adjacent bracket
    from homlie3 import PreLieRep
    from homlie3.prelie import subadjacent_family
    p = n4_prelie()
    reg = regular_prelie_rep(p)
    sub_fam = subadjacent_family(reg)
    zero = Mat.zeros(4, 4)
    mu0 = tuple(tuple(zero for _ in range(4)) for _ in range(4))
    alt = PreLieRep(p, 4, sub_fam, mu0, p.twist)
    lhs = subadjacent_tensor(semidirect_prelie(reg).product)
    rhs = subadjacent_tensor(semidirect_prelie(alt).product)
    assert lhs == rhs


def test_dual_prelie_rep_verdict_recorded():
    p = n4_prelie()
    dual, verdict = dual_prelie_rep(regular_prelie_rep(p))
    assert verdict.part("operational").passed
    assert dual.B == p.twist.transpose()
