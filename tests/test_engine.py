"""The sparse residual engine against the hand-written checkers it replaced.

Every checker ported to the engine must produce the same structured report,
byte for byte, as its verbatim original in ``oracles.py``, and every
construction built from action tensors the same tensor as its original
read from dense operator families. The algebra
corpus has dim <= 4: N4, N4diag, N4 in reversed basis, A4, the
Cayley-twisted A4 and seeded single-entry mutants; the Yang-Baxter and
bialgebra corpus adds the dim-5 nilp5. It passes and fails every ported
part, and some failures come late in lex order, so a wrong index order or
an off-by-one in the lex count shows.
"""
import copy
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homlie3 import (Algebra3, BilForm, Cobracket, MatchedPairData, Mat,
                     OOperator, PreLie3, PreLieRep, PreconditionError,
                     RTensor, Rep3, Tensor4, adjoint_rep,
                     check_algebra, check_chybe,
                     check_double_construction, check_invariance,
                     check_matched_pair, check_metric, check_o_operator,
                     check_prelie, check_representation, check_symplectic,
                     coadjoint_rep, composition_twist,
                     coboundary_cobracket, compatible_prelie,
                     derivation_space, fileio, homlie, is_derivation,
                     manin_bracket, mat_inverse, rep_from_upper,
                     semidirect_prelie, triple_bracket, verify_residual,
                     yau_twist)
from homlie3.bialgebra import _matched_side, _matched_sum, standard_manin_reps
from homlie3.cli import report_doc
from homlie3.homlie import (CheckReport, Witness, _by_slot, _fourterm_terms,
                            _hom_jacobi_terms, _invariance_terms,
                            _leibniz_terms, _morphism_terms, _residual,
                            _slot_outer, _twisted_outer,
                            is_bracket_morphism, twist_slots)
from homlie3.prelie import (_literal_prelie_rep_check, _prelie_identities,
                            _prelie_rep_equations)
from homlie3.reps import _action_tensor, coadjoint_family
from homlie3.symplectic import (_fourterm_check, is_metric_derivation,
                                nilpotent_extension)
from homlie3.yangbaxter import _dual_bracket_formula, closed_form_check

import oracles
from conftest import (CAYLEY_S, N4_DIAG, N4_NEG, a4, a4_cayley, n4,
                      n4_omega, n4_prelie, nilp5, rand_rat, random_prelie,
                      random_skew_mat, rank1_rep, skew_tensor, symp_prelie,
                      symplectic_o_operator)

F = Fraction
DELTAS = (F(1), F(-1), F(2), F(1, 2))


def dump(report) -> str:
    return fileio.dumps(report_doc(report))


class Tally:
    """Compares new and old reports of one part and records its coverage."""

    def __init__(self):
        self.passed = self.failed = 0
        self.latest = 0.0  # largest witness lex position / tuples per part

    def compare(self, key, new, old, total=None):
        assert dump(new) == dump(old), key
        if old.passed:
            self.passed += 1
        else:
            self.failed += 1
            if total:
                self.latest = max(self.latest, old.checked / total)

    def assert_covered(self, late=None):
        assert self.passed and self.failed
        assert late is None or self.latest > late


def n4_reversed():
    """[e2,e3,e4] = e1: every term at a tuple starting with e1 vanishes."""
    return Algebra3(4, skew_tensor(4, {(1, 2, 3): {0: 1}}), Mat.identity(4),
                    "n4-reversed")


def bumped(t, rng):
    """t with d added to one entry [e_i,e_j,e_k]_l, i < j < k, and to the
    entries its skew completion forces; returns (tensor, (i, j, k))."""
    n = t.dims[0]
    i, j, k = sorted(rng.sample(range(n), 3))
    extra = skew_tensor(n, {(i, j, k): {rng.randrange(n): rng.choice(DELTAS)}})
    return Tensor4.from_entries(t.dims, itertools.chain(
        t.items(), extra.items())), (i, j, k)


def mutant(a, rng):
    """a with d added to one structure constant [e_i,e_j,e_k]_l (skew)."""
    bracket, at = bumped(a.bracket, rng)
    return Algebra3(4, bracket, a.twist, f"{a.label}~{at}")


def algebras():
    bases = [n4(), n4(N4_DIAG, "n4diag"), n4_reversed(), a4(), a4_cayley()]
    rng = random.Random(20190312)
    return bases + [mutant(a, rng) for a in bases for _ in range(3)]


def mat_mutant(m, rng):
    """m with d added to one entry."""
    rows = [list(r) for r in m.entries]
    p, q = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[p][q] += rng.choice(DELTAS)
    return Mat(rows)


def nonskew_mutant():
    """N4diag with [e2, e1, e4] = e2 added alone: not skew, and its
    Hom-Jacobi and multiplicativity residuals vanish at every sorted key."""
    bracket = Tensor4.from_entries((4,) * 4, itertools.chain(
        n4(N4_DIAG).bracket.items(), [(1, 0, 3, 1, F(1))]))
    return Algebra3(4, bracket, N4_DIAG, "n4diag~nonskew")


def nonskew_algebras():
    """Brackets that fail ``skew``, which every entry point but
    ``check_algebra`` refuses: the mutant above, and N4, A4 and the
    Cayley-twisted A4 each with one entry [e_i, e_j, e_k]_l added alone at
    an unsorted triple."""
    rng = random.Random(20190319)
    out = [nonskew_mutant()]
    for a in (n4(), a4(), a4_cayley()):
        i, j, k = rng.sample(range(4), 3)
        if i < j < k:
            i, j = j, i
        extra = (i, j, k, rng.randrange(4), rng.choice(DELTAS))
        out.append(Algebra3(4, Tensor4.from_entries((4,) * 4, itertools.chain(
            a.bracket.items(), [extra])), a.twist, f"{a.label}~{extra[:3]}"))
    assert not any(a._skew.passed for a in out)
    return out


def refused(a, call) -> bool:
    """call() raises PreconditionError carrying the skew witness of a."""
    with pytest.raises(PreconditionError) as err:
        call()
    return err.value.witness == a._skew.witness


SYMMETRIC = BilForm(4, Mat.identity(4), "symmetric")
SKEW = BilForm(4, n4_omega(), "skew")
# every entry point that rests on a skew bracket, with arguments that pass
# its other checks; yau_twist needs the identity twist first
ENTRY_POINTS = {
    "is_bracket_morphism": lambda a: is_bracket_morphism(a, Mat.identity(4)),
    "yau_twist": lambda a: yau_twist(a.replace(twist=Mat.identity(4)),
                                     Mat.identity(4)),
    "composition_twist": lambda a: composition_twist(a, Mat.identity(4)),
    "is_derivation": lambda a: is_derivation(a, Mat.identity(4)),
    "is_metric_derivation": lambda a: is_metric_derivation(
        a, SYMMETRIC, Mat.identity(4)),
    "derivation_space": derivation_space,
    "check_metric": lambda a: check_metric(a, SYMMETRIC),
    "check_symplectic": lambda a: check_symplectic(a, SKEW),
    "check_representation": lambda a: check_representation(
        rep_from_upper(a, 2, {}, Mat.identity(2))),
    "check_invariance": lambda a: check_invariance(a, SYMMETRIC),
    "closed_form_check": lambda a: closed_form_check(a, SKEW),
}


@pytest.mark.parametrize("a", nonskew_algebras(), ids=lambda a: a.label)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_a_bracket_that_is_not_skew(entry, a):
    """Each raises PreconditionError with the skew scan's witness, where
    check_algebra reports the same witness as its failing first part."""
    assert refused(a, lambda: ENTRY_POINTS[entry](a))
    assert check_algebra(a).witness == a._skew.witness


def sorted_key(key):
    """x < y and u < v < w for a Hom-Jacobi key, x < y < z for a triple."""
    return key[0] < key[1] and key[-3] < key[-2] < key[-1]


def increasing(outer: dict) -> dict:
    """An outer part's (others, vec) with others[0] < others[1], as
    {m: {others: vec}}."""
    out = {m: {o: vec for o, vec in pairs if o[0] < o[1]}
           for m, pairs in outer.items()}
    return {m: pairs for m, pairs in out.items() if pairs}


def as_dicts(outer: dict, sign=1) -> dict:
    """An outer part as {m: {others: sign * vec}}, with no repeated others."""
    out = {m: {o: {l: sign * v for l, v in vec.items()} for o, vec in pairs}
           for m, pairs in outer.items()}
    assert [len(p) for p in out.values()] == [len(p) for p in outer.values()]
    return out


def skew_algebras():
    out = [a for a in algebras() if a._skew.passed]
    assert len(out) >= 10
    return out


def test_slot_view_is_each_slot_grouping_of_a_skew_bracket():
    """The ``slot`` view, [m, x, y] by m at x < y, is the grouping of the
    rows by their index in slot 0, minus that in slot 1 and that in slot
    2; ``xyz`` and ``xy`` are the rows at i < j < k and at i < j."""
    for a in skew_algebras():
        c, (xyz, xy, slot) = dict(a.bracket.rows()), a._views
        assert as_dicts(slot) == as_dicts(_by_slot(c, 0, True)), a.label
        assert as_dicts(slot, -1) == as_dicts(_by_slot(c, 1, True)), a.label
        assert as_dicts(slot) == as_dicts(_by_slot(c, 2, True)), a.label
        assert xyz == {t: r for t, r in c.items() if t[0] < t[1] < t[2]}
        assert xy == {t: r for t, r in c.items() if t[0] < t[1]}


def test_skew_twisted_outer_parts_are_the_increasing_full_ones():
    """Once skew has passed, the one twisted outer part of Hom-Jacobi,
    built from 2x2 minors of the twist, is each full part kept at others[0]
    < others[1], negated for slot 1: no pair lost, none added, no repeated
    others."""
    for a in skew_algebras():
        outer = _twisted_outer(a)
        for slot in range(3):
            full = _slot_outer(a.bracket, slot,
                               {s: a.twist for s in range(3) if s != slot})
            got = as_dicts(outer, -1 if slot == 1 else 1)
            assert got == increasing(full), (a.label, slot)


def test_matched_side_twists_one_slot_part():
    """The full twisted parts of a skew bracket that ``_matched_side``
    reads are one part, negated in slot 1, and its equations (2.1) and
    (2.2) have the residuals of the terms written with all three parts."""
    for a in skew_algebras():
        A = a.twist
        c_0 = as_dicts(_slot_outer(a.bracket, 0, {1: A, 2: A}))
        assert as_dicts(_slot_outer(a.bracket, 1, {0: A, 2: A}), -1) == c_0
        assert as_dicts(_slot_outer(a.bracket, 2, {0: A, 1: A})) == c_0
    nonzero = 0
    for m in matched_pairs():
        rho, mu = _action_tensor(m.rho.rho), _action_tensor(m.mu.rho)
        for alg, act, B, other in ((m.left, mu, m.right.twist, rho),
                                   (m.right, rho, m.left.twist, mu)):
            c, A = alg.bracket, alg.twist
            eqs = _matched_side(c, A, act, B, other)
            ar, parts = dict(act.rows()), [
                _slot_outer(c, s, {t: A for t in range(3) if t != s})
                for s in range(3)]
            written = (
                eqs[0][:1] + [(-1, ar, parts[0], (2, 3, 4, 0, 1)),
                              (-1, ar, parts[1], (3, 2, 4, 0, 1)),
                              (-1, ar, parts[2], (3, 4, 2, 0, 1))],
                eqs[1][:3] + [(1, ar, parts[2], (3, 4, 2, 0, 1))])
            for terms, want in zip(eqs, written):
                assert _residual(terms) == _residual(want)
                nonzero += bool(_residual(want))
    assert nonzero


def test_checks_leave_the_views_unchanged():
    """Every check and construction over the corpus reads the shared views
    and the row dicts they hold without writing to them; A4 with a
    unipotent twist adds twisted rows of several unit minors at one key."""
    rng = random.Random(20190324)
    unipotent = Mat([[int(q - p in (0, 1)) for q in range(4)] for p in range(4)])
    for a in skew_algebras() + [a4().replace(twist=unipotent)]:
        algs = list({id(x): x for x in (a, a._lift[0])}.values())
        before = [copy.deepcopy(x._views) for x in algs]
        ders = derivation_space(a)
        valid = check_algebra(a).passed
        for d in ders[:2] + (mat_mutant(Mat.identity(4), rng),):
            is_derivation(a, d)
            is_metric_derivation(a, SYMMETRIC, d)
        is_bracket_morphism(a, a.twist)
        for form in (SYMMETRIC, BilForm(4, random_form(rng, "symmetric"),
                                        "symmetric")):
            check_metric(a, form)
            check_invariance(a, form)
        for form in (SKEW, BilForm(4, random_form(rng, "skew"), "skew")):
            check_symplectic(a, form)
            closed_form_check(a, form)
        check_representation(rep_from_upper(a, 2, {}, Mat.identity(2)))
        if valid:  # the adjoint reps need a valid algebra
            check_representation(adjoint_rep(a))
            check_representation(coadjoint_rep(a))
        fileio.algebra_to_doc(a)
        assert [x._views for x in algs] == before, a.label
    for m in matched_pairs():
        before = [copy.deepcopy(x._views) for x in (m.left, m.right)]
        check_matched_pair(m)
        assert [m.left._views, m.right._views] == before


def test_nilpotent_build_forms_each_algebras_views_once(monkeypatch):
    """One steps-7 build of N4 forms the views of the base, the extension
    and the double once each, for all the checks of its report."""
    calls, views = [], homlie._bracket_views
    monkeypatch.setattr(homlie, "_bracket_views", lambda c: (
        calls.append(c), views(c))[1])
    bundle, report = nilpotent_extension(n4(), 7)
    assert report.passed
    assert sorted(map(id, calls)) == sorted(id(x.bracket) for x in (
        bundle.base, bundle.extension, bundle.double))


def test_twist_minors_are_formed_once_per_check(monkeypatch):
    """check_algebra on the dim-48 nilpotent double forms the minors of
    each pair of twist rows once, for the one twisted part: exactly the
    pairs a < b that some bracket row holds in two of its slots."""
    double = nilpotent_extension(n4(N4_DIAG), 7)[0].double
    calls, minors = [], homlie._minors
    monkeypatch.setattr(homlie, "_minors", lambda A, a, b: (
        calls.append((a, b)), minors(A, a, b))[1])
    assert check_algebra(double).part("skew").passed
    slots = {(s, ab) for key, _ in double.bracket.rows() for s in range(3)
             if (ab := key[:s] + key[s + 1:])[0] < ab[1]}
    pairs = {ab for _, ab in slots}
    assert len(calls) == len(set(calls)) and set(calls) == pairs
    # formed once per slot, a pair held in several slots would repeat
    assert double.dim == 48 and len(slots) > len(pairs) >= 50


def test_hom_jacobi_and_multiplicative_match_loops():
    """Both parts equal the loops, which form every key, on skew brackets,
    where the term lists form the full residual restricted to sorted
    keys."""
    hj, mult = Tally(), Tally()
    restricted = False
    for a in algebras():
        full = (oracles.hom_jacobi_residual_loop(a),
                oracles.multiplicative_residual_loop(a))
        rep = check_algebra(a)
        hj.compare(a.label, rep.part("hom_jacobi"),
                   oracles.hom_jacobi_check_loop(a, full[0]))
        mult.compare(a.label, rep.part("multiplicative"),
                     oracles.multiplicative_check_loop(a), 4 ** 3)
        outer = _twisted_outer(a)
        got = (_residual(_hom_jacobi_terms(a, outer)),
               _residual(_morphism_terms(a, a.twist, outer)))
        for res, want in zip(got, full):
            assert res == {k: v for k, v in want.items()
                           if sorted_key(k)}, a.label
            restricted |= res != want
    # hom_jacobi reports a nominal n**5, so no lex position to cover
    hj.assert_covered()
    mult.assert_covered(late=0.1)
    assert restricted
    # a bracket that fails skew gets no Hom-Jacobi or multiplicative part
    rep = check_algebra(nonskew_mutant())
    assert not rep.passed and [name for name, _ in rep.parts] == ["skew"]


def test_oracle_lift_equals_rational_arithmetic():
    """The oracles' Hom-Jacobi residual and compose_slots, composed on ints
    by their own lift, equal the same walks over rational values, on a
    mutant of the Cayley-twisted A4 with both its bracket and its twist
    scaled to rationals, whose residual does not vanish."""
    m = mutant(a4_cayley(), random.Random(20190325))
    a = Algebra3(4, m.bracket.scale(F(5, 3)),
                 oracles.mat_scale(m.twist, F(2, 5)), "cayley-rational")
    assert a.bracket.den % 3 == 0 and a.twist.den % 5 == 0
    lifted = oracles.hom_jacobi_residual_loop(a)
    assert lifted and lifted == oracles.hom_jacobi_residual_loop(a, lift=False)
    for mats in ({0: a.twist, 1: a.twist}, {2: a.twist}):
        assert oracles.compose_slots(a.bracket, mats) == \
            oracles.compose_slots(a.bracket, mats, lift=False)


def test_is_derivation_matches_loop():
    """On skew brackets; a non-skew one is refused by both is_derivation and
    derivation_space, whose kernel would hold non-derivations there."""
    tally = Tally()
    rng = random.Random(20190313)
    for a in nonskew_algebras():
        assert refused(a, lambda: derivation_space(a))
        assert refused(a, lambda: is_derivation(a, Mat.identity(4)))
    for a in algebras():
        cands = list(derivation_space(a))
        cands += [mat_mutant(d, rng) for d in cands[:3]]
        # the projection onto e4: on reversed N4 it first fails at (e2,e3,e4)
        cands.append(Mat([[F(int(p == q == 3)) for q in range(4)]
                          for p in range(4)]))
        for d in cands:
            new, old = is_derivation(a, d), oracles.is_derivation_loop(a, d)
            tally.compare(a.label, CheckReport(new is None, 1, new),
                          CheckReport(old is None, 1, old))
            if old is not None and old.check == "derivation":
                tally.latest = max(tally.latest, old.at[0] / 4)
    tally.assert_covered(late=0.2)


def reversed_basis(p):
    """p with e_i renamed e_{5-i}; its identities first fail later in lex
    order, as index 1 (0-based 0) plays the role of 4."""
    flip = [(3 - i, 3 - j, 3 - k, 3 - l, v) for i, j, k, l, v in p.product.items()]
    twist = Mat([[p.twist.entries[3 - r][3 - c] for c in range(4)]
                 for r in range(4)])
    return PreLie3(4, Tensor4.from_entries((4,) * 4, flip), twist,
                   f"{p.label}-reversed")


def prelie_products():
    rng = random.Random(20190314)
    bases = [n4_prelie(), symp_prelie(), random_prelie(rng),
             random_prelie(rng, lam=-1)]
    bases += [reversed_basis(p) for p in bases]
    out = list(bases)
    for p in bases:
        for _ in range(4):
            i, j = sorted(rng.sample(range(4), 2))
            k, l, d = rng.randrange(4), rng.randrange(4), rng.choice(DELTAS)
            product = Tensor4.from_entries((4,) * 4, itertools.chain(
                p.product.items(), [(i, j, k, l, d), (j, i, k, l, -d)]))
            out.append(PreLie3(4, product, p.twist, f"{p.label}~{(i, j, k, l)}"))
    return out


def test_check_prelie_matches_dense():
    first, second = Tally(), Tally()
    for p in prelie_products():
        first.compare(p.label, check_prelie(p), oracles.check_prelie_dense(p),
                      4 ** 5)
        # check_prelie stops after a failing identity 1, so compare the
        # second identity on its own
        second.compare(p.label, dict(_prelie_identities(p))["identity_2"],
                       oracles.prelie_identity_2_dense(p), 4 ** 5)
    first.assert_covered(late=0.2)
    second.assert_covered(late=0.2)


def square_zero_rep(base, m):
    """rho(e1, e2) = E_{0,m-1}: squares to zero, so it represents an
    abelian base."""
    rows = [[F(int(p == 0 and q == m - 1)) for q in range(m)] for p in range(m)]
    return rep_from_upper(base, m, {(0, 1): Mat(rows)}, Mat.identity(m))


def matched_pairs():
    rng = random.Random(20190315)
    n4r, ab3 = n4_reversed(), Algebra3.abelian(3)
    zero = lambda base, m: rep_from_upper(base, m, {}, Mat.identity(m))
    ad = lambda base, m: adjoint_rep(base)
    coad = lambda base, m: coadjoint_rep(base)
    rank1 = lambda base, m: rank1_rep(rng, base, 3, m)
    cases = [
        (n4(), n4(), zero, zero),
        (n4(), n4(), coad, coad),
        (n4r, n4(), coad, rank1),
        (n4(), n4r, rank1, coad),
        (n4(), a4(), ad, coad),
        (a4(), a4_cayley(), ad, ad),
        (n4(), ab3, rank1, square_zero_rep),
        (ab3, n4(), square_zero_rep, rank1),
    ]
    for left, right, rho, mu in cases:
        yield MatchedPairData(left, right, rho(left, right.dim),
                              mu(right, left.dim))


def test_check_matched_pair_matches_dense():
    tallies = {f"eq_2_{k}": Tally() for k in range(1, 7)}
    for m in matched_pairs():
        assert check_representation(m.rho).passed
        assert check_representation(m.mu).passed
        new, old = check_matched_pair(m), oracles.check_matched_pair_dense(m)
        assert dump(new) == dump(old), (m.left.label, m.right.label)
        n, p = m.left.dim, m.right.dim
        for k, (name, part) in enumerate(old.parts[:6], 1):
            total = n ** 3 * p ** 2 if k <= 3 else p ** 3 * n ** 2
            tallies[name].compare(name, new.part(name), part, total)
    for name, tally in tallies.items():
        assert tally.passed and tally.failed, name
    assert max(t.latest for t in tallies.values()) > 0.8


def o_operators():
    rng = random.Random(20190316)
    o = symplectic_o_operator()
    small = rank1_rep(rng, n4(), 3, 3)
    central = Mat([[F(0)] * 3] * 3 + [[F(1), F(2), F(0)]])
    out = [o, OOperator(o.rep, Mat.zeros(4, 4)), OOperator(small, central),
           OOperator(adjoint_rep(n4()), Mat.identity(4))]
    for base in (o, OOperator(small, central),
                 OOperator(adjoint_rep(a4()), Mat.identity(4))):
        out += [OOperator(base.rep, mat_mutant(base.T, rng)) for _ in range(4)]
    return out


def test_check_o_operator_matches_dense():
    tally = Tally()
    for o in o_operators():
        new, old = check_o_operator(o), oracles.check_o_operator_dense(o)
        tally.compare(o.T, new, old)
        tally.compare(o.T, new.part("transport"), old.part("transport"),
                      o.rep.vdim ** 3)
    tally.assert_covered(late=0.2)


def random_form(rng, kind):
    rows = [[F(0)] * 4 for _ in range(4)]
    for p, q in itertools.combinations_with_replacement(range(4), 2):
        if rng.random() < 0.4:
            v = F(rng.randint(-2, 2))
            rows[p][q] = v
            rows[q][p] = v if kind == "symmetric" else -v
    if kind == "skew":
        for p in range(4):
            rows[p][p] = F(0)
    return Mat(rows)


def forms(kind):
    rng = random.Random(20190317 if kind == "symmetric" else 20190318)
    fixed = ([Mat.identity(4), Mat.diag([1, 1, 1, 0])] if kind == "symmetric"
             else [n4_omega(), mat_inverse(n4_omega())])
    return fixed + [Mat.zeros(4, 4)] + [random_form(rng, kind) for _ in range(8)]


def test_form_checks_match_dense():
    """On skew brackets; the four checks refuse a non-skew one."""
    metric, invariance, closed, cocycle = Tally(), Tally(), Tally(), Tally()
    for a in nonskew_algebras():
        for check, form in ((check_metric, SYMMETRIC),
                            (check_invariance, SYMMETRIC),
                            (closed_form_check, SKEW),
                            (check_symplectic, SKEW)):
            assert refused(a, lambda: check(a, form)), a.label
    # the metric and invariance checkers also take skew forms
    for kind in ("symmetric", "skew"):
        for a, m in itertools.product(algebras(), forms(kind)):
            form = BilForm(4, m, kind)
            new, old = check_metric(a, form), oracles.check_metric_dense(a, form)
            assert dump(new) == dump(old), a.label
            metric.compare(a.label, new.part("invariance"),
                           old.part("invariance"), 4 ** 4)
            invariance.compare(a.label, check_invariance(a, form),
                               oracles.check_invariance_dense(a, form), 4 ** 4)
            if kind == "skew":
                closed.compare(a.label, closed_form_check(a, form),
                               oracles.closed_form_check_dense(a, form), 4 ** 4)
                cocycle.compare(a.label, _fourterm_check(a, m),
                                oracles.fourterm_check_loop(a, m))
    metric.assert_covered(late=0.2)
    invariance.assert_covered(late=0.2)
    # over a skew bracket the closed-form residual is alternating, so in dim
    # 4 it first fails at (e1, e2, e3, e4), position 28 of 256
    closed.assert_covered(late=0.1)
    # the cocycle part reports a nominal n**4
    cocycle.assert_covered()


def scalar(residual: dict) -> dict:
    """A scalar oracle residual {key: value} as the engine's {key: {0: value}}."""
    return {key: {0: v} for key, v in residual.items()}


def restricted(residual: dict, keep) -> dict:
    return {key: vec for key, vec in residual.items() if keep(key)}


def increasing_key(key):
    return all(p < q for p, q in zip(key, key[1:]))


def reduced_residuals(a, d, W, B):
    """(engine, oracle) pairs of the Leibniz residual of d, the four-term
    residual of W and the metric-invariance residual of B over a skew
    bracket, the oracle's full residual restricted to the sorted keys of
    its orbits: x < y < z, x < y < z < w and x < y."""
    full = (oracles.leibniz_residual_loop(a, d),
            scalar(oracles.fourterm_residual_loop(a, W)),
            scalar(oracles.metric_residual_loop(a, B)))
    keeps = (increasing_key, increasing_key, lambda key: key[0] < key[1])
    got = (_residual(_leibniz_terms(a, d)),
           _residual(_fourterm_terms(a, W @ a.twist)),
           _residual(_invariance_terms(a, B, B.transpose())))
    return list(zip(got, (restricted(res, keep)
                          for res, keep in zip(full, keeps))))


def refuses_forms(a, d, W, B) -> bool:
    """is_derivation, check_symplectic and check_metric refuse a."""
    n = a.dim
    return (refused(a, lambda: is_derivation(a, d))
            and refused(a, lambda: check_symplectic(a, BilForm(n, W, "skew")))
            and refused(a, lambda: check_metric(a, BilForm(n, B, "symmetric"))))


def test_leibniz_cocycle_and_invariance_are_orbit_reduced():
    """Over a skew bracket the three residuals are the full ones restricted
    to sorted keys, for derivations, skew forms and symmetric forms that
    pass and fail; a non-skew bracket is refused."""
    rng = random.Random(20190320)
    reduced = 0
    ws, bs = forms("skew"), forms("symmetric")
    for a in nonskew_algebras():
        assert refuses_forms(a, Mat.identity(4), ws[0], bs[0]), a.label
    for a in algebras():
        ds = list(derivation_space(a))[:2] + [
            mat_mutant(Mat.identity(4), rng) for _ in range(2)]
        for d, W, B in zip(ds, (ws[0], ws[3], ws[5], ws[8]),
                           (bs[0], bs[3], bs[5], bs[8])):
            for got, want in reduced_residuals(a, d, W, B):
                assert got == want, a.label
                reduced += bool(want)
    assert reduced >= 20


def test_orbit_reduction_on_random_dim_6_brackets():
    """The same on random skew brackets of dim 6, with a random twist,
    derivation candidate and forms, where the nonzero sorted keys of each
    residual start at 0, 1 and 2; with one unsorted entry added, the
    bracket is refused."""
    rng = random.Random(20190323)
    n = 6
    firsts = [set(), set(), set()]  # first key indices met, per residual
    cell = lambda: rand_rat(rng) if rng.random() < 0.5 else F(0)
    square = lambda: Mat([[cell() for _ in range(n)] for _ in range(n)])
    for case in range(4):
        triples = {t: {rng.randrange(n): rand_rat(rng)}
                   for t in itertools.combinations(range(n), 3)
                   if rng.random() < 0.5}
        bracket = skew_tensor(n, triples)
        if case % 2:
            bracket = Tensor4.from_entries((n,) * 4, itertools.chain(
                bracket.items(), [(4, 1, 3, 0, F(1))]))
        a = Algebra3(n, bracket, square(), f"random-{case}")
        assert a._skew.passed == (case % 2 == 0)
        d, W, S = square(), random_skew_mat(rng, n), square()
        if case % 2:
            assert refuses_forms(a, d, W, S + S.transpose()), a.label
            continue
        pairs = reduced_residuals(a, d, W, S + S.transpose())
        for (got, want), first in zip(pairs, firsts):
            assert got == want and want, a.label
            first |= {key[0] for key in want}
    assert all(first >= {0, 1, 2} for first in firsts)


def test_orbit_reduction_on_the_dim_48_nilpotent_double():
    """The derivation, cocycle and invariance checks of the dim-48 N4 double
    equal their oracles, for the bundle's own D, omega and metric (which
    pass) and for single-entry mutants of each (which fail)."""
    bundle, _ = nilpotent_extension(n4(), 7)
    a, n = bundle.double, 48
    rng = random.Random(20190321)
    D, W, B = bundle.double_derivation, bundle.omega.matrix, bundle.metric.matrix

    def bumped(m, *entries):
        rows = [list(r) for r in m.entries]
        for p, q, v in entries:
            rows[p][q] += v
        return Mat(rows)

    # bumps at an index p that some bracket value reaches: the form's row p
    # and D's column p, so that every residual changes
    p = rng.choice(sorted({l for *_, l, _ in a.bracket.items()}))
    q = rng.choice([q for q in range(n) if q != p])
    cases = [(D, W, B), (bumped(D, (q, p, 1)), bumped(W, (p, q, 1), (q, p, -1)),
                         bumped(B, (p, q, 1), (q, p, 1)))]
    for i, (d, w, b) in enumerate(cases):
        for got, want in reduced_residuals(a, d, w, b):
            assert got == want
            assert bool(want) == bool(i)
        new, old = is_derivation(a, d), oracles.is_derivation_loop(a, d)
        assert dump(CheckReport(new is None, 1, new)) == \
            dump(CheckReport(old is None, 1, old))
        assert dump(_fourterm_check(a, w)) == \
            dump(oracles.fourterm_check_loop(a, w))
        full = oracles.metric_residual_loop(a, b)
        want = CheckReport(True, n ** 4)
        if full:
            key = min(full)
            want = CheckReport(False, lex_position(key, n), Witness(
                "metric", key, (full[key],), (F(0),)))
        assert dump(check_metric(a, BilForm(n, b, "symmetric"))
                    .part("invariance")) == dump(want)


def lex_position(at, n):
    """1-based position of the tuple ``at`` in the lex order of n**len(at)."""
    pos = 0
    for i in at:
        pos = pos * n + i
    return pos + 1


def wedge(n, p, q, v=1):
    """The skew r = v (e_p (x) e_q - e_q (x) e_p)."""
    rows = [[F(0)] * n for _ in range(n)]
    rows[p][q], rows[q][p] = F(v), F(-v)
    return Mat(rows)


def upper(n, lo=0):
    """The non-skew r with R[p][q] = 1 for lo <= p <= q."""
    return Mat([[F(int(lo <= p <= q)) for q in range(n)] for p in range(n)])


def r_matrices():
    """r on A4, the Cayley-twisted A4, nilp5 and N4 in reversed basis:
    rank two, non-skew upper-triangular and random skew ones, and the
    twist-invariant CAYLEY_S on the Cayley-twisted A4. Every skew r solves
    the equation on A4 and on N4; random ones on nilp5 do not, and
    upper(5, 1) first fails it at (e2, e3, e4, e5), late in lex order."""
    rng = random.Random(20190319)
    # on the Cayley-twisted A4 only CAYLEY_S and rank two: a dense twisted
    # dual bracket makes the double construction's precondition cost seconds
    out = [RTensor(a4_cayley(), m)
           for m in (CAYLEY_S, wedge(4, 0, 1), wedge(4, 2, 3, 2))]
    out.append(RTensor(nilp5(), upper(5, 1)))
    for base in (a4(), nilp5(), n4_reversed()):
        n = base.dim
        out += [RTensor(base, m) for m in (
            wedge(n, 0, 1), wedge(n, n - 2, n - 1, 2), upper(n),
            random_skew_mat(rng, n))]
    return out


def test_yang_baxter_parts_match_loops():
    """check_chybe, triple_bracket, coboundary_cobracket and verify_residual
    against their loops. The residual identity holds for every skew r that
    passes the cobracket parts at identity twist, so the residual compares
    passing reports there; it fails, in both, for CAYLEY_S on the
    Cayley-twisted A4, whose twist is orthogonal but not diagonal."""
    chybe, residual = Tally(), Tally()
    for r in r_matrices():
        n, key = r.base.dim, (r.base.label, r.entries)
        assert triple_bracket(r) == oracles.triple_bracket_loop(r), key
        new, old = check_chybe(r), oracles.check_chybe_loop(r)
        assert dump(new) == dump(old), key
        w = old.part("triple_bracket").witness
        chybe.compare(key, new.part("triple_bracket"),
                      old.part("triple_bracket"))
        if w is not None:
            chybe.latest = max(chybe.latest, lex_position(w.at, n) / n ** 4)
        (cob, rep), (ocob, orep) = (coboundary_cobracket(r),
                                    oracles.coboundary_cobracket_loop(r))
        assert cob == ocob and dump(rep) == dump(orep), key
        new, old = verify_residual(r), oracles.verify_residual_loop(r)
        assert dump(new) == dump(old), key
        if rep.passed:
            residual.compare(key, new.part("residual"), old.part("residual"))
    chybe.assert_covered(late=0.2)
    assert residual.passed


def cobrackets():
    """(r, cobracket) for the coboundary cobrackets of r_matrices() and
    two seeded skew single-entry mutants of each dual bracket."""
    rng = random.Random(20190320)
    for r in r_matrices():
        cob, _ = coboundary_cobracket(r)
        yield r, cob
        for _ in range(2):
            yield r, Cobracket(r.base, bumped(cob.dual_c, rng)[0])


def test_double_construction_and_dual_bracket_formula_match_loops():
    tallies = {f"eq_2_1{k}": Tally() for k in range(3)}
    formula = Tally()
    for r, cob in cobrackets():
        n, key = r.base.dim, (r.base.label, r.entries)
        new = _dual_bracket_formula(r, cob.dual_c)
        old = oracles.dual_bracket_formula_loop(r, cob.dual_c)
        formula.compare(key, new, old)
        if old.witness is not None:
            formula.latest = max(formula.latest,
                                 lex_position(old.witness.at, n) / n ** 3)
        try:
            old = oracles.check_double_construction_loop(cob)
        except PreconditionError as e:
            # the dual bracket is not an algebra: both refuse, alike
            with pytest.raises(PreconditionError) as new_e:
                check_double_construction(cob)
            assert new_e.value.witness == e.witness
            continue
        new = check_double_construction(cob)
        assert dump(new) == dump(old), key
        for name, tally in tallies.items():
            tally.compare(key, new.part(name), old.part(name), n ** 3)
    # (2.10) and (2.12) are skew in (x, y, z): in dim 4 they first fail at
    # an increasing triple, at the latest (e2, e3, e4), position 28 of 64
    for tally in tallies.values():
        tally.assert_covered(late=0.4)
    formula.assert_covered(late=0.2)


def test_rep_families_match_definitions():
    """The n x n families of dense matrices built from action tensors."""
    for a in algebras():
        ad, coad = oracles.coadjoint_family_loop(a), coadjoint_family(a)
        assert coad == ad
        fam = oracles.left_multiplication(PreLie3(4, a.bracket, a.twist))
        for i, j, k, l in itertools.product(range(4), repeat=4):
            assert fam[i][j].entries[l][k] == a.bracket.get(i, j, k, l)
    for p in prelie_products():
        right = oracles.right_multiplication(p)
        for i, j, k, l in itertools.product(range(4), repeat=4):
            assert right[i][j].entries[l][k] == p.product.get(k, i, j, l)
    for a in (n4(), a4(), a4_cayley()):
        ad = adjoint_rep(a)
        for i, j, k, l in itertools.product(range(4), repeat=4):
            assert ad.rho[i][j].entries[l][k] == a.bracket.get(i, j, k, l)
        # the coadjoint action is minus the transposed adjoint one
        fam = tuple(tuple(-m.transpose() for m in row) for row in ad.rho)
        assert coadjoint_rep(a) == Rep3(a, 4, fam, a.twist.transpose())


def bumped_family(fam, rng, skew):
    """fam with d added to one entry of one operator (i, j), i != j, and
    the opposite change at (j, i) when the family is skew."""
    i, j = rng.sample(range(len(fam)), 2)
    m = fam[0][0].rows
    rows = [list(r) for r in fam[i][j].entries]
    rows[rng.randrange(m)][rng.randrange(m)] += rng.choice(DELTAS)
    out = [list(r) for r in fam]
    out[i][j] = Mat(rows)
    if skew:
        out[j][i] = -out[i][j]
    return tuple(map(tuple, out))


def prelie_reps():
    """Regular representations of the mutants of the reversed-basis
    products (dim 4: each of the four printed identities is the first to
    fail somewhere, some at tuples where others fail too, some late in lex
    order), and of four dim-3 random products, each also with one entry of
    rho or of mu changed. Products of two regular operators of these
    nilpotent products vanish, so two reps with random dense operators on
    a 2-dim carrier make the composed terms count too."""
    rng = random.Random(20190321)
    out = [oracles.regular_prelie_rep(p) for p in prelie_products()
           if "-reversed~" in p.label]
    for _ in range(4):
        reg = oracles.regular_prelie_rep(random_prelie(rng, 2, 1))
        out += [reg,
                PreLieRep(reg.base, 3, bumped_family(reg.rho, rng, True),
                          reg.mu, reg.B),
                PreLieRep(reg.base, 3, reg.rho,
                          bumped_family(reg.mu, rng, False), reg.B)]
    rand = lambda: Mat([[F(rng.randint(-2, 2)) for _ in range(2)]
                        for _ in range(2)])
    for _ in range(2):
        upper = {pair: rand() for pair in itertools.combinations(range(3), 2)}
        rho = rep_from_upper(Algebra3.abelian(3), 2, upper, Mat.identity(2)).rho
        mu = tuple(tuple(rand() for _ in range(3)) for _ in range(3))
        out.append(PreLieRep(random_prelie(rng, 2, 1), 2, rho, mu,
                             Mat.identity(2)))
    return out


def test_literal_prelie_rep_check_matches_loop():
    tally, reported, doubly = Tally(), set(), 0
    for r in prelie_reps():
        new, old = (_literal_prelie_rep_check(r),
                    oracles.literal_prelie_rep_check_loop(r))
        tally.compare(r.base.label, new, old, 4 * r.base.dim ** 4)
        if old.witness is not None:
            reported.add(old.witness.check)
            at = old.witness.at
            doubly += sum(any(key[:4] == at for key in _residual(terms))
                          for terms in _prelie_rep_equations(r)) > 1
    tally.assert_covered(late=0.4)
    assert reported == {f"prelie_rep_eq{k}" for k in range(1, 5)}
    assert doubly


def same_algebra(new, old):
    assert new.bracket == old.bracket
    assert fileio.dumps(fileio.algebra_to_doc(new)) == \
        fileio.dumps(fileio.algebra_to_doc(old))


def same_prelie(new, old):
    assert new.product == old.product
    assert fileio.dumps(fileio.prelie_to_doc(new)) == \
        fileio.dumps(fileio.prelie_to_doc(old))


def test_action_constructions_match_dense():
    """The semidirect pre-Lie product, the matched-pair sum, the Manin
    triple's total algebra and the compatible pre-Lie product, built from
    action tensors, equal the entries placed from dense operator families,
    as tensors and as written files."""
    for r in prelie_reps():
        same_prelie(semidirect_prelie(r), oracles.semidirect_prelie_dense(r))
    for m in matched_pairs():
        same_algebra(_matched_sum(m.left, m.right, _action_tensor(m.rho.rho),
                                  _action_tensor(m.mu.rho)),
                     oracles.assemble_matched_pair_dense(m))
    # a zero cobracket on N4diag: its twist shows only in the total's twist
    manin = [coboundary_cobracket(r)[0] for r in r_matrices()
             if r.base.label == "n4-reversed"]
    manin.append(Cobracket(n4(N4_DIAG, "n4diag"), Tensor4.zero((4,) * 4)))
    for cob in manin:
        total, _ = manin_bracket(cob)
        same_algebra(total,
                     oracles.assemble_matched_pair_dense(standard_manin_reps(cob)))
    o = symplectic_o_operator()
    neg = n4(N4_NEG, "n4neg")
    cases = [(n4(), OOperator(o.rep, oracles.mat_scale(o.T, f)))
             for f in (1, -2, F(1, 3))]
    cases += [(neg, OOperator(coadjoint_rep(neg), o.T)),
              (Algebra3.abelian(4),
               OOperator(adjoint_rep(Algebra3.abelian(4)), Mat.identity(4)))]
    for a, op in cases:
        same_prelie(compatible_prelie(op),
                    oracles.compatible_prelie_dense(a, op))
    # both refuse a singular T and a T that is not an O-operator
    for op in (OOperator(o.rep, Mat.zeros(4, 4)),
               OOperator(adjoint_rep(n4()), Mat.identity(4))):
        with pytest.raises(PreconditionError) as new_e:
            compatible_prelie(op)
        with pytest.raises(PreconditionError) as old_e:
            oracles.compatible_prelie_dense(n4(), op)
        assert (str(new_e.value), new_e.value.witness) == \
            (str(old_e.value), old_e.value.witness)


# Rational values whose denominators are pairwise distinct between the
# bracket (2, 3, 17) and the twist (5, 289), so that a scale factor folded
# into the wrong term, or divided back by the wrong power, shows.
BRACKET_RATS = (F(1, 2), F(-2, 3), F(5, 17), F(-7, 6), F(3, 34), F(2))
TWIST_RATS = (F(1, 5), F(-3, 289), F(4, 5), F(6, 289), F(2), F(-1))
TRIPLES4 = list(itertools.combinations(range(4), 3))


def _diag_twist(draw, n):
    """A diagonal twist of drawn rationals, with one off-diagonal entry
    added in half the draws."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from(TWIST_RATS))
    if draw(st.booleans()):
        p, q = draw(st.permutations(range(n)))[:2]
        rows[p][q] = draw(st.sampled_from(TWIST_RATS))
    return Mat(rows)


@functools.cache
def _derivations(bracket: Tensor4, twist: Mat) -> tuple:
    """derivation_space of (bracket, twist), or the zero matrix alone. A
    scalar multiple of either has the same derivations."""
    n = twist.rows
    return derivation_space(Algebra3(n, bracket, twist)) or (Mat.zeros(n, n),)


@st.composite
def lift_cases(draw, kind, z=4, fail_at=None):
    """(algebra, phi, d, B, W) of rational data with the denominators above,
    by kind:
    - the Cayley-twisted A4 with its bracket scaled, and its twist scaled by
      1, -1 or a twist value (which breaks multiplicativity alone);
    - dim 5, [e_i, e_j, e_k] = c_ijk e_z on drawn triples i < j < k of the
      other indices, which satisfies Hom-Jacobi for every twist and, with
      the twist t on the other indices and t**3 on e_z, multiplicativity;
      a component on another e_m added at ``fail_at`` breaks it there
      alone, and a drawn twist in place of t breaks it at some triple;
    - A4 and N4 with a scaled bracket and a drawn twist or the identity,
      where s I is invariant on A4 and s omega symplectic on N4.
    phi is the twist or another drawn twist, d a scaled derivation (one
    entry bumped in half the draws), B symmetric and W skew."""
    scale = draw(st.sampled_from(BRACKET_RATS))
    if kind == "cayley":
        base = a4_cayley()
        s = draw(st.sampled_from((F(1), F(-1)) + TWIST_RATS))
        a = Algebra3(4, base.bracket.scale(scale),
                     oracles.mat_scale(base.twist, s), "cayley")
        ders = _derivations(base.bracket, base.twist)
    elif kind == "central":
        rest = [i for i in range(5) if i != z]
        triples = draw(st.lists(st.sampled_from(
            list(itertools.combinations(rest, 3))), max_size=4, unique=True))
        rows = {t: {z: draw(st.sampled_from(BRACKET_RATS))} for t in triples}
        t = draw(st.sampled_from(TWIST_RATS[:4]))
        twist = Mat.diag([t ** 3 if i == z else t for i in range(5)])
        if fail_at is not None:
            rows.setdefault(fail_at, {})[rest[0]] = scale
        elif draw(st.booleans()):
            twist = _diag_twist(draw, 5)
        a = Algebra3(5, skew_tensor(5, rows), twist, "central")
        ders = _derivations(a.bracket, twist)
    else:
        base = a4() if kind == "a4" else n4()
        twist = (Mat.identity(4) if draw(st.booleans())
                 else _diag_twist(draw, 4))
        a = Algebra3(4, base.bracket.scale(scale), twist, kind)
        ders = _derivations(base.bracket, twist)
    n = a.dim
    phi = a.twist if draw(st.booleans()) else _diag_twist(draw, n)
    d = oracles.mat_scale(draw(st.sampled_from(ders)),
                          draw(st.sampled_from(BRACKET_RATS + TWIST_RATS)))
    rows = [list(r) for r in d.entries]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += \
            draw(st.sampled_from(TWIST_RATS))
    s = draw(st.sampled_from(TWIST_RATS))
    if kind == "a4" and draw(st.booleans()):
        B = Mat.diag([s] * 4)
    else:
        B = [[0] * n for _ in range(n)]
        for p, q in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  min_size=1, max_size=3)):
            B[p][q] = B[q][p] = draw(st.sampled_from(BRACKET_RATS))
        B = Mat(B)
    if kind == "n4" and draw(st.booleans()):
        W = oracles.mat_scale(n4_omega(), s)
    else:
        W = [[0] * n for _ in range(n)]
        for p, q in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  min_size=1, max_size=3)):
            if p != q:
                W[p][q], W[q][p] = s, -s
        W = Mat(W)
    return a, phi, Mat(rows), B, W


def _block(at: tuple, n: int) -> str:
    """Where a three-index witness lies among the increasing triples: the
    first (0, 1, 2), the last (n - 3, n - 2, n - 1) or between."""
    if at == (0, 1, 2):
        return "first"
    return "last" if at == (n - 3, n - 2, n - 1) else "middle"


def _morphism_loop(a, phi):
    """The witness of phi([x,y,z]) = [phi x, phi y, phi z]: the
    multiplicativity walk with phi for the twist, renamed."""
    twisted = Algebra3(a.dim, a.bracket, phi)
    w = oracles.multiplicative_check_loop(twisted).witness
    return w and Witness("morphism", w.at, w.left, w.right)


def _symplectic_loop(a, W):
    """The three form flags of check_symplectic, then the four-term walk."""
    n, A = a.dim, a.twist
    flag = lambda ok, check: CheckReport(ok, 1, None if ok else
                                         Witness(check, (), (), ()))
    return CheckReport.combine([
        ("skew", flag(W.transpose() == -W, "form_skew")),
        ("nondegenerate", flag(oracles.mat_rank_dense(W) == n,
                               "form_nondegenerate")),
        ("twist_compatible", flag(A.transpose() @ W @ A == W,
                                  "twist_compatible")),
        ("cocycle", oracles.fourterm_check_loop(a, W))])


def test_lifted_checks_match_the_rational_ones():
    """check_algebra, is_bracket_morphism, is_derivation, check_metric and
    check_symplectic compose lifted ints with a scale per term: their
    reports equal, byte for byte, those of the oracle walks over rational
    values, and twist_slots the rows of ``compose_slots``. The draws pass
    each check, and fail the three-index identities at the first, a middle
    and the last increasing triple."""
    seen = set()

    def run(case):
        a, phi, d, B, W = case
        witness = lambda w: CheckReport(w is None, 1, w)
        pairs = [
            ("algebra", check_algebra(a), oracles.check_algebra_loop(a)),
            ("morphism", witness(is_bracket_morphism(a, phi)),
             witness(_morphism_loop(a, phi))),
            ("derivation", witness(is_derivation(a, d)),
             witness(oracles.is_derivation_loop(a, d))),
            ("metric", check_metric(a, BilForm(a.dim, B, "symmetric")),
             oracles.check_metric_dense(a, BilForm(a.dim, B, "symmetric"))),
            ("symplectic", check_symplectic(a, BilForm(a.dim, W, "skew")),
             _symplectic_loop(a, W))]
        for name, new, old in pairs:
            assert dump(new) == dump(old), name
            if old.passed:
                seen.add((name, "passed"))
            for part in (old, *(part for _, part in old.parts)):
                w = part.witness
                if w and w.check in ("multiplicative", "morphism",
                                     "derivation"):
                    seen.add((w.check, _block(w.at, a.dim)))
        mats = {0: phi, 2: a.twist}
        assert twist_slots(a.bracket, mats) == \
            oracles.compose_slots(a.bracket, mats)

    # multiplicativity fails at the first, a middle and the last triple
    kinds = [("cayley",), ("central", 4, None), ("central", 4, (0, 1, 2)),
             ("central", 0, (1, 3, 4)), ("central", 0, (2, 3, 4)), ("a4",),
             ("n4",)]
    for kind in kinds:
        settings(max_examples=4, deadline=None, derandomize=True,
                 database=None)(given(lift_cases(*kind))(run))()
    names = ("algebra", "morphism", "derivation", "metric", "symplectic")
    assert {(name, "passed") for name in names} <= seen
    assert {("multiplicative", block) for block in
            ("first", "middle", "last")} <= seen, seen
