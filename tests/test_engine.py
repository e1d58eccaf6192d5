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
import itertools
import random
from fractions import Fraction

import pytest

from homlie3 import (Algebra3, BilForm, Cobracket, MatchedPairData, Mat,
                     OOperator, PreLie3, PreLieRep, PreconditionError,
                     RTensor, Rep3, Tensor4, adjoint_rep,
                     assemble_matched_pair, check_algebra, check_chybe,
                     check_double_construction, check_invariance,
                     check_matched_pair, check_metric, check_o_operator,
                     check_prelie, check_representation, coadjoint_rep,
                     coboundary_cobracket, compatible_prelie,
                     derivation_space, fileio, is_derivation, manin_bracket,
                     mat_inverse, rep_from_upper, semidirect_prelie,
                     triple_bracket, verify_residual)
from homlie3.bialgebra import standard_manin_reps
from homlie3.cli import report_doc
from homlie3.homlie import (CheckReport, _hom_jacobi_terms, _morphism_terms,
                            _residual, _skew_check, _slot_outer)
from homlie3.prelie import (_literal_prelie_rep_check, _prelie_identities,
                            _prelie_rep_equations, left_multiplication,
                            regular_prelie_rep, right_multiplication)
from homlie3.reps import coadjoint_family
from homlie3.symplectic import _fourterm_check
from homlie3.yangbaxter import _dual_bracket_formula, closed_form_check

import oracles
from conftest import (CAYLEY_S, N4_DIAG, N4_NEG, a4, a4_cayley, n4,
                      n4_omega, n4_prelie, nilp5, random_prelie,
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


def sorted_key(key):
    """x < y and u < v < w for a Hom-Jacobi key, x < y < z for a triple."""
    return key[0] < key[1] and key[-3] < key[-2] < key[-1]


def test_hom_jacobi_and_multiplicative_match_loops():
    """Both parts equal the loops, over every key with skew=False and over
    the sorted keys once skew has passed, where the term lists form the
    full residual restricted to sorted keys."""
    hj, mult = Tally(), Tally()
    restricted = False
    for a in algebras() + [nonskew_mutant()]:
        full = (oracles.hom_jacobi_residual_loop(a),
                oracles.multiplicative_residual_loop(a))
        old_hj = oracles.hom_jacobi_check_loop(a, full[0])
        old_mult = oracles.multiplicative_check_loop(a)
        skew = _skew_check(a).passed
        for s in (False, True) if skew else (False,):
            rep = check_algebra(a, skew=s)
            hj.compare(a.label, rep.part("hom_jacobi"), old_hj)
            mult.compare(a.label, rep.part("multiplicative"), old_mult, 4 ** 3)
        if skew:
            t12 = _slot_outer(a.bracket, 2, {0: a.twist, 1: a.twist})
            got = (_residual(_hom_jacobi_terms(a, t12, True)),
                   _residual(_morphism_terms(a, a.twist, t12, True)))
            for res, want in zip(got, full):
                assert res == {k: v for k, v in want.items()
                               if sorted_key(k)}, a.label
                restricted |= res != want
    # hom_jacobi reports a nominal n**5, so no lex position to cover
    hj.assert_covered()
    mult.assert_covered(late=0.1)
    assert restricted
    # with no skew check the mutant fails at keys a sorted scan never forms
    rep = check_algebra(nonskew_mutant(), skew=False)
    assert [rep.part(p).witness.at for p in ("hom_jacobi", "multiplicative")] \
        == [(0, 1, 1, 0, 2), (1, 0, 3)]


def test_is_derivation_matches_loop():
    tally = Tally()
    rng = random.Random(20190313)
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
    metric, invariance, closed, cocycle = Tally(), Tally(), Tally(), Tally()
    algs = algebras()
    # the metric and invariance checkers also take skew forms
    for kind in ("symmetric", "skew"):
        for a, m in itertools.product(algs, forms(kind)):
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
        fam = left_multiplication(PreLie3(4, a.bracket, a.twist))
        for i, j, k, l in itertools.product(range(4), repeat=4):
            assert fam[i][j].entries[l][k] == a.bracket.get(i, j, k, l)
    for p in prelie_products():
        right = right_multiplication(p)
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
    out = [regular_prelie_rep(p) for p in prelie_products()
           if "-reversed~" in p.label]
    for _ in range(4):
        reg = regular_prelie_rep(random_prelie(rng, 2, 1))
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
        same_algebra(assemble_matched_pair(m, checked=False),
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
    cases = [(n4(), OOperator(o.rep, o.T.scale(f))) for f in (1, -2, F(1, 3))]
    cases += [(neg, OOperator(coadjoint_rep(neg), o.T)),
              (Algebra3.abelian(4),
               OOperator(adjoint_rep(Algebra3.abelian(4)), Mat.identity(4)))]
    for a, op in cases:
        same_prelie(compatible_prelie(a, op),
                    oracles.compatible_prelie_dense(a, op))
    # both refuse a singular T and a T that is not an O-operator
    for op in (OOperator(o.rep, Mat.zeros(4, 4)),
               OOperator(adjoint_rep(n4()), Mat.identity(4))):
        with pytest.raises(PreconditionError) as new_e:
            compatible_prelie(n4(), op)
        with pytest.raises(PreconditionError) as old_e:
            oracles.compatible_prelie_dense(n4(), op)
        assert (str(new_e.value), new_e.value.witness) == \
            (str(old_e.value), old_e.value.witness)
