"""Representations, duals, coadjoint actions, and semidirect sums."""
import functools
import os
import random
import types
from fractions import Fraction
from itertools import product

import pytest

from homlie3 import (Algebra3, InputError, Mat, PreconditionError, Rep3,
                     Tensor4, adjoint_rep, check_algebra,
                     check_representation, coadjoint_rep,
                     dual_representation, exactlin, fileio, homlie,
                     mat_inverse, nilpotent_extension, rep_from_upper, reps,
                     semidirect_sum, yau_twist)
from homlie3.cli import report_doc
from homlie3.symplectic import _truncated_extension

from conftest import (CAYLEY_S, N4_DIAG, N4_NEG, a4, a4_cayley, n4,
                      random_nilpotent, rank1_rep, skew_tensor)
from oracles import (base_projection, check_representation_walk,
                     fraction_ops, semidirect_sum_dense)

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
    assert rep.rho[0][0] == Mat.zeros(3, 3)


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
    """The semidirect sum that semidirect_sum builds from the action tensor
    (after its representation check, which some of these reps fail)
    equals the sum read from the dense operator family, in bracket, twist
    and label."""
    cases = [build(base) for base in (n4(), a4(), a4_cayley())
             for build in (adjoint_rep, coadjoint_rep)]
    cases.append(fileio.load_rep(os.path.join(os.path.dirname(__file__),
                                              "fixtures", "coadjoint.rep")))
    checked = 0
    for r in cases:
        new = reps._semidirect(r.base, reps._action_tensor(r.rho), r.A)
        old = semidirect_sum_dense(r.base, r)
        assert (new.bracket, new.twist, new.label) == \
            (old.bracket, old.twist, old.label)
        assert new.bracket != Tensor4.zero(new.bracket.dims)
        if check_representation(r).passed:
            assert semidirect_sum(r.base, r) == new
            checked += 1
    assert 0 < checked < len(cases)


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
    # The lifted check scales rho, B, the twist and the bracket by their
    # common denominators Dr, DB, Da and Dc. Over the Cayley A4 with its
    # bracket scaled by 1/5, rho + 1/2 and B + 1/3 make them pairwise
    # distinct: 34, 51, 17 and 85, so a factor dropped, swapped or divided
    # back wrongly shows in a side.
    cayley = a4_cayley()
    fifth = Algebra3(4, cayley.bracket.scale(F(1, 5)), cayley.twist, "a4t/5")
    for kind, build in (("ad", adjoint_rep), ("coad", coadjoint_rep)):
        rep = _mutant(build(cayley), 0, 2, 1, 3, F(1, 2))
        A = [list(row) for row in rep.A.entries]
        A[2][1] += F(1, 3)
        corpus.append((f"a4t/5.{kind}~rho+1/2~A+1/3",
                       Rep3(fifth, 4, rep.rho, Mat(A))))
    # a passing rep with denominators 2, 3 and 6 in each of the four
    y = yau_twist(n4(), Mat.diag([F(1, 2), F(1, 3), 1, F(1, 6)]))
    corpus.append(("n4~yau.ad", adjoint_rep(y)))
    return corpus


def _nonskew_refused() -> bool:
    """rho(e1, e2) = E12 on a 2-dim carrier over a base whose one bracket
    row, [e2, e1, e3] = e1, is not skew, where action and exchange would
    fail only at tuples with x > y, which the checker does not form: it
    refuses the base with its skew witness."""
    base = Algebra3(3, Tensor4.from_entries((3,) * 4, [(1, 0, 2, 0, 1)]),
                    Mat.identity(3), "nonskew")
    rep = rep_from_upper(base, 2, {(0, 1): Mat([[0, 1], [0, 0]])},
                         Mat.identity(2))
    with pytest.raises(PreconditionError) as err:
        check_representation(rep)
    return err.value.witness == base._skew.witness is not None


def test_sparse_checker_matches_dense_oracle():
    failed_parts = set()
    late_exit = False
    for key, rep in _oracle_corpus():
        new = check_representation(rep)
        old = check_representation_walk(rep)
        assert fileio.dumps(report_doc(new)) == fileio.dumps(report_doc(old)), key
        failed = [(name, part) for name, part in old.parts if not part.passed]
        failed_parts.update(name for name, _ in failed)
        if failed and failed[0][1].checked > rep.base.dim ** 3:
            late_exit = True
    # the corpus fails every part, and once past the first quarter of a part
    assert failed_parts == {"intertwine", "action", "exchange"}
    assert late_exit
    assert _nonskew_refused()


BIG_RHO, BIG_B = F(10 ** 20, 19), F(-10 ** 20, 23)


def _big_mutant(rep, sites):
    """rep with rho(i, j)[p][q] += BIG_RHO (rho(j, i) kept skew) for each
    site (i, j, p, q), and B[p][q] += BIG_B for each site (p, q)."""
    for site in sites:
        if len(site) == 4:
            rep = _mutant(rep, *site, BIG_RHO)
        else:
            A = [list(row) for row in rep.A.entries]
            A[site[0]][site[1]] += BIG_B
            rep = Rep3(rep.base, rep.vdim, rep.rho, Mat(A))
    return rep


# An 8 x 8 sign matrix and signs on the pairs (a, b) with b > 2, in lex
# order, found by a search: on the rep of _near_bound_rep, the first
# failing action tuple (e1, e2, e3, e4) has a side 84 M**5 before it is
# divided back, over a third of the bound 3 m n**2 M**5 = 192 M**5.
NEAR_BOUND_TWIST = ("-----+-+", "--------", "+++-++-+", "-++++++-",
                    "-+-++-+-", "-+--+-+-", "+--++-++", "+----+-+")
NEAR_BOUND_RHO = "---++---+++++--+++-0+++++"


def _near_bound_rep():
    """Over N4[t]/t^3, whose bracket is zero, with the twist M H for the
    sign matrix H, a rep on a line with rho(e_a, e_b) = +-M or 0 and
    B = 1/M. Every source then has magnitude M, S = DB included, and
    M = 2**67 - 1 puts 4 m n**2 M**5 just below a power of 2, so a slot
    width 2 bits short of bitlen(4 m n**2 M**5) + 1 misreads that side."""
    M, sign = 2 ** 67 - 1, {"+": 1, "-": -1, "0": 0}
    base = Algebra3(8, _truncated_extension(n4(), 3).bracket,
                    Mat([[sign[c] * M for c in row] for row in NEAR_BOUND_TWIST]),
                    "n4[t]/t^3~MH")
    pairs = [(a, b) for a in range(8) for b in range(max(a + 1, 3), 8)]
    return rep_from_upper(base, 1, {
        key: Mat([[sign[c] * M]]) for key, c in zip(pairs, NEAR_BOUND_RHO)},
        Mat([[F(1, M)]]))


def _big_corpus():
    """Reps whose entries are about 10**20, of mixed sign, with the
    denominators 13, 11, 17, 19 and 23 in the bracket, the twist, rho and
    B, as (label, rep, passes): the adjoint reps of the Cayley A4 and of
    the dim-8 nilpotent N4 + N4* (N4 extended by its coadjoint module),
    each with its bracket scaled, and over the dim-8 nilpotent extension
    N4[t]/t^3, whose bracket is zero, a rep whose only operators are
    P = rho(e6, e8) and Q = rho(e7, e8). Its action part can fail only at
    its last tuple (e6, e7, e8, e8), where the sides are 0 and QP - PQ.
    Then mutants of each, and _near_bound_rep."""
    def scaled(a, lam):
        return Algebra3(a.dim, a.bracket.scale(lam), a.twist, a.label)
    a4t = adjoint_rep(scaled(a4_cayley(), F(-(10 ** 20 + 7), 13)))
    ext = adjoint_rep(scaled(semidirect_sum(n4(), coadjoint_rep(n4())),
                             F(10 ** 20 + 9, 11)))
    P = Mat.diag([BIG_RHO * (k - 3) for k in range(8)])
    Q = Mat.diag([BIG_RHO * k * k for k in range(8)])  # commutes with P
    flat = rep_from_upper(_truncated_extension(n4(), 3), 8,
                          {(5, 7): P, (6, 7): Q}, Mat.identity(8))
    mutants = [(a4t, [(0, 1, 0, 0)]), (ext, [(0, 1, 0, 0)]), (ext, [(0, 0)]),
               (ext, [(6, 7, 0, 0), (3, 0)]), (flat, [(6, 7, 0, 1)])]
    return ([(rep.base.label, rep, True) for rep in (a4t, ext, flat)]
            + [(f"{rep.base.label}~{sites}", _big_mutant(rep, sites), False)
               for rep, sites in mutants]
            + [("near-bound", _near_bound_rep(), False)])


def _failable(check, n):
    """The tuples of a part at which it can fail: an exchange tuple with
    (x, y) = (z, u) has equal sides."""
    return [t for t in _evaluated(check, n)
            if check != "rep_exchange" or t[:2] != t[2:]]


def test_packed_check_matches_dense_oracle_at_large_magnitudes():
    """Packed columns stay injective at entries of about 10**20: every
    field of every part, both witness sides included, equals the
    definition walk's. The mutants fail each part at the first, a middle
    and the last tuple at which it can fail, except exchange's last, and
    one side of _near_bound_rep needs all but 1 bit of the slot width."""
    where = set()
    for label, rep, passes in _big_corpus():
        new, old = check_representation(rep), check_representation_walk(rep)
        assert new.passed == passes, label
        assert new == old, label
        for (name, a), (_, b) in zip(new.parts, old.parts):
            assert (a.passed, a.checked) == (b.passed, b.checked)
            if not a.passed:
                assert (a.witness.check, a.witness.at) == \
                    (b.witness.check, b.witness.at)
                assert (a.witness.left, a.witness.right) == \
                    (b.witness.left, b.witness.right)
                assert a.witness.left != a.witness.right
                keys = _failable(a.witness.check, rep.base.dim)
                k = keys.index(a.witness.at)
                where.add((name, "first" if k == 0 else
                           "last" if k == len(keys) - 1 else "middle"))
        assert fileio.dumps(report_doc(new)) == fileio.dumps(report_doc(old))
    assert where == {(p, k) for p in ("intertwine", "action", "exchange")
                     for k in ("first", "middle", "last")} - {
                         ("exchange", "last")}


def test_lifted_check_does_no_fraction_arithmetic():
    """The Cayley-twisted A4 has the denominator 17 in its twist and its
    bracket, yet its passing adjoint check adds, subtracts, multiplies and
    divides no Fraction: every identity is compared on ints. A lift written
    as ``v * D`` keeps Fractions and fails this."""
    rep = adjoint_rep(a4_cayley())
    r, calls = fraction_ops(lambda: check_representation(rep))
    assert r.passed
    assert calls == []


def test_rep_is_lifted_and_packed_once():
    """A repeated check of the Cayley A4's adjoint rep reuses the packing
    cached on the rep and makes no Fraction call. The cache is not a field:
    a checked rep still equals, and hashes as, an unchecked equal one."""
    rep, twin = adjoint_rep(a4_cayley()), adjoint_rep(a4_cayley())
    first = check_representation(rep)
    packed = rep._packed
    for _ in range(3):
        again, calls = fraction_ops(lambda: check_representation(rep))
        assert again == first and again.passed and calls == []
    assert rep._packed is packed and "_packed" not in vars(twin)
    assert rep == twin and hash(rep) == hash(twin)
    assert {rep: 1}[twin] == 1


def _block_cayley(k):
    """A4^k, Yau-twisted along the Cayley rotation of CAYLEY_S on each
    block: dim 4k, with a dense twist block and the denominator 17."""
    eye = Mat.identity(4)
    twist = rot = (eye - CAYLEY_S) @ mat_inverse(eye + CAYLEY_S)
    for _ in range(k - 1):
        twist = Mat.block_diag(twist, rot)
    entries = [(i + 4 * b, j + 4 * b, l + 4 * b, m + 4 * b, v)
               for b in range(k) for i, j, l, m, v in a4().bracket.items()]
    power = Algebra3(4 * k, Tensor4.from_entries((4 * k,) * 4, entries),
                     Mat.identity(4 * k), f"a4^{k}")
    return yau_twist(power, twist)


def test_lifted_algebra_checks_and_twists_do_no_fraction_arithmetic():
    """A passing check_algebra of the Cayley-twisted A4 and of block-Cayley
    A4^2, lift included, and the Yau twist of A4 along the Cayley rotation
    add, subtract, multiply and divide no Fraction."""
    eye = Mat.identity(4)
    rotation = (eye - CAYLEY_S) @ mat_inverse(eye + CAYLEY_S)
    for a in (a4_cayley(), _block_cayley(2)):
        assert a.twist.den == a.bracket.den == 17
        r, calls = fraction_ops(lambda: check_algebra(a))
        assert r.passed and calls == [], a.label
    base = a4()
    twisted, calls = fraction_ops(lambda: yau_twist(base, rotation))
    assert twisted == a4_cayley() and calls == []


@functools.cache
def _evaluated(check, n):
    """The tuples, in lex order, that a part of check_representation
    evaluates over a skew base bracket: those sorted in these slots."""
    slots = {"rep_intertwine": ((0, 1),), "rep_action": ((0, 1), (1, 2)),
             "rep_exchange": ((0, 1), (2, 3))}[check]
    return [t for t in product(range(n), repeat=2 if len(slots) == 1 else 4)
            if all(t[a] < t[b] for a, b in slots)]


def _late_mutant(rep, rng, tries=200):
    """A seeded single-entry mutant of rep that first fails past the first
    quarter of the tuples its failing part evaluates."""
    n, m = rep.base.dim, rep.vdim
    for _ in range(tries):
        i, j = sorted(rng.sample(range(n), 2))
        mutant = _mutant(rep, i, j, rng.randrange(m), rng.randrange(m),
                         rng.choice((F(1), F(-1), F(1, 2))))
        failed = [p for _, p in check_representation(mutant).parts
                  if not p.passed]
        if failed:
            w = failed[0].witness
            evaluated = _evaluated(w.check, n)
            if evaluated.index(w.at) > len(evaluated) // 4:
                return mutant
    raise AssertionError(f"no late mutant of {rep.base.label} in {tries} tries")


def test_sparse_checker_matches_loop_oracle():
    """At dim 8 and 12 the reports equal, byte for byte, those of the walk
    over every tuple (``check_representation_walk``)."""
    ext = _truncated_extension(n4(), 4)
    big = [("a4^2.cayley.ad", adjoint_rep(_block_cayley(2))),
           ("a4^3.cayley.ad", adjoint_rep(_block_cayley(3))),
           ("n4[t]/t^4.ad", adjoint_rep(ext)),
           ("n4[t]/t^4.coad", coadjoint_rep(ext))]
    rng = random.Random(20190311)
    corpus = big + [(f"{key}~late", _late_mutant(rep, rng)) for key, rep in big]
    for key, rep in corpus:
        new = check_representation(rep)
        old = check_representation_walk(rep)
        assert fileio.dumps(report_doc(new)) == fileio.dumps(report_doc(old)), key
        assert new.passed == ("~" not in key), key
    assert _nonskew_refused()


def _count_calls(monkeypatch, module, names):
    """Replace each function ``module.name`` by a wrapper that counts its
    calls; returns the list the wrappers append to."""
    calls = []
    for name in names:
        def wrapper(*args, _fn=getattr(module, name), _name=name, **kw):
            calls.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_kernel_stays_inside_reps(monkeypatch):
    """A passing check calls the public ``exactlin`` functions it imports
    (all but the per-entry helpers) O(n**2) times: once per operator, not
    once per tuple. The benchmark's tracer (``perfbench/tracer.py``) opens a
    span at each such call across a module boundary, so per-tuple calls
    would record O(n**4) spans per check, and its traced run, which walks
    every recorded span between ops, would grow quadratically. Denominators
    and lifts are read through ``Mat`` and ``Tensor4`` methods, which it
    does not wrap; ``unlift`` divides a witness back."""
    per_entry = {"rat", "dense", "sparse_of", "vec_add_into"}
    names = [name for name, fn in vars(reps).items()
             if isinstance(fn, types.FunctionType)
             and fn.__module__ == exactlin.__name__
             and not name.startswith("_") and name not in per_entry]
    assert "unlift" in names
    for rep in (adjoint_rep(a4_cayley()),
                adjoint_rep(_truncated_extension(n4(), 4))):
        calls = _count_calls(monkeypatch, reps, names)
        assert check_representation(rep).passed
        n = rep.base.dim
        assert len(calls) <= 2 * n * n + 16, (n, len(calls))
        monkeypatch.undo()


def test_each_operator_product_is_formed_once(monkeypatch):
    """Each product rho(a(p), a(q)) rho(r, s) with p < q and r < s, each
    rho(a(u), a(v)) B and B rho(u, v) with u < v, and each rho(k, a(u)) B
    is formed at most once per check: at most C(n,2)**2 + 2 C(n,2) + n**2
    products, 64 at n = 4."""
    calls = _count_calls(monkeypatch, reps, ["_matmul"])
    assert check_representation(adjoint_rep(a4_cayley())).passed
    assert 0 < len(calls) <= 6 * 6 + 2 * 6 + 4 * 4


def test_skew_is_scanned_once_per_algebra(monkeypatch):
    """Every precondition reads the skew scan cached on its algebra. So
    building N4, A4, A4 Yau-twisted along the Cayley rotation and A4+A4,
    the adjoint and coadjoint reps of each with a mutant, and checking
    them all scans each algebra once, as the benchmark's rep-scale
    workload does; one steps-7 nilpotent_extension scans its base,
    extension and double once each."""
    calls = []
    scan = homlie._skew_scan
    monkeypatch.setattr(homlie, "_skew_scan",
                        lambda c: (calls.append(c.dims[0]), scan(c))[1])
    eye, base = Mat.identity(4), a4()
    twisted = yau_twist(base, (eye - CAYLEY_S) @ mat_inverse(eye + CAYLEY_S))
    a4a4 = Algebra3(8, Tensor4.from_entries((8,) * 4, [
        *base.bracket.items(),
        *((i + 4, j + 4, k + 4, l + 4, v)
          for i, j, k, l, v in base.bracket.items())]), Mat.identity(8))
    for a in (n4(), base, twisted, a4a4):
        for build in (adjoint_rep, coadjoint_rep):
            rep = build(a)
            mutant = _mutant(rep, 0, 1, 0, 0, F(1))  # rho(e1, e2) e1 += e1
            assert not check_representation(mutant).passed
            if a.dim == 4:
                check_representation(rep)
    assert sorted(calls) == [4, 4, 4, 8]
    calls.clear()
    nilpotent_extension(n4(), 7)
    assert sorted(calls) == [4, 24, 48]
