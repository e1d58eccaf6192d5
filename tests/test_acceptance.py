"""Acceptance suite: one test per acceptance criterion, each recording a
single pass/fail line (printed in the terminal summary and echoed to stdout).

Every test re-derives its fixtures from scratch so this file alone is a
complete acceptance run.
"""
import json
import os
import random
from fractions import Fraction

import conftest
from conftest import (N4_DIAG, N4_NEG, chybe_solution_on_n4, corrupted_n4,
                      graded_twist, invertible_chybe_solution, n4, n4_omega,
                      n4_prelie, random_nilpotent, random_prelie,
                      random_skew_mat, rank1_rep, skew_tensor,
                      symplectic_o_operator)

from homlie3 import (Algebra3, BilForm, Mat, OOperator, RTensor, adjoint_rep,
                     canonical_phase_form, check_algebra, check_chybe,
                     check_o_operator, check_phase_space, check_prelie,
                     check_symplectic, coadjoint_rep, coboundary_cobracket,
                     cocycle_form_check, composition_twist,
                     derivation_from_symplectic, equivalence_suite, fileio,
                     compatible_prelie, induced_prelie_on_module,
                     mat_inverse, nilpotent_extension, phase_space_from_prelie,
                     semidirect_sum, subadjacent, verify_residual, yau_twist)
from homlie3.bialgebra import Cobracket
from homlie3.cli import main
from homlie3.prelie import subadjacent_tensor
from homlie3.symplectic import is_metric_derivation, symplectic_from_derivation
from homlie3.yangbaxter import alpha_invariance

from oracles import base_projection

F = Fraction
FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def record(num, desc, ok):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _rng():
    return random.Random(20260826)


def test_criterion_1_hom_jacobi_fixtures():
    ok = (check_algebra(n4()).passed
          and check_algebra(n4(N4_DIAG)).passed)
    bad = check_algebra(corrupted_n4())
    w = bad.part("skew").witness
    ok = ok and not bad.passed and w is not None and w.at == (0, 2, 1, 3)
    record(1, "Hom-Jacobi fixtures: N4 twists pass, corrupted N4 fails "
              "with the lex-first witness", ok)


def test_criterion_2_twist_theorem_tests():
    rng = _rng()
    ok = True
    for count in range(50):
        gens = rng.choice([3, 4])
        cdim = rng.choice([1, 2])
        a = random_nilpotent(rng, gens, cdim, 1)
        mu = rng.choice([2, 3, -1, F(1, 2)])
        phi = graded_twist(gens, cdim, mu)
        ok = ok and check_algebra(yau_twist(a, phi)).passed
        b = random_nilpotent(rng, gens, cdim, rng.choice([1, -1]))
        beta = graded_twist(gens, cdim, rng.choice([2, -1, F(1, 3)]))
        ok = ok and check_algebra(composition_twist(b, beta)).passed
    record(2, "50 randomized Yau-twist and composition-twist outputs all "
              "pass check_algebra", ok)


def test_criterion_3_semidirect_suite():
    rng = _rng()
    ok = True
    for count in range(50):
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
        ok = (ok and check_algebra(total).passed
              and base_projection(total, a.dim) == a.bracket)
    record(3, "50 randomized semidirect sums pass check_algebra and "
              "project back to the base exactly", ok)


def test_criterion_4_equivalence_agreement():
    rng = _rng()
    cases = []
    for twist in (None, N4_NEG):
        a = n4(twist)
        cases.append(Cobracket(a, skew_tensor(4, {})))
        cases.append(Cobracket(a, skew_tensor(4, {(0, 1, 2): {0: 1}})))
        for drop in (0, 1, 2):
            c, _ = coboundary_cobracket(chybe_solution_on_n4(rng, drop, twist))
            cases.append(c)
    while len(cases) < 20:
        c, _ = coboundary_cobracket(chybe_solution_on_n4(rng, len(cases) % 3))
        cases.append(c)
    ok = len(cases) >= 20
    agree = all(equivalence_suite(c).agree for c in cases)
    record(4, f"three-way double/Manin/matched-pair verdicts agree on "
              f"{len(cases)} cobrackets", ok and agree)


def test_criterion_5_prelie_suites():
    rng = _rng()
    ok = True
    # Prop 3.4: sub-adjacent of every valid pre-Lie is an algebra
    for _ in range(20):
        p = random_prelie(rng, rng.choice([3, 4]), rng.choice([1, 2]),
                          rng.choice([1, -1, 2]))
        ok = ok and check_prelie(p).passed
        ok = ok and check_algebra(subadjacent(p)).passed
    # Prop 3.6: passing O-operators induce pre-Lie products transported
    # onto the bracket by T, exactly
    for o in (symplectic_o_operator(),
              OOperator(adjoint_rep(n4()), Mat.zeros(4, 4)),
              OOperator(adjoint_rep(Algebra3.abelian(4)), Mat.identity(4))):
        ok = ok and check_o_operator(o).passed
        induced = induced_prelie_on_module(o)
        ok = ok and check_prelie(induced).passed
        a, T, n = o.rep.base, o.T, o.rep.vdim
        sub = subadjacent_tensor(induced.product)
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    lhs = [sum((T.entries[l][m] * sub.get(u, v, w, m)
                                for m in range(n)), F(0)) for l in range(a.dim)]
                    tu, tv, tw = T.col(u), T.col(v), T.col(w)
                    rhs = [sum((a.bracket.get(i, j, k, l) * tu[i] * tv[j] * tw[k]
                                for i in range(a.dim) for j in range(a.dim)
                                for k in range(a.dim)), F(0))
                           for l in range(a.dim)]
                    ok = ok and lhs == rhs
    # Prop 3.7: compatible pre-Lie round-trips the structure constants
    p = compatible_prelie(n4(), symplectic_o_operator())
    ok = (ok and check_prelie(p).passed
          and subadjacent(p).bracket == n4().bracket)
    record(5, "sub-adjacent, O-operator transport, and compatible pre-Lie "
              "round-trip identities hold exactly", ok)


def test_criterion_6_residual_identity():
    rng = _rng()
    ok = True
    for count in range(100):
        kind = count % 4
        if kind == 0:
            r = RTensor(n4(), random_skew_mat(rng, 4))
        elif kind == 1:
            r = RTensor(n4(N4_NEG), random_skew_mat(rng, 4))
        elif kind == 2:
            r = RTensor(random_nilpotent(rng, 3, 2, 1), random_skew_mat(rng, 5))
        else:
            r = RTensor(random_nilpotent(rng, 4, 1, -1),
                        random_skew_mat(rng, 5, support=[0, 1, 2, 3]))
        ok = (ok and alpha_invariance(r).passed
              and verify_residual(r).passed)
    record(6, "residual identity holds on 100 randomized skew invariant "
              "r-tensors of dim <= 5 via independent code paths", ok)


def test_criterion_7_inverse_form_biconditional():
    rng = _rng()
    a = random_nilpotent(rng, 4, 2, 1, label="nilp6")
    cases = [RTensor(n4(), mat_inverse(n4_omega())),
             RTensor(n4(), mat_inverse(n4_omega()).scale(F(-3, 2)))]
    for _ in range(4):
        cases.append(invertible_chybe_solution(rng, a))
    while len(cases) < 24:
        m = random_skew_mat(rng, 6)
        if mat_inverse(m) is not None:
            cases.append(RTensor(a, m))
    ok = len(cases) >= 20
    verdicts = set()
    for r in cases:
        rep = cocycle_form_check(r)
        ok = ok and rep.passed
        ok = ok and rep.part("chybe").passed == rep.part("closed_form").passed
        verdicts.add(rep.part("chybe").passed)
    ok = ok and verdicts == {True, False}
    record(7, f"CHYBE and closed-form verdicts agree on {len(cases)} "
              f"invertible skew invariant r mixing solutions and "
              f"non-solutions", ok)


def test_criterion_8_derivation_roundtrip():
    ok = True
    for steps in (2, 3, 4):
        bundle, rep = nilpotent_extension(n4(), steps)
        ok = ok and rep.passed
        a, B, D = bundle.double, bundle.metric, bundle.double_derivation
        ok = ok and is_metric_derivation(a, B, D).passed
        omega, r1 = symplectic_from_derivation(a, B, D)
        ok = ok and r1.passed and omega.matrix == bundle.omega.matrix
        D2, r2 = derivation_from_symplectic(a, B, omega)
        ok = ok and r2.passed and D2 == D
    record(8, "derivation/symplectic round-trip is the exact identity on "
              "the truncation bundles for steps 2, 3, 4", ok)


def test_criterion_9_phase_spaces():
    rng = _rng()
    ok = True
    total, rep = phase_space_from_prelie(n4_prelie())
    ok = ok and rep.passed
    ok = ok and total.dim == 8
    ok = ok and check_phase_space(n4(), total).passed
    omega = canonical_phase_form(4)
    ok = ok and check_symplectic(total, omega).passed
    ok = ok and check_symplectic(total, omega).part("cocycle").passed
    for _ in range(20):
        p = random_prelie(rng, rng.choice([3, 4]), rng.choice([1, 2]),
                          rng.choice([1, -1]))
        t, r = phase_space_from_prelie(p)
        ok = ok and r.passed and check_phase_space(subadjacent(p), t).passed
    record(9, "phase spaces from the N4 pre-Lie and 20 randomized pre-Lie "
              "products all pass check_phase_space; the N4 phase space is "
              "8-dimensional with the canonical form a cocycle", ok)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    corpus = [
        ["check", "algebra", os.path.join(FIX, "n4.alg")],
        ["check", "algebra", os.path.join(FIX, "n4diag.alg")],
        ["check", "algebra", os.path.join(FIX, "corrupted.alg")],
        ["check", "prelie", os.path.join(FIX, "n4prelie.plg")],
        ["check", "rep", os.path.join(FIX, "coadjoint.rep")],
        ["check", "chybe", os.path.join(FIX, "r12.rmat")],
        ["check", "residual", os.path.join(FIX, "r12.rmat")],
        ["check", "o-operator", os.path.join(FIX, "symp.oop")],
        ["check", "symplectic", os.path.join(FIX, "n4.alg"),
         os.path.join(FIX, "omega.frm")],
        ["check", "matched-pair", os.path.join(FIX, "trivial.mpair")],
        ["check", "manin", os.path.join(FIX, "zero.cob")],
        ["check", "double", os.path.join(FIX, "zero.cob")],
        ["check", "equivalence", os.path.join(FIX, "zero.cob")],
        ["check", "cobracket", os.path.join(FIX, "zero.cob")],
        ["report", "derivations", os.path.join(FIX, "n4.alg")],
    ]
    ok = True
    for argv in corpus:
        outs = []
        for _ in range(2):
            main(argv + ["--format", "structured"])
            outs.append(capsys.readouterr().out)
        ok = ok and outs[0] == outs[1]
        json.loads(outs[0])
    # every emitted artifact satisfies serialize(parse(file)) == file
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["build", "phase-space", os.path.join(FIX, "n4prelie.plg"),
                     "-o", str(out)]) == 0
        assert main(["build", "twist", os.path.join(FIX, "n4.alg"),
                     os.path.join(FIX, "morph.mat"), "-o", str(out)]) == 0
        assert main(["build", "cobracket", os.path.join(FIX, "r12.rmat"),
                     "-o", str(out)]) == 0
        assert main(["build", "nilpotent", os.path.join(FIX, "n4.alg"),
                     "--steps", "2", "-o", str(out)]) == 0
        capsys.readouterr()
    loaders = {".alg": (fileio.load_algebra, fileio.algebra_to_doc),
               ".plg": (fileio.load_prelie, fileio.prelie_to_doc),
               ".frm": (fileio.load_bilform, fileio.bilform_to_doc),
               ".cob": (fileio.load_cobracket, fileio.cobracket_to_doc)}
    for name in sorted(os.listdir(out1)):
        path1, path2 = os.path.join(out1, name), os.path.join(out2, name)
        with open(path1, "rb") as fh:
            raw = fh.read()
        with open(path2, "rb") as fh:
            ok = ok and raw == fh.read()
        ext = os.path.splitext(name)[1]
        if ext in loaders:
            load, to_doc = loaders[ext]
            ok = ok and fileio.dumps(to_doc(load(path1))).encode() == raw
        elif ext == ".mat":
            m = fileio.load_matrix(path1)
            ok = ok and fileio.dumps(fileio.matrix_to_doc(m)).encode() == raw
    record(10, "structured reports are byte-identical across runs on the "
               "fixture corpus; emitted artifacts satisfy serialize-parse "
               "identity", ok)
