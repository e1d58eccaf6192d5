"""Symplectic structures, metrics, derivation round-trips, phase spaces,
and the nilpotent-extension bundles."""
import types
from fractions import Fraction

import pytest

import homlie3
from homlie3 import exactlin
from homlie3 import (Algebra3, BilForm, Mat, PreconditionError, PreLie3, Rep3,
                     Tensor4, fileio, canonical_phase_form, check_algebra,
                     check_metric, check_phase_space, check_prelie,
                     check_symplectic,
                     compatible_prelie_from_symplectic,
                     derivation_from_symplectic, nilpotent_extension,
                     phase_space_from_prelie, prelie_from_phase_space,
                     subadjacent, symplectic_from_derivation)
from homlie3.cli import report_doc
from homlie3.reps import _action_tensor, _semidirect, coadjoint_family
from homlie3.symplectic import is_metric_derivation
from homlie3.prelie import subadjacent_tensor

import oracles
from conftest import (N4_DIAG, N4_NEG, n4, n4_omega, n4_prelie,
                      random_prelie, skew_tensor)

F = Fraction


def omega_form():
    return BilForm(4, n4_omega(), "skew")


def test_n4_symplectic_form_passes():
    r = check_symplectic(n4(), omega_form())
    assert r.passed
    for name in ("skew", "nondegenerate", "twist_compatible", "cocycle"):
        assert r.part(name).passed, name


def test_every_skew_form_on_n4_satisfies_cocycle():
    # n4 has a single bracket row, and in each four-term instance the two
    # surviving terms pair the same indices with opposite signs, so every
    # skew form is a cocycle (nondegeneracy is what singles out omega)
    import itertools
    for trial, vals in enumerate(itertools.product((F(0), F(1), F(-2)),
                                                   repeat=6)):
        m = [[F(0)] * 4 for _ in range(4)]
        for (i, j), v in zip(itertools.combinations(range(4), 2), vals):
            m[i][j] = v
            m[j][i] = -v
        r = check_symplectic(n4(), BilForm(4, Mat(m), "skew"))
        assert r.part("cocycle").passed, trial


def test_wrong_pairing_fails_cocycle():
    # dim 6, [e1,e2,e3] = e5 and [e1,e2,e4] = e6: the standard pairing
    # e_i <-> e_{i+3} is skew, nondegenerate, twist-compatible, yet fails
    # the four-term identity at (e1,e2,e3,e4)
    from conftest import skew_tensor
    c = skew_tensor(6, {(0, 1, 2): {4: 1}, (0, 1, 3): {5: 1}})
    a = Algebra3(6, c, Mat.identity(6))
    assert check_algebra(a).passed
    m = [[F(0)] * 6 for _ in range(6)]
    for i in range(3):
        m[i][i + 3] = F(1)
        m[i + 3][i] = F(-1)
    r = check_symplectic(a, BilForm(6, Mat(m), "skew"))
    assert not r.passed
    for name in ("skew", "nondegenerate", "twist_compatible"):
        assert r.part(name).passed, name
    assert not r.part("cocycle").passed
    w = r.part("cocycle").witness
    assert w is not None
    assert w.at == (0, 1, 2, 3)


def test_twist_compatibility_required():
    # w o (a x a) = w fails for the scaling twist
    from conftest import N4_DIAG
    r = check_symplectic(n4(N4_DIAG), omega_form())
    assert not r.part("twist_compatible").passed
    # but holds for -id (degree two)
    assert check_symplectic(n4(N4_NEG), omega_form()).part(
        "twist_compatible").passed


def test_degenerate_form_fails():
    r = check_symplectic(n4(), BilForm(4, Mat.zeros(4, 4), "skew"))
    assert not r.part("nondegenerate").passed


def test_metric_identity_has_no_twist():
    # ([x,y,z],w) + (z,[x,y,w]) = 0 with no twist application: for N4 the
    # hyperbolic form pairing e4 with e1 fails at ([e1,e2,e3],e1)
    m = Mat([[F(0), F(0), F(0), F(1)], [F(0), F(1), F(0), F(0)],
             [F(0), F(0), F(1), F(0)], [F(1), F(0), F(0), F(0)]])
    r = check_metric(n4(), BilForm(4, m, "symmetric"))
    assert not r.part("invariance").passed


def test_abelian_metric_passes():
    a = Algebra3.abelian(4)
    m = Mat.identity(4)
    assert check_metric(a, BilForm(4, m, "symmetric")).passed


def test_nilpotent_extension_bundles():
    # the full construction for steps 2, 3, 4: every artifact re-checked
    for steps in (2, 3, 4):
        bundle, rep = nilpotent_extension(n4(), steps)
        assert rep.passed, steps
        for name in ("extension_algebra", "derivation", "double_algebra",
                     "metric", "double_derivation", "symplectic"):
            assert rep.part(name).passed, (steps, name)
        assert bundle.extension.dim == 4 * (steps - 1)
        assert bundle.double.dim == 8 * (steps - 1)


def test_nilpotent_double_equals_coadjoint_semidirect_sum():
    """The double built from the coadjoint action tensor is the semidirect
    sum of the extension with the action tensor of its coadjoint Rep3, in
    bracket and twist (that Rep3 need not pass the representation check
    that ``semidirect_sum`` makes)."""
    for base in (n4(), n4(N4_DIAG)):
        for steps in (2, 3, 4):
            bundle, _ = nilpotent_extension(base, steps)
            ext = bundle.extension
            coad = Rep3(ext, ext.dim, coadjoint_family(ext),
                        ext.twist.transpose())
            old = _semidirect(ext, _action_tensor(coad.rho), coad.A)
            assert bundle.double.bracket == old.bracket, (base.label, steps)
            assert bundle.double.twist == old.twist, (base.label, steps)


def test_nilpotent_bundle_reports_its_precondition_checks():
    """The bundle's metric and double_derivation parts are the reports that
    the construction of omega ran as its preconditions: the same as fresh
    runs on the double (N4diag's bundle fails its symplectic part)."""
    for base, steps in ((n4(), 4), (n4(N4_DIAG), 3)):
        bundle, rep = nilpotent_extension(base, steps)
        double, metric = bundle.double, bundle.metric
        assert rep.part("metric") == check_metric(double, metric)
        assert rep.part("double_derivation") == is_metric_derivation(
            double, metric, bundle.double_derivation)


@pytest.mark.parametrize("steps", [2, 3, 4])
def test_thm_5_3_roundtrip_exact_identity(steps):
    bundle, rep = nilpotent_extension(n4(), steps)
    assert rep.passed
    a, B, D = bundle.double, bundle.metric, bundle.double_derivation
    assert is_metric_derivation(a, B, D).passed
    omega, r1 = symplectic_from_derivation(a, B, D)
    assert r1.passed
    assert omega.matrix == bundle.omega.matrix
    D2, r2 = derivation_from_symplectic(a, B, omega)
    assert r2.passed
    assert D2 == D  # exact identity, both directions
    omega2, _ = symplectic_from_derivation(a, B, D2)
    assert omega2.matrix == omega.matrix


def test_symplectic_from_derivation_guards_non_skew():
    a = Algebra3.abelian(2)
    B = BilForm(2, Mat.identity(2), "symmetric")
    D = Mat([[F(1), F(0)], [F(0), F(2)]])  # symmetric w.r.t. B, not skew
    with pytest.raises(PreconditionError):
        symplectic_from_derivation(a, B, D)


def test_compatible_prelie_from_symplectic_roundtrip():
    a = n4()
    p, rep = compatible_prelie_from_symplectic(a, omega_form())
    assert rep.passed
    assert rep.part("prelie").passed
    assert rep.part("compatible").passed
    assert subadjacent_tensor(p.product) == a.bracket
    assert check_prelie(p).passed


def test_compatible_prelie_satisfies_its_defining_identity(rng):
    """The product built from a symplectic form satisfies w({x,y,z}, a(w))
    = -w(a(z), [x,y,w]) at every basis 4-tuple, by the dense oracle: on N4
    with omega, with omega scaled by 3/7, and on the phase spaces of
    randomized pre-Lie algebras, whose twists are not all the identity.
    The oracle finds a changed entry of the product."""
    w = omega_form()
    cases = [(n4(), w), (n4(), BilForm(4, Mat([[v * F(3, 7) for v in row]
                                              for row in w.matrix]), "skew"))]
    for _ in range(8):
        p = random_prelie(rng, rng.choice([3, 4]), rng.choice([1, 2]),
                          rng.choice([1, -1]))
        total, _ = phase_space_from_prelie(p)
        cases.append((total, canonical_phase_form(p.dim)))
    assert any(not a.twist.is_identity() for a, _ in cases)
    for a, form in cases:
        p, rep = compatible_prelie_from_symplectic(a, form)
        assert rep.passed, a.label
        assert p.product != Tensor4.zero(p.product.dims), a.label
        ok = oracles.symplectic_compatible_check_dense(a, form, p)
        assert ok.passed and ok.checked == a.dim ** 4, a.label
        (i, j, k), row = min(p.product.rows())
        bumped = PreLie3(a.dim, Tensor4.from_entries(p.product.dims, [
            *p.product.items(), (i, j, k, min(row), 1)]), p.twist)
        assert not oracles.symplectic_compatible_check_dense(
            a, form, bumped).passed, a.label


def test_canonical_phase_form_shape():
    f = canonical_phase_form(2)
    assert f.kind == "skew"
    assert f.matrix.entries[0][2] == F(-1)
    assert f.matrix.entries[2][0] == F(1)


def test_phase_space_from_n4_prelie():
    p = n4_prelie()
    total, rep = phase_space_from_prelie(p)
    assert rep.passed
    assert total.dim == 8
    ps = check_phase_space(subadjacent(p), total)
    assert ps.passed
    for name in ("algebra", "twist_split", "subalgebras", "base_bracket",
                 "symplectic"):
        assert ps.part(name).passed, name


def test_phase_space_randomized_suite(rng):
    # 20 randomized valid pre-Lie algebras: phase space always passes
    for k in range(20):
        p = random_prelie(rng, rng.choice([3, 4]), rng.choice([1, 2]),
                          rng.choice([1, -1]))
        total, rep = phase_space_from_prelie(p)
        assert rep.passed, k
        assert check_phase_space(subadjacent(p), total).passed, k
        assert total.dim == 2 * p.dim


def test_prelie_recovered_from_phase_space():
    p = n4_prelie()
    total, _ = phase_space_from_prelie(p)
    q, rep = prelie_from_phase_space(subadjacent(p), total)
    assert rep.passed
    assert q is not None
    assert q.product == p.product


def test_phase_space_rejects_mismatched_total():
    base = n4()
    with pytest.raises(Exception):
        check_phase_space(base, n4())


def test_phase_space_witnesses_do_not_depend_on_row_order():
    # one dim-8 total over the abelian L = span(e1..e4), its rows inserted
    # in two orders: [e2,e3,e4] has an e7 component (base not a subalgebra),
    # [e6,e7,e8] an e3 component (dual not a subalgebra), and [e1,e2,e4],
    # [e1,e3,e4] have components in L that the abelian base lacks
    seeds = [((1, 2, 3), {6: 1}), ((5, 6, 7), {2: 1}),
             ((0, 1, 3), {2: 1}), ((0, 2, 3), {1: 1})]
    base = Algebra3.abelian(4)
    docs = set()
    for rows in (seeds, seeds[::-1]):
        total = Algebra3(8, skew_tensor(8, dict(rows)), Mat.identity(8))
        rep = check_phase_space(base, total)
        w = rep.part("subalgebras").witness
        assert (w.check, w.at) == ("subalgebra_base", (1, 2, 3, 6))
        w = rep.part("base_bracket").witness
        assert (w.check, w.at) == ("base_bracket", (0, 1, 3, 2))
        docs.add(fileio.dumps(report_doc(rep)))
    assert len(docs) == 1
    # a base whose bracket the total lacks, its rows in two orders
    seeds = [((0, 1, 2), {3: 1}), ((1, 2, 3), {0: 1})]
    for rows in (seeds, seeds[::-1]):
        base = Algebra3(4, skew_tensor(4, dict(rows)), Mat.identity(4))
        w = check_phase_space(base, Algebra3.abelian(8)).part(
            "base_bracket").witness
        assert (w.check, w.at) == ("base_bracket", (0, 1, 2, 3))


def test_nilpotent_build_calls_public_exactlin_o1_times(monkeypatch):
    """A nilpotent build calls the public ``exactlin`` functions (all but
    the per-entry helpers) a fixed number of times, whatever the number of
    steps: once per matrix it checks, not once per row or entry. The
    benchmark's tracer (``perfbench/tracer.py``) opens a span at each such
    call, so per-row calls would slow its traced run with the size of the
    bundle."""
    per_entry = {"rat", "rat_str", "dense", "vec_add_into"}
    names = {name for name, fn in vars(exactlin).items()
             if isinstance(fn, types.FunctionType)
             and fn.__module__ == exactlin.__name__
             and not name.startswith("_") and name not in per_entry}
    assert {"mat_rank", "mat_inverse", "sparse_kernel"} <= names
    calls = []
    for mod in (exactlin, *(getattr(homlie3, m) for m in (
            "homlie", "reps", "bialgebra", "prelie", "yangbaxter",
            "symplectic", "fileio"))):
        for name in names & set(vars(mod)):
            def wrapper(*args, _fn=getattr(exactlin, name), _name=name, **kw):
                calls.append(_name)
                return _fn(*args, **kw)
            monkeypatch.setattr(mod, name, wrapper)
    counts = []
    for steps in (3, 7):
        calls.clear()
        assert nilpotent_extension(n4(), steps)[1].passed
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 12, counts
