"""Command-line front end: parse artifact files, dispatch one verb/target
pair to one library operation, emit a deterministic report, and exit with
0 (all checks passed), 1 (a check failed; witness in the report), or
2 (unparseable input or a violated precondition).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .exactlin import InputError, rat_str
from .homlie import (
    CheckReport, PreconditionError, Witness, _flag, check_algebra,
    composition_twist, derivation_space, yau_twist,
)
from .reps import check_representation, semidirect_sum
from . import bialgebra, fileio, prelie, symplectic, yangbaxter

MAX_DIM = 12


def _fmt_side(w: Witness, side: tuple) -> list:
    """A witness side as strings, one per item of its ``kind``: "p/q" for a
    scalar, "(i, p/q)" with i 1-based (like the indices of ``at``) for an
    (index, value) pair, and for a matrix row the str() of the tuple of its
    entries as Fractions, the form reports have always printed."""
    if w.kind == "pairs":
        return [f"({i + 1}, {rat_str(v)})" for i, v in side]
    if w.kind == "rows":
        return [str(tuple(map(Fraction, row))) for row in side]
    return [rat_str(v) for v in side]


def _witness_doc(w: Witness):
    if w is None:
        return None
    return {"check": w.check,
            "at": [i + 1 if isinstance(i, int) else i for i in w.at],
            "left": _fmt_side(w, w.left),
            "right": _fmt_side(w, w.right)}


def report_doc(r: CheckReport) -> dict:
    return {"passed": r.passed,
            "checked": r.checked,
            "witness": _witness_doc(r.witness),
            "parts": [[name, report_doc(sub)] for name, sub in r.parts]}


def report_text(r: CheckReport, name: str = "overall", depth: int = 0) -> str:
    pad = "  " * depth
    lines = [f"{pad}{name}: {'PASS' if r.passed else 'FAIL'} (checked {r.checked})"]
    if r.witness is not None and not r.parts:
        w = r.witness
        at = ",".join(str(i + 1 if isinstance(i, int) else i) for i in w.at)
        lines.append(f"{pad}  witness {w.check} at ({at}): "
                     f"left={_fmt_side(w, w.left)} "
                     f"right={_fmt_side(w, w.right)}")
    for sub_name, sub in r.parts:
        lines.append(report_text(sub, sub_name, depth + 1))
    return "\n".join(lines)


def _emit_report(r: CheckReport, args, out=None) -> int:
    out = out if out is not None else sys.stdout
    if args.format == "structured":
        out.write(fileio.dumps(report_doc(r)))
    else:
        out.write(report_text(r) + "\n")
    return 0 if r.passed else 1


def _outdir(args) -> str:
    d = args.output or "."
    os.makedirs(d, exist_ok=True)
    return d


def _write(args, name: str, doc: dict) -> None:
    fileio.dump(doc, os.path.join(_outdir(args), name))


# ---------------------------------------------------------------- handlers

def _check_algebra(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    return _emit_report(check_algebra(a, regular=args.regular), args)


def _check_rep(args):
    return _emit_report(check_representation(fileio.load_rep(args.inputs[0], MAX_DIM)), args)


def _check_prelie(args):
    return _emit_report(prelie.check_prelie(fileio.load_prelie(args.inputs[0], MAX_DIM)), args)


def _check_matched_pair(args):
    m = fileio.load_matched_pair(args.inputs[0], MAX_DIM)
    return _emit_report(bialgebra.check_matched_pair(m), args)


def _check_manin(args):
    c = fileio.load_cobracket(args.inputs[0], MAX_DIM)
    total, rep = bialgebra.manin_bracket(c)
    if args.output:
        _write(args, "manin.alg", fileio.algebra_to_doc(total))
    return _emit_report(rep, args)


def _check_double(args):
    c = fileio.load_cobracket(args.inputs[0], MAX_DIM)
    return _emit_report(bialgebra.check_double_construction(c), args)


def _check_equivalence(args):
    c = fileio.load_cobracket(args.inputs[0], MAX_DIM)
    res = bialgebra.equivalence_suite(c)
    agree = _flag(res.agree, "equivalence_agreement")
    combined = CheckReport(res.agree,
                           res.double.checked + res.manin.checked + res.matched.checked,
                           agree.witness,
                           (("double_construction", res.double),
                            ("manin_triple", res.manin),
                            ("matched_pair", res.matched),
                            ("agreement", agree)))
    return _emit_report(combined, args)


def _check_o_operator(args):
    o = fileio.load_o_operator(args.inputs[0], MAX_DIM)
    return _emit_report(prelie.check_o_operator(o), args)


def _check_chybe(args):
    return _emit_report(yangbaxter.check_chybe(fileio.load_rtensor(args.inputs[0], MAX_DIM)), args)


def _check_residual(args):
    return _emit_report(yangbaxter.verify_residual(fileio.load_rtensor(args.inputs[0], MAX_DIM)), args)


def _check_cobracket(args):
    c = fileio.load_cobracket(args.inputs[0], MAX_DIM)
    return _emit_report(check_algebra(bialgebra.dual_algebra(c)), args)


def _check_symplectic(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    w = fileio.load_bilform(args.inputs[1], MAX_DIM)
    return _emit_report(symplectic.check_symplectic(a, w), args)


def _check_metric(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    b = fileio.load_bilform(args.inputs[1], MAX_DIM)
    return _emit_report(symplectic.check_metric(a, b), args)


def _check_phase_space(args):
    base = fileio.load_algebra(args.inputs[0], MAX_DIM)
    total = fileio.load_algebra(args.inputs[1], MAX_DIM)
    return _emit_report(symplectic.check_phase_space(base, total), args)


def _report_derivations(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    form = None
    if len(args.inputs) > 1:
        form = fileio.load_bilform(args.inputs[1], MAX_DIM).matrix
    basis = derivation_space(a, form)
    doc = {"dim": len(basis),
           "basis": [fileio.matrix_to_doc(m) for m in basis]}
    if args.format == "structured":
        sys.stdout.write(fileio.dumps(doc))
    else:
        sys.stdout.write(f"derivation space dimension: {len(basis)}\n")
        for i, m in enumerate(basis, 1):
            sys.stdout.write(f"D{i}: {m!r}\n")
    if args.output:
        _write(args, "derivations.json", doc)
    return 0


def _derive_derivations(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    b = fileio.load_bilform(args.inputs[1], MAX_DIM)
    w = fileio.load_bilform(args.inputs[2], MAX_DIM)
    D, rep = symplectic.derivation_from_symplectic(a, b, w)
    if args.output:
        _write(args, "derivation.mat", fileio.matrix_to_doc(D))
    return _emit_report(rep, args)


def _build_twist(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    morph = fileio.load_matrix(args.inputs[1], MAX_DIM)
    out = yau_twist(a, morph)
    _write(args, "twisted.alg", fileio.algebra_to_doc(out))
    return _emit_report(check_algebra(out), args)


def _derive_twist(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    beta = fileio.load_matrix(args.inputs[1], MAX_DIM)
    out = composition_twist(a, beta)
    _write(args, "twisted.alg", fileio.algebra_to_doc(out))
    return _emit_report(check_algebra(out), args)


def _build_semidirect(args):
    r = fileio.load_rep(args.inputs[0], MAX_DIM)
    out = semidirect_sum(r.base, r)
    _write(args, "semidirect.alg", fileio.algebra_to_doc(out))
    return _emit_report(check_algebra(out), args)


def _build_subadjacent(args):
    p = fileio.load_prelie(args.inputs[0], MAX_DIM)
    out = prelie.subadjacent(p)
    _write(args, "subadjacent.alg", fileio.algebra_to_doc(out))
    return _emit_report(check_algebra(out), args)


def _build_compatible_prelie(args):
    o = fileio.load_o_operator(args.inputs[0], MAX_DIM)
    p = prelie.compatible_prelie(o.rep.base, o)
    _write(args, "compatible.plg", fileio.prelie_to_doc(p))
    return _emit_report(prelie.check_prelie(p), args)


def _derive_compatible_prelie(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    w = fileio.load_bilform(args.inputs[1], MAX_DIM)
    p, rep = symplectic.compatible_prelie_from_symplectic(a, w)
    _write(args, "compatible.plg", fileio.prelie_to_doc(p))
    return _emit_report(rep, args)


def _build_cobracket(args):
    r = fileio.load_rtensor(args.inputs[0], MAX_DIM)
    cob, rep = yangbaxter.coboundary_cobracket(r)
    _write(args, "cobracket.cob", fileio.cobracket_to_doc(cob))
    return _emit_report(rep, args)


def _build_manin(args):
    c = fileio.load_cobracket(args.inputs[0], MAX_DIM)
    total, rep = bialgebra.manin_bracket(c)
    _write(args, "manin.alg", fileio.algebra_to_doc(total))
    return _emit_report(rep, args)


def _build_phase_space(args):
    p = fileio.load_prelie(args.inputs[0], MAX_DIM)
    total, rep = symplectic.phase_space_from_prelie(p)
    _write(args, "phase_space.alg", fileio.algebra_to_doc(total))
    _write(args, "omega.frm",
           fileio.bilform_to_doc(symplectic.canonical_phase_form(p.dim)))
    return _emit_report(rep, args)


def _derive_prelie(args):
    base = fileio.load_algebra(args.inputs[0], MAX_DIM)
    total = fileio.load_algebra(args.inputs[1], MAX_DIM)
    p, rep = symplectic.prelie_from_phase_space(base, total)
    if p is not None:
        _write(args, "prelie.plg", fileio.prelie_to_doc(p))
    return _emit_report(rep, args)


def _derive_symplectic(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    b = fileio.load_bilform(args.inputs[1], MAX_DIM)
    d = fileio.load_matrix(args.inputs[2], MAX_DIM)
    w, rep = symplectic.symplectic_from_derivation(a, b, d)
    _write(args, "omega.frm", fileio.bilform_to_doc(w))
    return _emit_report(rep, args)


def _build_nilpotent(args):
    a = fileio.load_algebra(args.inputs[0], MAX_DIM)
    double_dim = 2 * a.dim * (args.steps - 1)
    if double_dim > 4 * MAX_DIM:
        raise InputError(f"double dimension {double_dim} exceeds the "
                         f"supported maximum {4 * MAX_DIM}")
    bundle, rep = symplectic.nilpotent_extension(a, args.steps)
    _write(args, "extension.alg", fileio.algebra_to_doc(bundle.extension))
    _write(args, "derivation.mat", fileio.matrix_to_doc(bundle.derivation))
    _write(args, "double.alg", fileio.algebra_to_doc(bundle.double))
    _write(args, "metric.frm", fileio.bilform_to_doc(bundle.metric))
    _write(args, "omega.frm", fileio.bilform_to_doc(bundle.omega))
    return _emit_report(rep, args)


HANDLERS = {
    ("check", "algebra"): (_check_algebra, 1),
    ("check", "rep"): (_check_rep, 1),
    ("check", "prelie"): (_check_prelie, 1),
    ("check", "matched-pair"): (_check_matched_pair, 1),
    ("check", "manin"): (_check_manin, 1),
    ("check", "double"): (_check_double, 1),
    ("check", "equivalence"): (_check_equivalence, 1),
    ("check", "o-operator"): (_check_o_operator, 1),
    ("check", "chybe"): (_check_chybe, 1),
    ("check", "residual"): (_check_residual, 1),
    ("check", "cobracket"): (_check_cobracket, 1),
    ("check", "symplectic"): (_check_symplectic, 2),
    ("check", "metric"): (_check_metric, 2),
    ("check", "phase-space"): (_check_phase_space, 2),
    ("report", "derivations"): (_report_derivations, (1, 2)),
    ("derive", "derivations"): (_derive_derivations, 3),
    ("build", "twist"): (_build_twist, 2),
    ("derive", "twist"): (_derive_twist, 2),
    ("build", "semidirect"): (_build_semidirect, 1),
    ("build", "subadjacent"): (_build_subadjacent, 1),
    ("build", "compatible-prelie"): (_build_compatible_prelie, 1),
    ("derive", "compatible-prelie"): (_derive_compatible_prelie, 2),
    ("build", "cobracket"): (_build_cobracket, 1),
    ("build", "manin"): (_build_manin, 1),
    ("build", "phase-space"): (_build_phase_space, 1),
    ("derive", "prelie"): (_derive_prelie, 2),
    ("derive", "symplectic"): (_derive_symplectic, 3),
    ("build", "nilpotent"): (_build_nilpotent, 1),
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call: ``parse_args`` keeps no
    state in it, so building it once saves its set-up per call."""
    p = argparse.ArgumentParser(
        prog="homlie3",
        description="Exact checkers and constructors for 3-Hom-Lie algebras")
    p.add_argument("verb", choices=["check", "build", "derive", "report"])
    p.add_argument("target")
    p.add_argument("inputs", nargs="*", help="artifact file paths")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("-o", "--output", default=None, metavar="DIR",
                   help="directory for emitted artifacts")
    p.add_argument("--regular", action="store_true",
                   help="also require an invertible twist (check algebra)")
    p.add_argument("--steps", type=int, default=2, metavar="N",
                   help="truncation power for build nilpotent (default 2)")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    key = (args.verb, args.target)
    if key not in HANDLERS:
        sys.stderr.write(f"error: no operation for '{args.verb} {args.target}'\n")
        return 2
    handler, arity = HANDLERS[key]
    arities = arity if isinstance(arity, tuple) else (arity,)
    if len(args.inputs) not in arities:
        sys.stderr.write(f"error: '{args.verb} {args.target}' takes "
                         f"{' or '.join(map(str, arities))} input file(s), "
                         f"got {len(args.inputs)}\n")
        return 2
    try:
        return handler(args)
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except PreconditionError as e:
        sys.stderr.write(f"precondition failed: {e}\n")
        if e.witness is not None:
            sys.stderr.write(f"witness: {_witness_doc(e.witness)}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
