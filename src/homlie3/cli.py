"""Command-line front end: load the artifact files of one verb/target
pair with the loaders that ``HANDLERS`` names, run its operation, emit a
deterministic report, and exit with 0 (all checks passed), 1 (a check
failed; witness in the report), or 2 (unparseable input, a violated
precondition or an output that cannot be written).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable
from fractions import Fraction

from .exactlin import InputError, _unwritable, rat_str
from .homlie import CheckReport, PreconditionError, Record, Witness, _flag
from . import bialgebra, fileio, homlie, prelie, reps, symplectic

MAX_DIM = 12


def _fmt_side(w: Witness, side: tuple) -> list:
    """A witness side as strings, one per item of its ``kind``: "p/q" for a
    scalar, "(i, p/q)" with i 1-based (like the indices of ``at``) for an
    (index, value) pair, and for a matrix row the str() of the tuple of its
    entries as Fractions, the form reports have always printed."""
    if w.kind == "pairs":
        return [f"({i + 1}, {rat_str(v)})" for i, v in side]
    if w.kind == "rows":
        try:
            return [str(tuple(map(Fraction, row))) for row in side]
        except ValueError:  # past sys.get_int_max_str_digits()
            raise _unwritable() from None
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


def _emit_report(r: CheckReport, args) -> int:
    if args.format == "structured":
        sys.stdout.write(fileio.dumps(report_doc(r)))
    else:
        sys.stdout.write(report_text(r) + "\n")
    return 0 if r.passed else 1


def _lookup(name: str):
    """The function ``module.attr`` of this package, looked up at each call,
    so that a wrapper patched onto the module (a tracer's, a test's) runs."""
    module, _, attr = name.partition(".")
    return getattr(sys.modules[f"{__package__}.{module}"], attr)


def _write(args, name: str, doc: dict) -> None:
    """Write doc as -o DIR/name (DIR defaults to "."); a directory that
    cannot be made or a file that cannot be written is an input error."""
    d = args.output or "."
    try:
        os.makedirs(d, exist_ok=True)
        fileio.dump(doc, os.path.join(d, name))
    except OSError as e:
        raise InputError(f"{d}: cannot write {name} ({e.strerror})")


_TO_DOC = {"alg": "algebra_to_doc", "plg": "prelie_to_doc", "cob": "cobracket_to_doc",
           "mat": "matrix_to_doc", "frm": "bilform_to_doc"}


def _save(args, name: str, obj) -> None:
    """Write obj as artifact ``name`` by the fileio writer of its suffix;
    not for no name or a None obj, nor for a [bracketed] name without -o."""
    if not name or obj is None or (name[0] == "[" and not args.output):
        return
    name = name.strip("[]")
    _write(args, name, getattr(fileio, _TO_DOC[name.rpartition(".")[2]])(obj))


class Verb(Record):
    """``inputs`` names the fileio loader of each input file ("algebra" is
    ``fileio.load_algebra``; a [bracketed] one is optional). ``op`` is a
    glue function of this module, called with the parsed args and the
    inputs and returning the exit code, or a library ``module.function``
    called with the inputs and returning the report to emit; with an
    ``artifact``, (artifact, report); with a ``check`` too, the artifact,
    which is written and then checked."""
    inputs: str
    op: str | Callable
    artifact: str = ""
    check: str = ""


def _run(v: Verb, args, inputs: list) -> int:
    if callable(v.op):
        return v.op(args, *inputs)
    result = _lookup(v.op)(*inputs)
    if v.check:
        _save(args, v.artifact, result)
        result = _lookup(v.check)(result)
    elif v.artifact:
        obj, result = result
        _save(args, v.artifact, obj)
    return _emit_report(result, args)


# ------------------------------------------------------------------- glue

def _check_algebra(args, a):
    return _emit_report(homlie.check_algebra(a, regular=args.regular), args)


def _check_equivalence(args, c):
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


def _report_derivations(args, a, form=None):
    basis = homlie.derivation_space(a, form.matrix if form else None)
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


def _build_semidirect(args, r):
    out = reps.semidirect_sum(r.base, r)
    _save(args, "semidirect.alg", out)
    return _emit_report(homlie.check_algebra(out), args)


def _build_compatible_prelie(args, o):
    p = prelie.compatible_prelie(o.rep.base, o)
    _save(args, "compatible.plg", p)
    return _emit_report(prelie.check_prelie(p), args)


def _build_phase_space(args, p):
    total, rep = symplectic.phase_space_from_prelie(p)
    _save(args, "phase_space.alg", total)
    _save(args, "omega.frm", symplectic.canonical_phase_form(p.dim))
    return _emit_report(rep, args)


def _build_nilpotent(args, a):
    double_dim = 2 * a.dim * (args.steps - 1)
    if double_dim > 4 * MAX_DIM:
        raise InputError(f"double dimension {double_dim} exceeds the "
                         f"supported maximum {4 * MAX_DIM}")
    bundle, rep = symplectic.nilpotent_extension(a, args.steps)
    _save(args, "extension.alg", bundle.extension)
    _save(args, "derivation.mat", bundle.derivation)
    _save(args, "double.alg", bundle.double)
    _save(args, "metric.frm", bundle.metric)
    _save(args, "omega.frm", bundle.omega)
    return _emit_report(rep, args)


HANDLERS = {
    ("check", "algebra"): Verb("algebra", _check_algebra),
    ("check", "rep"): Verb("rep", "reps.check_representation"),
    ("check", "prelie"): Verb("prelie", "prelie.check_prelie"),
    ("check", "matched-pair"): Verb("matched_pair", "bialgebra.check_matched_pair"),
    ("check", "manin"): Verb("cobracket", "bialgebra.manin_bracket", "[manin.alg]"),
    ("check", "double"): Verb("cobracket", "bialgebra.check_double_construction"),
    ("check", "equivalence"): Verb("cobracket", _check_equivalence),
    ("check", "o-operator"): Verb("o_operator", "prelie.check_o_operator"),
    ("check", "chybe"): Verb("rtensor", "yangbaxter.check_chybe"),
    ("check", "residual"): Verb("rtensor", "yangbaxter.verify_residual"),
    ("check", "cobracket"): Verb("cobracket", "bialgebra.dual_algebra",
                                 check="homlie.check_algebra"),
    ("check", "symplectic"): Verb("algebra bilform", "symplectic.check_symplectic"),
    ("check", "metric"): Verb("algebra bilform", "symplectic.check_metric"),
    ("check", "phase-space"): Verb("algebra algebra", "symplectic.check_phase_space"),
    ("report", "derivations"): Verb("algebra [bilform]", _report_derivations),
    ("derive", "derivations"): Verb("algebra bilform bilform",
                                    "symplectic.derivation_from_symplectic",
                                    "[derivation.mat]"),
    ("build", "twist"): Verb("algebra matrix", "homlie.yau_twist",
                             "twisted.alg", "homlie.check_algebra"),
    ("derive", "twist"): Verb("algebra matrix", "homlie.composition_twist",
                              "twisted.alg", "homlie.check_algebra"),
    ("build", "semidirect"): Verb("rep", _build_semidirect),
    ("build", "subadjacent"): Verb("prelie", "prelie.subadjacent",
                                   "subadjacent.alg", "homlie.check_algebra"),
    ("build", "compatible-prelie"): Verb("o_operator", _build_compatible_prelie),
    ("derive", "compatible-prelie"): Verb(
        "algebra bilform", "symplectic.compatible_prelie_from_symplectic",
        "compatible.plg"),
    ("build", "cobracket"): Verb("rtensor", "yangbaxter.coboundary_cobracket",
                                 "cobracket.cob"),
    ("build", "manin"): Verb("cobracket", "bialgebra.manin_bracket", "manin.alg"),
    ("build", "phase-space"): Verb("prelie", _build_phase_space),
    ("derive", "prelie"): Verb("algebra algebra", "symplectic.prelie_from_phase_space",
                               "prelie.plg"),
    ("derive", "symplectic"): Verb("algebra bilform matrix",
                                   "symplectic.symplectic_from_derivation",
                                   "omega.frm"),
    ("build", "nilpotent"): Verb("algebra", _build_nilpotent),
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
    v = HANDLERS[key]
    loaders = v.inputs.split()
    arities = range(len(loaders) - v.inputs.count("["), len(loaders) + 1)
    if len(args.inputs) not in arities:
        sys.stderr.write(f"error: '{args.verb} {args.target}' takes "
                         f"{' or '.join(map(str, arities))} input file(s), "
                         f"got {len(args.inputs)}\n")
        return 2
    try:
        try:
            inputs = [getattr(fileio, "load_" + n.strip("[]"))(path, MAX_DIM)
                      for n, path in zip(loaders, args.inputs)]
            return _run(v, args, inputs)
        except PreconditionError as e:
            sys.stderr.write(f"precondition failed: {e}\n")
            if e.witness is not None:  # InputError if it cannot be written
                sys.stderr.write(f"witness: {_witness_doc(e.witness)}\n")
            return 2
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
