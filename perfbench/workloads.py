"""The three workloads: their inputs, their op pools and the seeded cycle of
ops that one run repeats.

An op is one CLI invocation or one library call. Each op has a golden key;
``record`` turns its result into a JSON record (verdict or exit code,
lex-first witness, digest of the structured bytes) that must equal the
golden recorded for that key. Inputs come from a fixed pool, so goldens
cover every seed: the seed picks from the pool and orders the cycle.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    record: Callable[[object], dict]
    prepare: Optional[Callable[[], None]] = None


def file_sha256(path: str) -> str:
    with open(path) as fh:
        return sha256(fh.read())


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class Workload:
    """Base: ``generate`` makes the inputs (timed as set-up), ``cycle``
    lists the ops of one cycle. ``seed=None`` means the whole pool."""

    name = ""
    # op_tail_ms percentile, pinned per workload so that a faster program,
    # which runs more cycles, is still compared on the same class of ops
    tail_pct: float

    def __init__(self, hl, root: str, workdir: str):
        self.hl = hl
        self.fx = os.path.join(root, "tests", "fixtures")
        self.workdir = workdir

    def report_record(self, rep) -> dict:
        w = rep.witness
        return {"passed": rep.passed, "checked": rep.checked,
                "witness": None if w is None else [w.check, list(w.at)],
                "sha256": sha256(self.hl.fileio.dumps(self.hl.cli.report_doc(rep)))}


# --------------------------------------------------------------- cli-corpus

# One op per line: argv template, and the name of its output directory when
# it writes one. "{fx}" is the fixture directory, "{name}" an output
# directory. Tuples of several ops are chains that stay in order.
CLI_UNITS = (
    (("check algebra {fx}/n4.alg", None),),
    (("check algebra {fx}/n4.alg --regular", None),),
    (("check algebra {fx}/n4diag.alg", None),),
    (("check algebra {fx}/corrupted.alg", None),),
    (("check algebra {fx}/broken.alg", None),),
    (("check algebra {fx}/toobig.alg", None),),
    (("check rep {fx}/coadjoint.rep", None),),
    (("check prelie {fx}/n4prelie.plg", None),),
    (("check matched-pair {fx}/trivial.mpair", None),),
    (("check manin {fx}/zero.cob", None),),
    (("check double {fx}/zero.cob", None),),
    (("check equivalence {fx}/zero.cob", None),),
    (("check o-operator {fx}/symp.oop", None),),
    (("check chybe {fx}/r12.rmat", None),),
    (("check residual {fx}/r12.rmat", None),),
    (("check cobracket {fx}/zero.cob", None),),
    (("check symplectic {fx}/n4.alg {fx}/omega.frm", None),),
    (("report derivations {fx}/n4.alg", None),),
    (("build twist {fx}/n4.alg {fx}/morph.mat -o {tw}", "tw"),),
    (("derive twist {fx}/n4.alg {fx}/morph.mat -o {dtw}", "dtw"),),
    (("build semidirect {fx}/coadjoint.rep -o {sd}", "sd"),),
    (("build subadjacent {fx}/n4prelie.plg -o {sa}", "sa"),),
    (("build compatible-prelie {fx}/symp.oop -o {cp}", "cp"),),
    (("derive compatible-prelie {fx}/n4.alg {fx}/omega.frm -o {dcp}", "dcp"),),
    (("build cobracket {fx}/r12.rmat -o {cb}", "cb"),),
    (("build manin {fx}/zero.cob -o {bm}", "bm"),),
    (("build phase-space {fx}/n4prelie.plg -o {ps}", "ps"),
     ("check phase-space {fx}/n4.alg {ps}/phase_space.alg", None),
     ("derive prelie {fx}/n4.alg {ps}/phase_space.alg -o {dp}", "dp")),
    (("build nilpotent {fx}/n4.alg --steps 2 -o {nil}", "nil"),
     ("check metric {nil}/double.alg {nil}/metric.frm", None),
     ("derive derivations {nil}/double.alg {nil}/metric.frm {nil}/omega.frm -o {dd}", "dd"),
     ("derive symplectic {nil}/double.alg {nil}/metric.frm {dd}/derivation.mat -o {ds}", "ds"),
     ("report derivations {nil}/double.alg {nil}/metric.frm", None)),
)


class CliCorpus(Workload):
    name = "cli-corpus"
    tail_pct = 95.0

    def generate(self, seed):
        dirs = {"fx": self.fx}
        for unit in CLI_UNITS:
            for _, out in unit:
                if out:
                    dirs[out] = os.path.join(self.workdir, "cli", out)
        units = list(CLI_UNITS)
        if seed is not None:
            random.Random(seed).shuffle(units)
        return [(tmpl, [tok.format(**dirs) for tok in tmpl.split()],
                 dirs.get(out)) for unit in units for tmpl, out in unit]

    def cycle(self, inputs, smoke=False):
        # the corpus is already the smallest input: smoke runs all of it
        return [self._op(*item) for item in inputs]

    def _op(self, key, argv, outdir):
        cli = self.hl.cli
        argv = argv + ["--format", "structured"]

        def call():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()

        def record(res):
            code, out = res
            rec = {"exit": code, "stdout_sha256": sha256(out)}
            if out.startswith("{"):
                doc = json.loads(out)
                if "passed" in doc:
                    w = doc["witness"]
                    rec["checked"] = doc["checked"]
                    rec["witness"] = None if w is None else [w["check"], w["at"]]
            if outdir:
                rec["files"] = {f: file_sha256(os.path.join(outdir, f))
                                for f in sorted(os.listdir(outdir))}
            return rec

        return Op(key, call, record, (lambda: _fresh_dir(outdir)) if outdir else None)


# ---------------------------------------------------------------- rep-scale

FACTORS = (Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2),
           Fraction(-2), Fraction(3, 2))
CANDIDATES = 6  # mutation candidates per representation
# Skew matrix whose Cayley transform (I-S)(I+S)^-1 is a rational rotation,
# hence an automorphism of A4 and a non-diagonal orthogonal twist.
CAYLEY_S = ((0, 1, 0, 2), (-1, 0, 1, 0), (0, -1, 0, 1), (-2, 0, -1, 0))


class RepScale(Workload):
    name = "rep-scale"
    tail_pct = 94.0

    def algebras(self):
        hl = self.hl
        Mat, Tensor4, Algebra3 = hl.Mat, hl.Tensor4, hl.Algebra3
        n4 = hl.fileio.load_algebra(os.path.join(self.fx, "n4.alg"))
        levi = []
        for p in itertools.permutations(range(4)):
            inv = sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4))
            levi.append((*p, Fraction((-1) ** inv)))
        a4 = Algebra3(4, Tensor4.from_entries((4,) * 4, levi), Mat.identity(4), "a4")
        eye, s = Mat.identity(4), Mat([[Fraction(v) for v in r] for r in CAYLEY_S])
        a4t = hl.homlie.yau_twist(a4, (eye - s) @ hl.mat_inverse(eye + s))
        both = levi + [(i + 4, j + 4, k + 4, l + 4, v) for i, j, k, l, v in levi]
        a4a4 = Algebra3(8, Tensor4.from_entries((8,) * 4, both), Mat.identity(8), "a4+a4")
        return (("n4", n4), ("a4", a4), ("a4t", a4t), ("a4+a4", a4a4))

    @staticmethod
    def candidates(key, rep):
        """Fixed mutation candidates of one rep: a nonzero rho entry and a
        factor. On A4+A4 they lie in the first summand (early exit)."""
        lim = 4 if rep.base.dim == 8 else rep.base.dim
        sites = [(i, j, p, q) for i in range(lim) for j in range(i + 1, lim)
                 for p in range(rep.vdim) for q in range(rep.vdim)
                 if rep.rho[i][j].entries[p][q] and (rep.base.dim == 4 or max(p, q) < 4)]
        rng = random.Random(key)
        return rng.sample([(s, f) for s in sites for f in FACTORS], CANDIDATES)

    def mutate(self, rep, site, factor):
        i, j, p, q = site
        rho = [list(row) for row in rep.rho]
        m = [list(r) for r in rep.rho[i][j].entries]
        m[p][q] *= factor
        rho[i][j] = self.hl.Mat(m)
        rho[j][i] = -rho[i][j]
        return self.hl.Rep3(rep.base, rep.vdim, tuple(tuple(r) for r in rho), rep.A)

    def generate(self, seed):
        """[(key, rep)]: the dim-4 base reps and mutants (one per base rep chosen
        by the seed, or all candidates for the pool). The unmutated dim-8
        reps are left out: each check takes over 10 s (see the census)."""
        reps = self.hl.reps
        rng = random.Random(seed)
        items = []
        for name, alg in self.algebras():
            for kind, build in (("ad", reps.adjoint_rep), ("coad", reps.coadjoint_rep)):
                key = f"{name}.{kind}"
                base = build(alg)
                cands = list(enumerate(self.candidates(key, base)))
                if seed is not None:
                    cands = [cands[rng.randrange(CANDIDATES)]]
                if alg.dim == 4:
                    items.append((key, base))
                for c, (site, f) in cands:
                    items.append((f"{key}~m{c}{list(site)}x{f}", self.mutate(base, site, f)))
        if seed is not None:
            rng.shuffle(items)
        return items

    def cycle(self, inputs, smoke=False):
        if smoke:
            inputs = [it for it in inputs if it[0].startswith(("n4.ad", "a4.ad"))]
        return [self._op(key, rep) for key, rep in inputs]

    def _op(self, key, rep):
        reps = self.hl.reps
        return Op(key, lambda: reps.check_representation(rep), self.report_record)


# ---------------------------------------------------------- nilpotent-chain

ARTIFACTS = (  # bundle field, file name, to_doc, loader
    ("extension", "extension.alg", "algebra_to_doc", "load_algebra"),
    ("derivation", "derivation.mat", "matrix_to_doc", "load_matrix"),
    ("double", "double.alg", "algebra_to_doc", "load_algebra"),
    ("metric", "metric.frm", "bilform_to_doc", "load_bilform"),
    ("omega", "omega.frm", "bilform_to_doc", "load_bilform"),
)
BUNDLES = (("n4", 5), ("n4", 6), ("n4", 7), ("n4diag", 5))
# Each artifact is dumped and re-parsed ROUNDS times per cycle: a cycle is
# 14 s of builds, so one round would give too few fileio samples for a
# steady op_p50_ms.
ROUNDS = 4


class NilpotentChain(Workload):
    name = "nilpotent-chain"
    tail_pct = 95.0

    def generate(self, seed):
        fio = self.hl.fileio
        algs = {name: fio.load_algebra(os.path.join(self.fx, f"{name}.alg"))
                for name in ("n4", "n4diag")}
        units = []
        for name, steps in BUNDLES:
            arts = list(ARTIFACTS)
            if seed is not None:
                random.Random(f"{seed}/{name}/{steps}").shuffle(arts)
            units.append((algs[name], name, steps, arts))
        if seed is not None:
            random.Random(seed).shuffle(units)
        return units

    def cycle(self, inputs, smoke=False):
        self.state = {}
        ops = []
        for alg, name, steps, arts in inputs:
            if smoke and (name, steps) != ("n4", 5):
                continue
            ops.extend(self._unit(alg, name, steps, arts))
        return ops

    def _unit(self, alg, name, steps, arts):
        hl, fio = self.hl, self.hl.fileio
        tag = f"{name}.s{steps}"
        d = os.path.join(self.workdir, "nilpotent", tag)
        state = self.state  # one unit at a time: a build drops the last unit's objects

        def prepare():
            state.clear()
            _fresh_dir(d)

        def build():
            state["bundle"], rep = hl.symplectic.nilpotent_extension(alg, steps)
            return rep

        ops = [Op(f"{tag}.build", build, self.report_record, prepare)]
        for field, fname, to_doc, loader in arts * ROUNDS:
            path = os.path.join(d, fname)

            def dump(field=field, to_doc=to_doc, path=path):
                fio.dump(getattr(fio, to_doc)(getattr(state["bundle"], field)), path)

            def load(field=field, loader=loader, path=path):
                state[field] = obj = getattr(fio, loader)(path)
                return obj

            def load_record(obj, to_doc=to_doc):
                return {"sha256": sha256(fio.dumps(getattr(fio, to_doc)(obj)))}

            ops.append(Op(f"{tag}.dump.{fname}", dump,
                          lambda _, path=path: {"sha256": file_sha256(path)}))
            ops.append(Op(f"{tag}.load.{fname}", load, load_record))
        if (name, steps) == ("n4", 5):
            def derivations():
                return hl.homlie.derivation_space(state["extension"])

            def record(basis):
                docs = [fio.matrix_to_doc(m) for m in basis]
                return {"dim": len(basis), "sha256": sha256(fio.dumps({"basis": docs}))}

            ops.append(Op(f"{tag}.derivation_space", derivations, record))
        return ops


WORKLOADS = {w.name: w for w in (CliCorpus, RepScale, NilpotentChain)}
