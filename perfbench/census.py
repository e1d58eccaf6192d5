"""Input census: dim, nonzero structure constants, twist kind and expected
verdict of every benchmark input, the degenerate inputs flagged, and the
sizes left out of the workloads with their measured cost.

    python3 perfbench/run.py --census    # rewrites perfbench/census.json
"""
from __future__ import annotations

import json
import os
import sys

from workloads import BUNDLES, CLI_UNITS, WORKLOADS

# Measured once with the seed code on a 2-core Intel Xeon (x86_64) with
# Python 3.11.7; each is too long to repeat 22 times per workload.
LEFT_OUT = [
    {"what": "check_representation(coadjoint_rep(N4[t]/t^4)), dim 12",
     "seconds": 106.9, "why": "one op longer than a whole run"},
    {"what": "derivation_space(N4[t]/t^7), dim 24 (576 unknowns)",
     "seconds": 19.6, "why": "one op as long as a whole run"},
    {"what": "check_representation of the unmutated adjoint / coadjoint reps of A4+A4, dim 8",
     "seconds": [10.6, 11.0], "why": "two ops would fill the run; mutants of them stay in rep-scale"},
    {"what": "A4+A4 mutants whose site is in the second summand (late exit near (5,6,7,5))",
     "seconds": [5.6, 6.1], "why": "a late exit costs half a full check; rep-scale keeps first-summand (early-exit) mutants"},
    {"what": "check_representation(coadjoint_rep(N4[t]/t^3)), dim 8",
     "seconds": 9.0, "why": "degenerate: the algebra is abelian (0 constants), yet the dense check enumerates all n^4 tuples"},
]


def twist_kind(m) -> str:
    n = m.rows
    e = m.entries
    if m.is_identity():
        return "identity"
    if all(not e[i][j] for i in range(n) for j in range(n) if i != j):
        return "scalar" if len({e[i][i] for i in range(n)}) == 1 else "diagonal"
    if (m @ m.transpose()).is_identity():
        return "orthogonal"
    return "general"


def algebra_census(a) -> dict:
    nnz = sum(1 for _ in a.bracket.items())
    return {"dim": a.dim, "nonzero_constants": nnz, "twist": twist_kind(a.twist),
            "degenerate": nnz == 0}


def fixture_census(hl, path: str) -> dict:
    """Census of one fixture as the CLI sees it (with its dimension cap)."""
    fio, cap = hl.fileio, hl.cli.MAX_DIM
    ext = os.path.splitext(path)[1]
    try:
        if ext == ".alg":
            return {"kind": "algebra", **algebra_census(fio.load_algebra(path, cap))}
        if ext == ".rep":
            r = fio.load_rep(path, cap)
            return {"kind": "representation", "vdim": r.vdim, **algebra_census(r.base)}
        if ext == ".plg":
            p = fio.load_prelie(path, cap)
            nnz = sum(1 for _ in p.product.items())
            return {"kind": "pre-Lie", "dim": p.dim, "nonzero_constants": nnz,
                    "twist": twist_kind(p.twist), "degenerate": nnz == 0}
        if ext == ".mpair":
            m = fio.load_matched_pair(path, cap)
            return {"kind": "matched pair", "left": algebra_census(m.left),
                    "right": algebra_census(m.right)}
        if ext == ".cob":
            c = fio.load_cobracket(path, cap)
            nnz = sum(1 for _ in c.dual_c.items())
            return {**algebra_census(c.base), "kind": "cobracket",
                    "nonzero_cobracket": nnz, "degenerate": nnz == 0}
        if ext == ".rmat":
            return {"kind": "r-tensor", **algebra_census(fio.load_rtensor(path, cap).base)}
        if ext == ".oop":
            o = fio.load_o_operator(path, cap)
            return {"kind": "O-operator", "vdim": o.rep.vdim, **algebra_census(o.rep.base)}
        if ext == ".frm":
            f = fio.load_bilform(path, cap)
            return {"kind": f"{f.kind} form", "dim": f.dim}
        if ext == ".mat":
            m = fio.load_matrix(path, cap)
            return {"kind": "matrix", "dim": m.rows, "twist": twist_kind(m)}
    except hl.InputError as e:
        return {"kind": "refused input", "error": str(e).split(": ", 1)[-1]}
    raise ValueError(f"no census rule for {path}")


def _expected(rec: dict) -> dict:
    return {k: rec[k] for k in ("exit", "passed", "witness", "dim") if k in rec}


def write_census(root: str, goldens_path: str, out_path: str) -> None:
    import homlie3.cli  # noqa: F401  (loads every layer)
    import homlie3.fileio  # noqa: F401
    hl = sys.modules["homlie3"]
    with open(goldens_path) as fh:
        goldens = json.load(fh)
    fx = os.path.join(root, "tests", "fixtures")
    census = {"hardware": "2-core Intel Xeon (x86_64), Python 3.11.7"}

    files = sorted({tok.split("/", 1)[1] for unit in CLI_UNITS for tmpl, _ in unit
                    for tok in tmpl.split() if tok.startswith("{fx}/")})
    census["cli-corpus"] = {
        "inputs": {f: fixture_census(hl, os.path.join(fx, f)) for f in files},
        "expected": {k: _expected(v) for k, v in goldens["cli-corpus"].items()},
    }

    rep_wl = WORKLOADS["rep-scale"](hl, root, "")
    algs = dict(rep_wl.algebras())
    reps = {}
    for key, rep in rep_wl.generate(None):
        rec = goldens["rep-scale"][key]
        name = key.split(".")[0]
        entry = {"vdim": rep.vdim, **algebra_census(algs[name]), **_expected(rec)}
        if "~" in key:
            entry["mutated"] = True
            # a mutant that still passes: every identity term vanishes
            entry["degenerate"] = rec["passed"]
        reps[key] = entry
    census["rep-scale"] = {"inputs": reps}

    bundles = {}
    for name, steps in BUNDLES:
        alg = hl.fileio.load_algebra(os.path.join(fx, f"{name}.alg"))
        b, _ = hl.symplectic.nilpotent_extension(alg, steps)
        bundles[f"{name}.s{steps}"] = {
            "base": name, "steps": steps,
            "extension": algebra_census(b.extension),
            "double": algebra_census(b.double),
            **_expected(goldens["nilpotent-chain"][f"{name}.s{steps}.build"])}
    census["nilpotent-chain"] = {"inputs": bundles}
    census["flagged_degenerate"] = sorted(
        f"{wl}: {key}" for wl in ("cli-corpus", "rep-scale")
        for key, entry in census[wl]["inputs"].items() if entry.get("degenerate"))
    census["left_out"] = LEFT_OUT
    with open(out_path, "w") as fh:
        json.dump(census, fh, indent=1, sort_keys=True)
        fh.write("\n")
