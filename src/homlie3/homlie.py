"""3-Hom-Lie algebras: axiom checkers, twist constructions, derivations.

An algebra is a triple (L, [.,.,.], alpha) with a totally skew ternary
bracket and a linear twist map alpha satisfying the twisted Jacobi identity

    [a(x), a(y), [u,v,w]] = [[x,y,u], a(v), a(w)] + [a(u), [x,y,v], a(w)]
                            + [a(u), a(v), [x,y,w]]

for all x, y, u, v, w.  Every check is exhaustive and exact, and reports
the lexicographically first violation.

Every multilinear identity in the package (Hom-Jacobi, derivations, the
pre-Lie, pre-Lie representation and matched-pair identities, O-operator
transport, invariance of forms, the closed-form and cocycle identities, the
double-construction equations (2.10)-(2.12), the ternary classical
Yang-Baxter tensor [[r,r,r]], the dual-bracket formula of a coboundary
cobracket and the residual identity) is a signed sum of terms, each
composing one bracket-like tensor into one slot of another, with twists in
the other slots. They are all evaluated by one sparse residual engine,
``_residual``: a term is (sign, inner, outer, order), where ``inner`` maps
an input tuple to a sparse vector {m: f} (the rows of a bracket, a cobracket
or a representation's action, or the columns of a matrix) and ``outer`` maps
m to [(others, vec)] (built by ``_slot_outer`` from twist_slots, by
``_by_output`` from a tensor, or from a matrix). Only nonzero structure
constants are visited, and a key absent from the residual has residual zero,
so the verdict is exhaustive without enumerating basis tuples. ``_identity``
turns the residual into a report whose witness is its lex-first key, with
``checked`` the witness's lex position, as for a loop that stops at its
first failure. The coboundary cobracket and [[r,r,r]] themselves are
residuals of such sums.

A skew bracket is a checked precondition of every identity over an
algebra: ``check_algebra`` reports the skew scan as its first part, and
every other entry point raises PreconditionError with its witness. The
scan visits each orbit once and is cached on the algebra (``_skew``). A
residual skew in a group of key indices is zero at a repeated index and
elsewhere +-1 times its value at the key with the group sorted, which is
lex before it. So each identity has one term list, prefiltered to the
sorted key of each orbit, and the twisted outer parts of Hom-Jacobi and
multiplicativity are built in one pass, at increasing index pairs, from
2x2 minors of the twist formed once per pair (``_twisted_outer``).

Rational data is checked on ints. A check builds its terms from sources
lifted by their denominators (``Mat.lifted``, ``Tensor4.lifted``; an
algebra caches its lifted bracket and twist), and gives ``_identity`` one
scale per term: the product of the denominators of the sources that the
term composes, each once per use. A Hom-Jacobi term uses the bracket twice
and the twist twice, so its scale is Dc**2 Da**2; the two sides of
multiplicativity have Dc Da and Dc Da**3. ``_identity`` multiplies each
term's sign by L // scale, L the lcm of the scales, so that the residual
is L times the rational one and has the same nonzero keys, and divides
only the two sides of the witness back by L. Integral sources have every
scale 1, and are neither copied nor rescaled. ``twist_slots`` composes
lifted inputs too, and divides each entry of its result back once.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from math import lcm, prod
from operator import attrgetter, itemgetter

from .exactlin import (
    InputError, Mat, ONE, Tensor4, ZERO, dense, mat_rank, sparse_kernel,
    unlift, vec_add_into,
)

class PreconditionError(ValueError):
    """A documented precondition failed; carries a witness when available."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Record:
    """An immutable record whose methods are written once here, where
    ``dataclass(frozen=True)`` generates them for each class at import.
    Its fields are its annotated names, in order, defaulting to their
    class-level values; they are given by position or name, then
    ``__post_init__`` runs. Records compare and hash by their fields only,
    so a value cached on the instance does not count, and never equal a
    record of another class. Attributes cannot be set or deleted."""

    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaulted = [f in cls.__dict__ for f in fields]
        if defaulted != sorted(defaulted):
            raise TypeError(f"{cls.__name__}: a field without a default "
                            "follows one with a default")
        cls._fields, cls._required = fields, defaulted.count(False)
        cls._key = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        # A defaulted field that is not given is not stored: reading it
        # finds the class-level default.
        fields, required = self._fields, self._required
        if kwargs or not required <= len(args) <= len(fields):
            named = kwargs.keys()
            if (len(args) > len(fields) or not named <= set(fields[len(args):])
                    or not named >= set(fields[len(args):required])):
                raise TypeError(f"{type(self).__name__}({', '.join(fields)}) "
                                f"with {required} required, called with "
                                f"{len(args)} by position and {list(kwargs)}")
            self.__dict__.update(kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with ``changes`` made; ``__post_init__`` runs on it."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)


class Witness(Record):
    """First violated instance of a check: where, at which basis tuple.

    ``left`` and ``right`` are the two sides there; ``kind`` states what
    their items are: "scalars" (values), "pairs" ((index, value) entries of
    a sparse vector) or "rows" (the rows of a matrix)."""
    check: str
    at: tuple
    left: tuple
    right: tuple
    kind: str = "scalars"

    def __post_init__(self):
        if self.kind not in ("scalars", "pairs", "rows"):
            raise ValueError(f"witness kind {self.kind!r}")


class CheckReport(Record):
    passed: bool
    checked: int
    witness: Witness | None = None
    parts: tuple = ()  # ((name, CheckReport), ...)

    @staticmethod
    def combine(parts: Sequence) -> "CheckReport":
        total = sum(r.checked for _, r in parts)
        for _, r in parts:
            if not r.passed:
                return CheckReport(False, total, r.witness, tuple(parts))
        return CheckReport(True, total, None, tuple(parts))

    def part(self, name: str) -> "CheckReport":
        for n, r in self.parts:
            if n == name:
                return r
        raise KeyError(name)


def _flag(ok: bool, check: str, checked: int = 1) -> CheckReport:
    """A part that tests one condition; its witness names the check."""
    return CheckReport(ok, checked, None if ok else Witness(check, (), (), ()))


def _require(report: CheckReport, message: str) -> CheckReport:
    """A precondition check's report if it passed; otherwise raise
    PreconditionError(message) carrying its witness."""
    if not report.passed:
        raise PreconditionError(message, witness=report.witness)
    return report


class Algebra3(Record):
    """A 3-Hom-Lie algebra by structure constants.

    bracket holds c with [e_i, e_j, e_k] = sum_l c[i,j,k,l] e_l (fully
    stored; its skewness, a precondition of every check, is scanned once);
    twist is the matrix of alpha.
    """
    dim: int
    bracket: Tensor4
    twist: Mat
    label: str = ""

    def __post_init__(self):
        n = self.dim
        if self.bracket.dims != (n, n, n, n):
            raise InputError(f"bracket dims {self.bracket.dims} for dim {n}")
        if self.twist.shape != (n, n):
            raise InputError(f"twist shape {self.twist.shape} for dim {n}")

    @cached_property
    def _skew(self) -> CheckReport:
        """The report of ``_skew_scan``, formed once, read by every check."""
        return _skew_scan(self.bracket)

    @cached_property
    def _lift(self) -> tuple:
        """(L, Dc, Da), formed once per algebra: Dc and Da the denominators
        of the bracket and the twist, and L the algebra with both lifted to
        ints by them (the algebra itself when both are 1). L holds data for
        the checks to compose, not a 3-Hom-Lie algebra: multiplicativity,
        of degree 1 and 3 in the twist, does not survive the lift."""
        c, A = self.bracket, self.twist
        Dc, Da = c.den, A.den
        if Dc == Da == 1:
            return self, 1, 1
        return Algebra3(self.dim, c.lifted(), A.lifted(), self.label), Dc, Da

    @staticmethod
    def abelian(n: int, twist: Mat | None = None, label: str = "abelian") -> "Algebra3":
        return Algebra3(n, Tensor4.zero((n,) * 4),
                        twist if twist is not None else Mat.identity(n), label)


def twist_slots(c: Tensor4, mats: Mapping[int, Mat]) -> dict:
    """Compose the bracket with linear maps in the given argument slots.

    Returns {(i,j,k): {l: val}} for the tensor of (x,y,z) ->
    [m0(x), m1(y), m2(z)] where ms is mats.get(slot, identity). It is
    composed on the inputs lifted to ints, and each entry is divided back
    once by the product of their denominators.
    """
    d = c.den
    for m in mats.values():
        d *= m.den
    if d != 1:
        c, mats = c.lifted(), {s: m.lifted() for s, m in mats.items()}
    # for each original index a, the columns x with M[a][x] != 0
    row_sup = {s: m.nonzeros for s, m in mats.items()}
    out: dict = {}
    for (a, b, k), lvec in c.rows():
        ch0 = row_sup[0][a] if 0 in row_sup else ((a, ONE),)
        ch1 = row_sup[1][b] if 1 in row_sup else ((b, ONE),)
        ch2 = row_sup[2][k] if 2 in row_sup else ((k, ONE),)
        for x, fx in ch0:
            for y, fy in ch1:
                fxy = fx * fy
                for z, fz in ch2:
                    row = out.setdefault((x, y, z), {})
                    vec_add_into(row, lvec, fxy * fz)
    out = {key: vec for key, vec in out.items() if vec}
    return unlift(out, d) if d != 1 else out


def _skew_scan(c: Tensor4) -> CheckReport:
    """Total skewness, compared only at the triples that can fail: a
    nonzero row with a repeated index fails, and each orbit {i < j < k} of
    a nonzero row is visited once, its five other permutations compared in
    lex order with its sorted row (negated once for the odd ones) up to the
    first that differs. The witness and ``checked`` (its 1-based lex
    position, n**3 on a pass) are those of the lex-first failing triple, as
    for a scan of every triple in lex order."""
    n, get = c.dims[0], dict(c.rows()).get
    fails, seen = [], set()
    for t, row in c.rows():
        i, j, k = s = tuple(sorted(t))
        if i == j or j == k:
            fails.append((t, row, {}))
        elif s not in seen:
            seen.add(s)
            canon = get(s)
            neg = {l: -v for l, v in canon.items()} if canon else None
            fails += [(p, get(p, {}), want or {}) for p, want in (
                ((i, k, j), neg), ((j, i, k), neg), ((j, k, i), canon),
                ((k, i, j), canon), ((k, j, i), neg)) if get(p) != want][:1]
    return _scan_report("skew", fails, n)


def _scan_report(check: str, fails: list, n: int) -> CheckReport:
    """The report of a scan of every triple of dim n in lex order, from the
    failing triples (t, row, want) that a sweep over nonzero rows found:
    the witness is at the lex-first t and its first l where row and want
    differ, and ``checked`` is its 1-based lex position, n**3 on a pass."""
    if not fails:
        return CheckReport(True, n ** 3)
    (i, j, k), row, want = min(fails, key=itemgetter(0))
    l = next(l for l in sorted(row.keys() | want.keys())
             if row.get(l, ZERO) != want.get(l, ZERO))
    return CheckReport(False, (i * n + j) * n + k + 1, Witness(
        check, (i, j, k, l), (row.get(l, ZERO),), (want.get(l, ZERO),)))


def _residual(terms) -> dict:
    """The sparse residual {key: {l: value}} of a signed sum of terms.

    A term (sign, inner, outer, order) composes two tensors: for each input
    tuple t with inner[t] = {m: f}, and each (others, vec) in outer[m], it
    adds sign * f * vec at the key that ``order`` (a permutation) picks
    from t + others; a fifth element, when present, is a predicate that
    limits the term to the keys it keeps. Keys whose sum vanishes are
    dropped.
    """
    res: dict = {}
    for sign, inner, outer, order, *keep in terms:
        pick = itemgetter(*order)
        keep = keep[0] if keep else None
        for t, ivec in inner.items():
            for m, f in ivec.items():
                sf = sign * f
                for others, vec in outer.get(m, ()):
                    key = pick(t + others)
                    if keep is None or keep(key):
                        vec_add_into(res.setdefault(key, {}), vec, sf)
    return {key: vec for key, vec in res.items() if vec}


def _identity(name: str, terms, dims: tuple, width: int,
              lhs: int | None = None, nominal: bool = False,
              scales: Sequence | None = None) -> CheckReport:
    """Check that the terms sum to zero at every key of shape ``dims``.

    The witness is the lex-first nonzero key. Its left side is the sum of
    the first ``lhs`` terms there (the residual itself when lhs is None),
    its right side the left side minus the residual, both as dense vectors
    of length ``width``. ``checked`` is the 1-based lex position of the
    witness's first len(dims) indices, as if those tuples had been
    enumerated up to it, and prod(dims) when the identity holds or the count
    is ``nominal``. Keys may be longer than ``dims``: the indices past them
    locate the witness within the value at that tuple.

    ``scales``, when given, holds for each term the factor by which its
    lifted sources scale it. Each term's sign is multiplied by L // scale,
    L the lcm of the scales, and the witness's sides are divided back by L.
    """
    L = lcm(*scales) if scales else 1
    if L != 1:
        terms = [(sign * (L // scale), *rest)
                 for (sign, *rest), scale in zip(terms, scales, strict=True)]
    res = _residual(terms)
    if not res:
        return CheckReport(True, prod(dims))
    key = min(res)
    diff = res[key]
    left = diff if lhs is None else _residual(terms[:lhs]).get(key, {})
    if L != 1:
        left, diff = unlift({0: left, 1: diff}, L).values()
    left = dense(left, width)
    right = tuple(v - diff.get(l, ZERO) for l, v in enumerate(left))
    checked = 0
    for k, d in zip(key, dims):
        checked = checked * d + k
    return CheckReport(False, prod(dims) if nominal else checked + 1,
                       Witness(name, key, left, right))


def _by_slot(c: Mapping, slot: int, skew: bool) -> dict:
    """{m: [(others, vec)]}: the rows of a bracket grouped by their index in
    one slot, the other two indices kept in order; with ``skew`` only the
    rows with others[0] < others[1]."""
    out: dict = {}
    for key, vec in c.items():
        others = key[:slot] + key[slot + 1:]
        if not skew or others[0] < others[1]:
            out.setdefault(key[slot], []).append((others, vec))
    return out


def _slot_outer(c: Tensor4, slot: int, mats: Mapping[int, Mat]) -> dict:
    """{m: [(others, vec)]}: the tensor of twist_slots(c, mats) grouped by
    its index in one argument slot, the other two indices kept in order."""
    return _by_slot(twist_slots(c, mats), slot, False)


def _by_output(t: Tensor4) -> dict:
    """{l: [((i, j, k), {0: t[i,j,k,l]})]}: an outer part that contracts the
    vector with the output index of t, moving t's input indices into the
    key (for the scalar identities)."""
    out: dict = {}
    for i, j, k, l, v in t.items():
        out.setdefault(l, []).append(((i, j, k), {0: v}))
    return out


def _permuted(t: Tensor4, order: tuple) -> Tensor4:
    """t with its four indices rearranged: entry e goes to (e[s] for s in
    order). The entries stay on distinct keys, so the values, and so the
    denominator, are t's."""
    rows: dict = {}
    for *key, l, v in map(itemgetter(*order, 4), t.items()):
        rows.setdefault(tuple(key), {})[l] = v
    return Tensor4._of(tuple(t.dims[s] for s in order), rows, t._den)


def _columns(m: Mat) -> dict:
    """{(x,): column x}: a matrix as the inner part of a term."""
    return {(x,): dict(col) for x, col in enumerate(m.col_support()) if col}


def _image(m: Mat) -> dict:
    """{l: [((), column l)]}: an outer part that maps the vector through m."""
    return {x: [((), col)] for (x,), col in _columns(m).items()}


def _pairing(m: Mat) -> dict:
    """{l: [((w,), {0: m[l][w]})]}: an outer part that pairs the vector with
    each basis vector w through the form m (for the scalar identities)."""
    return {l: [((w,), {0: v}) for w, v in row]
            for l, row in enumerate(m.nonzeros)}


def _tail_increasing(key: tuple) -> bool:
    """The last three indices of a residual key increase."""
    return key[-3] < key[-2] < key[-1]


def _minors(A: Mat, a: int, b: int) -> list:
    """The nonzero 2x2 minors of rows a, b of A at columns x < y, as
    ((x, y), A[a][x] A[b][y] - A[b][x] A[a][y])."""
    ra, rb = dict(A.nonzeros[a]), dict(A.nonzeros[b])
    cols = sorted(ra.keys() | rb.keys())
    return [((x, y), d) for i, x in enumerate(cols) for y in cols[i + 1:]
            if (d := ra.get(x, ZERO) * rb.get(y, ZERO)
                - rb.get(x, ZERO) * ra.get(y, ZERO))]


def _twisted_outer(a: Algebra3) -> tuple:
    """For each slot, _slot_outer of a skew bracket with the twist in the
    two other slots, at others[0] < others[1] only. As sum_{a,b} A[a][x]
    A[b][y] c[..a..b..] = sum_{a<b} (A[a][x] A[b][y] - A[b][x] A[a][y])
    c[..a..b..], one pass over the rows with a < b in the twisted slots
    fills all three, from the nonzero 2x2 minors of the twist's rows a, b
    at columns x < y, formed once per pair."""
    A = a.twist
    minors: dict = {}
    outs = o0, o1, o2 = ({}, {}, {})
    for (i, j, k), lvec in a.bracket.rows():
        for m, ab, out in ((i, (j, k), o0), (j, (i, k), o1), (k, (i, j), o2)):
            if ab[0] >= ab[1]:
                continue
            if ab not in minors:
                minors[ab] = _minors(A, *ab)
            acc = out.setdefault(m, {})
            for xy, d in minors[ab]:
                if xy in acc:
                    vec_add_into(acc[xy], lvec, d)
                elif d == 1:
                    acc[xy] = dict(lvec)
                else:
                    acc[xy] = {l: d * v for l, v in lvec.items()}
    return tuple({m: pairs for m, acc in out.items()
                  if (pairs := [(xy, vec) for xy, vec in acc.items() if vec])}
                 for out in outs)


def _hom_jacobi_terms(a: Algebra3, outer: tuple) -> list:
    """The Hom-Jacobi residual of a skew bracket at the keys (x, y, u, v, w)
    with x < y, u < v < w, outer being _twisted_outer(a), whose last part
    is [a(x), a(y), m] by m.

    A skew bracket makes every term skew in (x, y); swapping two of u, v, w
    negates the first term and takes each other one to minus another."""
    c = dict(a.bracket.rows())
    uvw = {t: v for t, v in c.items() if t[0] < t[1] < t[2]}
    xy = {t: v for t, v in c.items() if t[0] < t[1]}
    # [a(x),a(y),[u,v,w]] - [[x,y,u],a(v),a(w)] - [a(u),[x,y,v],a(w)]
    #   - [a(u),a(v),[x,y,w]]; the key test orders u, v, w across parts
    return [(1, uvw, outer[2], (3, 4, 0, 1, 2)),
            (-1, xy, outer[0], (0, 1, 2, 3, 4), _tail_increasing),
            (-1, xy, outer[1], (0, 1, 3, 2, 4), _tail_increasing),
            (-1, xy, outer[2], (0, 1, 3, 4, 2), _tail_increasing)]


def _morphism_terms(a: Algebra3, phi: Mat, t12: dict) -> list:
    """phi([x,y,z]) - [phi x, phi y, phi z] at key (x, y, z), t12 being
    [phi x, phi y, m] by m at x < y: a skew bracket makes both sides skew
    in (x, y, z), so only x < y < z is formed."""
    c = {t: v for t, v in a.bracket.rows() if t[0] < t[1] < t[2]}
    return [(1, c, _image(phi), (0, 1, 2)),
            (-1, _columns(phi), t12, (1, 2, 0), _tail_increasing)]


def check_algebra(a: Algebra3, regular: bool = False) -> CheckReport:
    """Check skewness, then the Hom-Jacobi identity, multiplicativity and,
    if ``regular``, an invertible twist; a skew failure short-circuits the
    rest."""
    parts = [("skew", a._skew)]
    if not parts[0][1].passed:
        return CheckReport.combine(parts)
    # [a(x), a(y), z] grouped by z at x < y, shared by both checks
    n = a.dim
    lifted, Dc, Da = a._lift
    outer = _twisted_outer(lifted)
    parts.append(("hom_jacobi", _identity(
        "hom_jacobi", _hom_jacobi_terms(lifted, outer), (n,) * 5, n,
        lhs=1, nominal=True, scales=(Dc * Dc * Da * Da,) * 4)))
    parts.append(("multiplicative", _identity(
        "multiplicative", _morphism_terms(lifted, lifted.twist, outer[2]),
        (n,) * 3, n, lhs=1, scales=(Dc * Da, Dc * Da ** 3))))
    if regular:
        parts.append(("regular", _flag(mat_rank(a.twist) == n, "regular")))
    return CheckReport.combine(parts)


def is_bracket_morphism(a: Algebra3, phi: Mat) -> Witness | None:
    """None when phi([x,y,z]) = [phi x, phi y, phi z] on all basis triples."""
    if phi.shape != (a.dim, a.dim):
        raise InputError(f"morphism shape {phi.shape} for dim {a.dim}")
    _require(a._skew, "bracket is not skew")
    lifted, Dc, _ = a._lift
    P, Dp = phi.lifted(), phi.den
    t12 = _by_slot(twist_slots(lifted.bracket, {0: P, 1: P}), 2, True)
    return _identity("morphism", _morphism_terms(lifted, P, t12), (a.dim,) * 3,
                     a.dim, lhs=1, scales=(Dc * Dp, Dc * Dp ** 3)).witness


def yau_twist(a: Algebra3, morph: Mat) -> Algebra3:
    """Twist a 3-Lie algebra (identity twist) along a bracket morphism.

    The new bracket is [x,y,z]' = [phi(x), phi(y), phi(z)] and the new twist
    is phi itself.
    """
    if not a.twist.is_identity():
        raise PreconditionError("yau_twist needs a 3-Lie algebra (identity twist)")
    w = is_bracket_morphism(a, morph)
    if w is not None:
        raise PreconditionError("morph is not a bracket morphism", witness=w)
    rows = twist_slots(a.bracket, {0: morph, 1: morph, 2: morph})
    return Algebra3(a.dim, Tensor4._of(a.bracket.dims, rows), morph,
                    label=f"{a.label}~yau" if a.label else "yau")


def composition_twist(a: Algebra3, beta: Mat) -> Algebra3:
    """New bracket [.,.,.] o (beta x beta x alpha) with twist alpha o beta."""
    w = is_bracket_morphism(a, beta)
    if w is not None:
        raise PreconditionError("beta is not a bracket morphism", witness=w)
    if a.twist @ beta != beta @ a.twist:
        raise PreconditionError("beta does not commute with the twist")
    rows = twist_slots(a.bracket, {0: beta, 1: beta, 2: a.twist})
    return Algebra3(a.dim, Tensor4._of(a.bracket.dims, rows), a.twist @ beta,
                    label=f"{a.label}~comp" if a.label else "comp")


def _derivation_rows(a: Algebra3, form: Mat | None) -> list:
    """The nonzero rows {col: value} of the system over vec(D) (D[p][q] ->
    p*n+q) whose kernel is Der(L) (Der_B(L) given B), built from the nonzero
    twist, bracket and form entries: c[u,v,w,x] enters O(n) Leibniz rows."""
    n, A = a.dim, a.twist
    if form is not None and form.shape != (n, n):
        raise InputError(f"form shape {form.shape} for dim {n}")
    rows: dict = {}

    def add(key, col, v):
        row = rows.setdefault(key, {})
        row[col] = row.get(col, ZERO) + v

    # D o alpha = alpha o D at (0, p, q):
    #   sum_m D[p][m] A[m][q] - A[p][m] D[m][q]
    for r, cols in enumerate(A.nonzeros):
        for s, v in cols:
            for p in range(n):
                add((0, p, s), p * n + r, v)
                add((0, r, p), s * n + p, -v)
    # Leibniz over basis triples i<j<k (skewness makes the rest redundant)
    # at (1, i, j, k, l): sum_m D[l][m] c[i,j,k,m] - D[m][i] c[m,j,k,l]
    #   - D[m][j] c[i,m,k,l] - D[m][k] c[i,j,m,l]
    for u, v, w, x, val in a.bracket.items():
        if u < v < w:
            for l in range(n):
                add((1, u, v, w, l), l * n + x, val)
        if v < w:
            for i in range(v):
                add((1, i, v, w, x), u * n + i, -val)
        for j in range(u + 1, w):
            add((1, u, j, w, x), v * n + j, -val)
        if u < v:
            for k in range(v + 1, n):
                add((1, u, v, k, x), w * n + k, -val)
    # B-skewness at (2, p, q): sum_m D[m][p] B[m][q] + B[p][m] D[m][q]
    if form is not None:
        for r, cols in enumerate(form.nonzeros):
            for s, v in cols:
                for p in range(n):
                    add((2, p, s), r * n + p, v)
                    add((2, r, p), s * n + p, v)
    out = ({col: v for col, v in rows[key].items() if v} for key in sorted(rows))
    return [row for row in out if row]


def derivation_space(a: Algebra3, form: Mat | None = None) -> tuple:
    """Canonical basis of Der(L) (or Der_B(L) when B is given) as matrices:
    the reduced echelon basis of the kernel of ``_derivation_rows``."""
    _require(a._skew, "bracket is not skew")
    n = a.dim
    out = []
    for v in sparse_kernel(_derivation_rows(a, form), n * n):
        rows = [[ZERO] * n for _ in range(n)]
        for col, x in v.items():
            rows[col // n][col % n] = x
        out.append(Mat._of(rows))
    return tuple(out)


def _leibniz_terms(a: Algebra3, d: Mat) -> list:
    """D[x,y,z] - [Dx,y,z] - [x,Dy,z] - [x,y,Dz] at key (x, y, z), formed at
    x < y < z only: over a skew bracket the sum is skew in (x, y, z),
    though a single slot term such as [Dx,y,z] is not."""
    c = dict(a.bracket.rows())
    xyz = {t: v for t, v in c.items() if t[0] < t[1] < t[2]}
    cols = _columns(d)
    return [(1, xyz, _image(d), (0, 1, 2)),
            (-1, cols, _by_slot(c, 0, True), (0, 1, 2), _tail_increasing),
            (-1, cols, _by_slot(c, 1, True), (1, 0, 2), _tail_increasing),
            (-1, cols, _by_slot(c, 2, True), (1, 2, 0), _tail_increasing)]


def is_derivation(a: Algebra3, d: Mat) -> Witness | None:
    """None when d commutes with the twist and satisfies the Leibniz rule."""
    n = a.dim
    if d.shape != (n, n):
        raise InputError(f"derivation shape {d.shape} for dim {n}")
    _require(a._skew, "bracket is not skew")
    lifted, Dc, _ = a._lift
    A, D = lifted.twist, d.lifted()
    if D @ A != A @ D:
        return Witness("derivation_commutes", (), (), ())
    return _identity("derivation", _leibniz_terms(lifted, D), (n,) * 3, n,
                     lhs=1, scales=(Dc * d.den,) * 4).witness


def _increasing4(key: tuple) -> bool:
    """The four indices of a key increase."""
    return key[0] < key[1] < key[2] < key[3]


def _fourterm_terms(a: Algebra3, M: Mat) -> list:
    """T(x,y,z,w) - T(y,z,w,x) + T(z,w,x,y) - T(w,x,y,z) at key (x, y, z, w),
    T(x,y,z,w) = [x,y,z]^T M w: the symplectic cocycle with M = W A, the
    closed form with M = A^T B. Over a skew bracket the sum is totally skew,
    whatever M (swapping x and y, y and z, or z and w negates it), so it is
    formed only at x < y < z < w, each term reading its bracket at the
    sorted triple (an even permutation of the one written)."""
    c = {t: v for t, v in a.bracket.rows() if t[0] < t[1] < t[2]}
    P = _pairing(M)
    # T(x,y,z,w) - T(y,z,w,x) + T(x,z,w,y) - T(x,y,w,z)
    return [(sign, c, P, order, _increasing4) for sign, order in (
        (1, (0, 1, 2, 3)), (-1, (3, 0, 1, 2)),
        (1, (0, 3, 1, 2)), (-1, (0, 1, 3, 2)))]


def _invariance_terms(a: Algebra3, M1: Mat, M2: Mat) -> list:
    """[x,y,z]^T M1 w + [x,y,w]^T M2 z at key (x, y, z, w), only at x < y,
    where a skew bracket makes both terms skew: metric invariance with
    (B, B^T), and pseudo-metric invariance with (B A, B A)."""
    c = {t: v for t, v in a.bracket.rows() if t[0] < t[1]}
    return [(1, c, _pairing(M1), (0, 1, 2, 3)),
            (1, c, _pairing(M2), (0, 1, 3, 2))]
