"""Free bigraded chain complexes over a grid ring.

A complex is a finite list of named generators with integer bigradings and a
sparse differential matrix of ring elements.  The differential has degree
(-1, -1), squares to zero, and every entry is homogeneous.  Complexes over
F2[U,V] appear only as inputs to the base change into ring X.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import _gf2
from .ring import (
    EQUAL,
    GREATER,
    ONE_ELEM,
    RingId,
    Side,
    ZERO,
    Monomial,
    elem_from_side_exp,
    elem_grading,
    elem_mul,
    elem_ok,
    in_region,
    lattice_compare,
    mono_grading,
)


class NotKnotlikeError(ValueError):
    """The complex fails the single-tower condition on some side."""


@dataclass(frozen=True, eq=False)
class FreeComplex:
    ring: RingId
    generators: tuple  # of (name, (g1, g2))
    diff: dict = field(default_factory=dict)  # (from, to) -> nonzero RingElem

    def n_gens(self):
        return len(self.generators)

    def name(self, i):
        return self.generators[i][0]

    def gr(self, i):
        return self.generators[i][1]

    def __eq__(self, other):
        return (
            isinstance(other, FreeComplex)
            and self.ring is other.ring
            and self.generators == other.generators
            and self.diff == other.diff
        )


@dataclass(frozen=True, eq=False)
class FUVComplex:
    """A complex over F2[U,V]; entries are sets of (a, b) meaning U^a V^b."""

    generators: tuple
    diff: dict = field(default_factory=dict)  # (from, to) -> frozenset of (a, b)

    def n_gens(self):
        return len(self.generators)

    def name(self, i):
        return self.generators[i][0]

    def gr(self, i):
        return self.generators[i][1]

    def __eq__(self, other):
        return (
            isinstance(other, FUVComplex)
            and self.generators == other.generators
            and self.diff == other.diff
        )


def _compose(da, db):
    """Matrix product of two sparse RingElem differentials."""
    from_b = {}
    for (j, k), e in db.items():
        from_b.setdefault(j, []).append((k, e))
    out = {}
    for (i, j), e1 in da.items():
        for k, e2 in from_b.get(j, ()):
            p = elem_mul(e1, e2)
            if p:
                out[(i, k)] = out.get((i, k), ZERO) + p
    return {key: e for key, e in out.items() if e}


def validate(C):
    """Structural checks; returns a list of violation strings (empty = ok)."""
    out = []
    names = [nm for nm, _gr in C.generators]
    if len(set(names)) != len(names):
        out.append("generator names are not unique")
    for nm, (g1, g2) in C.generators:
        if (g1 - g2) % 2:
            out.append("generator %s has gradings of mixed parity %s" % (nm, (g1, g2)))
    n = C.n_gens()
    for (i, j), e in C.diff.items():
        if not (0 <= i < n and 0 <= j < n):
            out.append("differential entry (%d, %d) out of range" % (i, j))
            continue
        if not e:
            out.append("stored zero entry at (%s, %s)" % (C.name(i), C.name(j)))
            continue
        if not elem_ok(C.ring, e):
            out.append("entry (%s, %s) = %r is not in ring %s" % (C.name(i), C.name(j), e, C.ring.value))
            continue
        try:
            gr = elem_grading(e)
        except ValueError:
            out.append("entry (%s, %s) = %r is inhomogeneous" % (C.name(i), C.name(j), e))
            continue
        want = (C.gr(i)[0] - C.gr(j)[0] - 1, C.gr(i)[1] - C.gr(j)[1] - 1)
        if gr != want:
            out.append(
                "entry (%s, %s) has grading %s, expected %s"
                % (C.name(i), C.name(j), gr, want)
            )
    if not out:
        sq = _compose(C.diff, C.diff)
        for (i, k), e in sq.items():
            out.append("d^2 is nonzero: (%s -> %s) = %r" % (C.name(i), C.name(k), e))
    return out


def validate_fuv(C):
    """Structural checks of an F2[U,V] complex; returns violation strings.

    Base change into X is an injective ring map that preserves gradings, so
    the checks of ``validate`` on the image give the same verdicts; only an
    empty entry, which the base change drops, is checked here.
    """
    out = [
        "stored zero entry at (%s, %s)" % (C.name(i), C.name(j))
        for (i, j), exps in C.diff.items()
        if not exps
    ]
    return out or validate(base_change(C))


def is_reduced(C):
    return all(not e.scalar for e in C.diff.values())


def shift_gradings(C, shift):
    """Shift every generator so that an element at ``shift`` moves to (0, 0)."""
    s1, s2 = shift
    gens = tuple((nm, (g1 - s1, g2 - s2)) for nm, (g1, g2) in C.generators)
    return FreeComplex(C.ring, gens, dict(C.diff))


def fuv_image(a, b):
    """Image in X of the monomial U^a V^b."""
    if (a, b) == (0, 0):
        return ONE_ELEM
    return elem_from_side_exp(Side.U, (a, b)) + elem_from_side_exp(Side.V, (b, a))


def base_change(C):
    """Extension of scalars from F2[U,V] into ring X.

    U goes to the sum of the U-side generator and the V-side element of the
    same grading; V symmetrically.  Since cross-side products vanish, the
    image of U^a V^b is the U-side monomial (a, b) plus the V-side monomial
    (b, a), each dropped at exponent (0, 0) in favour of the scalar.
    """
    diff = {}
    for (i, j), exps in C.diff.items():
        acc = ZERO
        for (a, b) in exps:
            acc = acc + fuv_image(a, b)
        if acc:
            diff[(i, j)] = acc
    return FreeComplex(RingId.X, tuple(C.generators), diff)


def reduce(C):
    """Cancel scalar entries until the differential lies in the maximal ideals.

    Deterministic: the row-major first unit entry is cancelled each round.
    The result is homotopy equivalent to the input.
    """
    gens = list(C.generators)
    diff = dict(C.diff)
    while True:
        pivot = None
        n = len(gens)
        for p in range(n):
            for q in range(n):
                e = diff.get((p, q))
                if e is not None and e.scalar:
                    pivot = (p, q)
                    break
            if pivot:
                break
        if pivot is None:
            break
        p, q = pivot
        e = diff[(p, q)]
        if e.u or e.v:
            raise ValueError("unit entry is not homogeneous; validate the complex first")
        col_q = {i: e2 for (i, j), e2 in diff.items() if j == q and i != p}
        row_p = {j: e2 for (i, j), e2 in diff.items() if i == p and j != q}
        keep = [i for i in range(n) if i not in (p, q)]
        remap = {old: new for new, old in enumerate(keep)}
        newdiff = {}
        for (i, j), e2 in diff.items():
            if i in (p, q) or j in (p, q):
                continue
            newdiff[(remap[i], remap[j])] = e2
        for i, ei in col_q.items():
            if i == q:
                continue
            for j, ej in row_p.items():
                if j == p:
                    continue
                p2 = elem_mul(ei, ej)
                if not p2:
                    continue
                key = (remap[i], remap[j])
                acc = newdiff.get(key, ZERO) + p2
                if acc:
                    newdiff[key] = acc
                else:
                    newdiff.pop(key, None)
        gens = [gens[i] for i in keep]
        diff = newdiff
    return FreeComplex(C.ring, tuple(gens), diff)


def _unique_names(names):
    seen = {}
    out = []
    for nm in names:
        if nm in seen:
            seen[nm] += 1
            out.append("%s#%d" % (nm, seen[nm]))
        else:
            seen[nm] = 0
            out.append(nm)
    return out


def tensor(C1, C2):
    """Tensor product over the grid ring (signs are trivial in char 2)."""
    if C1.ring is not C2.ring:
        raise ValueError("tensor factors live over different rings")
    n2 = C2.n_gens()
    names = _unique_names(
        ["%s⊗%s" % (C1.name(i), C2.name(k)) for i in range(C1.n_gens()) for k in range(n2)]
    )
    gens = []
    pos = 0
    for i in range(C1.n_gens()):
        for k in range(n2):
            g1 = C1.gr(i)
            g2 = C2.gr(k)
            gens.append((names[pos], (g1[0] + g2[0], g1[1] + g2[1])))
            pos += 1
    diff = {}
    for (i, j), e in C1.diff.items():
        for k in range(n2):
            diff[(i * n2 + k, j * n2 + k)] = e
    for (k, l), e in C2.diff.items():
        for i in range(C1.n_gens()):
            key = (i * n2 + k, i * n2 + l)
            acc = diff.get(key, ZERO) + e
            if acc:
                diff[key] = acc
            else:
                diff.pop(key, None)
    return FreeComplex(C1.ring, tuple(gens), diff)


def dual(C):
    """The dual complex: negated gradings, transposed differential."""
    names = _unique_names([nm + "∨" for nm, _gr in C.generators])
    gens = tuple(
        (names[i], (-g1, -g2)) for i, (_nm, (g1, g2)) in enumerate(C.generators)
    )
    diff = {(j, i): e for (i, j), e in C.diff.items()}
    return FreeComplex(C.ring, gens, diff)


@dataclass(frozen=True, eq=False)
class PairedBasis:
    """A homogeneous basis splitting one side-differential into pairs.

    ``basis[i]`` expresses the i-th new basis element as a RingElem row over
    the original generators; ``matrix`` is the side-differential in the new
    basis; each pair (y, z, order) satisfies d_side(y) = order * z; unpaired
    indices are side-cycles generating the nontorsion part.
    """

    side: Side
    basis: tuple  # rows of RingElems
    gradings: tuple
    matrix: dict  # (i, j) -> Monomial exp of the side differential
    pairs: tuple  # (y_index, z_index, Monomial)
    unpaired: tuple


def _side_exp(e, side):
    part = e.u if side is Side.U else e.v
    if not part:
        return None
    if len(part) > 1:
        raise ValueError("side part of a homogeneous entry must be a single monomial")
    return next(iter(part))


def paired_basis(C, side):
    """Change of basis putting the side-differential into paired form.

    Pivots are chosen <!-greatest first; such a pivot divides every other
    remaining entry, so all eliminations stay inside the ring and the
    resulting torsion orders are canonical.
    """
    if side not in (Side.U, Side.V):
        raise ValueError("side must be U or V")
    if not is_reduced(C):
        raise ValueError("paired_basis needs a reduced complex")
    m = C.n_gens()
    D = [[None] * m for _ in range(m)]
    for (i, j), e in C.diff.items():
        exp = _side_exp(e, side)
        if exp is not None:
            D[i][j] = exp
    basis = [[ONE_ELEM if i == j else ZERO for j in range(m)] for i in range(m)]
    grades = [C.gr(i) for i in range(m)]
    active = set(range(m))
    pairs = []

    def sub(a, b):
        d = (a[0] - b[0], a[1] - b[1])
        if not in_region(d):
            raise ValueError("pivot does not divide entry %s / %s" % (a, b))
        return d

    def toggle(i, j, exp):
        if D[i][j] is None:
            D[i][j] = exp
        elif D[i][j] == exp:
            D[i][j] = None
        else:
            raise ValueError("conflicting monomials in one matrix slot")

    while True:
        pivot = None
        for p in sorted(active):
            for q in sorted(active):
                exp = D[p][q]
                if exp is None:
                    continue
                if pivot is None or lattice_compare(exp, pivot[2]) == GREATER:
                    pivot = (p, q, exp)
        if pivot is None:
            break
        p, q, mu = pivot
        lam = {r: sub(D[p][r], mu) for r in range(m) if D[p][r] is not None}
        # Replace basis element q by (1/mu) d_side(g_p).
        newrow = [ZERO] * m
        for r, lexp in lam.items():
            coeff = elem_from_side_exp(side, lexp)
            for t in range(m):
                if basis[r][t]:
                    newrow[t] = newrow[t] + elem_mul(coeff, basis[r][t])
        basis[q] = newrow
        mg = mono_grading(Monomial(side, mu))
        grades[q] = (grades[p][0] - 1 - mg[0], grades[p][1] - 1 - mg[1])
        for i in range(m):
            if i == q:
                continue
            c = D[i][q]
            if c is None:
                continue
            for r, lexp in lam.items():
                if r == q:
                    continue
                toggle(i, r, (c[0] + lexp[0], c[1] + lexp[1]))
        D[q] = [None] * m
        # Clear the rest of column q by adding multiples of g_p.
        for i in range(m):
            if i == p or D[i][q] is None:
                continue
            lam2 = sub(D[i][q], mu)
            coeff = elem_from_side_exp(side, lam2)
            for t in range(m):
                if basis[p][t]:
                    basis[i][t] = basis[i][t] + elem_mul(coeff, basis[p][t])
            D[i][q] = None
            for k in range(m):
                if D[k][i] is not None:
                    toggle(k, p, (D[k][i][0] + lam2[0], D[k][i][1] + lam2[1]))
        for k in range(m):
            if D[k][p] is not None:
                raise ValueError("column of a paired generator did not clear; d^2 != 0?")
        pairs.append((p, q, Monomial(side, mu)))
        active.discard(p)
        active.discard(q)
    matrix = {}
    for i in range(m):
        for j in range(m):
            if D[i][j] is not None:
                matrix[(i, j)] = D[i][j]
    return PairedBasis(
        side=side,
        basis=tuple(tuple(row) for row in basis),
        gradings=tuple(grades),
        matrix=matrix,
        pairs=tuple(pairs),
        unpaired=tuple(sorted(active)),
    )


def _scalar_mask(row):
    """One row of ring elements reduced mod the maximal ideals, as a bitmask."""
    mask = 0
    for j, e in enumerate(row):
        if e.scalar:
            mask |= 1 << j
    return mask


def basis_mod2(pb):
    """The change-of-basis matrix reduced mod the maximal ideals, as bitmasks."""
    return [_scalar_mask(row) for row in pb.basis]


def tower_functional(C, pb):
    """F2 functional extracting the tower coefficient from generator coordinates.

    Returns (mask, tower_index).  Applying the mask (popcount parity of the
    AND) to the scalar-coordinate vector of an element gives the coefficient
    of the unpaired tower generator in the paired basis.
    """
    if len(pb.unpaired) != 1:
        raise NotKnotlikeError(
            "expected a single tower on side %s, found %d" % (pb.side.value, len(pb.unpaired))
        )
    t = pb.unpaired[0]
    w = _gf2.solve_unit(basis_mod2(pb), t)
    if w is None:
        raise ValueError("paired-basis change matrix is singular mod the maximal ideals")
    return w, t


@dataclass(frozen=True)
class QuotientHomology:
    side: Side
    tower_count: int
    tower_gradings: tuple
    torsion: tuple  # of (Monomial, shift)


def _cmp_torsion(a, b):
    c = lattice_compare(a[0].exp, b[0].exp)
    if c != EQUAL:
        return -c  # descending in <!
    return (a[1] > b[1]) - (a[1] < b[1])


def quotient_homology(C, side):
    """Tower and torsion data of the homology after killing the other side.

    For side U the surviving grading is gr2 (inverting the U-side generator
    collapses gr1), and symmetrically for side V.
    """
    if not is_reduced(C):
        raise ValueError("quotient_homology needs a reduced complex")
    pb = paired_basis(C, side)
    keep = 1 if side is Side.U else 0
    towers = tuple(pb.gradings[t][keep] for t in pb.unpaired)
    torsion = [(order, pb.gradings[z][keep]) for (_y, z, order) in pb.pairs]
    torsion.sort(key=functools.cmp_to_key(_cmp_torsion))
    return QuotientHomology(side, len(pb.unpaired), towers, tuple(torsion))


def _knotlike_bases(C):
    """Both sides' paired bases and the normalizing shift, or None for the shift.

    The shift is None unless each side has a single tower; subtracting it
    puts the U-side tower in gr2 = 0 and the V-side tower in gr1 = 0.
    """
    if not is_reduced(C):
        raise ValueError("is_knotlike needs a reduced complex; reduce first")
    pb_u = paired_basis(C, Side.U)
    pb_v = paired_basis(C, Side.V)
    if len(pb_u.unpaired) != 1 or len(pb_v.unpaired) != 1:
        return pb_u, pb_v, None
    shift = (pb_v.gradings[pb_v.unpaired[0]][0], pb_u.gradings[pb_u.unpaired[0]][1])
    if (shift[0] - shift[1]) % 2:
        raise NotKnotlikeError("tower gradings have mixed parity; complex is malformed")
    return pb_u, pb_v, shift


def is_knotlike(C):
    """Single-tower test on both sides, plus the normalizing grading shift.

    Returns (flag, shift); the shift is None when the complex is not knotlike.
    """
    shift = _knotlike_bases(C)[2]
    return shift is not None, shift


def normalize(C):
    """Apply the unique knotlike normalization shift."""
    ok, shift = is_knotlike(C)
    if not ok:
        raise NotKnotlikeError("complex is not knotlike")
    if shift == (0, 0):
        return C
    return shift_gradings(C, shift)
