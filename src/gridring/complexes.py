"""Free bigraded chain complexes over a grid ring.

A complex is a finite list of named generators with integer bigradings and a
sparse differential matrix of ring elements.  The differential has degree
(-1, -1), squares to zero, and every entry is homogeneous.  Complexes over
F2[U,V] appear only as inputs to the base change into ring X.
"""

import functools
import heapq
from operator import index

from . import _gf2
from .ring import (
    RingElem,
    RingId,
    Side,
    ZERO,
    Monomial,
    _Record,
    _TABLES,
    _brief,
    _side_exp,
    elem_grading,
    elem_mul,
    elem_ok,
    lattice_key,
    mono_grading,
)


class NotKnotlikeError(ValueError):
    """The complex fails the single-tower condition on some side."""


class InvalidComplexError(ValueError):
    """The complex fails ``validate``; ``violations`` lists what it returned."""

    def __init__(self, violations):
        super().__init__("invalid complex: " + "; ".join(violations))
        self.violations = violations


class _Generators(_Record):
    """The generator accessors of both complex types.

    ``generators`` is a tuple of ``(name, (g1, g2))``.  The differential is
    a dict, so neither type is hashable.
    """

    __slots__ = ()
    __hash__ = None

    def n_gens(self):
        return len(self.generators)

    def name(self, i):
        return self.generators[i][0]

    def gr(self, i):
        return self.generators[i][1]


class FreeComplex(_Generators):
    """A complex over a grid ring; ``diff`` maps (from, to) to a nonzero ``RingElem``.

    An omitted ``diff`` is a fresh ``{}``.
    """

    __slots__ = ("ring", "generators", "diff")

    def __init__(self, ring, generators, diff=None):
        super().__init__(ring, generators, {} if diff is None else diff)


class FUVComplex(_Generators):
    """A complex over F2[U,V]; ``diff`` maps (from, to) to a frozenset of (a, b), meaning U^a V^b.

    It builds through the shared record constructor, so ``diff`` is required.
    """

    __slots__ = ("generators", "diff")


def _record_faults(C):
    """The violations of C's type, fields and generator records, and its gradings when readable.

    Returns ``(violations, grs)``.  Anything but a ``FreeComplex`` gets one
    violation naming its type, and so does each of its fields that has the
    wrong type (a ring that is not a ``RingId``, generators that are not a
    tuple or list, a ``diff`` that is not a dict).  Each generator record
    must be a pair of a str name and gradings, and the gradings a pair
    (tuple or list) of ints, a bool being the int it subclasses, of equal
    parity; names must be unique.  ``grs`` lists the gradings when every
    record and grading is well formed, else it is None and the entries,
    which read two gradings each, are not checked.  ``validate`` and
    ``_violations`` open with it.
    """
    if not isinstance(C, FreeComplex):
        hint = "; base_change turns it into one over X" if isinstance(C, FUVComplex) else ""
        return ["expected a FreeComplex, got %s%s" % (type(C).__name__, hint)], None
    fields = (("ring", C.ring, RingId, "RingId"),
              ("generators", C.generators, (tuple, list), "tuple or list"),
              ("diff", C.diff, dict, "dict"))
    out = ["%s is %s, not a %s" % (name, _brief(value), want)
           for name, value, types, want in fields if not isinstance(value, types)]
    if out:
        return out, None
    names = []
    paired = True
    for rec in C.generators:
        try:
            nm, gr = rec
        except (TypeError, ValueError):
            nm = None
        if not isinstance(nm, str):
            out.append("generator record %s is not a (str name, gradings) pair" % _brief(rec))
            paired = False
            continue
        names.append(nm)
        g1, g2 = gr if isinstance(gr, (tuple, list)) and len(gr) == 2 else (None, None)
        if not (isinstance(g1, int) and isinstance(g2, int)):
            out.append("generator %s has gradings %s, not a pair of ints" % (nm, _brief(gr)))
            paired = False
        elif (g1 - g2) % 2:
            out.append("generator %s has gradings of mixed parity %s" % (nm, _brief((g1, g2))))
    if len(set(names)) != len(names):
        out.insert(0, "generator names are not unique")
    return out, [gr for _nm, gr in C.generators] if paired else None


def validate(C):
    """Structural checks; returns a list of violation strings (empty = ok).

    First the type, field and generator-record checks (``_record_faults``).
    Each differential key must be a pair of ints in range (``_key_ok``).
    A valid entry is a nonzero ``RingElem`` that is a sum of basis
    monomials of its expected grading, so each entry is checked with one
    lookup in the ring's grading table (``ring._TABLES``) and three subset
    tests against the sum of that grading's basis, the scalar being the
    int 0 or 1, both side parts frozensets and each exponent a pair of
    ints.  An entry that fails them gets its violation from
    ``_entry_fault``, the rule ``localeq.check_certificate`` also applies.
    Once every entry passes, d^2 is computed on the entries' part bits
    (``_square_defects``), by the product ``_part_products`` that the
    checker also forms its chain defect with.  The keys, gradings and
    entries a violation prints are cut to 80 characters (``ring._brief``),
    so each stays one short line.  ``_violations`` gives the same list
    without the grading table.
    """
    out, grs = _record_faults(C)
    if grs is None:
        return out
    n = len(grs)
    table = _TABLES[C.ring]
    parts = []
    for key, e in C.diff.items():
        # _key_ok written out: a call per entry would cost the valid path
        try:
            i, j = key
            (gi1, gi2), (gj1, gj2) = grs[i], grs[j]
        except (TypeError, ValueError, IndexError):
            i = -1
        if not (0 <= i < n and 0 <= j < n):
            out.append("differential entry %s out of range" % _brief(key))
            continue
        want = (gi1 - gj1 - 1, gi2 - gj2 - 1)
        if isinstance(e, RingElem):
            s, u, v = e.scalar, e.u, e.v
            full = table[want][3][-1]
            if (s or u or v) and isinstance(s, int) and 0 <= s <= full.scalar \
                    and type(u) is frozenset is type(v) and u <= full.u and v <= full.v:
                # each part holds at most one exponent, equal to a pair of
                # ints; the entry rule rejects a float equal to an int
                (a, b), = u or ((0, 0),)
                (c, d), = v or ((0, 0),)
                if isinstance(a, int) and isinstance(b, int) \
                        and isinstance(c, int) and isinstance(d, int):
                    parts.append(s | (2 if u else 0) | (4 if v else 0))
                    continue
        # an entry that fails the table's tests is never valid
        out.append(_entry_fault(C.ring, e, want, C.name(i), C.name(j)))
    return out or _square_defects(C, parts)


def _violations(C):
    """``validate(C)``, found without reading a grading table.

    The same rules in the same order: ``_record_faults``, then per entry
    ``_key_ok`` and the entry rule ``_entry_fault``, then d^2 by
    ``_square_defects``, so the list is ``validate``'s.  It costs more per
    entry than ``validate``'s table tests; ``paired_basis`` calls it, so
    that the certificate checker, which pairs its target through
    ``paired_basis``, reads no grading table.
    """
    out, grs = _record_faults(C)
    if grs is None:
        return out
    n = len(grs)
    parts = []
    for key, e in C.diff.items():
        if not _key_ok(key, n, n):
            out.append("differential entry %s out of range" % _brief(key))
            continue
        i, j = key
        (gi1, gi2), (gj1, gj2) = grs[i], grs[j]
        fault = _entry_fault(C.ring, e, (gi1 - gj1 - 1, gi2 - gj2 - 1), C.name(i), C.name(j))
        if fault:
            out.append(fault)
        else:
            parts.append(_part_bits(e))
    return out or _square_defects(C, parts)


def _key_ok(key, n_rows, n_cols):
    """True if a matrix key is a pair (i, j) of ints with 0 <= i < n_rows and 0 <= j < n_cols.

    An int is what a list takes as an index: a bool is the int it
    subclasses, and a float is not an int.  ``localeq.check_certificate``
    calls it on a certificate's keys.  ``validate`` applies it written out
    (unpack the key, index the gradings, test the range): one call per
    entry made ``validate`` 4-17% slower on the benchmark's inputs.
    """
    try:
        i, j = key
        return 0 <= index(i) < n_rows and 0 <= index(j) < n_cols
    except (TypeError, ValueError):
        return False


def _entry_fault(ring, e, want, a, b):
    """The violation of a matrix entry ``e`` of expected grading ``want``, or None if it is valid.

    ``a`` and ``b`` label the entry (generator names in ``validate``,
    indices in ``localeq.check_certificate``).  The first rule ``e``
    breaks is reported: it must be a ``RingElem``, nonzero, with a scalar
    that is the int 0 or 1 (a bool is the int it subclasses), side parts
    that are frozensets (a record hashes by its fields), its exponents
    side exponents of the ring (``ring._exps_ok``), homogeneous, and of
    grading ``want``.  It reads only the entry's scalar and exponents,
    through ``elem_ok`` and ``elem_grading``, and no grading table: a
    homogeneous entry in the ring lies in the basis of its own grading.
    This is the one copy of the entry rule; ``validate`` calls it for each entry its table tests
    reject, and the certificate checker for every entry.
    """
    if not isinstance(e, RingElem):
        return "entry (%s, %s) = %s is not a RingElem" % (a, b, _brief(e))
    s = e.scalar
    if not (s or e.u or e.v):
        return "stored zero entry at (%s, %s)" % (a, b)
    if s not in (0, 1) or not isinstance(s, int):
        return "entry (%s, %s) has scalar %s, not 0 or 1" % (a, b, _brief(s))
    for part in (e.u, e.v):
        if type(part) is not frozenset:
            return "entry (%s, %s) has side part %s, not a frozenset of exponents" % (
                a, b, _brief(part))
    if not elem_ok(ring, e):
        return "entry (%s, %s) = %s is not in ring %s" % (a, b, _brief(e), ring.value)
    try:
        gr = elem_grading(e)
    except ValueError:
        return "entry (%s, %s) = %s is inhomogeneous" % (a, b, _brief(e))
    if gr != want:
        return "entry (%s, %s) has grading %s, expected %s" % (a, b, _brief(gr), _brief(want))
    return None


def _part_bits(e):
    """The part bits of a valid entry: 1 for a nonzero scalar, 2 for a U side, 4 for a V side.

    The certificate checker lists a map's and both differentials' entries
    with it once ``_entry_fault`` has passed every entry of the map;
    ``validate`` writes the same bits inline, on its hot path.
    """
    return (1 if e.scalar else 0) | (2 if e.u else 0) | (4 if e.v else 0)


def _part_products(left, right, parity):
    """XOR the part bits of each product left[i,j]·right[j,k] into ``parity[(i, k)]``; returns it.

    Each factor is an ``((i, j), bits)`` pair, the bits those of a valid
    entry (1: scalar, 2: U side, 4: V side), so a scalar entry has no side
    part.  Every product into one (i, k) lies in one grading, which has at
    most one monomial per part, so a product is its part bits: the other
    factor's when one factor is the scalar, else the side bits both factors
    share.  Zero products are skipped, so the keys come in the order of
    their first nonzero product, ``left`` entry by entry and then along
    ``right``'s row j; a key whose products cancel keeps a parity of 0.
    This is the one product behind d^2 (``_square_defects``) and the
    certificate checker's chain defect (``localeq.check_certificate``).
    """
    out_of = {}
    for (j, k), b in right:
        out_of.setdefault(j, []).append((k, b))
    for (i, j), b1 in left:
        for k, b2 in out_of.get(j, ()):
            b = b2 if b1 == 1 else b1 if b2 == 1 else b1 & b2
            if b:
                parity[(i, k)] = parity.get((i, k), 0) ^ b
    return parity


def _square_defects(C, parts):
    """The d^2 violations of C, in the order of their first product.

    ``parts[t]`` holds the part bits of the t-th entry of ``C.diff``, every
    entry valid, and ``_part_products`` forms d∘d on them (the order of the
    tests' reference product).  Each nonzero parity is read back as an
    element of the grading g = gr(i) - gr(k) - (2, 2): the scalar where g
    is (0, 0), else the side monomials of g (``ring._side_exp``), which a
    product of two side exponents of the ring always is.  No grading table
    is read, so ``_violations`` reads none.
    """
    parity = _part_products(zip(C.diff, parts), zip(C.diff, parts), {})
    out = []
    for (i, k), b in parity.items():
        if b:
            (gi1, gi2), (gk1, gk2) = C.gr(i), C.gr(k)
            g = (gi1 - gk1 - 2, gi2 - gk2 - 2)
            u = frozenset([_side_exp(C.ring, Side.U, g)]) if b & 2 else frozenset()
            v = frozenset([_side_exp(C.ring, Side.V, g)]) if b & 4 else frozenset()
            e = RingElem(b & 1, u, v)
            out.append("d^2 is nonzero: (%s -> %s) = %s" % (C.name(i), C.name(k), _brief(e)))
    return out


def validate_fuv(C):
    """Structural checks of an F2[U,V] complex; returns violation strings.

    Base change into X is an injective ring map that preserves gradings, so
    ``validate`` of the image gives the same verdicts.  The image keeps an
    empty entry as a zero entry (``base_change`` drops it), which
    ``validate`` reports as a stored zero entry among the other violations.
    """
    diff = {key: fuv_image(exps) for key, exps in C.diff.items()}
    return validate(FreeComplex(RingId.X, tuple(C.generators), diff))


def is_reduced(C):
    return all(not e.scalar for e in C.diff.values())


def shift_gradings(C, shift):
    """Shift every generator so that an element at ``shift`` moves to (0, 0)."""
    s1, s2 = shift
    gens = tuple((nm, (g1 - s1, g2 - s2)) for nm, (g1, g2) in C.generators)
    return FreeComplex(C.ring, gens, dict(C.diff))


def fuv_image(exps):
    """Image in X of the F2[U,V] element whose monomials U^a V^b are the pairs (a, b) of ``exps``.

    The base change sends U to the U-side generator plus the V-side element
    of the same grading, V symmetrically.  Cross-side products vanish, so
    U^a V^b goes to the U-side monomial (a, b) plus the V-side monomial
    (b, a), and U^0 V^0 to the scalar 1.  Distinct monomials have disjoint
    images, so the image is read off ``exps`` directly: the scalar is 1 when
    (0, 0) is in ``exps``, the U side is the other pairs and the V side the
    same pairs swapped.  This is the one place the rule is written:
    ``base_change``, ``validate_fuv`` and the FUV document reader call it.
    """
    u = frozenset(exps) - {(0, 0)}
    return RingElem(1 if (0, 0) in exps else 0, u, frozenset([(b, a) for a, b in u]))


def base_change(C):
    """Extension of scalars from F2[U,V] into ring X, entry by entry through ``fuv_image``.

    An empty entry, whose image is zero, is dropped.
    """
    diff = {key: fuv_image(exps) for key, exps in C.diff.items() if exps}
    return FreeComplex(RingId.X, tuple(C.generators), diff)


def reduce(C):
    """Cancel scalar entries until the differential lies in the maximal ideals.

    Deterministic: each round cancels the row-major first unit entry of the
    current complex.  The result is homotopy equivalent to the input.

    Generators keep their input numbers until the end: a cancelled pair
    leaves the differential and the row and column indexes, and the
    survivors are renumbered once, in order.  Since that renumbering keeps
    order, the row-major first unit entry is the least input position
    ``(row, col)`` holding a unit, which a min-heap of unit positions yields;
    a popped position that no longer holds a unit is stale and skipped.
    Entries keep the order in which the differential gained them.
    """
    n = C.n_gens()
    diff = dict(C.diff)
    rows = [{} for _ in range(n)]  # rows[i][j] and cols[j][i] mirror diff
    cols = [{} for _ in range(n)]
    for (i, j), e in diff.items():
        rows[i][j] = cols[j][i] = e
    heap = [key for key, e in diff.items() if e.scalar]
    heapq.heapify(heap)
    alive = [True] * n
    while heap:
        p, q = heapq.heappop(heap)
        e = diff.get((p, q))
        if e is None or not e.scalar:
            continue
        if e.u or e.v:
            raise ValueError("unit entry is not homogeneous; validate the complex first")
        col_q = [(i, ei) for i, ei in cols[q].items() if i not in (p, q)]
        row_p = [(j, ej) for j, ej in rows[p].items() if j not in (p, q)]
        for g in (p, q):
            for j in rows[g]:
                del diff[(g, j)], cols[j][g]
            for i in cols[g]:
                del diff[(i, g)], rows[i][g]
            rows[g], cols[g], alive[g] = {}, {}, False
        for i, ei in col_q:
            for j, ej in row_p:
                prod = elem_mul(ei, ej)
                if not prod:
                    continue
                key = (i, j)
                acc = diff.get(key, ZERO) + prod
                if acc:
                    diff[key] = rows[i][j] = cols[j][i] = acc
                    if acc.scalar:
                        heapq.heappush(heap, key)
                elif key in diff:
                    del diff[key], rows[i][j], cols[j][i]
    keep = [i for i in range(n) if alive[i]]
    renum = {old: new for new, old in enumerate(keep)}
    gens = tuple(C.generators[i] for i in keep)
    return FreeComplex(C.ring, gens, {(renum[i], renum[j]): e for (i, j), e in diff.items()})


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


class PairedBasis(_Record):
    """A homogeneous basis splitting one side-differential into pairs.

    ``basis[i]`` is the i-th new basis element reduced mod the maximal
    ideals: an int bitmask over the original generators, bit j set when
    generator j has a unit coefficient.  In the new basis the
    side-differential is the pairs alone: each pair (y, z, order) satisfies
    d_side(y) = order * z, and unpaired indices are side-cycles generating
    the nontorsion part.

    The basis stores no gradings; the complex owns them.  A homogeneous
    change of basis moves no grading, so element i has grading ``C.gr(i)``,
    and since d_side has degree (-1, -1) a pair's order is the one side
    monomial of grading gr(y) - gr(z) - (1, 1): ``_column_pairing`` reads
    it off the gradings, as it reads every entry.  Its basis is
    unitriangular: ``basis[i]`` has bit i, and otherwise only bits of
    generators of i's grading and lower index.

    Fields: ``side``; ``basis``, the residue bitmasks, one per new basis
    element; ``pairs``, of ``(y_index, z_index, Monomial)``; ``unpaired``.
    """

    __slots__ = ("side", "basis", "pairs", "unpaired")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def side_rows(C, side):
    """Per generator, ``{target: side exponent}`` of its arrows on one side.

    An arrow with no part on ``side`` is absent; each dict keeps the order
    of ``C.diff``.  Each entry's side part is read once and unpacked as its
    single exponent, so ``C`` must pass ``validate``: its one caller,
    ``localeq._Target``, gets validated complexes only.
    """
    rows = [{} for _ in range(C.n_gens())]
    on_u = side is Side.U
    for (a, b), e in C.diff.items():
        part = e.u if on_u else e.v
        if part:
            (rows[a][b],) = part
    return rows


@functools.cache
def _slot(on_u, d1, d2):
    """The exponent of the side U (else V) slot (i, r) with gr(i) - gr(r) = (d1, d2), or None.

    It is ``ring._side_exp`` of grading (d1 - 1, d2 - 1) in ``X``; the
    column reduction reads a pair's order off it.  Memoized for the whole
    process, as the grading tables are: a memo per call, which starts
    empty, measured about 8 us slower per call on complexes of 3 to 30
    generators, 3-4% of a batch-small input (2 vCPUs, Python 3.11.7).
    """
    return _side_exp(RingId.X, Side.U if on_u else Side.V, (d1 - 1, d2 - 1))


def paired_basis(C, side):
    """Change of basis putting the side-differential into paired form.

    The side must be U or V.  Then C is checked by ``validate``'s rules
    (``_violations``): on any violation it raises ``InvalidComplexError``
    listing exactly what ``validate(C)`` lists.  It does not call
    ``validate``, whose table tests read the grading tables: the
    certificate checker pairs its target here and must read none.
    ``_violations`` reads none even when d^2 is nonzero, as
    ``_square_defects`` builds the entry from ``ring._side_exp``.  Then
    ``_column_pairing``, which raises ValueError (``paired_basis needs a
    reduced complex``) unless C is reduced.  A complex that already passed
    ``validate`` is paired by ``_column_pairing`` alone, not checked twice.
    """
    if side not in (Side.U, Side.V):
        raise ValueError("side must be U or V")
    bad = _violations(C)
    if bad:
        raise InvalidComplexError(bad)
    return _column_pairing(C, side)


def _column_pairing(C, side):
    """The paired basis of one side of a reduced complex that passes ``validate``.

    The persistence column reduction (Zomorodian-Carlsson, "Computing
    persistent homology", 2005).  The generators are ordered by their key,
    (gr2, gr1) on side U and (gr1, gr2) on side V, descending, equal keys
    in ascending index.  A side monomial of grading gr(p) - gr(q) lies in
    ``X``, or is the unit, exactly when q's key is at least p's (in ``R``
    two columns that share a row agree in the key's first component), so
    an earlier column enters a later one with a multiplier in the ring,
    and within a column the entry of the least key, the last filled row,
    divides the others.  Each side column d_side(g_k) is an int bitmask
    over that order, and each is reduced against the earlier ones by XOR,
    pivoting on its highest set bit: R_k = d_side(V_k), V_k being g_k
    plus multiples of earlier V_j.  A column left nonzero pairs y = its
    generator with z = its pivot row, and the order is the side monomial
    of gr(y) - gr(z) - (1, 1).

    The basis is V_y for a column y that keeps a pivot, R_y / order for
    its pivot row z and V_t for an unpaired t, each kept as its residue
    bitmask (see ``PairedBasis``).  A multiplier, or a quotient by the
    order, is the unit exactly when the two gradings agree (compared as
    tuples, so a list grading equals its tuple), so V_j enters V_k's
    residue only then, and R_y / order's residue is R_y's rows graded like
    z.  Those come earlier in the order, so element i has bit i and
    otherwise only generators of its grading and lower index: the basis is
    unitriangular.  The entry loop holds the one reducedness check: a
    scalar entry raises ValueError (``paired_basis needs a reduced
    complex``).  Nothing else is checked: callers pass complexes that
    passed ``validate``, or ``paired_basis``'s ``_violations``.
    """
    on_u = side is Side.U
    gr = [(g1, g2) for _nm, (g1, g2) in C.generators]
    keys = [(g2, g1) for g1, g2 in gr] if on_u else gr
    order = sorted(range(len(gr)), key=keys.__getitem__, reverse=True)
    pos = {i: k for k, i in enumerate(order)}
    gpos = [gr[i] for i in order]  # the gradings by position
    cols = [0] * len(gr)
    for (a, b), e in C.diff.items():
        if e.scalar:
            raise ValueError("paired_basis needs a reduced complex")
        if e.u if on_u else e.v:
            cols[pos[a]] |= 1 << pos[b]
    basis = [1 << i for i in range(len(gr))]
    owner = {}  # a pivot row's position: the position of its column
    pairs = []
    for k, col in enumerate(cols):
        if not col:
            continue
        y = order[k]
        gy, res = gr[y], basis[y]
        while col:
            low = col.bit_length() - 1
            j = owner.get(low)
            if j is None:
                owner[low], cols[k] = k, col
                z, row = order[low], 0
                gz = gr[z]
                pairs.append((y, z, Monomial(side, _slot(on_u, gy[0] - gz[0], gy[1] - gz[1]))))
                # equal gradings are adjacent in the order, so R_y's rows
                # graded like z are its top bits
                while col:
                    b = col.bit_length() - 1
                    if gpos[b] != gz:
                        break
                    row |= 1 << order[b]
                    col ^= 1 << b
                basis[z] = row
                break
            col ^= cols[j]
            if gpos[j] == gy:
                res ^= basis[order[j]]
        if k not in owner:  # a pivot row's element is the reduced column over the order
            basis[y] = res
    paired = {i for y, z, _o in pairs for i in (y, z)}
    return PairedBasis(side, tuple(basis), tuple(pairs),
                       tuple(i for i in range(len(gr)) if i not in paired))


def tower_functional(pb):
    """The tower of a paired basis: (functional mask, element mask).

    Applying the functional mask (popcount parity of the AND) to the
    scalar-coordinate vector of an element gives the coefficient of the
    unpaired tower generator in the paired basis; the element mask is that
    generator's residue row.  The tower's bigrading is its generator's,
    ``C.gr(pb.unpaired[0])``.  ``_column_pairing``'s basis is
    unitriangular, so the solve always succeeds on it; the ValueError is
    for a ``PairedBasis`` built by hand.
    """
    if len(pb.unpaired) != 1:
        raise NotKnotlikeError(
            "expected a single tower on side %s, found %d" % (pb.side.value, len(pb.unpaired))
        )
    t = pb.unpaired[0]
    w = _gf2.solve_unit(pb.basis, t)
    if w is None:
        raise ValueError("paired-basis change matrix is singular mod the maximal ideals")
    return w, pb.basis[t]


class QuotientHomology(_Record):
    """One side's tower and torsion data; ``torsion`` is a tuple of ``(Monomial, shift)``."""

    __slots__ = ("side", "tower_count", "tower_gradings", "torsion")


def quotient_homology(C, side):
    """Tower and torsion data of the homology after killing the other side.

    For side U the surviving grading is gr2 (inverting the U-side generator
    collapses gr1), and symmetrically for side V.  A tower has its
    generator's grading, and a torsion pair's z has y's lowered by (1, 1)
    and by the order's grading.
    """
    pb = paired_basis(C, side)
    keep = 1 if side is Side.U else 0
    towers = tuple(C.gr(t)[keep] for t in pb.unpaired)
    torsion = [(o, C.gr(y)[keep] - 1 - mono_grading(o)[keep]) for y, _z, o in pb.pairs]
    # Descending in <!, ties in ascending shift.
    torsion.sort(key=lambda t: (lattice_key(t[0].exp), -t[1]), reverse=True)
    return QuotientHomology(side, len(pb.unpaired), towers, tuple(torsion))


def _knotlike_shift(C, pb_u, pb_v):
    """The normalizing shift read off both sides' pairings, or None.

    ``pb_u`` and ``pb_v`` are paired bases, from ``paired_basis`` or
    straight from ``_column_pairing``; only their unpaired indices are read.  The
    shift is None unless each side has a single tower; subtracting it
    puts the U-side tower in gr2 = 0 and the V-side tower in gr1 = 0.
    """
    if len(pb_u.unpaired) != 1 or len(pb_v.unpaired) != 1:
        return None
    shift = (C.gr(pb_v.unpaired[0])[0], C.gr(pb_u.unpaired[0])[1])
    if (shift[0] - shift[1]) % 2:
        raise NotKnotlikeError("tower gradings have mixed parity; complex is malformed")
    return shift


def _require_knotlike(C, pb_u, pb_v, what="complex"):
    """``_knotlike_shift`` of a knotlike complex; raises NotKnotlikeError naming both tower counts.

    ``what`` names the complex in the message, e.g. ``complex is not
    knotlike: 2 towers on side U, 2 on side V``.
    """
    shift = _knotlike_shift(C, pb_u, pb_v)
    if shift is None:
        raise NotKnotlikeError(
            "%s is not knotlike: %d towers on side U, %d on side V"
            % (what, len(pb_u.unpaired), len(pb_v.unpaired))
        )
    return shift


def is_knotlike(C):
    """Single-tower test on both sides, plus the normalizing grading shift.

    Returns (flag, shift); the shift is None when the complex is not knotlike.
    Side U is paired by ``paired_basis``, so a complex ``validate`` rejects
    fails with its violations, and side V, then known valid, by
    ``_column_pairing`` alone.
    """
    shift = _knotlike_shift(C, paired_basis(C, Side.U), _column_pairing(C, Side.V))
    return shift is not None, shift


def normalize(C):
    """Apply the unique knotlike normalization shift; the sides are paired as in ``is_knotlike``."""
    shift = _require_knotlike(C, paired_basis(C, Side.U), _column_pairing(C, Side.V))
    if shift == (0, 0):
        return C
    return shift_gradings(C, shift)
