"""Local maps and the canonical standard representative.

Existence of a (short) local map between two complexes is decided by exact
F2 linear algebra: the unknowns are the monomial coordinates of each matrix
entry in its forced bigrading, the equations match the chain-map identities
coefficient by coefficient, and locality contributes one inhomogeneous
equation (the image of the distinguished generator must hit the target's
tower generator with coefficient 1).  The canonical representative of a
knotlike complex is then extracted greedily, one parameter at a time: each
step lists the candidates drawn from the extant coefficients in descending
order and keeps the greatest that admits a map.  At odd steps the neutral
element 1, which sorts between the positive and the negative candidates,
stands for stopping.

Along each step's descending list feasibility is monotone: infeasible
candidates first, then feasible ones, as the lexicographic order of standard
complexes (Dai-Hom-Stoffregen-Truong, arXiv:1902.03333) suggests, since a
smaller parameter gives a lower prefix.  The search therefore bisects the
list for the first feasible index.  The tests check this monotonicity on a
fixed corpus; correctness does not rest on it: a non-monotone step could
only return a smaller feasible parameter, and the backward map and the two
certificate checks then fail with VerificationError instead of returning a
wrong spec.

Every system of one standardization maps into the same complex.  Its
gradings are indexed once, and the unknowns and chain-map terms of a source
generator depend only on that generator's grading, so they are laid out
once per grading: which entries are non-zero, the bits of their monomials,
and per side the mask each equation receives, that side built when first
read.  Adding a generator then copies one shifted mask per equation.
Accepted parameters are never revisited, so one source system grows with
the search.  p_k's arrow joins x_{k-1} and x_k on p_k's side, so it can
change only x_{k-1}'s equations on that side, the tail; every other
equation of the prefix is complete and eliminated into a block.  Each
probe, the stop included, eliminates the tail, and a candidate's x_k rows
on p_k's side with its arrow, against a copy of the block: that is the
system of its map, and the condition a short map drops, x_k's on the next
side, is the next tail.  Accepting a candidate therefore adopts its
probe's pivots as the block and eliminates nothing.  Only the probe that
stops the search is back-substituted into a solution.

An equation is keyed by source generator, side and target generator alone:
between homogeneous complexes all its terms share one grading, and with it
one monomial.  A source arrow a -> b adds the unknowns of b's entries to
a's equations, so an arrow into a generator without unknowns adds nothing
and is skipped (58% of the backward map's arrows on the seed-1
wide-trivial benchmark inputs, whose standard representative is one
generator; 15% on search-long).

Unknowns are numbered row-major: by source generator, then target
generator, then the monomials of the entry's bigrading in
``grading_basis`` order.  Generators are added in order, each candidate's
x_k after the accepted prefix, and each layout lists its target generators
in ascending order, so every system keeps that numbering.  ``_gf2`` pivots
each row on its highest-numbered unknown, and the free-variables-zero
solution depends only on the row space, that pivot rule and the
numbering, not on the order in which rows are eliminated, so every map
equals the one a from-scratch solve returns.
"""

from . import _gf2
from .complexes import (
    _entry_fault,
    _key_ok,
    _knotlike_bases,
    _part_bits,
    _part_products,
    _require_valid,
    paired_basis,
    reduce,
    shift_gradings,
    tower_functional,
)
from .ring import (
    RingId,
    Side,
    SignedParam,
    _Record,
    _TABLES,
    _brief,
    elem_monomials,
    lattice_key,
    mono_text,
)
from .standard import (
    _expected_side,
    _next_grading,
    format_spec,
    lex_compare,
    make_spec,
    realize,
)


class VerificationError(RuntimeError):
    """An internally computed certificate failed its independent check."""


class LocalMapCert(_Record):
    """A grading-shifted module map witnessing one local-order inequality.

    ``matrix`` maps (source index, target index) to a ``RingElem``, and
    ``kind`` is ``"full"`` or ``"short"``.
    """

    __slots__ = ("source", "target", "gr2shift", "matrix", "kind")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def to_json(self):
        entries = [
            {"from": i, "to": j, "coeff": [mono_text(m) for m in elem_monomials(e)]}
            for (i, j), e in sorted(self.matrix.items())
        ]
        return {
            "source": self.source,
            "target": self.target,
            "gr2shift": self.gr2shift,
            "kind": self.kind,
            "entries": entries,
        }


class ExtantSet(_Record):
    """Each side's extant coefficients, as a frozenset of exponent pairs."""

    __slots__ = ("u_coeffs", "v_coeffs")

    def for_side(self, side):
        return self.u_coeffs if side is Side.U else self.v_coeffs


def _require_normalized(C, what):
    """Both sides' paired bases (U, V) of a valid, knotlike, normalized complex.

    The gate of ``standardize``, ``extant_coefficients`` and
    ``find_local_map``: C is checked by ``complexes._require_valid`` and
    paired by ``complexes._knotlike_bases``, whose NotKnotlikeError names
    ``what``; a knotlike shift other than (0, 0) raises ValueError.
    """
    _require_valid(C)
    pb_u, pb_v, shift = _knotlike_bases(C, what)
    if shift != (0, 0):
        raise ValueError("%s must be normalized; apply the knotlike shift %s first" % (what, shift))
    return pb_u, pb_v


def extant_coefficients(C):
    """Finite candidate pool of side coefficients for the greedy search.

    For each side and each generator bigrading, the pairing orders are
    rescaled by the unique side element moving the paired y-generator into
    that bigrading; the union over bigradings contains every coefficient a
    (short) local map can use.  The complex must be valid, reduced,
    knotlike and normalized.
    """
    return _extant(C, *_require_normalized(C, "complex"))


def _extant(C, pb_u, pb_v):
    """``extant_coefficients`` from both sides' pairings, in integer arithmetic.

    Only each side's pairs are read.  A pair's y keeps its
    generator's grading g_y = ``C.gr(y)``, since neither pairing stores
    gradings.  The side element moving y into the grading g_0 has the
    exponent (g_y - g_0)/2, its components swapped on the V side; it is
    kept when it is the origin (the unit) or a valid side exponent of the
    ring.  This stays integer arithmetic: reading the ring's
    grading table here instead measured about 1.5x slower.
    """
    gen_grades = {C.gr(i) for i in range(C.n_gens())}
    over_r = C.ring is RingId.R
    sides = {}
    for pb in (pb_u, pb_v):
        on_v = pb.side is Side.V
        moves = {}  # per y grading, the exponents moving a generator's grading onto it
        coeffs = set()
        # pairs sharing y's grading and the order give the same coefficients
        for gy, (a, b) in {(C.gr(y), order.exp) for (y, _z, order) in pb.pairs}:
            exps = moves.get(gy)
            if exps is None:
                exps = moves[gy] = []
                for h1, h2 in gen_grades:
                    d1, d2 = gy[0] - h1, gy[1] - h2
                    if (d1 | d2) & 1:
                        continue
                    i, j = (d2 >> 1, d1 >> 1) if on_v else (d1 >> 1, d2 >> 1)
                    if (j > 0 and not over_r) or (j == 0 and i >= 0):
                        exps.append((i, j))
            coeffs.update((a + i, b + j) for i, j in exps)
        sides[pb.side] = frozenset(coeffs)
    return ExtantSet(sides[Side.U], sides[Side.V])


# a side's index t: entry t of a ``ring._TABLES`` entry and of ``_Target.out``
_T = {Side.U: 1, Side.V: 2}


class _Layout:
    """The unknowns of a source generator of grading G, with bits counted from its first.

    ``slots`` lists, in ascending j, each target generator j whose entry
    bigrading G - gr(j) has a non-empty monomial basis, as (j, bit of the
    entry's first unknown, the ring's grading table entry ``(n, u, v,
    elems)``); ``n`` counts the unknowns.
    ``eqs(t)[k]`` masks the unknowns f[i,j]·m whose terms f[i,j]·m·d_tgt[j,k]
    on side t fall into equation (i, t, k).  Each side is built when it is
    first read: a probe's x_k skips one side, so it builds the other only.
    """

    __slots__ = ("n", "slots", "_out", "_eqs")

    def __init__(self, target, G):
        g1, g2 = G
        table = _TABLES[target.ring]
        entries = [table[(g1 - h1, g2 - h2)] for h1, h2 in target.grades]
        slots = []
        bit = 0
        for j, g in enumerate(target.grade_of):
            entry = entries[g]
            if entry[0]:
                slots.append((j, bit, entry))
                bit += entry[0]
        self.slots = slots
        self.n = bit
        self._out = target.out
        self._eqs = [None, None, None]

    def eqs(self, t):
        """The masks of side t's equations, per target generator k."""
        eqs = self._eqs[t]
        if eqs is None:
            eqs = self._eqs[t] = {}
            out = self._out[t]
            for j, bit, entry in self.slots:
                if entry[t]:
                    mask = entry[t] << bit
                    for k in out[j]:
                        eqs[k] = eqs.get(k, 0) ^ mask
        return eqs

    def locality(self, w):
        """The mask of the unknowns f[i,j]·1 whose j lies on the functional ``w``."""
        loc = 0
        for j, bit, (_n, u, v, _elems) in self.slots:
            # the unit is the only monomial both sides multiply
            if u & v and (w >> j) & 1:
                loc ^= 1 << bit
        return loc


class _Target:
    """The tables every system into one target complex reads, built once.

    ``out[t][j]`` lists, in the order of ``C.diff``, the generators that
    j's arrows with a part on side t (1: U, 2: V) reach; one pass over
    ``C.diff`` builds both sides.  The arrows' exponents are not read.
    ``grades`` lists the target's distinct gradings and ``grade_of[j]`` is
    the index of generator j's.  ``layout(G)`` is the ``_Layout`` of a source
    generator of (shifted) grading G, memoized per grading.
    """

    def __init__(self, C):
        self.ring = C.ring
        out_u, out_v = [[] for _ in range(C.n_gens())], [[] for _ in range(C.n_gens())]
        for (a, b), e in C.diff.items():
            if e.u:
                out_u[a].append(b)
            if e.v:
                out_v[a].append(b)
        self.out = (None, out_u, out_v)
        index = {}
        self.grade_of = [index.setdefault(C.gr(j), len(index)) for j in range(C.n_gens())]
        self.grades = list(index)
        self._layouts = {}

    def layout(self, G):
        got = self._layouts.get(G)
        if got is None:
            got = self._layouts[G] = _Layout(self, G)
        return got


def _add_unknowns(i, G, target, rows, slots, nbits, w=0, skip=0):
    """Number source generator i's unknowns from bit ``nbits`` on and add their terms.

    ``G`` is the generator's shifted grading.  The unknowns are numbered by
    target generator, then by monomial in ``grading_basis`` order, and
    ``slots[i]`` receives (first bit, layout).  The terms f[i,j]·d_tgt[j,k]
    go into the equations (i, t, k) of side t, each equation's mask read
    once from the layout; no equation of i may be in ``rows`` yet.  An
    equation needs no exponent in its key: between homogeneous complexes
    all its terms have the grading G_i - gr(k) - (1, 1), and a side's
    monomials differ in grading.  The source arrows' terms are added by
    ``_add_arrow``.  ``skip``, a side index, omits i's chain condition on
    that side (short maps).  Returns the next free bit and the locality
    mask: the unknowns f[i,j]·1 whose j lies on the target tower functional
    ``w``.
    """
    lay = target.layout(G)
    slots[i] = (nbits, lay)
    for t in (1, 2):
        if t != skip:
            rows.update({(i, t, k): mask << nbits for k, mask in lay.eqs(t).items()})
    return nbits + lay.n, (lay.locality(w) << nbits) if w else 0


def _add_arrow(a, t, slot, rows):
    """Add a source arrow a -> b's terms d_src[a,b]·f[b,j] to the equations (a, t, j).

    ``slot`` is b's ``(first bit, layout)`` and t the index of the arrow's
    side.  The terms are the unknowns of f[b,j] that a factor on that side
    multiplies, the unit and that side's monomials; the arrow's exponent
    does not enter the keys.
    """
    first, lay = slot
    for j, bit, entry in lay.slots:
        if entry[t]:
            key = (a, t, j)
            rows[key] = rows.get(key, 0) ^ (entry[t] << (first + bit))


def _matrix(sol, slots):
    """The map a solution assigns to the numbered unknowns, zero entries left out.

    Each entry is read from its grading table entry by the solution's bits.
    """
    matrix = {}
    for i, (first, lay) in slots.items():
        part = (sol >> first) & ((1 << lay.n) - 1)
        if not part:
            continue
        for j, bit, (n, _u, _v, elems) in lay.slots:
            bits = (part >> bit) & ((1 << n) - 1)
            if bits:
                matrix[(i, j)] = elems[bits]
    return matrix


def _solve_map(src, target, gr2shift, src_mask, tgt_w, skip=None):
    """Solve for a gr1-preserving chain map into the ``_Target`` ``target``.

    Returns a matrix dict or None.  The unknowns are numbered row-major:
    source generator, then target generator, then the monomials of the
    entry's bigrading in
    ``grading_basis`` order; ``_add_unknowns`` numbers each generator's
    unknowns and adds its target terms, then ``_add_arrow`` adds each source
    arrow's terms, once every generator is numbered; an arrow into a
    generator without unknowns adds none and is skipped.  ``skip`` omits one
    (generator, side) chain condition (short maps).  ``src_mask``/``tgt_w``
    encode the locality constraint: the image of the source tower element
    must carry the target tower with coefficient 1.  The returned map is
    the free-variables-zero solution, so this numbering fixes the
    certificates the CLI prints; the order of the equations does not
    matter.
    """
    rows = {}
    slots = {}
    loc = 0
    nbits = 0
    skip_i, skip_t = (skip[0], _T[skip[1]]) if skip else (-1, 0)
    for i in range(src.n_gens()):
        g1, g2 = src.gr(i)
        w = tgt_w if (src_mask >> i) & 1 else 0
        t = skip_t if i == skip_i else 0
        nbits, bits = _add_unknowns(i, (g1, g2 + gr2shift), target, rows, slots, nbits, w, t)
        loc ^= bits
    for (a, b), e in src.diff.items():
        slot = slots[b]
        if not slot[1].n:
            continue  # b has no unknowns, so the arrow adds no terms
        for t, part in ((1, e.u), (2, e.v)):
            if part and (a != skip_i or t != skip_t):
                _add_arrow(a, t, slot, rows)
    sol = _gf2.solve(list(rows.values()) + [loc], [0] * len(rows) + [1])
    if sol is None:
        return None
    return _matrix(sol, slots)


def _short_skip(n):
    """The dropped chain condition of a short map out of an n-parameter spec.

    It is x_n's condition on the side of the parameter that would come next.
    """
    return (n, _expected_side(n + 1))


class _Search:
    """The one system of a greedy search, grown as its parameters are accepted.

    With the prefix ``params`` accepted, the source is x_0..x_{k-1}: x_0 on
    the tower grading ``tgr`` and each later generator's grading derived
    from the previous one by ``_next_grading``, as ``realize`` does.  Their
    unknowns are numbered in that order, each generator's read from the
    target's layout of its grading, and listed in ``slots``.  p_k's arrow
    joins x_{k-1} and x_k on p_k's side, so it can change only x_{k-1}'s
    equations on that side: they are the ``tail``.  Every other equation of
    the prefix, and the locality row, is complete and eliminated into
    ``block``.

    Each probe, the stop included, is one elimination of the tail, plus a
    candidate's rows, against a copy of the block; that system is the one
    of its map, and the condition a short map skips is the next tail.
    Accepting a candidate adopts its probe's pivots as the block.  No
    pivots handed out by a probe, nor the block, are extended in place
    afterwards.
    """

    def __init__(self, target, w, tgr):
        self.target = target
        self.params = []
        self.slots = {}
        self.G = (0, tgr[1])  # the grading of x_{k-1}
        self.tail = {}
        # p_1 lies on side U, so x_0's V-side equations are complete; x_0's
        # unknowns start at bit 0, so its layout's masks need no shift
        self.nbits, loc = _add_unknowns(0, self.G, target, self.tail, self.slots, 0, w, _T[Side.V])
        done = list(self.slots[0][1].eqs(_T[Side.V]).values())
        self.block = _gf2.eliminate([loc] + done, [1] + [0] * len(done))

    def probe(self, p):
        """The echelon pivots for candidate ``p`` (None: stop, a full map), or None.

        The rows are the tail's and, for a candidate, x_k's rows on p's
        side, under a short map's conditions, with p's arrow; they are
        eliminated against a copy of the block.  None means infeasible;
        ``_gf2.back_substitute`` turns the pivots into the map's solution.
        """
        rows = dict(self.tail)
        if p is not None:
            k = len(self.params) + 1
            slots = {}
            G = _next_grading(self.G, p)
            _add_unknowns(k, G, self.target, rows, slots, self.nbits, skip=_T[_short_skip(k)[1]])
            # a negative p is the arrow x_{k-1} -> x_k, a positive one x_k -> x_{k-1}
            if p.sign < 0:
                _add_arrow(k - 1, _T[p.side], slots[k], rows)
            else:
                _add_arrow(k, _T[p.side], self.slots[k - 1], rows)
        return _gf2.eliminate(list(rows.values()), [0] * len(rows), dict(self.block))

    def accept(self, p, pivots):
        """Fix p as the next parameter; ``pivots``, its probe's, become the block.

        That probe's system holds every equation p completes, so nothing is
        eliminated here: x_k's equations on the next side are the new tail.
        """
        k = len(self.params) + 1
        self.G = _next_grading(self.G, p)
        self.tail, self.block = {}, pivots
        self.nbits, _loc = _add_unknowns(
            k, self.G, self.target, self.tail, self.slots, self.nbits, skip=_T[p.side]
        )
        self.params.append(p)


def find_local_map(spec, target, kind="full"):
    """A local (or short local) map from a realized spec into a complex.

    Returns a certificate or None.  The target must be valid, reduced,
    knotlike and normalized.
    """
    if kind not in ("full", "short"):
        raise ValueError("kind must be 'full' or 'short'")
    _pb_u, pb_v = _require_normalized(target, "target")
    if spec.ring is not target.ring:
        raise ValueError("spec and target live over different rings")
    w, _elem_mask = tower_functional(pb_v)
    src = realize(spec)
    # the source tower is x_0
    shift = target.gr(pb_v.unpaired[0])[1] - src.gr(0)[1]
    skip = _short_skip(len(spec.params)) if kind == "short" else None
    matrix = _solve_map(src, _Target(target), shift, 1, w, skip=skip)
    if matrix is None:
        return None
    return LocalMapCert(format_spec(spec), "target", shift, matrix, kind)


def check_certificate(src, tgt, cert, src_mask=1, tgt_w=None):
    """Independent verification of a certificate; returns violation strings, never raises.

    First ``cert`` must be a ``LocalMapCert``, else that is the one
    violation; its ``kind`` must be ``"full"`` or ``"short"``, its
    ``matrix`` a dict and its ``gr2shift`` an int (a bool is the int it
    subclasses).  Each field that is not is one violation, and these are
    reported alone.  Each key must be a tuple of two generator indices in
    range (``complexes._key_ok``); a key that is not is reported alone,
    since every other check indexes its generators.  Each entry must then
    pass ``validate``'s entry rule (``complexes._entry_fault``) at its
    expected grading: a nonzero ``RingElem`` whose scalar is the int 0 or
    1, in the ring, homogeneous and of that grading.  The entry violations are
    reported alone too, as ``validate`` forms d^2 only on valid entries:
    the chain-map identities (minus the dropped condition for short
    certificates) and locality read the entries' parts.  The chain defect
    is formed by direct matrix algebra, with the part-bit product
    ``complexes._part_products`` that ``validate`` uses for d^2, which is
    exact on valid entries.  Locality is checked against the tower
    functional ``tgt_w`` of the target, computed from a fresh
    ``paired_basis`` of the target when it is None; ``paired_basis``
    checks the target by ``validate``, which reads no grading table, and
    an invalid or unreduced target, or one without a single V-side tower,
    is one violation.  ``standardize``'s forward check passes
    the functional its search solved against: a paired basis is
    deterministic, so a second one of the same complex adds no
    independence.

    ``src`` and ``tgt`` must pass ``validate`` (``_standardize`` validates
    its input, and a realized spec is valid by construction).  The checker
    stays independent of the code that produced the certificate: the
    solver builds its entries from the ring's grading table and ``_gf2``,
    and this check's own code reads neither; the entry rule works on the
    entries' scalars and exponents, and ``validate``, which checks the
    target in ``paired_basis``, on them and the arrows' gradings.  Only
    when ``tgt_w`` is None does it reach ``_gf2``: ``tower_functional``
    solves through ``_gf2.solve_unit``.
    """
    if not isinstance(cert, LocalMapCert):
        return ["certificate is %s, not a LocalMapCert" % _brief(cert)]
    out = [
        "certificate %s is %s, not %s" % (name, _brief(value), want)
        for name, value, ok, want in (
            ("kind", cert.kind, cert.kind in ("full", "short"), "'full' or 'short'"),
            ("matrix", cert.matrix, isinstance(cert.matrix, dict), "a dict"),
            ("gr2shift", cert.gr2shift, isinstance(cert.gr2shift, int), "an int"),
        )
        if not ok
    ]
    if out:
        return out
    n_src, n_tgt = src.n_gens(), tgt.n_gens()
    out = [
        "entry %s out of range" % _brief(key)
        for key in cert.matrix
        if not _key_ok(key, n_src, n_tgt)
    ]
    if out:
        return out
    s = cert.gr2shift
    for (i, j), e in cert.matrix.items():
        want = (src.gr(i)[0] - tgt.gr(j)[0], src.gr(i)[1] + s - tgt.gr(j)[1])
        fault = _entry_fault(tgt.ring, e, want, i, j)
        if fault:
            out.append(fault)
    if out:
        return out
    skip = _short_skip(src.n_gens() - 1) if cert.kind == "short" else None
    f = [(key, _part_bits(e)) for key, e in cert.matrix.items()]
    rows, cols = {i for i, _j in cert.matrix}, {j for _i, j in cert.matrix}
    d_src = [(key, _part_bits(e)) for key, e in src.diff.items() if key[1] in rows]
    d_tgt = [(key, _part_bits(e)) for key, e in tgt.diff.items() if key[0] in cols]
    # per (i, k), the defect's part bits: 1 scalar, 2 U side, 4 V side
    parity = _part_products(d_src, f, _part_products(f, d_tgt, {}))
    for (i, k), bits in sorted(parity.items()):
        if bits & 1:
            out.append("chain defect has a unit part at (%d, %d)" % (i, k))
        for side, bit in ((Side.U, 2), (Side.V, 4)):
            if bits & bit and skip != (i, side):
                out.append(
                    "chain condition fails at generator %d on side %s" % (i, side.value)
                )
    if tgt_w is None:
        try:
            tgt_w, _em = tower_functional(paired_basis(tgt, Side.V))
        except ValueError as exc:
            out.append("target tower not available: %s" % exc)
            return out
    if _tower_coefficient(cert.matrix, src_mask, tgt_w) != 1:
        out.append("image of the source tower misses the target tower")
    return out


def _tower_coefficient(matrix, src_mask, w):
    """Coefficient of the tower ``w`` in the image of the element ``src_mask``."""
    bit = 0
    for (g, h), e in matrix.items():
        if e.scalar and (src_mask >> g) & (w >> h) & 1:
            bit ^= 1
    return bit


def _descending(exps, stop):
    """Candidates as ``(sign, exponent)``, descending in <!; ``stop`` adds the neutral 1 as None.

    One sort of the exponents orders both signs: the negatives sit below 1
    and mirror the positives, so they come in the reverse order.  The
    search builds a ``SignedParam`` only for a candidate it probes.
    """
    pos = sorted(exps, key=lattice_key, reverse=True)
    return [(1, exp) for exp in pos] + [None] * stop + [(-1, exp) for exp in reversed(pos)]


def standardize(C, trace=None):
    """The unique standard-complex representative, with certificates both ways.

    The input must be valid, reduced, knotlike and normalized, and is
    checked.  Each step lists its candidates in descending <! order and
    keeps the greatest that admits a map: a parameter p needs a short local
    map from the prefix extended by p; at odd steps the neutral 1, ordered
    between the positive and the negative parameters, stops the search and
    needs a full local map from the prefix: the forward certificate.

    Feasibility along the list is monotone (see the module docstring), so
    each step bisects the list for its first feasible index.  The backward
    certificate and both certificate checks guard the result: a step that
    broke monotonicity raises VerificationError rather than return a wrong
    spec.  The target's tables are built once and its layouts once per
    source grading (``_Target``), one system grows with the search
    (``_Search``), each probe is one elimination against a copy of the
    block and an accept eliminates nothing, and each side's candidate list
    is sorted once.  A probe only eliminates; the stopping probe alone is
    back-substituted, into the forward certificate, and only the returned
    spec is realized.
    C is validated once and its sides paired once each by the column
    reduction alone (``_require_normalized``), rather than by
    ``paired_basis``'s second run of the checks.  Side V's change of basis
    gives the tower functional; the forward check reads the functional the
    search solved against.  Side U gives only its tower and its pairs, for
    the knotlike check and the extant pool.
    ``trace``, when given, receives one ``(step, parameter or
    None, feasible)`` tuple per probe, in probe order.
    """
    return _standardize(C, *_require_normalized(C, "complex"), trace)


def _standardize(C, pb_u, pb_v, trace=None):
    """``standardize`` on a complex known to pass its checks, with its side pairings."""
    ext = _extant(C, pb_u, pb_v)
    w_tgt, elem_mask = tower_functional(pb_v)
    tgr = C.gr(pb_v.unpaired[0])
    search = _Search(_Target(C), w_tgt, tgr)
    # side U takes the odd steps, so it carries the stop
    lists = {
        side: _descending(ext.for_side(side), stop=side is Side.U)
        for side in (Side.V, Side.U)
    }
    guard = 2 * C.n_gens()
    while True:
        k = len(search.params) + 1
        if k > guard + 1:
            raise VerificationError("standardization exceeded the splitting bound")
        side = _expected_side(k)
        cands = lists[side]
        # bisect for the first feasible index; found holds its pivots
        lo, hi, found = 0, len(cands), None
        while lo < hi:
            mid = (lo + hi) // 2
            p = cands[mid] and SignedParam(side, *cands[mid])
            got = search.probe(p)
            if trace is not None:
                trace.append((k, p, got is not None))
            if got is None:
                lo = mid + 1
            else:
                hi, found = mid, got
        if found is None:
            raise VerificationError("no feasible parameter at step %d" % k)
        if cands[lo] is None:
            break
        search.accept(SignedParam(side, *cands[lo]), found)
    spec = make_spec(C.ring, search.params)
    std = realize(spec)
    # a realized standard complex has its tower at x_0
    shift = tgr[1] - std.gr(0)[1]
    sol = _gf2.back_substitute(found)
    fwd = LocalMapCert(format_spec(spec), "complex", shift, _matrix(sol, search.slots), "full")
    matrix = _solve_map(C, _Target(std), -shift, elem_mask, 1)
    if matrix is None:
        raise VerificationError("no local map back to the standard representative")
    back = LocalMapCert("complex", format_spec(spec), -shift, matrix, "full")
    bad = check_certificate(std, C, fwd, tgt_w=w_tgt)
    if bad:
        raise VerificationError("forward certificate failed: " + "; ".join(bad))
    bad = check_certificate(C, std, back, src_mask=elem_mask)
    if bad:
        raise VerificationError("backward certificate failed: " + "; ".join(bad))
    return spec, fwd, back


def standard_representative(C):
    """Reduce, normalize and standardize an arbitrary valid complex.

    Returns (spec, forward cert, backward cert, applied shift), the shift
    being the reduced complex's knotlike normalization; shifting the input's
    gradings changes only that shift.  Validation runs once
    (``complexes._require_valid``), and so does the column reduction of
    each side of the reduced complex (``complexes._knotlike_bases``), with
    no second check; side U's tower grading gives the shift's second
    component.  Only the backward check's fresh basis of the standard
    representative goes through ``paired_basis``.
    """
    _require_valid(C)
    C = reduce(C)
    pb_u, pb_v, shift = _knotlike_bases(C)
    # a grading shift moves no pivot, pair, basis row or side exponent, and
    # neither pairing stores gradings, so both serve the shifted complex
    spec, fwd, back = _standardize(shift_gradings(C, shift), pb_u, pb_v)
    return spec, fwd, back, shift


def is_locally_equivalent(C1, C2):
    return standard_representative(C1)[0] == standard_representative(C2)[0]


def order_compare_complexes(C1, C2):
    """Total-order comparison via the standard representatives."""
    s1 = standard_representative(C1)[0]
    s2 = standard_representative(C2)[0]
    return lex_compare(s1, s2)
