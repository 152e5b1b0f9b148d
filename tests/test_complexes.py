import random
import re
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridring import (
    FUVComplex,
    FreeComplex,
    RingId,
    Side,
    base_change,
    dual,
    example_cable,
    example_zhou,
    is_knotlike,
    is_reduced,
    normalize,
    paired_basis,
    parse_spec,
    quotient_homology,
    realize,
    reduce,
    tensor,
    validate,
    validate_fuv,
)
from gridring.complexes import (
    InvalidComplexError,
    NotKnotlikeError,
    QuotientHomology,
    _column_pairing,
    _entry_fault,
    _key_ok,
    _part_bits,
    _record_faults,
    _square_defects,
    fuv_image,
    shift_gradings,
)
from gridring.localeq import _Target
from gridring.ring import (
    MONO_ONE,
    Monomial,
    ONE_ELEM,
    RingElem,
    ZERO,
    _brief,
    elem_from_mono,
    elem_monomials,
    elem_mul,
    grading_basis,
    in_region,
    lattice_key,
    mono_grading,
    u_mono,
    v_mono,
)
from gridring import _gf2, io_json
from gridring.localeq import VerificationError, standard_representative

from conftest import (
    paired_gradings,
    param_grading,
    random_spec,
    reference_compose,
    reference_elem_grading,
    reference_elem_ok,
    retyped,
    same_complex,
    scramble,
    shuffle_generators,
    wide_product,
)
from corpus import acyclic_pair, direct_sum, inputs, pad


def reference_validate(C):
    """Structural checks; returns a list of violation strings (empty = ok).

    The ``validate`` this package shipped before the entry form: ring
    membership and gradings through the ``Monomial``-based
    ``reference_elem_ok`` and ``reference_elem_grading`` on ``RingElem``
    entries, and d^2 through the ``RingElem`` product
    ``reference_compose``.  The current one must return the same list,
    content and order.
    """
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
        if not reference_elem_ok(C.ring, e):
            out.append("entry (%s, %s) = %r is not in ring %s" % (C.name(i), C.name(j), e, C.ring.value))
            continue
        try:
            gr = reference_elem_grading(e)
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
        sq = reference_compose(C.diff, C.diff)
        for (i, k), e in sq.items():
            out.append("d^2 is nonzero: (%s -> %s) = %r" % (C.name(i), C.name(k), e))
    return out


def rule_by_rule_validate(C):
    """``validate``'s list, found by applying its rules one at a time.

    ``complexes._record_faults``, then per entry the key rule ``_key_ok``
    and the entry rule ``_entry_fault``, then d^2 by ``_square_defects`` on
    the valid entries' part bits, with no test of an entry against its
    arrow's grading first.  ``validate`` must return the same list.
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


def reference_reduce(C):
    """Cancel scalar entries until the differential lies in the maximal ideals.

    The dense ``reduce`` this package shipped before the heap-driven one:
    it scans the whole matrix for each pivot and renumbers after every
    cancellation.  The current ``reduce`` must return the same complex,
    entry order included.

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


@dataclass(frozen=True)
class ReferenceBasis:
    """A reference's paired basis: a ``PairedBasis`` with full rows, gradings and a matrix.

    ``basis`` holds full RingElem rows, and ``matrix`` the side-differential
    in the new basis, ``(i, j) -> exponent``.
    """

    side: Side
    basis: tuple
    gradings: tuple
    matrix: dict
    pairs: tuple
    unpaired: tuple


def _side_coeff(side, exp):
    """Ring element for a side exponent, with (0, 0) meaning the scalar 1."""
    return ONE_ELEM if exp == (0, 0) else elem_from_mono(Monomial(side, exp))


def reference_paired_basis(C, side):
    """Change of basis putting the side-differential into paired form.

    The dense ``paired_basis`` this package shipped before the sparse one,
    with an m x m scan per pivot; the current one must return the same
    paired basis in every field it keeps.

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
        for mono in elem_monomials(e):
            if mono.side is side:
                if D[i][j] is not None:
                    raise ValueError("side %s part %s at %s must be a single monomial" % (
                        side.value, _brief(e.u if side is Side.U else e.v), (i, j)))
                D[i][j] = mono.exp
    basis = [[ONE_ELEM if i == j else ZERO for j in range(m)] for i in range(m)]
    grades = [C.gr(i) for i in range(m)]
    active = list(range(m))  # ascending
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
        # The first <!-greatest entry in row-major order.
        entries = [(p, q, D[p][q]) for p in active for q in active if D[p][q] is not None]
        if not entries:
            break
        p, q, mu = max(entries, key=lambda t: lattice_key(t[2]))
        lam = {r: sub(D[p][r], mu) for r in range(m) if D[p][r] is not None}
        # Replace basis element q by (1/mu) d_side(g_p).
        newrow = [ZERO] * m
        for r, lexp in lam.items():
            coeff = _side_coeff(side, lexp)
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
            coeff = _side_coeff(side, lam2)
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
        active = [i for i in active if i not in (p, q)]
    matrix = {}
    for i in range(m):
        for j in range(m):
            if D[i][j] is not None:
                matrix[(i, j)] = D[i][j]
    return ReferenceBasis(
        side=side,
        basis=tuple(tuple(row) for row in basis),
        gradings=tuple(grades),
        matrix=matrix,
        pairs=tuple(pairs),
        unpaired=tuple(active),
    )


def _side_quotient(side, a, b):
    """a / b for one-monomial side elements a and b: a side element or the unit, else ValueError."""
    (ma,), (mb,) = elem_monomials(a), elem_monomials(b)
    exp = (ma.exp[0] - mb.exp[0], ma.exp[1] - mb.exp[1])
    if not in_region(exp):
        raise ValueError("%r does not divide %r" % (mb, ma))
    return _side_coeff(side, exp)


def reference_column_pairing(C, side):
    """``paired_basis``'s column reduction, dense, with full ``RingElem`` rows.

    The generators are ordered by their key, (gr2, gr1) on side U and
    (gr1, gr2) on side V, descending, ties in ascending index.  Column y
    holds d_side(V_y) over the generators, V_y starting as g_y.  While its
    last filled row in that order is an earlier column's pivot, that
    column times the quotient of the two entries is added to it, and the
    same multiple of the earlier V to V_y.  A column left nonzero pairs y
    with its pivot row z.  The new basis is V_y for such a y, column y
    divided by its pivot entry, the order, for z, and V_t for an unpaired
    t.  It checks no input, but raises ValueError on a quotient outside the
    ring.
    """
    m = C.n_gens()
    order = sorted(range(m), key=lambda i: tuple(C.gr(i))[::-1 if side is Side.U else 1],
                   reverse=True)
    pos = {i: k for k, i in enumerate(order)}
    cols = [[ZERO] * m for _ in range(m)]
    for (i, j), e in C.diff.items():
        cols[i][j] = _side_part(e, side)
    vs = [[ONE_ELEM if i == j else ZERO for j in range(m)] for i in range(m)]
    owner, pairs = {}, []
    for y in order:
        while any(cols[y]):
            low = max((r for r in range(m) if cols[y][r]), key=pos.__getitem__)
            j = owner.get(low)
            if j is None:
                owner[low] = y
                (mono,) = elem_monomials(cols[y][low])
                pairs.append((y, low, mono))
                break
            c = _side_quotient(side, cols[y][low], cols[j][low])
            for row, earlier in ((cols[y], cols[j]), (vs[y], vs[j])):
                for t in range(m):
                    row[t] = row[t] + elem_mul(c, earlier[t])
    basis, grades = list(vs), [C.gr(i) for i in range(m)]
    for y, z, order in pairs:
        divisor = elem_from_mono(order)
        basis[z] = [_side_quotient(side, e, divisor) if e else ZERO for e in cols[y]]
        (g1, g2), (m1, m2) = C.gr(y), mono_grading(order)
        grades[z] = (g1 - 1 - m1, g2 - 1 - m2)
    paired = {i for y, z, _o in pairs for i in (y, z)}
    return ReferenceBasis(
        side=side,
        basis=tuple(tuple(row) for row in basis),
        gradings=tuple(grades),
        matrix={(y, z): order.exp for y, z, order in pairs},
        pairs=tuple(pairs),
        unpaired=tuple(i for i in range(m) if i not in paired),
    )


def _side_part(e, side):
    """The U-part or V-part of an element, as a RingElem."""
    return RingElem(u=e.u) if side is Side.U else RingElem(v=e.v)


def reference_side_rows(C, side):
    """Per generator, ``{target: exponent}`` of its arrows' ``side`` monomials, read one by one."""
    rows = [{} for _ in range(C.n_gens())]
    for (a, b), e in C.diff.items():
        for mono in elem_monomials(e):
            if mono.side is side:
                if b in rows[a]:
                    raise ValueError("side %s part %s at %s must be a single monomial" % (
                        side.value, _brief(e.u if side is Side.U else e.v), (a, b)))
                rows[a][b] = mono.exp
    return rows


class TestSideRows:
    """``localeq._Target``'s successor lists against ``reference_side_rows``."""

    def _corpus(self):
        """The seed-1 inputs of the three benchmark workloads, and the reduced library ones."""
        for case in inputs("search-long", 1) + inputs("wide-trivial", 1):
            yield case.complex
            yield reduce(case.complex)
        for case in inputs("batch-small", 1):
            yield io_json.document_to_complex(case.doc)[0]

    def test_corpus_matches_reference(self):
        # out[t][j] lists the keys of generator j's reference row on side t,
        # in the order of C.diff
        n = 0
        for C in self._corpus():
            out = _Target(C).out
            for t, side in ((1, Side.U), (2, Side.V)):
                assert out[t] == [list(row) for row in reference_side_rows(C, side)]
                n += 1
        assert n > 400

    def test_two_monomials_on_one_side_rejected(self):
        # validate rejects the entry, and the reference names it; the
        # target reads no exponent, only which sides an arrow has
        e = RingElem(0, frozenset({(1, 0), (2, 0)}), frozenset({(1, 0)}))
        C = FreeComplex(RingId.X, (("a", (0, 0)), ("b", (3, 1))), {(0, 1): e})
        assert validate(C) != []
        message = "^%s$" % re.escape(
            "side U part frozenset({(1, 0), (2, 0)}) at (0, 1) must be a single monomial")
        with pytest.raises(ValueError, match=message):
            reference_side_rows(C, Side.U)
        assert reference_side_rows(C, Side.V) == [{1: (1, 0)}, {}]
        assert _Target(C).out == (None, [[1], []], [[1], []])


# anything a library caller may pass: ints of any size, floats, bools, None and strs
_ANYTHING = st.one_of(
    st.integers(), st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
    st.text(max_size=3), st.just(5000).map(lambda k: 10**k + 1),
)
_EXPS = st.one_of(
    st.tuples(st.integers(-2, 3), st.integers(-1, 3)),
    st.tuples(_ANYTHING, _ANYTHING),
    st.tuples(_ANYTHING, _ANYTHING, _ANYTHING),
    _ANYTHING,
)
_PARTS = st.one_of(
    st.frozensets(_EXPS, max_size=2),
    st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2),
    _ANYTHING,
)
_GRADINGS = st.one_of(
    st.tuples(_ANYTHING, _ANYTHING),
    st.lists(st.integers(-4, 4), max_size=3),
    _ANYTHING,
)


@st.composite
def _any_complex(draw):
    """A ``FreeComplex`` of up to 6 generators, well formed or not.

    The ring, the generators container (a tuple or a list) and ``diff`` are
    now and then of another type.  Each record, grading, key and entry is
    well formed or arbitrary; a key may be a ``range`` or a ``frozenset``
    that unpacks into two ints in range.  A well-formed entry between
    well-formed gradings is a sum of basis monomials of the arrow's grading
    (the scalar 1 where that grading has none), now and then with float or
    bool exponents, so ``validate`` passes some complexes and the rest of
    the pipeline is reached.  Names run to 104 characters.
    """
    ring = draw(st.sampled_from(RingId))
    n = draw(st.integers(0, 6))
    gens, grs = [], []
    for k in range(n):
        g1 = draw(st.integers(-4, 4))
        grs.append((g1, g1 + 2 * draw(st.integers(-2, 2))))
        if draw(st.integers(0, 9)):
            gens.append(("x%d:%s" % (k, draw(st.text(max_size=100))), grs[-1]))
        else:
            bad = st.one_of(st.tuples(st.text(max_size=3), _GRADINGS), st.tuples(st.text()), _ANYTHING)
            gens.append(draw(bad))
    diff = {}
    for _ in range(draw(st.integers(0, 8))):
        if n and draw(st.integers(0, 19)):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            want = (grs[i][0] - grs[j][0] - 1, grs[i][1] - grs[j][1] - 1)
            basis = grading_basis(ring, want) or [MONO_ONE]
            e = ZERO
            for m in draw(st.lists(st.sampled_from(basis), min_size=1, unique=True)):
                e = e + elem_from_mono(m)
            kind = draw(st.sampled_from([None, None, float, bool]))
            diff[(i, j)] = retyped(e, kind) if kind else e
        else:
            keys = st.tuples(st.integers(-1, 6), st.integers(-1, 6)) | st.tuples(_ANYTHING, _ANYTHING) \
                | st.integers(0, 5).map(lambda i: range(i, i + 2)) \
                | st.integers(0, 5).map(lambda i: frozenset({i, i + 1}))
            elems = st.builds(RingElem, st.integers(0, 1) | _ANYTHING, _PARTS, _PARTS)
            diff[draw(keys | _ANYTHING)] = draw(elems | _ANYTHING)
    # now and then a field itself has another type
    if not draw(st.integers(0, 9)):
        ring = draw(st.sampled_from([r.value for r in RingId]) | _ANYTHING)
    gens = draw(st.sampled_from([tuple, list]))(gens) if draw(st.integers(0, 9)) else draw(_ANYTHING)
    if not draw(st.integers(0, 9)):
        diff = draw(st.sampled_from([list(diff.items()), tuple(diff)]) | _ANYTHING)
    return FreeComplex(ring, gens, diff)


class TestValidate:
    def test_realized_specs_validate(self, pool):
        for spec in pool:
            assert validate(realize(spec)) == []

    def test_degree_violation(self):
        gens = (("x", (0, 0)), ("y", (0, 0)))
        C = FreeComplex(RingId.X, gens, {(0, 1): elem_from_mono(u_mono(1, 0))})
        bad = validate(C)
        assert bad and "grading" in bad[0]

    def test_zhou_pipeline_validates(self):
        assert validate_fuv(example_zhou(2)) == []
        assert validate(base_change(example_zhou(2))) == []

    @pytest.mark.parametrize(
        "C, want",
        [
            pytest.param(
                example_zhou(2),
                "expected a FreeComplex, got FUVComplex; base_change turns it into one over X",
                id="fuv",
            ),
            pytest.param(None, "expected a FreeComplex, got NoneType", id="none"),
            pytest.param((), "expected a FreeComplex, got tuple", id="tuple"),
        ],
    )
    def test_not_a_free_complex(self, C, want):
        # one violation naming the type, so every validating entry point
        # raises InvalidComplexError instead of an AttributeError
        from gridring import extant_coefficients, find_local_map, standardize

        assert validate(C) == [want]
        spec = parse_spec("C(0)")
        for call in (
            standard_representative,
            standardize,
            extant_coefficients,
            lambda C: find_local_map(spec, C),
        ):
            with pytest.raises(InvalidComplexError) as got:
                call(C)
            assert got.value.violations == [want]

    @pytest.mark.parametrize(
        "C, ok",
        [
            pytest.param(FUVComplex((("a", (0, 0)), ("a", (0, 0))), {}), False, id="duplicate-names"),
            pytest.param(FUVComplex((("a", (1, 0)),), {}), False, id="mixed-parity"),
            pytest.param(
                FUVComplex((("a", (0, 0)), ("b", (-1, -1))), {(0, 1): frozenset({(1, 0)})}),
                False,
                id="wrong-grading",
            ),
            pytest.param(
                FUVComplex((("a", (0, 0)), ("b", (1, -1))), {(0, 1): frozenset({(1, 0), (0, 1)})}),
                False,
                id="inhomogeneous",
            ),
            pytest.param(
                FUVComplex((("a", (0, 0)), ("b", (-3, 1))), {(0, 1): frozenset({(-1, 1)})}),
                False,
                id="negative-u",
            ),
            pytest.param(
                FUVComplex((("a", (0, 0)), ("b", (1, -3))), {(0, 1): frozenset({(1, -1)})}),
                False,
                id="negative-v",
            ),
            pytest.param(
                FUVComplex((("a", (0, 0)), ("b", (-1, -1))), {(0, 1): frozenset()}),
                False,
                id="empty-entry",
            ),
            pytest.param(
                FUVComplex(
                    (("a", (0, 0)), ("b", (-1, -1)), ("c", (-2, -2))),
                    {(0, 1): frozenset({(0, 0)}), (1, 2): frozenset({(0, 0)})},
                ),
                False,
                id="d-squared",
            ),
        ]
        + [pytest.param(example_zhou(n), True, id="zhou%d" % n) for n in range(2, 6)]
        + [pytest.param(example_cable(), True, id="cable")],
    )
    def test_fuv_verdicts(self, C, ok):
        assert (validate_fuv(C) == []) is ok

    def test_long_values_cut_in_violations(self, no_int_digit_limit):
        # a short grading or entry prints whole; a 5001-digit one is cut to
        # 80 characters
        big = 10**5000
        C = FreeComplex(RingId.X, (("a", (1, 0)), ("b", (big + 1, 0))), {})
        assert validate(C) == [
            "generator a has gradings of mixed parity (1, 0)",
            "generator b has gradings of mixed parity (1%s..." % ("0" * 75),
        ]
        u1 = elem_from_mono(u_mono(1, 0))
        C = FreeComplex(RingId.X, (("a", (0, 0)), ("b", (2 * big, 0))), {(1, 0): u1})
        assert validate(C) == ["entry (b, a) has grading (-2, 0), expected (1%s..." % ("9" * 75)]
        C = FreeComplex(RingId.X, (("a", (0, 0)), ("b", (3, 1))), {(1, 0): u1})
        assert validate(C) == ["entry (b, a) has grading (-2, 0), expected (2, 0)"]
        gens = (("a", (0, 0)), ("b", (-1, -1)))
        far = RingElem(0, frozenset([(-big, 0)]))
        C = FreeComplex(RingId.X, gens, {(0, 1): far})
        assert validate(C) == ["entry (a, b) = U[-1%s... is not in ring X" % ("0" * 73)]
        C = FreeComplex(RingId.X, gens, {(0, 1): far + u1})
        assert validate(C) == ["entry (a, b) = U[-1%s... is not in ring X" % ("0" * 73)]
        far = RingElem(0, frozenset([(big, 0), (1, 0)]))
        C = FreeComplex(RingId.X, gens, {(0, 1): far})
        assert validate(C) == ["entry (a, b) = U[1,0]+U[1%s... is inhomogeneous" % ("0" * 67)]

    def test_values_past_the_digit_limit_print_as_digit_counts(self, int_digit_limit):
        # repr of these values raises ValueError; validate prints digit counts
        big = 10**5000
        bad = validate(FreeComplex(RingId.X, (("a", (big + 1, 0)),), {}))
        assert bad == ["generator a has gradings of mixed parity (<5001 digits>, 0)"]
        assert len(bad) == 1 and len(bad[0]) <= 80
        gens = (("a", (0, 0)), ("b", (-1, -1)))
        C = FreeComplex(RingId.X, gens, {(0, 1): RingElem(0, frozenset([(big, -1)]))})
        assert validate(C) == [
            "entry (a, b) = RingElem(0, frozenset((<5001 digits>, -1)), frozenset()) is not in ring X"
        ]
        C = FreeComplex(RingId.X, gens, {(-big, 0): ONE_ELEM})
        assert validate(C) == ["differential entry (-<5001 digits>, 0) out of range"]
        # valid entries U^big twice over: d^2 is U^(2 big)
        gens = (("a", (0, 0)), ("b", (2 * big - 1, -1)), ("c", (4 * big - 2, -2)))
        ub = RingElem(0, frozenset([(big, 0)]))
        C = FreeComplex(RingId.X, gens, {(0, 1): ub, (1, 2): ub})
        assert validate(C) == [
            "d^2 is nonzero: (a -> c) = RingElem(0, frozenset((<5001 digits>, 0)), frozenset())"
        ]

    def test_scalar_is_zero_or_one(self):
        # a degree-(1, 1) arrow may carry the scalar 1 only, as an int: a
        # float is a violation even when it equals 0 or 1
        gens = (("a", (0, 0)), ("b", (-1, -1)))
        assert validate(FreeComplex(RingId.X, gens, {(0, 1): ONE_ELEM})) == []
        for scalar in (-1, 2, 3, 1.0, 0.5, "1"):
            C = FreeComplex(RingId.X, gens, {(0, 1): RingElem(scalar=scalar)})
            assert validate(C) == ["entry (a, b) has scalar %r, not 0 or 1" % scalar]
            with pytest.raises(InvalidComplexError, match="has scalar"):
                standard_representative(C)
        # a bad scalar beside a side part, and on an arrow of another degree
        for scalar in (-1, 0.0):
            e = RingElem(scalar, frozenset([(1, 0)]))
            assert validate(FreeComplex(RingId.X, gens, {(0, 1): e})) == [
                "entry (a, b) has scalar %r, not 0 or 1" % scalar
            ]
        gens = (("a", (0, 0)), ("b", (1, 1)))
        C = FreeComplex(RingId.X, gens, {(0, 1): RingElem(scalar=-1)})
        assert validate(C) == ["entry (a, b) has scalar -1, not 0 or 1"]

    def test_bool_scalar_is_its_int(self):
        # True is 1 in validation, d^2, reduction and the search
        gens = (("a", (0, 0)), ("b", (-1, -1)), ("c", (-2, -2)))
        for unit in (1, True):
            diff = {(0, 1): RingElem(scalar=unit), (1, 2): RingElem(scalar=unit)}
            assert validate(FreeComplex(RingId.X, gens, diff)) == ["d^2 is nonzero: (a -> c) = 1"]
        X = base_change(example_cable())
        n = X.n_gens()
        gens = X.generators + (("p", (0, 0)), ("q", (-1, -1)))
        spec, fwd, back, shift = standard_representative(X)
        want = (spec, fwd.to_json(), back.to_json(), shift)
        for unit in (1, True):
            C = FreeComplex(RingId.X, gens, {**X.diff, (n, n + 1): RingElem(scalar=unit)})
            assert validate(C) == []
            spec, fwd, back, shift = standard_representative(C)
            assert (spec, fwd.to_json(), back.to_json(), shift) == want

    def test_gradings_are_pairs_of_ints(self):
        # a library caller's grading that is not a pair of ints is one
        # violation, and the entries, which read two gradings each, are not
        # checked; a bool is the int it subclasses, and a list pair is a pair
        u1 = elem_from_mono(u_mono(1, 0))
        for gr in [(0.5, 0.5), ("0", "0"), (0, 0, 0), (0,), 0, None, "ab", (1.0, 1)]:
            C = FreeComplex(RingId.X, (("a", gr), ("b", (0, 0))), {(0, 5): u1})
            assert validate(C) == ["generator a has gradings %r, not a pair of ints" % (gr,)]
            with pytest.raises(InvalidComplexError, match="not a pair of ints"):
                standard_representative(C)
        long = tuple(range(40))
        assert validate(FreeComplex(RingId.X, (("a", long),), {})) == [
            "generator a has gradings %s..., not a pair of ints" % repr(long)[:77]
        ]
        assert validate(FreeComplex(RingId.X, (("a", (True, True)), ("b", [0, 0])), {})) == []
        assert validate(FreeComplex(RingId.X, (("a", (True, False)),), {})) == [
            "generator a has gradings of mixed parity (True, False)"
        ]

    def test_entries_are_ring_elements(self):
        # an entry that is not a RingElem is one violation, and d^2 is not formed
        gens = (("a", (0, 0)), ("b", (-1, -1)), ("c", (-2, -2)))
        for e in ["1", 1, None, Monomial(Side.ONE, (0, 0)), "x" * 200]:
            C = FreeComplex(RingId.X, gens, {(0, 1): e, (1, 2): ONE_ELEM})
            assert validate(C) == ["entry (a, b) = %s is not a RingElem" % _brief(e)]
            with pytest.raises(InvalidComplexError, match="is not a RingElem"):
                standard_representative(C)
        assert len(_brief("x" * 200)) == 80

    def test_side_parts_are_frozensets_of_int_pairs(self):
        # a side part that is not a frozenset, or an exponent that is not a
        # pair of ints, is one violation that shows it as given; a bool
        # exponent is its int
        gens = (("a", (0, 0)), ("b", (1, -1)), ("c", (0, -2)))
        cases = [
            (RingElem(0, frozenset({(1, 0, 0)})), "entry (a, b) = U[(1, 0, 0)] is not in ring X"),
            (RingElem(0, 5), "entry (a, b) has side part 5, not a frozenset of exponents"),
            (RingElem(0, frozenset({"ab"})), "entry (a, b) = U['ab'] is not in ring X"),
            (RingElem(0, frozenset({(1.0, 0)})), "entry (a, b) = U[(1.0, 0)] is not in ring X"),
            (RingElem(0, frozenset(), {(0, 1)}),
             "entry (a, b) has side part {(0, 1)}, not a frozenset of exponents"),
            (RingElem(0, frozenset(), frozenset([(0, 1.0)])), "entry (a, b) = V[(0, 1.0)] is not in ring X"),
        ]
        for e, message in cases:
            C = FreeComplex(RingId.X, gens, {(0, 1): e, (1, 2): ONE_ELEM})
            assert validate(C) == [message]
            with pytest.raises(InvalidComplexError, match="side part|is not in ring"):
                standard_representative(C)
        for e in [RingElem(0, frozenset({(True, 0)})), RingElem(0, frozenset(), frozenset([(False, True)]))]:
            assert validate(FreeComplex(RingId.X, gens[:2], {(0, 1): e})) == []

    @settings(max_examples=150, deadline=None)
    @given(C=_any_complex())
    def test_arbitrary_complexes(self, C):
        # any records, keys, scalars, side parts and exponents: validate
        # returns short strings and never raises, and standard_representative
        # raises only the package's errors for an invalid or unknotlike
        # complex; a violation prints a generator's name whole
        bad = validate(C)
        assert isinstance(bad, list) and all(isinstance(line, str) for line in bad)
        recs = C.generators if isinstance(C.generators, (tuple, list)) else ()
        longest = max((len(rec[0]) for rec in recs if isinstance(rec, tuple) and rec
                       and isinstance(rec[0], str)), default=0)
        assert all(len(line) <= 250 + 2 * longest for line in bad), bad
        try:
            standard_representative(C)
        except InvalidComplexError as exc:
            assert bad and exc.violations == bad
        except (NotKnotlikeError, ValueError, VerificationError):
            assert not bad
        else:
            assert not bad

    def test_ring_of_another_type(self):
        C = FreeComplex("X", (("a", (0, 0)),), {})
        assert validate(C) == ["ring is 'X', not a RingId"]
        with pytest.raises(InvalidComplexError, match="^invalid complex: ring is 'X', not a RingId$"):
            standard_representative(C)

    def test_generators_of_another_type(self):
        for gens in (None, "ab", {"a": (0, 0)}):
            C = FreeComplex(RingId.X, gens, {})
            assert validate(C) == ["generators is %s, not a tuple or list" % _brief(gens)]
            with pytest.raises(InvalidComplexError, match="generators is"):
                standard_representative(C)
        # a list of records is a container like a tuple
        assert validate(FreeComplex(RingId.X, [("a", (0, 0))], {})) == []

    def test_diff_of_another_type(self):
        gens = (("a", (0, 0)), ("b", (-1, -1)))
        for diff in ([((0, 1), ONE_ELEM)], ((0, 1),), 5):
            C = FreeComplex(RingId.X, gens, diff)
            assert validate(C) == ["diff is %s, not a dict" % _brief(diff)]
            with pytest.raises(InvalidComplexError, match="diff is"):
                standard_representative(C)
        # every field of the wrong type is one violation, in field order
        assert validate(FreeComplex(None, None, 5)) == [
            "ring is None, not a RingId",
            "generators is None, not a tuple or list",
            "diff is 5, not a dict",
        ]

    def test_malformed_records_and_keys_are_violations(self):
        # a generator record that is not a (str name, gradings) pair, and a
        # differential key that is not a tuple of two ints in range, are each
        # one violation, never an exception; a range or a frozenset key
        # unpacks into two ints in range, but complex_to_document sorts the
        # keys, and only tuples sort
        assert validate(FreeComplex(RingId.X, ("a",), {})) == [
            "generator record 'a' is not a (str name, gradings) pair"
        ]
        for rec in [("a",), ("a", (0, 0), 1), 5, None, (1, (0, 0)), (("a",), (0, 0))]:
            C = FreeComplex(RingId.X, (("b", (0, 0)), rec), {(0, 1): ONE_ELEM})
            assert validate(C) == ["generator record %s is not a (str name, gradings) pair" % _brief(rec)]
            with pytest.raises(InvalidComplexError, match="generator record"):
                standard_representative(C)
        C = FreeComplex(RingId.X, (("b", (0, 0)), ("b", (1, 1)), 5), {})
        assert validate(C) == [
            "generator names are not unique",
            "generator record 5 is not a (str name, gradings) pair",
        ]
        gens = (("a", (0, 0)), ("b", (-1, -1)))
        for key in [0, (0, 1.0), (1.0, 0), (0,), (0, 1, 2), ("a", "b"), "ab", (0, 2), (-1, 0),
                    range(0, 2), frozenset({0, 1})]:
            C = FreeComplex(RingId.X, gens, {key: ONE_ELEM, (0, 1): ONE_ELEM})
            assert validate(C) == ["differential entry %s out of range" % _brief(key)]
            with pytest.raises(InvalidComplexError, match="out of range"):
                standard_representative(C)
            for side in (Side.U, Side.V):
                with pytest.raises(InvalidComplexError) as info:
                    paired_basis(C, side)
                assert info.value.violations == validate(C)
        # a bool is the int it subclasses
        assert validate(FreeComplex(RingId.X, gens, {(False, True): ONE_ELEM})) == []

    def test_d_squared_detected(self):
        gens = (("a", (0, 0)), ("b", (-1, -1)), ("c", (-2, -2)))
        diff = {(0, 1): ONE_ELEM, (1, 2): ONE_ELEM}
        bad = validate(FreeComplex(RingId.X, gens, diff))
        assert any("d^2" in msg for msg in bad)


class TestBaseChange:
    def test_u1v2(self):
        # U V^2 becomes the U-side (1,2) plus the V-side (2,1)
        assert fuv_image({(1, 2)}) == elem_from_mono(u_mono(1, 2)) + elem_from_mono(v_mono(2, 1))

    def test_pure_power(self):
        assert fuv_image({(3, 0)}) == elem_from_mono(u_mono(3, 0)) + elem_from_mono(v_mono(0, 3))

    def test_unital(self):
        assert fuv_image({(0, 0)}) == ONE_ELEM

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(200):
            a1, b1 = rng.randint(0, 4), rng.randint(0, 4)
            a2, b2 = rng.randint(0, 4), rng.randint(0, 4)
            lhs = fuv_image({(a1 + a2, b1 + b2)})
            rhs = elem_mul(fuv_image({(a1, b1)}), fuv_image({(a2, b2)}))
            assert lhs == rhs

    @settings(max_examples=200, deadline=None)
    @given(exps=st.frozensets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8))
    def test_image_of_a_set_is_the_sum_of_its_monomials(self, exps):
        # distinct monomials have disjoint images, so no sum is formed
        acc = ZERO
        for m in exps:
            acc = acc + fuv_image({m})
        assert fuv_image(exps) == acc
        assert fuv_image(set(exps)) == acc

    def test_gradings_unchanged(self):
        z = example_zhou(3)
        X = base_change(z)
        assert tuple(X.generators) == tuple(z.generators)
        assert validate(X) == []


class TestReduce:
    def test_already_reduced_unchanged(self):
        C = realize(parse_spec("C(-U[2,1], +V[2,1])"))
        assert same_complex(reduce(C), C)

    def test_acyclic_pair_cancels(self):
        gens = (("x", (0, 0)), ("y", (-1, -1)), ("z", (3, 1)))
        C = FreeComplex(RingId.X, gens, {(0, 1): ONE_ELEM})
        R = reduce(C)
        assert [nm for nm, _ in R.generators] == ["z"]
        assert R.diff == {}

    def test_four_generator_example(self):
        # da = b + U d, dc = U d; cancelling (a, b) leaves dc = U d
        U = elem_from_mono(u_mono(1, 0))
        gens = (("a", (0, 0)), ("b", (-1, -1)), ("c", (0, 0)), ("d", (1, -1)))
        C = FreeComplex(RingId.X, gens, {(0, 1): ONE_ELEM, (0, 3): U, (2, 3): U})
        assert validate(C) == []
        R = reduce(C)
        assert [nm for nm, _ in R.generators] == ["c", "d"]
        assert R.diff == {(0, 1): U}

    def test_preserves_quotient_homology(self):
        rng = random.Random(17)
        for _ in range(12):
            spec = random_spec(rng, max_pairs=2)
            base = realize(spec)
            C = base
            for _k in range(rng.randint(1, 2)):
                g = base.gr(rng.randrange(base.n_gens()))
                C = direct_sum(C, acyclic_pair(RingId.X, (g[0] + 2, g[1])))
            mixed = scramble(C, rng)
            R = reduce(mixed)
            assert is_reduced(R)
            for side in (Side.U, Side.V):
                got = quotient_homology(R, side)
                want = quotient_homology(base, side)
                assert got.tower_count == want.tower_count
                assert sorted(got.tower_gradings) == sorted(want.tower_gradings)
                assert sorted(
                    (o.exp, s) for o, s in got.torsion
                ) == sorted((o.exp, s) for o, s in want.torsion)


class TestTensorDual:
    def test_unit(self):
        C = realize(parse_spec("C(-U[1,0], +V[1,0])"))
        unit = realize(parse_spec("C(0)"))
        assert same_complex(tensor(unit, C), C)

    def test_nine_generators(self):
        C = realize(parse_spec("C(-U[1,0], +V[1,0])"))
        T = tensor(C, C)
        assert T.n_gens() == 9
        assert validate(T) == []

    def test_gradings_add(self):
        A = realize(parse_spec("C(-U[2,1], +V[2,1])"))
        B = realize(parse_spec("C(-U[1,0], +V[1,0])"))
        T = tensor(A, B)
        k = 0
        for i in range(A.n_gens()):
            for j in range(B.n_gens()):
                ga, gb = A.gr(i), B.gr(j)
                assert T.gr(k) == (ga[0] + gb[0], ga[1] + gb[1])
                k += 1

    def test_dual_involution(self, pool):
        for spec in pool:
            C = realize(spec)
            assert same_complex(dual(dual(C)), C)
            assert validate(dual(C)) == []

    def test_dual_of_trivial(self):
        C = realize(parse_spec("C(0)"))
        assert same_complex(dual(C), C)

    def test_tensor_associative_up_to_names(self):
        a = realize(parse_spec("C(-U[1,0], +V[1,0])"))
        b = realize(parse_spec("C(0)"))
        c = realize(parse_spec("C(-U[1,1], +V[1,1])"))
        for (x, y, z) in [(a, b, c), (a, c, a)]:
            assert same_complex(tensor(tensor(x, y), z), tensor(x, tensor(y, z)))

    def test_tensor_of_knotlike_is_knotlike(self, pool):
        rng = random.Random(5)
        for _ in range(10):
            A = realize(rng.choice(pool))
            B = realize(rng.choice(pool))
            ok, shift = is_knotlike(tensor(A, B))
            assert ok and shift == (0, 0)


def _outcomes(C):
    """What ``paired_basis`` (both sides), ``is_knotlike``, ``normalize`` and ``quotient_homology`` (both sides) do on C.

    Each is ``("invalid", violations)`` for an ``InvalidComplexError``,
    ``("not knotlike", None)`` for a ``NotKnotlikeError``, ``("unreduced",
    None)`` for the reducedness ValueError and ``("ok", None)`` for an
    answer; any other exception propagates.
    """
    calls = [lambda C, side=side: paired_basis(C, side) for side in (Side.U, Side.V)]
    calls += [is_knotlike, normalize]
    calls += [lambda C, side=side: quotient_homology(C, side) for side in (Side.U, Side.V)]
    out = []
    for call in calls:
        try:
            call(C)
        except InvalidComplexError as exc:
            out.append(("invalid", exc.violations))
        except NotKnotlikeError:
            out.append(("not knotlike", None))
        except ValueError as exc:
            if str(exc) != "paired_basis needs a reduced complex":
                raise
            out.append(("unreduced", None))
        else:
            out.append(("ok", None))
    return out


def _rejected_as_validate_rejects(C):
    """Every call of ``_outcomes`` raises InvalidComplexError with ``validate(C)``'s violations."""
    bad = validate(C)
    assert bad
    assert _outcomes(C) == [("invalid", bad)] * 6


class TestPairedBasis:
    @settings(max_examples=300, deadline=None)
    @given(C=_any_complex())
    def test_rejects_exactly_what_validate_rejects(self, C):
        # paired_basis checks with validate's rules: its callers raise
        # InvalidComplexError with validate's violations exactly when it
        # lists any, and otherwise answer or raise the package's knotlike
        # or reducedness error, never anything else
        bad = validate(C)
        for kind, violations in _outcomes(C):
            if bad:
                assert (kind, violations) == ("invalid", bad)
            else:
                assert kind in ("ok", "not knotlike", "unreduced")

    def test_r_entry_outside_r_rejected(self):
        # U[1,1] is a side monomial of X, not of R: the X-only entry is
        # never paired into torsion
        C = FreeComplex(RingId.R, (("a", (0, 0)), ("b", (1, 1))),
                        {(0, 1): RingElem(u=frozenset({(1, 1)}))})
        assert validate(C) == ["entry (a, b) = U[1,1] is not in ring R"]
        _rejected_as_validate_rejects(C)

    def test_standard_complex_already_paired(self):
        C = realize(parse_spec("C(-U[2,1], +V[2,1])"))
        pb = paired_basis(C, Side.U)
        assert pb.pairs == ((0, 1, u_mono(2, 1)),)
        assert pb.unpaired == (2,)
        # the preferred basis needed no changes
        assert pb.basis == (0b001, 0b010, 0b100)
        _same_paired_basis(C, pb, reference_column_pairing(C, Side.U))

    def test_zhou_v_side(self):
        X = base_change(example_zhou(2))
        pb = paired_basis(X, Side.V)
        assert len(pb.pairs) == 1
        y, z, order = pb.pairs[0]
        assert (y, z) == (0, 2) and order == v_mono(2, 1)
        assert pb.unpaired == (1,)
        _same_paired_basis(X, pb, reference_column_pairing(X, Side.V))

    def test_zero_side_differential(self):
        gens = (("a", (0, 0)), ("b", (3, 1)))
        C = FreeComplex(RingId.X, gens, {})
        pb = paired_basis(C, Side.V)
        assert pb.pairs == () and pb.unpaired == (0, 1)

    def test_two_monomials_on_one_side_rejected(self):
        # reduced, but the entry U[1,0] + U[2,0] is no homogeneous side part:
        # both sides and every caller fail with validate's violation, though
        # the V side has no part in that entry
        e = RingElem(0, frozenset({(1, 0), (2, 0)}), frozenset())
        C = FreeComplex(RingId.X, (("a", (0, 0)), ("b", (3, 1))), {(0, 1): e})
        assert is_reduced(C)
        assert validate(C) == ["entry (a, b) = U[1,0]+U[2,0] is inhomogeneous"]
        _rejected_as_validate_rejects(C)
        message = "^%s$" % re.escape(
            "side U part frozenset({(1, 0), (2, 0)}) at (0, 1) must be a single monomial")
        with pytest.raises(ValueError, match=message):
            reference_paired_basis(C, Side.U)

    def test_list_gradings_equal_their_tuples(self):
        # d(a) = U[1,0] c + U[1,0] d and d(b) = U[1,0] d, with b and d graded
        # by lists: the residues pair up generators whose gradings are equal
        # as values, in the reduced column (b takes a) and in the new pair's
        # row (d's is column a's rows graded like d: c and d)
        u10 = RingElem(0, frozenset({(1, 0)}), frozenset())
        diff = {(0, 2): u10, (0, 3): u10, (1, 3): u10}
        gens = (("a", (0, 0)), ("b", [0, 0]), ("c", (1, -1)), ("d", [1, -1]))
        C = FreeComplex(RingId.X, gens, diff)
        T = FreeComplex(RingId.X, tuple((nm, tuple(g)) for nm, g in gens), diff)
        assert validate(C) == []
        pb = paired_basis(C, Side.U)
        assert pb.basis == (0b0001, 0b0011, 0b0100, 0b1100)
        assert pb.pairs == ((0, 3, u_mono(1, 0)), (1, 2, u_mono(1, 0)))
        for side in (Side.U, Side.V):
            _same_paired_basis(C, paired_basis(C, side), reference_column_pairing(C, side))
            got, want = paired_basis(C, side), paired_basis(T, side)
            assert (got.basis, got.pairs, got.unpaired) == (want.basis, want.pairs, want.unpaired)

    def test_side_part_not_a_set_rejected(self):
        # a side part that is no set of exponents fails validate, and every
        # caller raises its violation; b's gradings make U[1,0] fit a -> b
        gens = (("a", (0, 0)), ("b", (1, -1)))
        u10 = frozenset({(1, 0)})
        for e, part in ((RingElem(0, 5), "5"), (RingElem(0, u10, 7), "7")):
            C = FreeComplex(RingId.X, gens, {(0, 1): e})
            assert validate(C) == [
                "entry (a, b) has side part %s, not a frozenset of exponents" % part]
            _rejected_as_validate_rejects(C)

    def test_grading_that_does_not_subtract_rejected(self):
        # a str grading is no pair of ints: validate's record check names
        # the generator, on both sides, though no V-side entry reaches it
        u10 = RingElem(0, frozenset({(1, 0)}), frozenset())
        C = FreeComplex(RingId.X, (("a", ("0", 0)), ("b", (1, -1))), {(0, 1): u10})
        assert validate(C) == ["generator a has gradings ('0', 0), not a pair of ints"]
        _rejected_as_validate_rejects(C)

    def test_nonzero_side_square_rejected(self):
        # every side part fits the gradings, but d(g0) = U[-2,1] g2 and
        # d(g2) = (U[3,0] + V[0,3]) g0 make d_U^2 (g0 -> g0) = U[1,1]: every
        # caller of paired_basis fails with validate's d^2 violations
        gens = (("g0", (5, -3)), ("g1", (0, -4)), ("g2", (0, -2)))
        diff = {(0, 2): elem_from_mono(u_mono(-2, 1)),
                (2, 0): elem_from_mono(u_mono(3, 0)) + elem_from_mono(v_mono(0, 3))}
        C = FreeComplex(RingId.X, gens, diff)
        assert validate(C) == ["d^2 is nonzero: (g0 -> g0) = U[1,1]",
                               "d^2 is nonzero: (g2 -> g2) = U[1,1]"]
        _rejected_as_validate_rejects(C)
        # d_V^2 vanishes: the V side's column reduction pairs g2 with g0
        assert _column_pairing(C, Side.V).pairs == ((2, 0, v_mono(0, 3)),)

    def test_matrix_shape(self, pool):
        rng = random.Random(23)
        for spec in pool:
            C = realize(spec)
            T = tensor(C, realize(rng.choice(pool)))
            for side in (Side.U, Side.V):
                pb = paired_basis(T, side)
                ys = [y for y, _z, _order in pb.pairs]
                zs = [z for _y, z, _order in pb.pairs]
                assert len(ys) == len(set(ys))
                assert len(zs) == len(set(zs))
                # change of basis is invertible over the residue field
                assert _gf2.solve_unit(pb.basis, 0) is not None
                # unitriangular: element i has bit i and otherwise bits of
                # generators of its grading and lower index
                for i, row in enumerate(pb.basis):
                    assert row >> i == 1
                    assert all(T.gr(j) == T.gr(i) for j in range(i) if row >> j & 1)

    def test_change_of_basis_identity(self, pool):
        # d(new_i) expanded two ways forces B * D_side == D_paired * B; the
        # column reference keeps the full rows, which paired_basis reduces
        # to residues
        rng = random.Random(71)
        picks = [realize(spec) for spec in pool[:5]]
        picks.append(tensor(realize(pool[1]), realize(pool[5])))
        picks.append(scramble(realize(pool[9]), rng))
        for C in picks:
            m = C.n_gens()
            for side in (Side.U, Side.V):
                pb = reference_column_pairing(C, side)
                _same_paired_basis(C, paired_basis(C, side), pb)
                d_side = {}
                for (i, j), e in C.diff.items():
                    part = _side_part(e, side)
                    if part:
                        d_side[(i, j)] = part
                d_paired = {
                    (i, j): elem_from_mono(Monomial(side, exp))
                    for (i, j), exp in pb.matrix.items()
                }
                lhs = {}
                rhs = {}
                for i in range(m):
                    for k in range(m):
                        acc = ZERO
                        for j in range(m):
                            acc = acc + elem_mul(pb.basis[i][j], d_side.get((j, k), ZERO))
                        if acc:
                            lhs[(i, k)] = acc
                        acc = ZERO
                        for j in range(m):
                            acc = acc + elem_mul(d_paired.get((i, j), ZERO), pb.basis[j][k])
                        if acc:
                            rhs[(i, k)] = acc
                assert lhs == rhs


def _residues(rows):
    """Dense RingElem rows reduced mod the maximal ideals, as bitmasks."""
    return tuple(sum(1 << j for j, e in enumerate(row) if e.scalar) for row in rows)


def _same_paired_basis(C, got, want):
    """``got`` from paired_basis, ``want`` from ``reference_column_pairing``, both of C.

    The residual side-differential is the pairs' orders alone, and the
    reference's gradings are those C and ``got``'s pairs give.
    """
    assert got.side is want.side
    assert got.basis == _residues(want.basis)
    assert paired_gradings(C, got) == want.gradings
    assert {(y, z): order.exp for y, z, order in got.pairs} == want.matrix
    assert got.pairs == want.pairs
    assert got.unpaired == want.unpaired


def _same_reduction(C):
    """``reduce(C)``, after checking it against the reference, entry order included."""
    got, want = reduce(C), reference_reduce(C)
    assert got.ring is want.ring
    assert got.generators == want.generators
    assert list(got.diff.items()) == list(want.diff.items())
    return got


def _same_invariants(C, got, want):
    """``got`` has the unpaired gradings and the multiset {(gr y, order)} of ``want``.

    Both are invariants of the complex, so any two pairings of one side
    agree in them: ``want`` comes from ``reference_paired_basis``, the
    dense elimination the column reduction replaced.
    """
    assert got.side is want.side
    assert sorted(tuple(C.gr(t)) for t in got.unpaired) == \
        sorted(tuple(C.gr(t)) for t in want.unpaired)
    assert Counter((tuple(C.gr(y)), o) for y, _z, o in got.pairs) == \
        Counter((tuple(C.gr(y)), o) for y, _z, o in want.pairs)


def _same_bases(R):
    """Both sides' paired bases: the column reference's, with the elimination reference's invariants."""
    for side in (Side.U, Side.V):
        got = paired_basis(R, side)
        _same_paired_basis(R, got, reference_column_pairing(R, side))
        _same_invariants(R, got, reference_paired_basis(R, side))


def _outcome(fn, C, side):
    try:
        return fn(C, side)
    except InvalidComplexError as exc:
        return ("invalid", exc.violations)


# side exponents of X near the origin, the window random side parts draw from
_SIDE_WINDOW = [(i, j) for i in range(-4, 5) for j in range(5) if j or i > 0]


def _random_side_matrix(rng, m):
    """A reduced but unvalidated complex whose side parts fit its gradings.

    Each generator has gradings (2a + t, 2b + t).  A slot (i, j) holds, at
    random, the one side monomial of grading gr(i) - gr(j) - (1, 1) on each
    side where the window has one.  Nothing forces d^2 = 0, so paired_basis
    meets its d^2 check.
    """
    gens = []
    for k in range(m):
        t = rng.randrange(2)
        gens.append(("g%d" % k, (2 * rng.randint(-2, 2) + t, 2 * rng.randint(-2, 2) + t)))
    diff = {}
    for i, (_a, (a1, a2)) in enumerate(gens):
        for j, (_b, (b1, b2)) in enumerate(gens):
            if rng.random() > 0.35:
                continue
            want = (a1 - b1 - 1, a2 - b2 - 1)
            u, v = (frozenset(exp for exp in _SIDE_WINDOW
                              if mono_grading(Monomial(side, exp)) == want and rng.randrange(3))
                    for side in (Side.U, Side.V))
            if u or v:
                diff[(i, j)] = RingElem(0, u, v)
    return FreeComplex(RingId.X, tuple(gens), diff)


def _misfit(C, rng):
    """A copy of C with one side part that does not fit the gradings, and what it is.

    Returns ``(kind, side, (i, j), exp, B)``: slot (i, j) of ``B`` holds the
    side monomial ``exp`` on ``side``.  ``kind`` is ``inhomogeneous`` (an
    exponent of the window with another grading), ``out-of-region`` or
    ``origin``.
    """
    m = C.n_gens()
    i, j = rng.randrange(m), rng.randrange(m)
    side = rng.choice((Side.U, Side.V))
    (a1, a2), (b1, b2) = C.gr(i), C.gr(j)
    kind = rng.choice(("inhomogeneous", "out-of-region", "origin"))
    if kind == "inhomogeneous":
        want = (a1 - b1 - 1, a2 - b2 - 1)
        exp = rng.choice([x for x in _SIDE_WINDOW if mono_grading(Monomial(side, x)) != want])
    else:
        exp = rng.choice([(-1, 0), (-3, 0), (0, -1), (2, -1), (-1, -2)]) \
            if kind == "out-of-region" else (0, 0)
    e = C.diff.get((i, j), ZERO)
    part = frozenset([exp])
    diff = dict(C.diff)
    diff[(i, j)] = RingElem(0, part, e.v) if side is Side.U else RingElem(0, e.u, part)
    return kind, side, (i, j), exp, FreeComplex(C.ring, C.generators, diff)


def _side_square(C, side):
    """The nonzero entries of d_side^2, formed with ``elem_mul`` (``reference_compose``)."""
    d = {key: _side_part(e, side) for key, e in C.diff.items()}
    return reference_compose({key: e for key, e in d.items() if e}, d)


class TestAgainstReference:
    """The heap-driven reduce and the column-reduction paired_basis return what the dense ones do."""

    def test_pool(self, pool):
        for spec in pool:
            _same_bases(_same_reduction(realize(spec)))

    def test_pool_products(self, pool):
        realized = [realize(spec) for spec in pool]
        for A in realized:
            for B in realized:
                _same_bases(_same_reduction(tensor(A, B)))

    def test_scrambled_padded_products(self, pool):
        for mixed, rng in _scrambled_padded_products(pool):
            assert not is_reduced(mixed)
            R = _same_reduction(mixed)
            _same_bases(R)
            # a homogeneous change of basis keeps a reduced complex reduced,
            # so the paired bases get one more input per product
            _same_bases(scramble(R, rng, n_ops=R.n_gens()))

    def test_errors_match(self):
        # paired_basis raises exactly when validate rejects the complex,
        # with its violations (on these complexes a nonzero d^2 or a side
        # part that misfits its gradings), and otherwise returns the column
        # reference's basis, with the pairing invariants of the elimination
        # reference; neither reference meets a quotient outside the ring
        rng = random.Random(47)
        seen = set()
        for _ in range(1000):
            C = _random_side_matrix(rng, rng.randint(2, 8))
            bad = validate(C)
            # cross-side products vanish, so d^2 is the sum of the side squares
            assert bool(bad) == bool(_side_square(C, Side.U) or _side_square(C, Side.V))
            assert all(line.startswith("d^2 is nonzero: ") for line in bad)
            for side in (Side.U, Side.V):
                got = _outcome(paired_basis, C, side)
                if bad:
                    assert got == ("invalid", bad)
                    seen.add("square")
                else:
                    _same_paired_basis(C, got, reference_column_pairing(C, side))
                    _same_invariants(C, got, reference_paired_basis(C, side))
                    seen.add("ok")
            kind, side, _key, _exp, B = _misfit(C, rng)
            seen.add(kind)
            bad = validate(B)
            assert bad
            assert _outcomes(B) == [("invalid", bad)] * 6
        assert seen == {"ok", "square", "inhomogeneous", "out-of-region", "origin"}

    def test_quotient_homology(self, pool):
        # towers and torsion as read off the reference's stored gradings
        realized = [realize(spec) for spec in pool]
        cases = realized + [tensor(A, B) for A in realized for B in realized]
        for mixed, rng in _scrambled_padded_products(pool):
            R = reduce(mixed)
            cases += [R, scramble(R, rng, n_ops=R.n_gens())]
        for C in cases:
            for side in (Side.U, Side.V):
                assert quotient_homology(C, side) == _reference_quotient_homology(C, side)

    @pytest.mark.slow
    def test_wide_product(self):
        _s, C = wide_product(random.Random(53))
        assert C.n_gens() >= 265
        _same_bases(_same_reduction(C))


class TestColumnPairing:
    """``_column_pairing`` finds the elimination reference's pairs and towers on every valid complex."""

    def _cases(self, pool):
        """Valid reduced complexes: the seed 1-3 inputs of every workload, pool
        products, scrambled padded products and non-knotlike direct sums."""
        for workload in ("search-long", "wide-trivial", "batch-small"):
            for seed in (1, 2, 3):
                for case in inputs(workload, seed):
                    C = case.complex
                    if C is None:
                        try:
                            C = io_json.document_to_complex(case.doc)[0]
                        except ValueError:
                            continue  # a document the workload expects to be rejected
                    if not validate(C):
                        yield reduce(C)
        realized = [realize(spec) for spec in pool]
        yield from (tensor(A, B) for A in realized for B in realized)
        for mixed, rng in _scrambled_padded_products(pool):
            R = reduce(mixed)
            yield R
            yield scramble(R, rng, n_ops=R.n_gens())
        # two towers a side, and a U-side pair x -> U[1,0] y, which has no
        # tower on side U and two on side V, alone and added to a product
        u_pair = FreeComplex(RingId.X, (("x", (0, 0)), ("y", (1, -1))),
                             {(0, 1): RingElem(0, frozenset({(1, 0)}))})
        yield u_pair
        rng = random.Random(71)
        for _ in range(12):
            A, B = (realize(rng.choice(pool)) for _ in range(2))
            yield direct_sum(A, B)
            if A.ring is RingId.X:
                yield scramble(direct_sum(tensor(A, B), u_pair), rng, n_ops=A.n_gens())

    def test_same_pairs_and_towers_as_paired_basis(self, pool):
        counts = set()
        for C in self._cases(pool):
            assert validate(C) == [] and is_reduced(C)
            for side in (Side.U, Side.V):
                got = _column_pairing(C, side)
                assert got.side is side
                _same_invariants(C, got, reference_paired_basis(C, side))
                counts.add(len(got.unpaired))
        assert counts == {0, 1, 2, 3}

    def test_unreduced_input_fails_as_before(self, pool):
        # the column reduction's entry loop holds the reducedness check, so
        # a valid complex that is not reduced fails with paired_basis's
        # message, though no caller here goes through paired_basis
        from gridring.localeq import extant_coefficients, find_local_map, standardize

        rng = random.Random(73)
        gens = (("x", (0, 0)), ("y", (-1, -1)))
        cases = [FreeComplex(RingId.X, gens, {(0, 1): ONE_ELEM})]
        cases += [pad(realize(spec), rng, 2) for spec in pool[:4]]
        for C in cases:
            assert validate(C) == [] and not is_reduced(C)
            calls = [standardize, extant_coefficients,
                     lambda C: find_local_map(parse_spec("C(0)"), C)]
            for call in calls:
                with pytest.raises(ValueError, match="^paired_basis needs a reduced complex$"):
                    call(C)


def _scrambled_padded_products(pool):
    """Thirty unreduced products, padded and scrambled, each with the rng that drew it."""
    rng = random.Random(43)
    for k in range(30):
        C = tensor(realize(rng.choice(pool)), realize(rng.choice(pool)))
        if k % 3 == 0:
            C = tensor(C, dual(realize(rng.choice(pool[:9]))))
        # enough padding and mixing that units share rows and columns
        # and one cancellation's fill-in meets another's
        mixed = scramble(pad(C, rng, rng.randint(3, 8)), rng, n_ops=4 * C.n_gens())
        yield shuffle_generators(mixed, rng), rng


def _random_valid(rng, ring):
    """A random valid complex over ``ring``, unreduced and not normalized.

    A product of two realized random specs, now and then summed with a
    third (two towers a side), padded, scrambled, with its generators
    shuffled and its gradings shifted by an even or odd amount.
    """
    C = tensor(realize(random_spec(rng, ring)), realize(random_spec(rng, ring)))
    if not rng.randrange(3):
        C = direct_sum(C, realize(random_spec(rng, ring)))
    C = scramble(pad(C, rng, rng.randint(0, 4)), rng, n_ops=2 * C.n_gens())
    s = rng.randint(-3, 3)
    return shift_gradings(shuffle_generators(C, rng), (s, s + 2 * rng.randint(-2, 2)))


class TestTowerParity:
    """The parity fact that makes the towers of a knotlike complex share one parity.

    Each pair of the column reduction joins generators of opposite gr1
    parity, since an arrow's grading is (1, 1) plus an even one.  So a side
    with a single tower has it in the larger gr1 parity class, the same
    class on both sides, and the normalizing shift's components agree in
    parity.
    """

    def _cases(self, pool):
        """Valid reduced complexes: the pool, pool products, scrambled padded
        products and random complexes over X and R."""
        realized = [realize(spec) for spec in pool]
        yield from realized
        yield from (tensor(A, B) for A in realized for B in realized)
        for mixed, _rng in _scrambled_padded_products(pool):
            yield reduce(mixed)
        rng = random.Random(79)
        for ring in (RingId.X, RingId.R):
            for _ in range(40):
                yield reduce(_random_valid(rng, ring))

    def test_pairs_join_opposite_gr1_parities(self, pool):
        rings = set()
        for C in self._cases(pool):
            assert validate(C) == [] and is_reduced(C)
            rings.add(C.ring)
            for side in (Side.U, Side.V):
                for y, z, _order in _column_pairing(C, side).pairs:
                    assert (C.gr(y)[0] - C.gr(z)[0]) % 2 == 1
        assert rings == {RingId.X, RingId.R}

    def test_knotlike_shift_components_share_parity(self, pool):
        seen = set()
        for C in self._cases(pool):
            ok, shift = is_knotlike(C)
            if ok:
                assert (shift[0] - shift[1]) % 2 == 0
            seen.add((C.ring, ok, shift[0] % 2 if ok else None))
        # both rings, both parities and complexes with two towers a side
        assert {(ring, True, p) for ring in RingId for p in (0, 1)} <= seen
        assert {(ring, False, None) for ring in RingId} <= seen


def _reference_quotient_homology(C, side):
    """``quotient_homology`` read off ``reference_paired_basis``'s gradings."""
    pb = reference_paired_basis(C, side)
    keep = 1 if side is Side.U else 0
    towers = tuple(pb.gradings[t][keep] for t in pb.unpaired)
    torsion = [(order, pb.gradings[z][keep]) for _y, z, order in pb.pairs]
    torsion.sort(key=lambda t: (lattice_key(t[0].exp), -t[1]), reverse=True)
    return QuotientHomology(side, len(pb.unpaired), towers, tuple(torsion))


# valid complexes to mutate: standard complexes over X and R, a product, the
# base-changed examples, scrambled padded complexes, which hold scalar
# entries and entries with both sides, and two stacked acyclic pairs, where
# an extra unit arrow makes a unit d^2 entry
_rng = random.Random(61)
VALID_BASES = (
    [
        realize(parse_spec(t))
        for t in ("C(-U[1,0], +V[1,0])", "C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])")
    ]
    + [
        realize(parse_spec(t, RingId.R))
        for t in ("C(-U[1,0], +V[1,0])", "C(-U[2,0], +V[1,0], -U[1,0], +V[2,0])")
    ]
    + [
        tensor(
            realize(parse_spec("C(-U[1,0], +V[1,0])")), realize(parse_spec("C(+U[2,1], -V[2,1])"))
        ),
        base_change(example_cable()),
        base_change(example_zhou(3)),
        direct_sum(acyclic_pair(RingId.X, (2, 2)), acyclic_pair(RingId.X, (1, 1))),
    ]
    + [
        scramble(pad(realize(parse_spec(t, ring)), _rng, 2), _rng, n_ops=12)
        for t, ring in (("C(-U[2,1], +V[2,1])", RingId.X), ("C(-U[1,0], +V[2,0])", RingId.R))
    ]
)
OFF_REGION = [(0, 0), (-1, 0), (-2, 0), (1, -1), (0, -1)]


def _side_elem(side, exp):
    """A one-monomial side element, off the ring's region too."""
    return elem_from_mono(Monomial(side, exp))


def _changed(C, gens=None, diff=None):
    return FreeComplex(
        C.ring, C.generators if gens is None else tuple(gens), C.diff if diff is None else diff
    )


def _entry(C, rng):
    """A copy of the differential and one of its keys."""
    diff = dict(C.diff)
    return diff, rng.choice(sorted(diff))


def _duplicate_name(C, rng):
    gens = list(C.generators)
    i, j = rng.sample(range(len(gens)), 2)
    gens[j] = (gens[i][0], gens[j][1])
    return _changed(C, gens=gens)


def _mixed_parity(C, rng):
    gens = list(C.generators)
    k = rng.randrange(len(gens))
    nm, (g1, g2) = gens[k]
    gens[k] = (nm, (g1 + rng.choice([-1, 1]), g2))
    return _changed(C, gens=gens)


def _wrong_grading(C, rng):
    gens = list(C.generators)
    k = rng.randrange(len(gens))
    nm, (g1, g2) = gens[k]
    d1, d2 = rng.choice([(2, 0), (0, -2), (2, 2), (-4, 2)])
    gens[k] = (nm, (g1 + d1, g2 + d2))
    return _changed(C, gens=gens)


def _out_of_range(C, rng):
    diff = dict(C.diff)
    n = C.n_gens()
    key = rng.choice([(n, 0), (0, n), (-1, 1), (1, n + 2)])
    diff[key] = ONE_ELEM
    return _changed(C, diff=diff)


def _stored_zero(C, rng):
    diff, key = _entry(C, rng)
    diff[key] = ZERO
    return _changed(C, diff=diff)


def _off_region(C, rng):
    diff, key = _entry(C, rng)
    term = _side_elem(rng.choice([Side.U, Side.V]), rng.choice(OFF_REGION))
    diff[key] = term if rng.randrange(2) else diff[key] + term
    return _changed(C, diff=diff)


def _second_row(C, rng):
    # j != 0 is outside R; over X the entry becomes inhomogeneous or misgraded
    diff, key = _entry(C, rng)
    diff[key] = _side_elem(rng.choice([Side.U, Side.V]), rng.choice([(1, 1), (2, 1), (-1, 1)]))
    return _changed(C, diff=diff)


def _two_on_one_side(C, rng):
    diff, key = _entry(C, rng)
    side = rng.choice([Side.U, Side.V])
    e = diff[key]
    have = e.u if side is Side.U else e.v
    window = [(1, 0), (2, 0), (3, 0)] if C.ring is RingId.R else [(1, 0), (2, 0), (1, 1), (-1, 1)]
    # repeated mutations of one entry can use up the window
    free = [x for x in window if x not in have]
    for exp in rng.sample(free, min(len(free), 2 - min(len(have), 1))):
        e = e + _side_elem(side, exp)
    diff[key] = e
    return _changed(C, diff=diff)


def _scalar_plus_monomial(C, rng):
    diff, key = _entry(C, rng)
    e = diff[key]
    diff[key] = e + _side_elem(rng.choice([Side.U, Side.V]), (1, 0)) if e.scalar else e + ONE_ELEM
    return _changed(C, diff=diff)


def _mismatched_sides(C, rng):
    diff, key = _entry(C, rng)
    a, b = rng.choice([(1, 0), (2, 0), (1, 1)])
    diff[key] = RingElem(0, frozenset([(a, b)]), frozenset([(a, b + 1)]))
    return _changed(C, diff=diff)


def _extra_arrows(C, rng):
    # homogeneous arrows of the right grading pass every entry check, so
    # only d^2 can fail; a unit arrow next to a unit entry leaves a scalar
    diff = dict(C.diff)
    n = C.n_gens()
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    added = 0
    for i, j in pairs:
        want = (C.gr(i)[0] - C.gr(j)[0] - 1, C.gr(i)[1] - C.gr(j)[1] - 1)
        basis = grading_basis(C.ring, want)
        if not basis:
            continue
        term = ZERO
        for m in rng.sample(basis, rng.randint(1, len(basis))):
            term = term + elem_from_mono(m)
        acc = diff.get((i, j), ZERO) + term
        if acc:
            diff[(i, j)] = acc
        else:
            del diff[(i, j)]
        added += 1
        if added == rng.randint(1, 3):
            break
    return _changed(C, diff=diff)


MUTATIONS = {
    "duplicate-name": _duplicate_name,
    "mixed-parity": _mixed_parity,
    "wrong-grading": _wrong_grading,
    "out-of-range": _out_of_range,
    "stored-zero": _stored_zero,
    "off-region": _off_region,
    "second-row": _second_row,
    "two-on-one-side": _two_on_one_side,
    "scalar-plus-monomial": _scalar_plus_monomial,
    "mismatched-sides": _mismatched_sides,
    "extra-arrows": _extra_arrows,
}


def _same_validation(C):
    got, want = validate(C), reference_validate(C)
    assert got == want
    return got


VIOLATION_KINDS = (
    "not unique",
    "mixed parity",
    "out of range",
    "stored zero",
    "not in ring",
    "inhomogeneous",
    "has grading",
    "d^2",
)


def _kinds(bad):
    """The kinds of violation in one list, plus the d^2 shapes that test order and scalars."""
    kinds = set()
    for msg in bad:
        kinds.update(kind for kind in VIOLATION_KINDS if kind in msg)
        if msg.startswith("d^2") and ") = 1" in msg:
            kinds.add("d^2 scalar")
    if sum(msg.startswith("d^2") for msg in bad) > 1:
        kinds.add("d^2 several")
    return kinds


class TestValidateAgainstReference:
    """``validate`` on the entry form returns what the RingElem one did."""

    def test_random_side_matrices(self):
        rng = random.Random(47)
        for _ in range(1000):
            _same_validation(_random_side_matrix(rng, rng.randint(2, 8)))

    def test_pool_and_products(self, pool):
        realized = [realize(spec) for spec in pool]
        for C in realized + [tensor(A, B) for A in realized for B in realized] + VALID_BASES:
            assert _same_validation(C) == []

    def test_valid_entries_not_classified(self, pool, monkeypatch):
        # a valid entry passes on its test against the arrow's grading
        # alone; only a failing one is classified by elem_ok and elem_grading
        import gridring.complexes

        calls = []
        for name in ("elem_ok", "elem_grading"):
            def spy(*args, _name=name, _original=getattr(gridring.complexes, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(gridring.complexes, name, spy)
        realized = [realize(spec) for spec in pool]
        valid = realized + [tensor(A, B) for A in realized for B in realized] + VALID_BASES
        valid.append(wide_product(random.Random(3))[1])
        for C in valid:
            assert validate(C) == []
        assert calls == []
        bad = validate(MUTATIONS["off-region"](VALID_BASES[0], random.Random(1)))
        assert bad and calls[0] == "elem_ok"

    def test_mutations_cover_every_violation(self):
        rng = random.Random(67)
        seen = set()
        for _ in range(20):
            for C in VALID_BASES:
                for kind in sorted(MUTATIONS):
                    seen |= _kinds(_same_validation(MUTATIONS[kind](C, rng)))
        assert seen >= set(VIOLATION_KINDS) | {"d^2 scalar", "d^2 several"}

    def test_two_on_one_side_repeated(self):
        # five mutations of the only entry put three on one side, which
        # uses up the R window of three monomials
        gens = (("a", (0, 0)), ("b", (1, -1)))
        base = FreeComplex(RingId.R, gens, {(0, 1): _side_elem(Side.U, (1, 0))})
        for seed in range(20):
            rng = random.Random(seed)
            C = base
            for _ in range(5):
                C = _two_on_one_side(C, rng)
            (e,) = C.diff.values()
            assert {(1, 0), (2, 0), (3, 0)} in (e.u, e.v)
            assert "inhomogeneous" in " ".join(_same_validation(C))

    @settings(max_examples=300, deadline=None)
    @given(C=_any_complex())
    def test_arbitrary_complexes_rule_by_rule(self, C):
        # validate tests an entry against its arrow's grading before the
        # entry rule: it lists what the rules give one at a time
        assert validate(C) == rule_by_rule_validate(C)

    def test_entries_at_their_own_grading_rule_by_rule(self):
        # each exponent of a small window on either side, alone, retyped,
        # beside a second one, with the other side or with the scalar, at
        # the grading of its U monomial, where the test against the arrow's
        # grading may pass it; and the scalar alone there
        exps = [(i, j) for i in range(-2, 3) for j in range(-1, 3)]
        for ring in RingId:
            for i, j in exps:
                gens = (("a", (0, 0)), ("b", (2 * i - 1, 2 * j - 1)))
                u, v = frozenset({(i, j)}), frozenset({(j, i)})
                for e in [RingElem(0, u), RingElem(0, frozenset(), v), RingElem(0, u, v),
                          RingElem(0, frozenset({(float(i), j)})),
                          RingElem(0, frozenset(), frozenset({(j, float(i))})),
                          RingElem(0, u | {(i + 1, j)}), RingElem(0, frozenset(), v | {(j, i + 1)}),
                          RingElem(1, u), ONE_ELEM]:
                    C = FreeComplex(ring, gens, {(0, 1): e})
                    assert validate(C) == rule_by_rule_validate(C), (ring, e)

    def test_mutations_rule_by_rule(self):
        rng = random.Random(71)
        for _ in range(10):
            for C in VALID_BASES:
                for kind in sorted(MUTATIONS):
                    M = MUTATIONS[kind](C, rng)
                    assert validate(M) == rule_by_rule_validate(M), kind

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.sampled_from(VALID_BASES),
        kinds=st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=3),
        rnd=st.randoms(use_true_random=False),
    )
    def test_mutated_complexes(self, base, kinds, rnd):
        C = base
        for kind in kinds:
            # extra arrows can cancel every entry, and most mutations pick one
            assume(C.diff)
            C = MUTATIONS[kind](C, rnd)
        _same_validation(C)


class TestQuotientHomology:
    def test_zhou2_side_u(self):
        X = base_change(example_zhou(2))
        q = quotient_homology(X, Side.U)
        assert q.tower_count == 1
        assert q.tower_gradings == (0,)
        assert [(o.exp, s) for o, s in q.torsion] == [((2, 1), 3)]

    def test_trivial(self):
        q = quotient_homology(realize(parse_spec("C(0)")), Side.U)
        assert q.tower_count == 1 and q.torsion == ()

    def test_single_arrow(self):
        C = realize(parse_spec("C(-U[1,0], +V[1,0])"))
        q = quotient_homology(C, Side.U)
        assert q.tower_count == 1
        assert [(o.exp, s) for o, s in q.torsion] == [((1, 0), 1)]

    def test_torsion_shift_matches_grading_sums(self, pool):
        # shift of the k-th torsion generator = gr2 of the arrow target,
        # reproducible from the signed grading sums of the later parameters
        for spec in pool:
            if not spec.params:
                continue
            q = quotient_homology(realize(spec), Side.U)
            n = len(spec.params)
            shifts = []
            for k in range(1, n // 2 + 1):
                b = spec.params[2 * k - 2]
                start = 2 * k - 1 if b.sign < 0 else 2 * k - 2
                total = sum(
                    p.sign + param_grading(p)[1] for p in spec.params[start:]
                )
                shifts.append(-total)
            assert sorted(s for _o, s in q.torsion) == sorted(shifts)


class TestOrders:
    def test_pairs_and_torsion_descend(self, pool):
        # pairs come in column order: their y's key descends, ties in
        # ascending index; torsion is listed in descending <! order with
        # ties in ascending shift
        rng = random.Random(29)
        for _ in range(25):
            C = tensor(realize(rng.choice(pool)), realize(rng.choice(pool)))
            for _ in range(rng.randint(1, 3)):
                gr = (2 * rng.randint(-2, 2), 2 * rng.randint(-2, 2))
                C = direct_sum(C, acyclic_pair(RingId.X, gr))
            R = reduce(scramble(C, rng, n_ops=12))
            for side in (Side.U, Side.V):
                ys = [y for y, _z, _order in paired_basis(R, side).pairs]
                keys = [(R.gr(y)[::-1] if side is Side.U else R.gr(y), -y) for y in ys]
                assert all(ka > kb for ka, kb in zip(keys, keys[1:]))
                torsion = quotient_homology(R, side).torsion
                for (oa, sa), (ob, sb) in zip(torsion, torsion[1:]):
                    ka, kb = lattice_key(oa.exp), lattice_key(ob.exp)
                    assert ka > kb or (ka == kb and sa <= sb)


class TestKnotlike:
    def test_zhou_normalized(self):
        for n in (2, 3):
            ok, shift = is_knotlike(base_change(example_zhou(n)))
            assert ok and shift == (0, 0)

    def test_realized_specs_normalized(self, pool):
        for spec in pool:
            ok, shift = is_knotlike(realize(spec))
            assert ok and shift == (0, 0)

    def test_two_towers(self):
        C = direct_sum(realize(parse_spec("C(0)")), realize(parse_spec("C(0)")))
        ok, shift = is_knotlike(C)
        assert not ok and shift is None

    def test_non_reduced_rejected(self):
        # the column reduction holds the one reducedness check for all its callers
        gens = (("x", (0, 0)), ("y", (-1, -1)))
        C = FreeComplex(RingId.X, gens, {(0, 1): ONE_ELEM})
        calls = [is_knotlike, normalize]
        calls += [lambda C, side=side: quotient_homology(C, side) for side in (Side.U, Side.V)]
        for call in calls:
            with pytest.raises(ValueError, match="^paired_basis needs a reduced complex$"):
                call(C)

    def test_shift_matches_quotient_homology(self, pool):
        # the shift is read off the two paired bases directly; it must agree
        # with the tower gradings of the quotient homologies
        realized = [realize(spec) for spec in pool]
        for C in realized + [tensor(A, B) for A in realized for B in realized]:
            for moved in (C, shift_gradings(C, (3, 1))):
                qu = quotient_homology(moved, Side.U)
                qv = quotient_homology(moved, Side.V)
                want = (qv.tower_gradings[0], qu.tower_gradings[0])
                assert is_knotlike(moved) == (True, want)

    def test_cable_shift(self):
        C = reduce(base_change(example_cable()))
        ok, shift = is_knotlike(C)
        assert ok and shift == (-2, -2)
        N = normalize(C)
        assert is_knotlike(N) == (True, (0, 0))
        assert same_complex(
            N, shift_gradings(C, (-2, -2))
        )
