import itertools
import random
from functools import cmp_to_key

import pytest

from gridring import (
    EQUAL,
    GREATER,
    LESS,
    MONO_ONE,
    RingId,
    Side,
    SignedParam,
    elem_grading,
    elem_mul,
    grading_basis,
    u_mono,
    v_mono,
)
from gridring.ring import (
    _TABLES,
    ONE_ELEM,
    Monomial,
    _exps_ok,
    _grading,
    _side_exp,
    RingElem,
    ZERO,
    elem_from_mono,
    elem_ok,
    in_region,
    lattice_key,
    mono_grading,
    mono_text,
    param_key,
    param_ok,
    param_text,
)
from gridring.standard import StandardSpec

from conftest import (
    reference_elem_grading,
    reference_elem_mul,
    reference_elem_ok,
    reference_grading_basis,
    reference_side_ok,
)

WINDOW = [
    (i, j)
    for i in range(-4, 5)
    for j in range(-4, 5)
    if (i, j) != (0, 0) and abs(i) <= 4 and abs(j) <= 4
]
REGION_WINDOW = [p for p in WINDOW if in_region(p)]


def cmp(x, y):
    """LESS, EQUAL or GREATER as x is less than, equal to or greater than y."""
    return (x > y) - (x < y)


def mono_product(a, b):
    return elem_mul(elem_from_mono(a), elem_from_mono(b))


def divides(a, b):
    """True if a divides b.  Both must be nontrivial monomials of one side."""
    if a.side is not b.side or a.side is Side.ONE:
        raise ValueError("divisibility needs two monomials of the same side")
    return in_region((b.exp[0] - a.exp[0], b.exp[1] - a.exp[1]))


def key_gcd(monos):
    """The <!-greatest member of a family: the gcd, since one side's monomials form a chain."""
    return max(monos, key=lambda m: lattice_key(m.exp))


def oracle_compare(a, b):
    # Divisibility form of the order: within one sign class, x <= y iff the
    # difference x - y lies in the region; negatives sit below positives.
    if a == b:
        return EQUAL
    pa, pb = in_region(a), in_region(b)
    if pa != pb:
        return GREATER if pa else LESS
    return LESS if in_region((a[0] - b[0], a[1] - b[1])) else GREATER


class TestMonoMul:
    def test_same_side_adds_exponents(self):
        assert mono_product(u_mono(1, 0), u_mono(0, 1)) == elem_from_mono(u_mono(1, 1))

    def test_cross_side_vanishes(self):
        assert mono_product(u_mono(1, 0), v_mono(2, 1)) == ZERO

    def test_scalar_is_neutral(self):
        assert mono_product(MONO_ONE, v_mono(3, 2)) == elem_from_mono(v_mono(3, 2))


class TestMonoDivides:
    # ``divides`` is the reference the order's keys are checked against
    def test_powers(self):
        assert divides(u_mono(1, 0), u_mono(3, 0))

    def test_row_step_down(self):
        # (0,1) - (2,0) = (-2,1) is in the region
        assert divides(u_mono(2, 0), u_mono(0, 1))

    def test_row_step_up_fails(self):
        assert not divides(u_mono(0, 1), u_mono(5, 0))

    def test_mixed_sides_rejected(self):
        with pytest.raises(ValueError):
            divides(u_mono(1, 0), v_mono(1, 0))

    def test_window_against_region_arithmetic(self):
        # on the region, a divides b exactly when b <=! a
        for a in REGION_WINDOW:
            for b in REGION_WINDOW:
                got = lattice_key(b) <= lattice_key(a)
                assert got == in_region((b[0] - a[0], b[1] - a[1]))


class TestLatticeCompare:
    def test_u_generator_is_greatest(self):
        assert lattice_key((2, 0)) < lattice_key((1, 0))
        assert all(lattice_key(p) < lattice_key((1, 0)) for p in WINDOW if p != (1, 0))

    def test_inverse_generator_is_least(self):
        assert all(lattice_key((-1, 0)) < lattice_key(p) for p in WINDOW if p != (-1, 0))

    def test_same_row(self):
        # within a row the order descends as i grows (divisibility)
        assert lattice_key((2, 1)) > lattice_key((3, 1))
        assert lattice_key((3, 1)) < lattice_key((2, 1))

    def test_distinct_rows(self):
        assert lattice_key((5, 2)) > lattice_key((7, 3))

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            lattice_key((0, 0))
        with pytest.raises(ValueError):
            param_key(SignedParam(Side.U, 1, (0, 0)))

    def test_total_order_on_window(self):
        # agreement with the position in a sorted list proves that distinct
        # points have distinct keys on the whole window
        ordered = sorted(WINDOW, key=lattice_key)
        pos = {p: k for k, p in enumerate(ordered)}
        for a in WINDOW:
            for b in WINDOW:
                got = cmp(lattice_key(a), lattice_key(b))
                want = cmp(pos[a], pos[b])
                assert got == want

    def test_agrees_with_divisibility_oracle(self):
        for a in WINDOW:
            for b in WINDOW:
                assert cmp(lattice_key(a), lattice_key(b)) == oracle_compare(a, b)

    def test_key_sorts_like_oracle(self):
        assert sorted(WINDOW, key=lattice_key) == sorted(WINDOW, key=cmp_to_key(oracle_compare))


def param_oracle(a, b):
    # literal transcription of the order rules, via divides; None is the
    # neutral 1, with negatives < 1 < positives
    if a is None or b is None:
        sa = 0 if a is None else a.sign
        sb = 0 if b is None else b.sign
        return cmp(sa, sb)
    if a.sign != b.sign:
        return LESS if a.sign < 0 else GREATER
    if a.exp == b.exp:
        return EQUAL
    ma, mb = u_mono(*a.exp), u_mono(*b.exp)
    if a.sign > 0:
        return LESS if divides(mb, ma) else GREATER
    return LESS if divides(ma, mb) else GREATER


class TestParamCompare:
    def test_signs(self):
        pos = SignedParam(Side.U, 1, (1, 0))
        neg = SignedParam(Side.U, -1, (1, 0))
        assert param_key(pos) > param_key(neg)
        assert param_key(neg) < param_key(None)
        assert param_key(pos) > param_key(None)
        assert param_key(None) == param_key(None)

    def test_positive_divisibility(self):
        a = SignedParam(Side.U, 1, (3, 0))
        b = SignedParam(Side.U, 1, (2, 0))
        assert param_key(a) < param_key(b)

    def test_negative_divisibility(self):
        # |-(2,1)| divides |-(3,1)|, so -(2,1) <! -(3,1)
        a = SignedParam(Side.U, -1, (2, 1))
        b = SignedParam(Side.U, -1, (3, 1))
        assert param_key(a) < param_key(b)

    def test_mixed_sides_rejected(self):
        # specs are compared position by position, so a parameter on the
        # wrong side would be compared with one of the other side; such a
        # spec cannot be built
        with pytest.raises(ValueError):
            StandardSpec(RingId.X, (SignedParam(Side.V, 1, (1, 0)),))

    PARAMS = [
        SignedParam(Side.U, s, e)
        for s in (1, -1)
        for e in REGION_WINDOW
        if abs(e[0]) <= 2 and e[1] <= 2
    ] + [None]

    def test_window_against_oracle(self):
        for a in self.PARAMS:
            for b in self.PARAMS:
                assert cmp(param_key(a), param_key(b)) == param_oracle(a, b)

    def test_key_sorts_like_oracle(self):
        want = sorted(self.PARAMS, key=cmp_to_key(param_oracle))
        assert sorted(self.PARAMS, key=param_key) == want
        assert want.index(None) == len(want) // 2

    def test_divisibility_characterization(self):
        # positive params: a <=! b iff b divides a
        params = [SignedParam(Side.U, 1, e) for e in REGION_WINDOW if abs(e[0]) <= 2 and e[1] <= 2]
        for a in params:
            for b in params:
                leq = param_key(a) <= param_key(b)
                assert leq == divides(u_mono(*b.exp), u_mono(*a.exp))


class TestMonoGcd:
    def test_powers(self):
        assert key_gcd([u_mono(2, 0), u_mono(3, 0)]) == u_mono(2, 0)

    def test_cross_row(self):
        assert key_gcd([u_mono(1, 1), u_mono(4, 0)]) == u_mono(4, 0)

    def test_singleton(self):
        assert key_gcd([v_mono(2, 1)]) == v_mono(2, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            key_gcd([])

    def test_gcd_divides_all_and_is_maximal(self):
        rng = random.Random(7)
        small = [p for p in REGION_WINDOW if abs(p[0]) <= 3 and p[1] <= 3]
        for _ in range(100):
            fam = [u_mono(*rng.choice(small)) for _ in range(rng.randint(1, 4))]
            g = key_gcd(fam)
            assert all(divides(g, m) for m in fam)
            for d in small:
                if all(divides(u_mono(*d), m) for m in fam):
                    assert divides(u_mono(*d), g)


class TestElemMul:
    def test_repr(self):
        # error messages print entries this way: scalar, then U then V, each sorted
        e = RingElem(1, frozenset({(2, 0), (-1, 1)}), frozenset({(1, 1)}))
        assert repr(e) == "1+U[-1,1]+U[2,0]+V[1,1]"
        assert repr(elem_from_mono(v_mono(3, 0))) == "V[3,0]"
        assert repr(ZERO) == "0"

    def test_char2_square(self):
        e = ONE_ELEM + elem_from_mono(u_mono(1, 0))
        assert elem_mul(e, e) == ONE_ELEM + elem_from_mono(u_mono(2, 0))

    def test_cross_products_vanish(self):
        a = elem_from_mono(u_mono(1, 0)) + elem_from_mono(v_mono(1, 0))
        b = elem_from_mono(v_mono(2, 0)) + elem_from_mono(u_mono(2, 0))
        assert elem_mul(a, b) == elem_from_mono(u_mono(3, 0)) + elem_from_mono(v_mono(3, 0))

    def test_zero_absorbs(self):
        assert elem_mul(ZERO, ONE_ELEM + elem_from_mono(u_mono(1, 1))) == ZERO

    def test_associative_commutative(self):
        rng = random.Random(11)
        small = [p for p in REGION_WINDOW if abs(p[0]) <= 2 and p[1] <= 2]

        def rand_elem():
            e = RingElem(scalar=rng.randint(0, 1))
            for _ in range(rng.randint(0, 2)):
                e = e + elem_from_mono(u_mono(*rng.choice(small)))
            for _ in range(rng.randint(0, 2)):
                e = e + elem_from_mono(v_mono(*rng.choice(small)))
            return e

        for _ in range(60):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert elem_mul(a, b) == elem_mul(b, a)
            assert elem_mul(elem_mul(a, b), c) == elem_mul(a, elem_mul(b, c))
            assert elem_mul(a, ONE_ELEM) == a

    def test_ideal_product_is_zero(self):
        for a in REGION_WINDOW[:10]:
            for b in REGION_WINDOW[:10]:
                assert elem_mul(elem_from_mono(u_mono(*a)), elem_from_mono(v_mono(*b))) == ZERO

    def test_grading_multiplicative(self):
        for a in REGION_WINDOW[:12]:
            for b in REGION_WINDOW[:12]:
                p = mono_product(u_mono(*a), u_mono(*b))
                ga = mono_grading(u_mono(*a))
                gb = mono_grading(u_mono(*b))
                assert elem_grading(p) == (ga[0] + gb[0], ga[1] + gb[1])


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


class TestExponentKernels:
    """The exponent-reading ``elem_ok``, ``elem_grading`` and ``elem_mul`` against references."""

    def test_entry_tests_on_window(self):
        # every element with at most one monomial per part on the window
        # (origin included), plus some two-monomial parts, over both rings
        grid = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]
        rng = random.Random(5)
        parts = [frozenset()] + [frozenset([x]) for x in grid]
        parts += [frozenset(rng.sample(grid, 2)) for _ in range(10)]
        n = 0
        for scalar in (0, 1):
            for u in parts:
                for v in parts:
                    e = RingElem(scalar, u, v)
                    for ring in RingId:
                        assert elem_ok(ring, e) == reference_elem_ok(ring, e), (ring, e)
                    assert _outcome(elem_grading, e) == _outcome(reference_elem_grading, e), e
                    n += 1
        assert n == 2 * len(parts) ** 2

    def test_exps_ok_is_the_written_out_rule(self):
        # the one membership rule against reference_side_ok on every int
        # pair of the window, alone and through each of its callers
        grid = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]
        for ring in RingId:
            for exp in grid:
                want = reference_side_ok(ring, exp)
                assert _exps_ok(ring, [exp]) is want, (ring, exp)
                assert _exps_ok(ring, [u_mono(*exp).exp]) is want
                assert elem_ok(ring, RingElem(0, frozenset(), frozenset([exp]))) is want
                assert param_ok(ring, SignedParam(Side.V, -1, exp)) is want
            assert _exps_ok(ring, grid) is False and _exps_ok(ring, []) is True
        assert [in_region(exp) for exp in grid] == [
            exp == (0, 0) or reference_side_ok(RingId.X, exp) for exp in grid
        ]

    def test_exps_ok_on_malformed_exponents(self):
        # False, never an exception, for anything but a pair of ints; a
        # bool counts as its int
        bad = [(1.0, 0), (1, 0.0), (1.5, 1), (0, 1.0), "ab", "a", (1, 0, 0), (1,), (), 5,
               None, ("1", 0), (1, None), frozenset([1, 2]), (float("nan"), 1)]
        for ring in RingId:
            for exp in bad:
                for exps in ([exp], [(1, 0), exp]):
                    assert _exps_ok(ring, exps) is False, (ring, exps)
                assert _exps_ok(ring, [Monomial(Side.U, exp).exp]) is False
                assert param_ok(ring, SignedParam(Side.U, 1, exp)) is False
            for exps in (5, None, 1.5, [5], ["ab"]):
                assert _exps_ok(ring, exps) is False
            assert _exps_ok(ring, [(True, 0), (True, False), (2, False)]) is True
            assert _exps_ok(ring, [(False, False)]) is _exps_ok(ring, [(-1, False)]) is False
            assert _exps_ok(ring, "ab") is False and _exps_ok(ring, {(1, 0): 0}) is True
        assert _exps_ok(RingId.X, [(True, True), (-3, True)]) is True
        assert _exps_ok(RingId.R, [(True, True)]) is False
        assert [in_region(exp) for exp in [(0.5, 0), (1.0, 0), "ab", (0, 0, 0), 5]] == [False] * 5
        assert in_region((False, False)) and in_region((0, True))

    def test_mul_against_set_product(self):
        rng = random.Random(13)
        small = [p for p in WINDOW if abs(p[0]) <= 2 and abs(p[1]) <= 2]

        def side():
            return frozenset(rng.sample(small, rng.choice((0, 0, 1, 1, 2))))

        fixed = [
            ZERO,
            ONE_ELEM,
            ONE_ELEM + elem_from_mono(u_mono(1, 0)),
            ONE_ELEM + elem_from_mono(v_mono(2, 1)),
            elem_from_mono(u_mono(1, 1)),
            elem_from_mono(v_mono(1, 1)),
        ]
        elems = fixed + [RingElem(rng.randint(0, 1), side(), side()) for _ in range(60)]
        for a in elems:
            for b in elems:
                assert elem_mul(a, b) == reference_elem_mul(a, b), (a, b)
        for _ in range(2000):
            a, b = rng.choice(elems), RingElem(rng.randint(0, 1), side(), side())
            assert elem_mul(a, b) == reference_elem_mul(a, b), (a, b)
            assert elem_mul(b, a) == reference_elem_mul(b, a), (b, a)

    def test_unit_returns_other_factor(self):
        e = ONE_ELEM + elem_from_mono(u_mono(2, 1))
        assert elem_mul(ONE_ELEM, e) is e
        assert elem_mul(e, ONE_ELEM) is e


class TestGradingBasis:
    def test_two_dimensional(self):
        assert grading_basis(RingId.X, (-2, -2)) == [u_mono(1, 1), v_mono(1, 1)]

    def test_scalar(self):
        assert grading_basis(RingId.X, (0, 0)) == [MONO_ONE]

    def test_minus_two_zero(self):
        # both U_B and the V-side element W_{T,0} sit in grading (-2, 0)
        assert grading_basis(RingId.X, (-2, 0)) == [u_mono(1, 0), v_mono(0, 1)]

    def test_odd_gradings_empty(self):
        assert grading_basis(RingId.X, (-1, -1)) == []

    def test_ring_r_at_most_one(self):
        for g1 in range(-8, 3):
            for g2 in range(-8, 3):
                basis = grading_basis(RingId.R, (g1, g2))
                if (g1, g2) != (0, 0):
                    assert len(basis) <= 1
                for m in basis:
                    assert m is MONO_ONE or (m.side is not Side.ONE and _exps_ok(RingId.R, [m.exp]))


class TestGradingTable:
    """Each entry of ``ring._TABLES`` against ``reference_grading_basis``."""

    # odd, mixed-parity and out-of-region gradings included
    GRADINGS = [(g1, g2) for g1 in range(-9, 8) for g2 in range(-9, 8)]

    def test_entries_match_reference(self):
        for ring in RingId:
            for gr in self.GRADINGS:
                basis = reference_grading_basis(ring, gr)
                n, u, v, elems = _TABLES[ring][gr]
                assert n == len(basis), (ring, gr)
                assert u == sum(1 << t for t, m in enumerate(basis) if m.side is not Side.V)
                assert v == sum(1 << t for t, m in enumerate(basis) if m.side is not Side.U)
                assert len(elems) == 1 << n
                for bits in range(1 << n):
                    want = ZERO
                    for t, m in enumerate(basis):
                        if (bits >> t) & 1:
                            want = want + elem_from_mono(m)
                    assert elems[bits] == want, (ring, gr, bits)
                assert grading_basis(ring, gr) == basis, (ring, gr)

    def test_elem_grading_agrees_with_mono_grading(self):
        # elem_grading reads each exponent through ring._grading, the rule
        # mono_grading and the tables' basis use
        for ring in RingId:
            for gr in self.GRADINGS:
                for m in grading_basis(ring, gr):
                    assert elem_grading(elem_from_mono(m)) == mono_grading(m) == gr, (ring, m)
                assert all(elem_grading(e) == gr for e in _TABLES[ring][gr][3][1:]), (ring, gr)

    def test_side_exp_inverts_grading(self):
        # on the ring's exponents, and None off them and on odd gradings
        for ring in RingId:
            for side in (Side.U, Side.V):
                for i in range(-4, 5):
                    for j in range(-4, 5):
                        want = (i, j) if _exps_ok(ring, [(i, j)]) else None
                        assert _side_exp(ring, side, _grading(side, (i, j))) == want
                        assert _side_exp(ring, side, (2 * i + 1, 2 * j)) is None
                        assert _side_exp(ring, side, (2 * i, 2 * j - 1)) is None

    def test_grading_basis_is_a_fresh_list(self):
        got = grading_basis(RingId.X, (-2, -2))
        got.append(MONO_ONE)
        assert grading_basis(RingId.X, (-2, -2)) == [u_mono(1, 1), v_mono(1, 1)]


class TestRecords:
    """The records are immutable ``__slots__`` classes with value equality."""

    def _records(self):
        p = SignedParam(Side.U, -1, (2, 1))
        e = RingElem(1, frozenset([(1, 0)]), frozenset([(2, 1)]))
        spec = StandardSpec(RingId.X, (p, SignedParam(Side.V, 1, (2, 1))))
        return [(p, "sign", 1), (e, "scalar", 0), (e, "u", frozenset()), (spec, "params", ())]

    def test_assigning_a_field_raises(self):
        for record, name, value in self._records():
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.other = value
            assert getattr(record, name) == before

    def test_value_equality_and_hash(self):
        for (record, _n, _v), (twin, _m, _w) in zip(self._records(), self._records()):
            assert twin is not record and twin == record and not twin != record
            assert hash(twin) == hash(record)
            assert not hasattr(record, "__dict__")
        # records of different classes are never equal, even with equal fields
        assert u_mono(1, 0) != SignedParam(Side.U, 1, (1, 0))
        assert RingElem() == ZERO and RingElem(scalar=1) == ONE_ELEM
        assert RingElem(0, frozenset([(1, 0)])) != RingElem(0, frozenset(), frozenset([(1, 0)]))
        assert {u_mono(1, 0), u_mono(1, 0), v_mono(1, 0)} == {u_mono(1, 0), v_mono(1, 0)}

    def test_repr_names_fields(self):
        from gridring.localeq import ExtantSet

        assert repr(ExtantSet(frozenset(), frozenset([(1, 0)]))) == (
            "ExtantSet(u_coeffs=frozenset(), v_coeffs=frozenset({(1, 0)}))"
        )
        assert repr(SignedParam(Side.V, 1, (2, 1))) == "+V[2,1]"
        # mono_text and param_text share one exponent formatter: an int pair
        # (a bool is its int) prints as [i,j], any other exponent as given
        for i in range(-4, 5):
            for j in range(-4, 5):
                assert mono_text(u_mono(i, j)) == "U[%d,%d]" % (i, j)
                assert param_text(SignedParam(Side.V, -1, (i, j))) == "-V[%d,%d]" % (i, j)
        assert mono_text(MONO_ONE) == "1" and mono_text(u_mono(True, False)) == "U[1,0]"
        assert mono_text(Monomial(Side.U, (1, 0, 0))) == "U[(1, 0, 0)]"
        assert mono_text(v_mono(1.5, 1)) == "V[(1.5, 1)]"
        assert param_text(SignedParam(Side.U, 1, (1.0, 0))) == "+U[(1.0, 0)]"
        assert param_text(SignedParam(Side.U, -1, "ab")) == "-U['ab']"

    def test_param_text_prints_a_sign_that_is_not_an_int_one_as_given(self):
        # a sign equal to 1 but not the int must not print as a valid parameter
        assert param_text(SignedParam(Side.U, True, (1, 0))) == "+U[1,0]"
        assert param_text(SignedParam(Side.U, 1.0, (1, 0))) == "(1.0)U[1,0]"
        assert param_text(SignedParam(Side.V, -1.0, (2, 1))) == "(-1.0)V[2,1]"
        assert param_text(SignedParam(Side.U, 2, (1, 0))) == "(2)U[1,0]"
        assert param_text(SignedParam(Side.U, "+", (1.5, 0))) == "('+')U[(1.5, 0)]"

    def test_complexes_unhashable_and_identity_records(self):
        from gridring.complexes import FreeComplex, paired_basis
        from gridring.standard import realize

        C = realize(self._records()[-1][0])
        with pytest.raises(TypeError):
            hash(C)
        assert FreeComplex(C.ring, C.generators, dict(C.diff)) == C
        empty = FreeComplex(RingId.X, (), {})
        assert empty.diff == {} and empty.diff is not FreeComplex(RingId.X, (), {}).diff
        # a paired basis, like a certificate, is equal only to itself
        a, b = paired_basis(C, Side.U), paired_basis(C, Side.U)
        assert a == a and a != b and len({a, b}) == 2


def _record_classes():
    """Every concrete record class, found through ``_Record.__subclasses__()``."""
    import gridring.cli  # noqa: F401 -- imports every module that defines a record
    from gridring.ring import _Record

    found, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return {cls for cls in found if cls.__dict__.get("__slots__")}


def _cold_records():
    """One of each record that builds through the shared constructor."""
    from gridring.complexes import FUVComplex, FreeComplex, PairedBasis, QuotientHomology
    from gridring.invariants import PhiTable, report
    from gridring.localeq import ExtantSet, LocalMapCert
    from gridring.standard import ShiftMap, make_spec

    p = SignedParam(Side.U, 1, (1, 0))
    rep = report(make_spec(RingId.X, [p, SignedParam(Side.V, -1, (1, 0))]))
    return [
        FUVComplex((("a", (0, 0)), ("b", (-1, -1))), {(0, 1): frozenset([(0, 0)])}),
        FreeComplex(RingId.X, (("a", (0, 0)), ("b", (-1, -1))), {(0, 1): ONE_ELEM}),
        PairedBasis(Side.U, (1, 2), ((0, 1, u_mono(1, 0)),), (2,)),
        QuotientHomology(Side.V, 1, (0,), ((v_mono(1, 0), -1),)),
        rep.phi,
        rep,
        LocalMapCert("C(0)", "complex", 0, {(0, 0): ONE_ELEM}, "full"),
        ExtantSet(frozenset([(1, 0)]), frozenset()),
        ShiftMap(Side.U, p, u_mono(0, 1)),
    ]


class TestSharedConstructor:
    """Records without their own ``__init__`` take their fields by position or keyword."""

    OWN_INIT = {"RingElem", "Monomial", "SignedParam", "StandardSpec"}

    def test_records_that_write_their_own_init(self):
        classes = _record_classes()
        assert len(classes) == 13
        own = {cls.__name__ for cls in classes if "__init__" in cls.__dict__}
        assert own == self.OWN_INIT
        cold = {type(rec) for rec in _cold_records()}
        assert cold == {cls for cls in classes if cls.__name__ not in self.OWN_INIT}

    def test_keyword_equals_positional(self):
        # SignedParam's own __init__ takes its fields by the same names
        for rec in _cold_records() + [SignedParam(Side.U, 1, (1, 0))]:
            cls, names = type(rec), rec.__slots__
            values = [getattr(rec, name) for name in names]
            by_position = cls(*values)
            by_keyword = cls(**dict(zip(names, values)))
            mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
            for built in (by_position, by_keyword, mixed):
                assert type(built) is cls
                assert [getattr(built, name) for name in names] == values
                assert repr(built) == repr(rec)
                # field equality, except for the two records equal only to themselves
                assert (built == rec) is (cls.__name__ not in ("PairedBasis", "LocalMapCert"))

    def test_bad_arguments_raise_type_error(self):
        from gridring.complexes import FUVComplex, FreeComplex
        from gridring.localeq import ExtantSet
        from gridring.standard import ShiftMap

        u, v = frozenset([(1, 0)]), frozenset()
        cases = [
            (lambda: ExtantSet(u, v, v), r"ExtantSet takes 2 fields \('u_coeffs', 'v_coeffs'\), not 3"),
            (lambda: ExtantSet(u), r"ExtantSet is missing field 'v_coeffs'"),
            (lambda: ExtantSet(v_coeffs=v), r"ExtantSet is missing field 'u_coeffs'"),
            (lambda: ExtantSet(u, v, u_coeffs=u), r"ExtantSet repeats field 'u_coeffs'"),
            (lambda: ExtantSet(u, v, w_coeffs=u), r"ExtantSet has no field 'w_coeffs'"),
            (lambda: ShiftMap(Side.U, None, mult=u_mono(1, 0), side=Side.U), r"ShiftMap repeats field 'side'"),
            # neither complex type has a default differential
            (lambda: FUVComplex((("a", (0, 0)),)), r"FUVComplex is missing field 'diff'"),
            (lambda: FreeComplex(RingId.X, (("a", (0, 0)),)), r"FreeComplex is missing field 'diff'"),
        ]
        for build, message in cases:
            with pytest.raises(TypeError, match="^%s$" % message):
                build()


class TestBrief:
    """``_brief`` never raises: an int past the digit limit prints as its digit count."""

    pytestmark = pytest.mark.usefixtures("int_digit_limit")

    def test_digit_counts_at_powers_of_ten(self):
        from gridring.ring import _brief

        for digits in (4301, 4302, 5000, 9999, 30103, 30104):
            for n in (10 ** (digits - 1), 10**digits - 1, 10 ** (digits - 1) + 7):
                assert _brief(n) == "<%d digits>" % digits
                assert _brief(-n) == "-<%d digits>" % digits

    def test_containers_and_records(self):
        from gridring.ring import _brief

        big = 10**5000
        assert _brief((big + 1, 0)) == "(<5001 digits>, 0)"
        assert _brief([1, -big]) == "list(1, -<5001 digits>)"
        assert _brief(SignedParam(Side.U, 1, (big, 0))) == "SignedParam(<Side.U: 'U'>, 1, (<5001 digits>, 0))"
        e = RingElem(0, frozenset([(big, -1)]))
        assert _brief(e) == "RingElem(0, frozenset((<5001 digits>, -1)), frozenset())"
        # values within the limit print as repr does, cut to 80 characters
        assert _brief((1, 0)) == "(1, 0)" and _brief(SignedParam(Side.V, 1, (2, 1))) == "+V[2,1]"
        assert _brief(tuple(range(100))) == repr(tuple(range(100)))[:77] + "..."
        assert len(_brief([big] * 50)) == 80

    def test_reprs_that_raise_type_error(self):
        from gridring.ring import _brief

        # a side part that is not a set of exponents: RingElem's repr sorts it
        assert _brief(RingElem(0, 5)) == "RingElem(0, 5, frozenset())"
        mixed = _brief(RingElem(1, frozenset(["ab", (1, 0)])))
        assert mixed.startswith("RingElem(1, frozenset({") and mixed.endswith("}), frozenset())")
        # a malformed exponent prints as given
        assert _brief(SignedParam(Side.U, 1, "ab")) == "+U['ab']"
        assert _brief(RingElem(0, frozenset(["ab"]))) == "U['ab']"

        class Opaque:
            def __repr__(self):
                raise TypeError("no repr")

        name = Opaque.__qualname__
        assert _brief(Opaque()) == "<%s>" % name
        assert _brief([1, Opaque()]) == "list(1, <%s>)" % name
