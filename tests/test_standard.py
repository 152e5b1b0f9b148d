import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gridring import (
    EQUAL,
    FreeComplex,
    GREATER,
    LESS,
    RingId,
    Side,
    SignedParam,
    dual,
    dual_spec,
    format_spec,
    is_knotlike,
    is_reduced,
    is_symmetric,
    lex_compare,
    parse_spec,
    promote_spec,
    read_params,
    realize,
    reverse_spec,
    shift_spec,
    validate,
)
from gridring import io_json
from gridring.ring import _brief, elem_from_mono, param_text, u_mono, v_mono
from gridring.standard import ShiftMap, StandardSpec, _expected_side, _gradings, make_spec

from conftest import param_grading, random_spec, same_complex


def reference_is_symmetric(spec):
    """The parameter loop ``is_symmetric`` ran before it compared with ``reverse_spec``."""
    params = spec.params
    n = len(params)
    for k in range(n):
        p, q = params[k], params[n - 1 - k]
        if p.exp != q.exp or p.sign != -q.sign:
            return False
    return True


class TestRealize:
    def test_zhou_spec_gradings(self):
        C = realize(parse_spec("C(-U[2,1], +V[2,1])"))
        assert [gr for _nm, gr in C.generators] == [(0, 2), (3, 3), (2, 0)]

    def test_trivial(self):
        C = realize(parse_spec("C(0)"))
        assert C.generators == (("x0", (0, 0)),) and C.diff == {}

    def test_two_step(self):
        C = realize(parse_spec("C(+U[1,0], -V[1,0])"))
        assert C.diff == {
            (1, 0): elem_from_mono(u_mono(1, 0)),
            (1, 2): elem_from_mono(v_mono(1, 0)),
        }
        assert [gr for _nm, gr in C.generators] == [(0, -2), (-1, -1), (-2, 0)]

    def test_alternation_enforced(self):
        with pytest.raises(ValueError):
            make_spec(RingId.X, [SignedParam(Side.V, 1, (1, 0)), SignedParam(Side.U, 1, (1, 0))])

    def test_semistandard_normalization(self):
        # an odd-length prefix is a StandardSpec too; realize keeps x_0 at the origin
        spec = make_spec(RingId.X, [SignedParam(Side.U, -1, (2, 1))])
        assert spec == StandardSpec(RingId.X, spec.params)
        C = realize(spec)
        assert C.gr(0) == (0, 0)
        assert C.gr(1) == (3, 1)

    def test_always_valid_reduced_knotlike(self):
        rng = random.Random(29)
        for _ in range(25):
            spec = random_spec(rng, max_pairs=2)
            C = realize(spec)
            assert validate(C) == []
            assert is_reduced(C)
            assert is_knotlike(C) == (True, (0, 0))

    def test_grading_identities(self):
        # gr1(x_n) and -gr2(x_0) both equal the total signed grading sums
        rng = random.Random(31)
        for _ in range(25):
            spec = random_spec(rng, max_pairs=2)
            C = realize(spec)
            n = C.n_gens() - 1
            s = sum(p.sign for p in spec.params)
            g1 = sum(param_grading(p)[0] for p in spec.params)
            g2 = sum(param_grading(p)[1] for p in spec.params)
            assert C.gr(n)[0] == s + g1
            assert -C.gr(0)[1] == s + g2

    def test_round_trip_read_params(self):
        rng = random.Random(37)
        for _ in range(25):
            spec = random_spec(rng, max_pairs=2)
            assert read_params(realize(spec)) == spec

    def test_read_params_rejects_other_complexes(self):
        C = realize(parse_spec("C(-U[1,0], +V[1,0], -U[1,0], +V[1,0])"))
        extra = FreeComplex(C.ring, C.generators, {**C.diff, (0, 3): elem_from_mono(u_mono(1, 0))})
        with pytest.raises(ValueError, match="arrows outside the zig-zag"):
            read_params(extra)
        with pytest.raises(ValueError, match="no generators"):
            read_params(FreeComplex(RingId.X, (), {}))


def _builders(ring, params):
    """The ways to build a spec: directly, by make_spec, by parse_spec and from a document.

    A document gives each parameter the side of its position, so it builds
    only parameters that lie there; ``document_to_spec`` raises a
    ``DocumentError`` (a ``ValueError``) with the spec's message.
    """
    params = tuple(params)
    text = "C(%s)" % ", ".join(param_text(p) for p in params)
    builders = [
        lambda: StandardSpec(ring, params),
        lambda: make_spec(ring, params),
        lambda: parse_spec(text, ring),
    ]
    if all(p.side is _expected_side(k) for k, p in enumerate(params, start=1)):
        doc = {"ring": ring.value, "params": [{"sign": p.sign, "e": list(p.exp)} for p in params]}
        builders.append(lambda: io_json.document_to_spec(doc))
    return builders


def _rejected(ring, params, message):
    for build in _builders(ring, params):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            build()


class TestConstruction:
    VALID = parse_spec("C(-U[1,0], +V[1,0], -U[2,1], +V[1,1])").params

    def test_valid_spec_builds_every_way(self):
        for build in _builders(RingId.X, self.VALID):
            assert build() == parse_spec("C(-U[1,0], +V[1,0], -U[2,1], +V[1,1])")

    def test_wrong_side_at_each_position(self):
        for k, p in enumerate(self.VALID, start=1):
            other = Side.V if p.side is Side.U else Side.U
            params = list(self.VALID)
            params[k - 1] = SignedParam(other, p.sign, p.exp)
            _rejected(
                RingId.X, params, "parameter %d must lie on side %s" % (k, p.side.value)
            )

    def test_exponent_outside_region_over_x(self):
        bad = SignedParam(Side.V, 1, (-1, 0))
        params = [self.VALID[0], bad]
        _rejected(RingId.X, params, "parameter 2 is invalid in ring X: %r" % (bad,))

    def test_exponent_not_a_pair_of_ints(self):
        # a float equal to an int, a 3-tuple or a str is not an exponent: a
        # ValueError, never a TypeError or a spec printed as another one
        for exp in [(1.5, 0), (1.0, 0), (1, 0, 0), "ab"]:
            bad = SignedParam(Side.U, 1, exp)
            message = "parameter 1 is invalid in ring X: %r" % (bad,)
            for build in (StandardSpec, make_spec):
                with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                    build(RingId.X, (bad, SignedParam(Side.V, -1, (1, 0))))

    @pytest.mark.parametrize("sign", [1.0, -1.0, 2, "+"])
    def test_sign_not_an_int_one(self, sign):
        # a sign obeys the exponents' int rule: 1.0 equals 1 but is no sign
        bad = SignedParam(Side.U, sign, (1, 0))
        message = "parameter 1 is invalid in ring X: %s" % _brief(bad)
        for build in (StandardSpec, make_spec):
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                build(RingId.X, (bad, SignedParam(Side.V, -1, (1, 0))))

    def test_bool_sign_and_exponent_are_their_ints(self):
        # a bool is the int it subclasses, and the document holds plain ints
        spec = make_spec(
            RingId.X, [SignedParam(Side.U, True, (True, 0)), SignedParam(Side.V, -1, (2, False))]
        )
        doc = io_json.spec_to_document(spec)
        assert io_json.dump_json(doc) == io_json.dump_json(
            {"ring": "X", "params": [{"sign": 1, "e": [1, 0]}, {"sign": -1, "e": [2, 0]}]}
        )
        assert io_json.document_to_spec(doc) == spec
        assert format_spec(spec) == "C(+U[1,0], -V[2,0])"

    def test_nonzero_j_over_r(self):
        bad = SignedParam(Side.U, -1, (1, 1))
        params = [bad, SignedParam(Side.V, 1, (1, 0))]
        _rejected(RingId.R, params, "parameter 1 is invalid in ring R: %r" % (bad,))

    @pytest.mark.parametrize("ring", ["X", "R", None, 0])
    def test_ring_not_a_ring_id(self, ring):
        # a str ring would build a spec unequal to the same literal over the
        # RingId, checked by X's rules whatever it names
        message = "spec ring is %s, not a RingId" % _brief(ring)
        builds = [lambda: StandardSpec(ring, ()), lambda: make_spec(ring, []),
                  lambda: parse_spec("C(-U[1,0], +V[1,0])", ring), lambda: parse_spec("C(0)", ring)]
        if ring == "R":
            builds.append(lambda: make_spec(ring, parse_spec("C(-U[1,1], +V[1,0])").params))
        for build in builds:
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                build()

    def test_parameter_not_a_signed_param(self):
        # the first parameter that is no SignedParam is named, never read
        # for a side
        with pytest.raises(ValueError, match="^parameter 1 is 1, not a SignedParam$"):
            make_spec(RingId.X, [1])
        for bad in [None, "-V[1,0]", (Side.V, -1, (1, 0))]:
            message = "parameter 2 is %s, not a SignedParam" % _brief(bad)
            for build in (StandardSpec, make_spec):
                with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                    build(RingId.X, (self.VALID[0], bad))

    def test_params_not_a_tuple(self):
        # a record hashes by its fields, so a list of params would not hash
        params = list(self.VALID)
        with pytest.raises(ValueError, match=r"^spec params are \[.*, not a tuple$"):
            StandardSpec(RingId.X, params)
        assert hash(make_spec(RingId.X, params)) == hash(StandardSpec(RingId.X, self.VALID))

    def test_first_failing_position_and_side_check_first(self):
        # the side is checked before the exponent at each position, and the
        # earliest failing position is the one reported
        _rejected(RingId.X, [SignedParam(Side.V, 1, (-1, 0))], "parameter 1 must lie on side U")
        bad = SignedParam(Side.U, 1, (-1, 0))
        params = [bad, SignedParam(Side.U, 1, (1, 0))]
        _rejected(RingId.X, params, "parameter 1 is invalid in ring X: %r" % (bad,))


class TestGradings:
    def test_match_realize(self, pool):
        rng = random.Random(53)
        specs = list(pool)
        for ring in (RingId.X, RingId.R):
            for _ in range(20):
                specs.append(random_spec(rng, ring, max_pairs=3))
        # every spec's prefixes, so both parities appear
        specs += [make_spec(s.ring, s.params[:k]) for s in specs for k in range(len(s.params))]
        assert any(len(s.params) % 2 for s in specs)
        for spec in specs:
            C = realize(spec)
            assert _gradings(spec) == [C.gr(i) for i in range(C.n_gens())]


class TestLexCompare:
    def test_negative_first_below_trivial(self):
        assert lex_compare(parse_spec("C(-U[1,0], +V[1,0])"), parse_spec("C(0)")) == LESS

    def test_sign_decides_first_index(self):
        a = parse_spec("C(+U[1,0], -V[1,0])")
        b = parse_spec("C(-U[1,0], +V[1,0])")
        assert lex_compare(a, b) == GREATER

    def test_zhou_chain(self):
        # recomputed with the local-map oracle: the surgery family is increasing
        a = parse_spec("C(-U[2,1], +V[2,1])")
        b = parse_spec("C(-U[3,2], +V[3,2])")
        assert lex_compare(a, b) == LESS

    def test_total_order_axioms(self):
        rng = random.Random(41)
        specs = [random_spec(rng, max_pairs=2) for _ in range(20)]
        for a in specs:
            for b in specs:
                c = lex_compare(a, b)
                assert lex_compare(b, a) == -c
                if c == EQUAL:
                    assert a.params == b.params
                for t in specs:
                    if lex_compare(a, b) != GREATER and lex_compare(b, t) != GREATER:
                        assert lex_compare(a, t) != GREATER


class TestDualReverseSymmetric:
    def test_dual_flips_signs(self):
        assert dual_spec(parse_spec("C(-U[2,1], +V[2,1])")) == parse_spec("C(+U[2,1], -V[2,1])")
        assert dual_spec(parse_spec("C(0)")) == parse_spec("C(0)")

    def test_dual_involution(self, pool):
        for spec in pool:
            assert dual_spec(dual_spec(spec)) == spec

    def test_dual_realize_compatible(self, pool):
        for spec in pool:
            assert same_complex(dual(realize(spec)), realize(dual_spec(spec)))

    def test_reverse_cable_fixed(self):
        spec = parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])")
        assert reverse_spec(spec) == spec

    def test_reverse_involution(self, pool):
        for spec in pool:
            assert reverse_spec(reverse_spec(spec)) == spec
        assert reverse_spec(parse_spec("C(0)")) == parse_spec("C(0)")

    def test_symmetric_examples(self):
        assert is_symmetric(parse_spec("C(-U[2,1], +V[2,1])"))
        assert is_symmetric(parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])"))
        assert not is_symmetric(parse_spec("C(-U[1,0], +V[2,0])"))

    def test_symmetric_matches_reference(self, pool):
        # random specs of every length over both rings, and mirrored ones,
        # which are symmetric by construction
        rng = random.Random(29)
        specs = list(pool)
        for _ in range(200):
            ring = rng.choice([RingId.X, RingId.R])
            s = random_spec(rng, ring, max_pairs=3)
            specs.append(make_spec(ring, s.params[: rng.randint(0, len(s.params))]))
            half = s.params[: len(s.params) // 2]
            mirror = [
                SignedParam(Side.V if k % 2 == 0 else Side.U, -p.sign, p.exp)
                for k, p in enumerate(half)
            ]
            specs.append(make_spec(ring, list(half) + mirror[::-1]))
        assert any(len(spec.params) % 2 for spec in specs)
        assert sum(map(reference_is_symmetric, specs)) >= 200
        for spec in specs:
            assert is_symmetric(spec) == reference_is_symmetric(spec)

    def test_symmetry_dual_invariant(self, pool):
        for spec in pool:
            assert is_symmetric(spec) == is_symmetric(dual_spec(spec))


class TestShift:
    def test_identity_below_nothing(self):
        # a negative threshold fixes every positive parameter
        m = ShiftMap(Side.U, SignedParam(Side.U, -1, (1, 0)), u_mono(0, 1))
        spec = parse_spec("C(-U[1,0], +V[1,0])")
        assert shift_spec(spec, m_u=m) == spec

    def test_multiplies_below_threshold(self):
        m = ShiftMap(Side.U, SignedParam(Side.U, 1, (1, 0)), u_mono(0, 1))
        spec = parse_spec("C(-U[1,0], +V[1,0])")
        assert shift_spec(spec, m_u=m) == parse_spec("C(-U[1,1], +V[1,0])")

    def test_wrong_side_rejected(self):
        m = ShiftMap(Side.V, SignedParam(Side.V, 1, (1, 0)), v_mono(0, 1))
        with pytest.raises(ValueError):
            m.apply(SignedParam(Side.U, 1, (1, 0)))

    def test_threshold_on_other_side_rejected(self):
        m = ShiftMap(Side.U, SignedParam(Side.V, 1, (1, 0)), u_mono(0, 1))
        with pytest.raises(ValueError, match="threshold lies on the wrong side"):
            m.apply(SignedParam(Side.U, 1, (1, 0)))

    def test_spec_with_parameter_on_wrong_side_rejected(self):
        # the spec is rejected when it is built, before any shift can apply
        with pytest.raises(ValueError, match="must lie on side U"):
            StandardSpec(RingId.X, (SignedParam(Side.V, 1, (1, 0)),))


class TestPromoteAndText:
    def test_promote(self):
        spec = make_spec(
            RingId.R, [SignedParam(Side.U, -1, (2, 0)), SignedParam(Side.V, 1, (2, 0))]
        )
        up = promote_spec(spec)
        assert up.ring is RingId.X and up.params == spec.params

    def test_promote_rejects_x(self):
        with pytest.raises(ValueError):
            promote_spec(parse_spec("C(-U[1,1], +V[1,1])"))

    def test_text_round_trip(self, pool):
        for spec in pool:
            assert parse_spec(format_spec(spec)) == spec

    @settings(max_examples=200, deadline=None)
    @given(ring=st.sampled_from([RingId.X, RingId.R]), rng=st.randoms(use_true_random=False))
    def test_random_text_round_trip(self, ring, rng):
        spec = random_spec(rng, ring, max_pairs=3)
        assert parse_spec(format_spec(spec), ring) == spec

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_spec("C(-U[1,0], +U[1,0])")  # wrong side at position 2
        with pytest.raises(ValueError):
            parse_spec("D(-U[1,0])")
        with pytest.raises(ValueError):
            parse_spec("C(-U[1,0)")

    @pytest.mark.parametrize(
        "text, k",
        [
            ("C(,)", 1),
            ("C(-U[1,0],,+V[1,0])", 2),
            ("C(-U[1,0], +V[1,0],)", 3),
            ("C(,-U[1,0], +V[1,0])", 1),
            ("C(-U[1,0], ,+V[1,0])", 2),
        ],
    )
    def test_parse_rejects_empty_parameter(self, text, k):
        with pytest.raises(ValueError, match=r"^bad spec parameter %d: '\s*'$" % k):
            parse_spec(text)

    @pytest.mark.parametrize(
        "text, k, tok",
        [
            ("C(-U[1,0)", 1, "-U[1"),
            ("C(-U[1,0], +V[1,0)", 2, " +V[1"),
            ("C(-U[1,[0], +V[1,0])", 1, "-U[1"),
            ("C(-U[1,0],0])", 2, "0]"),
        ],
    )
    def test_parse_names_the_parameter_with_bad_brackets(self, text, k, tok):
        # an unclosed or stray bracket is a bad parameter like any other
        message = "bad spec parameter %d: %r" % (k, tok)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            parse_spec(text)
