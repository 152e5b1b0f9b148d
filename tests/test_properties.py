"""Property tests: the facts the standardization rests on, and the document round trips."""

import json

from hypothesis import given, settings, strategies as st

from gridring import (
    GREATER,
    FreeComplex,
    RingId,
    Side,
    SignedParam,
    base_change,
    dual,
    find_local_map,
    is_knotlike,
    lex_compare,
    paired_basis,
    realize,
    reduce,
    shift_gradings,
    standard_representative,
    tensor,
)
from gridring.complexes import FUVComplex
from gridring.io_json import (
    complex_to_document,
    document_to_complex,
    document_to_spec,
    dump_json,
    spec_to_document,
)
from gridring.ring import RingElem
from gridring.standard import make_spec

from conftest import scramble
from corpus import WINDOW_R, WINDOW_X, pad

RINGS = st.sampled_from([RingId.X, RingId.R])


@st.composite
def specs(draw, ring, max_pairs=2):
    """A spec over ``ring`` of at most ``max_pairs`` parameter pairs."""
    window = WINDOW_X if ring is RingId.X else WINDOW_R
    params = []
    for k in range(1, 2 * draw(st.integers(0, max_pairs)) + 1):
        side = Side.U if k % 2 else Side.V
        sign = draw(st.sampled_from([1, -1]))
        params.append(SignedParam(side, sign, draw(st.sampled_from(window))))
    return make_spec(ring, params)


SPEC_PAIRS = RINGS.flatmap(lambda ring: st.tuples(specs(ring), specs(ring)))

EXPS = st.frozensets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=3)


@st.composite
def complexes(draw, base):
    """A complex of up to five generators with arbitrary entries; not validated."""
    names = draw(st.lists(st.text(min_size=1, max_size=3), max_size=5, unique=True))
    n = len(names)
    grading = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    gens = tuple((nm, draw(grading)) for nm in names)
    if base == "FUV":
        monomial = st.tuples(st.integers(0, 3), st.integers(0, 3))
        entry = st.frozensets(monomial, min_size=1, max_size=3)
    else:
        entry = st.builds(RingElem, st.integers(0, 1), EXPS, EXPS).filter(bool)
    keys = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    diff = draw(st.dictionaries(keys, entry, max_size=2 * n))
    if base == "FUV":
        return FUVComplex(gens, diff)
    return FreeComplex(draw(RINGS), gens, diff)


@settings(max_examples=200, deadline=None)
@given(pair=SPEC_PAIRS)
def test_lex_order_is_local_map_existence(pair):
    # the bisection over each step's descending list rests on this order
    a, b = pair
    assert (lex_compare(a, b) != GREATER) == (find_local_map(a, realize(b), "full") is not None)


@st.composite
def trivial_products(draw):
    """``(s, realize(s) ⊗ T ⊗ T∨)``, the product maybe padded and scrambled."""
    ring = draw(RINGS)
    s = draw(specs(ring))
    T = realize(draw(specs(ring, max_pairs=1)))
    C = tensor(tensor(realize(s), T), dual(T))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        C = pad(C, rng, draw(st.integers(1, 3)))
    if draw(st.booleans()):
        C = scramble(C, rng, n_ops=C.n_gens())
    return s, C


@settings(max_examples=100, deadline=None)
@given(case=trivial_products())
def test_tensor_with_dual_is_locally_trivial(case):
    # T ⊗ T∨ is locally trivial (Dai-Hom-Stoffregen-Truong, arXiv:1902.03333;
    # over X, arXiv:2110.14803), so the product's representative is s
    s, C = case
    assert standard_representative(C)[0] == s


@st.composite
def knotlike_complexes(draw):
    """A reduced knotlike complex: a scrambled product of two specs over one ring."""
    ring = draw(RINGS)
    C = tensor(realize(draw(specs(ring))), realize(draw(specs(ring))))
    return reduce(scramble(C, draw(st.randoms(use_true_random=False)), n_ops=C.n_gens()))


# a shift keeps gr1 - gr2 mod 2, as the knotlike shift's parity check needs
PARITY_SHIFTS = st.tuples(st.integers(-6, 6), st.integers(-3, 3)).map(
    lambda t: (t[0], t[0] + 2 * t[1])
)


@settings(max_examples=100, deadline=None)
@given(C=knotlike_complexes(), shift=PARITY_SHIFTS)
def test_grading_shift_only_offsets_paired_bases(C, shift):
    # standard_representative hands the unshifted complex's bases to the
    # search on the shifted one; a paired basis stores no gradings, so
    # every field must be equal
    s1, s2 = shift
    moved = shift_gradings(C, shift)
    for side in (Side.U, Side.V):
        a, b = paired_basis(moved, side), paired_basis(C, side)
        assert (a.side, a.basis, a.pairs, a.unpaired) == (b.side, b.basis, b.pairs, b.unpaired)
    t1, t2 = is_knotlike(C)[1]
    assert is_knotlike(moved)[1] == (t1 - s1, t2 - s2)


@settings(max_examples=100, deadline=None)
@given(C=st.sampled_from(["S", "FUV"]).flatmap(complexes), dy=st.integers(-4, 4))
def test_complex_document_round_trip(C, dy):
    # an F2[U,V] complex comes back base-changed into X
    doc = json.loads(dump_json(complex_to_document(C, dy)))
    want = base_change(C) if isinstance(C, FUVComplex) else C
    assert document_to_complex(doc) == (want, dy)


@settings(max_examples=100, deadline=None)
@given(spec=RINGS.flatmap(specs))
def test_spec_document_round_trip(spec):
    assert document_to_spec(json.loads(dump_json(spec_to_document(spec)))) == spec
