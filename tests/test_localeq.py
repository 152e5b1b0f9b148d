import functools
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridring import (
    EQUAL,
    GREATER,
    LESS,
    FreeComplex,
    RingId,
    Side,
    SignedParam,
    base_change,
    check_certificate,
    dual,
    dual_spec,
    example_cable,
    example_zhou,
    extant_coefficients,
    find_local_map,
    is_locally_equivalent,
    lex_compare,
    order_compare_complexes,
    parse_spec,
    promote_spec,
    realize,
    reduce,
    standard_representative,
    standardize,
    tensor,
    validate,
)
from gridring import _gf2
from gridring.complexes import (
    _part_products,
    normalize,
    paired_basis,
    tower_functional,
)
from gridring.localeq import (
    LocalMapCert,
    VerificationError,
    _Search,
    _T,
    _Target,
    _add_arrow,
    _add_unknowns,
    _descending,
    _matrix,
    _short_skip,
    _solve_map,
    _tower_coefficient,
)
from gridring.ring import (
    _TABLES,
    ONE_ELEM,
    ZERO,
    RingElem,
    _brief,
    elem_from_mono,
    elem_monomials,
    in_region,
    param_key,
    u_mono,
)
from gridring.standard import _expected_side, _next_grading, make_spec

from conftest import (
    POOL_TEXTS,
    reference_compose,
    reference_extant,
    reference_grading_basis,
    reference_solve,
    random_spec,
    retyped,
    scramble,
    wide_product,
)
from corpus import acyclic_pair, direct_sum, inputs, pad


def _search_input(which):
    """A reduced, normalized complex whose standardization takes several steps."""
    if which == "cable":
        return normalize(reduce(base_change(example_cable())))
    return base_change(example_zhou(3))


def _scrambled_products(pool):
    """Ten reduced, normalized, scrambled products of two pool complexes plus an acyclic pair."""
    rng = random.Random(53)
    out = []
    for _ in range(10):
        C = tensor(realize(rng.choice(pool)), realize(rng.choice(pool)))
        C = direct_sum(C, acyclic_pair(RingId.X, (2 * rng.randint(-1, 1), 0)))
        out.append(normalize(reduce(scramble(C, rng, n_ops=12))))
    return out


def _side_terms(C, side, into=False):
    """Per generator of C, ``[(other end, exponent)]`` of the ``side`` monomials on its arrows.

    The arrows are those out of the generator, or into it with ``into``,
    read monomial by monomial from ``C.diff``.
    """
    terms = [[] for _ in range(C.n_gens())]
    for (a, b), e in C.diff.items():
        if into:
            a, b = b, a
        terms[a] += [(b, m.exp) for m in elem_monomials(e) if m.side is side]
    return terms


def reference_solve_map(src, tgt, gr2shift, src_mask, tgt_w, skip=None):
    """A gr1-preserving chain map as a matrix dict, or None: the exponent-keyed reference.

    The same unknowns as ``localeq._solve_map``, numbered the same way
    (source generator, target generator, monomial in grading-basis order,
    read by ``reference_grading_basis``), but every term is added one
    unknown at a time into an equation keyed by its coefficient exponent
    too, and every slot is found by scanning all target generators.  It
    reads both differentials itself (``_side_terms``) and solves with
    ``reference_solve``, so it shares no table and no solver code with the
    library, and a feasible system must give the library's map entry by
    entry.
    """
    out = {side: _side_terms(tgt, side) for side in (Side.U, Side.V)}
    src_in = {side: _side_terms(src, side, into=True) for side in (Side.U, Side.V)}
    rows, slots, loc, nbits = {}, {}, 0, 0
    for i in range(src.n_gens()):
        g1, g2 = src.gr(i)
        g2 += gr2shift
        w = tgt_w if (src_mask >> i) & 1 else 0
        for j in range(tgt.n_gens()):
            h1, h2 = tgt.gr(j)
            basis = reference_grading_basis(tgt.ring, (g1 - h1, g2 - h2))
            if not basis:
                continue
            slot = slots[(i, j)] = []
            for m in basis:
                mask = 1 << nbits
                slot.append((nbits, m))
                nbits += 1
                if m.side is Side.ONE:
                    sides = (Side.U, Side.V)
                    if (w >> j) & 1:
                        loc ^= mask
                else:
                    sides = (m.side,)
                a, b = m.exp
                for side in sides:
                    if skip != (i, side):
                        for k, (c, d) in out[side][j]:
                            key = (i, side, k, (a + c, b + d))
                            rows[key] = rows.get(key, 0) ^ mask
                    for i0, (c, d) in src_in[side][i]:
                        if skip != (i0, side):
                            key = (i0, side, j, (c + a, d + b))
                            rows[key] = rows.get(key, 0) ^ mask
    sol = reference_solve(list(rows.values()) + [loc], [0] * len(rows) + [1])
    if sol is None:
        return None
    matrix = {}
    for ij, slot in slots.items():
        e = ZERO
        for bit, m in slot:
            if (sol >> bit) & 1:
                e = e + elem_from_mono(m)
        if e:
            matrix[ij] = e
    return matrix


def _descending_params(side, exps, stop):
    """``_descending``'s candidates on one side as signed parameters, the stop as None."""
    return [c and SignedParam(side, *c) for c in _descending(exps, stop)]


def _fresh_map(spec, C, w, tgr, kind):
    """The (short) local map from a realized spec into C, solved on its own, or None."""
    src = realize(spec)
    skip = _short_skip(len(spec.params)) if kind == "short" else None
    return _solve_map(src, _Target(C), tgr[1] - src.gr(0)[1], 1, w, skip)


def _linear_scan(C):
    """The greedy extraction by exhaustive trial, as the reference for the bisection.

    Returns the extracted spec and, per step, (k, descending candidates,
    feasibility of each); a step accepts its first feasible candidate.
    """
    ext = extant_coefficients(C)
    pb_v = paired_basis(C, Side.V)
    w, _mask = tower_functional(pb_v)
    tgr = C.gr(pb_v.unpaired[0])
    params = []
    steps = []
    for k in range(1, 2 * C.n_gens() + 2):
        side = Side.U if k % 2 else Side.V
        cands = _descending_params(side, ext.for_side(side), stop=k % 2 == 1)
        pattern = []
        for p in cands:
            if p is None:
                spec, kind = make_spec(C.ring, params), "full"
            else:
                spec, kind = make_spec(C.ring, params + [p]), "short"
            pattern.append(_fresh_map(spec, C, w, tgr, kind) is not None)
        steps.append((k, cands, pattern))
        p = cands[pattern.index(True)]
        if p is None:
            return make_spec(C.ring, params), steps
        params.append(p)
    raise AssertionError("no stop within the splitting bound")


def _probe_system(search, p):
    """The rows a probe of ``p`` eliminates, by key, and the slot table that numbers them.

    The rows are the tail's and, for a candidate (``p`` not None), x_k's
    rows on p's side, its condition on the next side dropped as a short
    map's, with p's arrow between x_{k-1} and x_k; the slots are the
    search's plus, for a candidate, x_k's.
    """
    rows, slots = dict(search.tail), dict(search.slots)
    if p is not None:
        k = len(search.params) + 1
        G, skip = _next_grading(search.G, p), _T[_short_skip(k)[1]]
        _add_unknowns(k, G, search.target, rows, slots, search.nbits, skip=skip)
        # a negative p is the arrow x_{k-1} -> x_k, a positive one x_k -> x_{k-1}
        a, b = (k - 1, k) if p.sign < 0 else (k, k - 1)
        _add_arrow(a, _T[p.side], slots[b], rows)
    return rows, slots


def _check_steps_against_scratch(C, rng=None):
    """Walk the greedy extraction, comparing every candidate's probe with two scratch solves.

    ``_solve_map`` solves the whole system from scratch into a fresh
    ``_Target``, and ``reference_solve_map`` with the exponent-keyed
    equations; the two must agree entry by entry.  A feasible probe's
    pivots, back-substituted and read through the slot table of
    ``_probe_system``, must give the same map.  Each step then accepts its
    first feasible candidate in descending order, with that candidate's
    pivots.  Every feasible probe's pivots are kept and checked again after
    each step and at the end: no later probe, nor an accept, nor the block
    an accept adopts them as, may extend them in place.  With ``rng`` each
    step probes its candidates in a shuffled order.  Returns the number of
    candidates compared.
    """
    ext = extant_coefficients(C)
    pb_v = paired_basis(C, Side.V)
    w, _mask = tower_functional(pb_v)
    tgr = C.gr(pb_v.unpaired[0])
    search = _Search(_Target(C), w, tgr)
    n_probes = 0
    kept = []
    for k in range(1, 2 * C.n_gens() + 2):
        side = Side.U if k % 2 else Side.V
        params = search.params
        cands = _descending_params(side, ext.for_side(side), stop=k % 2 == 1)
        order = list(cands)
        if rng is not None:
            rng.shuffle(order)
        feasible = {}
        for p in order:
            if p is None:
                spec, kind = make_spec(C.ring, params), "full"
            else:
                spec, kind = make_spec(C.ring, params + [p]), "short"
            src = realize(spec)
            skip = _short_skip(len(spec.params)) if kind == "short" else None
            shift = tgr[1] - src.gr(0)[1]
            want = _solve_map(src, _Target(C), shift, 1, w, skip)
            ref = reference_solve_map(src, C, shift, 1, w, skip)
            got = search.probe(p)
            n_probes += 1
            assert (want is None) == (ref is None) == (got is None), (spec, kind)
            if want is not None:
                assert want == ref, (spec, kind)
                _rows, slots = _probe_system(search, p)
                assert _matrix(_gf2.back_substitute(got), slots) == ref, (spec, kind)
                kept.append((got, slots, ref))
                feasible[p] = got
        first = min(feasible, key=cands.index)
        if first is not None:
            search.accept(first, feasible[first])
        for got, slots, ref in kept:
            assert _matrix(_gf2.back_substitute(got), slots) == ref, (k, ref)
        if first is None:
            return n_probes
    raise AssertionError("no stop within the splitting bound")


def _record_search(monkeypatch):
    """Record a standardization's ``_gf2`` calls and the search steps that make them.

    Returns (calls, events).  ``calls[name]`` lists each ``localeq`` call of
    ``_gf2.name`` as (arguments, result).  ``events`` lists one dict per call
    of ``_Search.probe`` and ``accept``, in order of entry: its ``name``,
    ``step``, parameter ``p``, the ``pivots`` an accept is handed, the
    ``block`` and a copy of the ``tail`` on entry, for a probe the ``rows``
    of ``_probe_system``, the ``eliminates`` it made, its result ``got``, and
    the ``block`` and a copy of the ``tail`` after it.  An eliminate is
    recorded as (rows, rhs, pivots, a copy of the pivots on entry, result).
    """
    import types

    import gridring.localeq

    names = ("solve", "eliminate", "back_substitute")
    calls = {name: [] for name in names}
    stack = []

    def recording(name):
        def call(*args):
            before = dict(args[2]) if name == "eliminate" and len(args) > 2 else None
            got = getattr(_gf2, name)(*args)
            calls[name].append((args, got))
            if name == "eliminate" and stack:
                stack[-1]["eliminates"].append((*args, before, got))
            return got

        return call

    monkeypatch.setattr(
        gridring.localeq,
        "_gf2",
        types.SimpleNamespace(**{name: recording(name) for name in names}),
    )
    events = []

    def wrapping(name):
        original = getattr(_Search, name)

        def method(self, p, *pivots):
            event = {
                "name": name,
                "step": len(self.params) + 1,
                "p": p,
                "pivots": pivots[0] if pivots else None,
                "block": self.block,
                "tail": dict(self.tail),
                "eliminates": [],
            }
            if name == "probe":
                event["rows"] = _probe_system(self, p)[0]
            events.append(event)
            stack.append(event)
            try:
                event["got"] = original(self, p, *pivots)
            finally:
                stack.pop()
            event["after"], event["tail_after"] = self.block, dict(self.tail)
            return event["got"]

        return method

    for name in ("probe", "accept"):
        monkeypatch.setattr(_Search, name, wrapping(name))
    return calls, events


class TestExtant:
    def test_extant_matches_reference(self):
        # the integer form of the pool against the monomial walk: on the
        # seed 1-3 inputs of every workload, and on random products over
        # both rings and wide products, padded and scrambled
        from gridring import io_json, is_knotlike, shift_gradings, validate
        from gridring.complexes import _column_pairing
        from gridring.localeq import _extant

        complexes = []
        for workload in ("search-long", "wide-trivial", "batch-small"):
            for seed in (1, 2, 3):
                for case in inputs(workload, seed):
                    if case.complex is not None:
                        complexes.append(case.complex)
                        continue
                    try:
                        complexes.append(io_json.document_to_complex(case.doc)[0])
                    except ValueError:
                        pass  # a document the workload expects to be rejected
        rng = random.Random(67)
        for ring in (RingId.R, RingId.X):
            for _ in range(12):
                A, B = (realize(random_spec(rng, ring, max_pairs=2)) for _ in range(2))
                C = tensor(A, dual(B))
                complexes.append(scramble(pad(C, rng, 3), rng, n_ops=C.n_gens()))
        complexes += [wide_product(rng, pad_pairs=(2, 4))[1] for _ in range(2)]
        compared = {RingId.R: 0, RingId.X: 0}
        for C in complexes:
            if validate(C):
                continue
            C = reduce(C)
            shift = is_knotlike(C)[1]
            if shift is None:
                continue
            C = shift_gradings(C, shift)
            pb_u, pb_v = paired_basis(C, Side.U), paired_basis(C, Side.V)
            ext = _extant(C, pb_u, pb_v)
            assert (ext.u_coeffs, ext.v_coeffs) == reference_extant(C, pb_u, pb_v)
            # the pipeline's U side: the column pairing gives the same pool
            assert _extant(C, _column_pairing(C, Side.U), pb_v) == ext
            compared[C.ring] += 1
        assert compared[RingId.R] >= 10 and compared[RingId.X] > 100

    def test_zhou_spec_contains_arrow(self):
        ext = extant_coefficients(realize(parse_spec("C(-U[2,1], +V[2,1])")))
        assert (2, 1) in ext.u_coeffs
        assert (2, 1) in ext.v_coeffs

    def test_trivial_empty(self):
        ext = extant_coefficients(realize(parse_spec("C(0)")))
        assert not ext.u_coeffs and not ext.v_coeffs

    def test_zhou_pipeline(self):
        ext = extant_coefficients(reduce(base_change(example_zhou(2))))
        assert (2, 1) in ext.u_coeffs and (2, 1) in ext.v_coeffs

    def test_non_knotlike_rejected(self):
        from gridring import FreeComplex

        C = FreeComplex(RingId.X, (("a", (0, 0)), ("b", (0, 0))), {})
        with pytest.raises(ValueError):
            extant_coefficients(C)

    def test_not_knotlike_message_names_both_tower_counts(self):
        # every "not one tower per side" error gives the same message
        from gridring import NotKnotlikeError, is_knotlike

        two = FreeComplex(RingId.X, (("a", (0, 0)), ("b", (0, 0))), {})
        paired = FreeComplex(
            RingId.X, (("a", (0, 0)), ("b", (-1, 1))), {(1, 0): elem_from_mono(u_mono(1, 0))}
        )
        for C, counts in [
            (two, "2 towers on side U, 2 on side V"),
            (paired, "0 towers on side U, 2 on side V"),
        ]:
            assert is_knotlike(C) == (False, None)
            for call in (normalize, standard_representative, standardize, extant_coefficients):
                with pytest.raises(NotKnotlikeError) as info:
                    call(C)
                assert str(info.value) == "complex is not knotlike: " + counts
            with pytest.raises(NotKnotlikeError) as info:
                find_local_map(parse_spec("C(0)"), C)
            assert str(info.value) == "target is not knotlike: " + counts

    def test_invalid_complex_rejected(self):
        # like standardize and find_local_map, validate before pairing
        from gridring import FreeComplex, InvalidComplexError
        from gridring.ring import u_mono

        gens = (("a", (0, 0)), ("b", (1, 1)))
        C = FreeComplex(RingId.X, gens, {(0, 5): elem_from_mono(u_mono(1, 0))})
        with pytest.raises(InvalidComplexError, match=r"entry \(0, 5\) out of range"):
            extant_coefficients(C)


class TestFindLocalMap:
    def test_trivial_into_negative_first_fails(self):
        c0 = parse_spec("C(0)")
        target = realize(parse_spec("C(-U[1,0], +V[1,0])"))
        assert find_local_map(c0, target, "full") is None

    def test_negative_first_into_trivial(self):
        spec = parse_spec("C(-U[1,0], +V[1,0])")
        cert = find_local_map(spec, realize(parse_spec("C(0)")), "full")
        assert cert is not None
        assert check_certificate(realize(spec), realize(parse_spec("C(0)")), cert) == []

    def test_identity(self, pool):
        for spec in pool:
            cert = find_local_map(spec, realize(spec), "full")
            assert cert is not None
            assert check_certificate(realize(spec), realize(spec), cert) == []

    def test_checker_rejects_corruption(self):
        spec = parse_spec("C(-U[2,1], +V[2,1])")
        tgt = realize(parse_spec("C(-U[3,2], +V[3,2])"))
        cert = find_local_map(spec, tgt, "full")
        assert cert is not None
        from gridring.ring import ZERO, elem_from_mono, u_mono

        broken = dict(cert.matrix)
        broken[(0, 0)] = ZERO  # drop the tower hit
        matrix = {k: v for k, v in broken.items() if v}
        bad = LocalMapCert(cert.source, cert.target, cert.gr2shift, matrix, cert.kind)
        assert check_certificate(realize(spec), tgt, bad) != []

    def test_checker_reports_bad_entries(self):
        # an entry out of range, zero, outside the ring, inhomogeneous or of
        # another grading is a violation, not an exception
        S, X, fwd = _cable_forward()
        u1 = elem_from_mono(u_mono(1, 0))
        cases = [
            ((99, 0), u1, "entry (99, 0) out of range"),
            ((0, 99), u1, "entry (0, 99) out of range"),
            ((-1, 0), u1, "entry (-1, 0) out of range"),
            (
                (0, 0),
                u1 + elem_from_mono(u_mono(2, 0)),
                "entry (0, 0) = U[1,0]+U[2,0] is inhomogeneous",
            ),
            ((0, 0), ZERO, "stored zero entry at (0, 0)"),
            ((0, 0), elem_from_mono(u_mono(-1, 0)), "entry (0, 0) = U[-1,0] is not in ring X"),
            ((0, 0), u1, "entry (0, 0) has grading (-2, 0), expected (-3, 1)"),
        ]
        for key, e, message in cases:
            cert = LocalMapCert(fwd.source, fwd.target, fwd.gr2shift, {**fwd.matrix, key: e}, fwd.kind)
            bad = check_certificate(S, X, cert)
            assert message in bad
            if "range" in message:
                # the chain and locality checks would index the missing generator
                assert bad == [message]
        # a bad entry where dropping the entry breaks the chain condition: the
        # chain defect is formed only on valid entries, so only the entry is
        # reported
        dropped = {k: e for k, e in fwd.matrix.items() if k != (2, 2)}
        cert = LocalMapCert(fwd.source, fwd.target, fwd.gr2shift, dropped, fwd.kind)
        assert "chain condition fails at generator 2 on side U" in check_certificate(S, X, cert)
        for e, message in [
            (ZERO, "stored zero entry at (2, 2)"),
            (elem_from_mono(u_mono(-1, 0)), "entry (2, 2) = U[-1,0] is not in ring X"),
        ]:
            matrix = {**dropped, (2, 2): e}
            cert = LocalMapCert(fwd.source, fwd.target, fwd.gr2shift, matrix, fwd.kind)
            assert check_certificate(S, X, cert) == [message]

    def test_short_certificates_check(self):
        # the checker drops the same chain condition as the solver: (n, U)
        # after an even prefix of n parameters, (n, V) after an odd one
        target = normalize(reduce(base_change(example_cable())))
        cable = parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])")
        for n in range(len(cable.params) + 1):
            prefix = make_spec(RingId.X, cable.params[:n])
            cert = find_local_map(prefix, target, "short")
            assert cert is not None
            assert check_certificate(realize(prefix), target, cert) == []
            if n % 2 == 0:
                as_full = LocalMapCert(cert.source, cert.target, cert.gr2shift, cert.matrix, "full")
                full = check_certificate(realize(prefix), target, as_full)
                assert set(full) == {"chain condition fails at generator %d on side U" % n}

    def test_short_keeps_the_other_side_of_x_n(self):
        # a short certificate drops x_n's chain condition on one side only:
        # with one entry dropped, x_n's condition on the kept side V is the
        # only one that fails
        target = normalize(reduce(base_change(example_cable())))
        cable = parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])")
        for n, key in [(0, (0, 1)), (2, (1, 0)), (4, (4, 1))]:
            prefix = make_spec(RingId.X, cable.params[:n])
            cert = find_local_map(prefix, target, "short")
            assert _short_skip(n) == (n, Side.U)
            assert check_certificate(realize(prefix), target, cert) == []
            matrix = {k: e for k, e in cert.matrix.items() if k != key}
            assert check_certificate(realize(prefix), target, _with_fields(cert, matrix=matrix)) == [
                "chain condition fails at generator %d on side V" % n
            ]

    def test_short_weaker_than_full(self):
        # the length-1 prefix of the zhou spec admits a short map but no
        # standard extension by a positive parameter
        X = base_change(example_zhou(2))
        prefix = make_spec(RingId.X, [SignedParam(Side.U, -1, (2, 1))])
        cert = find_local_map(prefix, X, "short")
        assert cert is not None

    def test_inhomogeneous_target_rejected(self):
        # knotlike and normalized, but x1 sits off the gradings its arrows
        # force: the equations of a local map assume a homogeneous target
        from gridring import FreeComplex, InvalidComplexError, is_knotlike

        C = realize(parse_spec("C(-U[1,0], +V[1,0])"))
        gens = list(C.generators)
        name, (g1, g2) = gens[1]
        gens[1] = (name, (g1 + 2, g2))
        bad = FreeComplex(C.ring, tuple(gens), C.diff)
        violations = validate(bad)
        assert violations and all(" has grading " in line for line in violations)
        # paired_basis checks with validate's rules
        with pytest.raises(InvalidComplexError) as info:
            is_knotlike(bad)
        assert info.value.violations == violations
        for text in ("C(0)", "C(-U[1,0], +V[1,0])"):
            for kind in ("full", "short"):
                with pytest.raises(InvalidComplexError) as info:
                    find_local_map(parse_spec(text), bad, kind)
                assert info.value.violations == violations

    def test_unnormalized_target_rejected(self):
        C = reduce(base_change(example_cable()))
        with pytest.raises(ValueError):
            find_local_map(parse_spec("C(0)"), C, "full")

    def test_surgery_family_order_anchor(self):
        # the explicit chain map x0 -> y0, x1 -> (U[1,1] + b V[1,1]) y1,
        # x2 -> b y2 shows the n = 2 complex sits below the n = 3 one;
        # this pins the direction of the order on equal rows
        a = parse_spec("C(-U[2,1], +V[2,1])")
        b = parse_spec("C(-U[3,2], +V[3,2])")
        assert find_local_map(a, realize(b), "full") is not None
        assert find_local_map(b, realize(a), "full") is None
        assert lex_compare(a, b) == LESS
        # same-row variant: |b1| = (2,1) divides (3,1), so -(2,1) <! -(3,1)
        c = parse_spec("C(-U[3,1], +V[3,1])")
        assert find_local_map(a, realize(c), "full") is not None
        assert find_local_map(c, realize(a), "full") is None
        assert lex_compare(a, c) == LESS


@st.composite
def _chain_map_inputs(draw):
    """Valid complexes ``src`` and ``tgt`` over X or R, and a map f of valid entries.

    Each complex is a realized random spec, maybe tensored with another,
    padded with acyclic pairs (whose unit entries give the defects a scalar
    part) and scrambled.  The gr2 shift gives some entry a nonzero grading, and
    each entry f[i, j] is a random element of its grading, read from the
    ring's grading table, so few maps are chain maps and the defects take
    every part.
    """
    ring = draw(st.sampled_from([RingId.X, RingId.R]))
    rng = draw(st.randoms(use_true_random=False))

    def complex_():
        C = realize(random_spec(rng, ring, max_pairs=2))
        if draw(st.booleans()):
            C = tensor(C, realize(random_spec(rng, ring)))
        if draw(st.booleans()):
            C = pad(C, rng, draw(st.integers(1, 2)))
        if draw(st.booleans()):
            C = scramble(C, rng, n_ops=C.n_gens())
        return C

    src, tgt = complex_(), complex_()
    table = _TABLES[ring]
    # the gr2 shifts that give some entry a grading with a nonzero element,
    # or, half the time, the grading (0, 0) of the unit
    pairs = [(s, t) for _a, s in src.generators for _b, t in tgt.generators]
    shifts = {
        c - s2 + t2 for (s1, s2), (t1, t2) in pairs for c in range(-6, 7) if table[(s1 - t1, c)][0]
    }
    units = {t2 - s2 for (s1, s2), (t1, t2) in pairs if s1 == t1}
    if units and draw(st.booleans()):
        shifts = units
    shift = draw(st.sampled_from(sorted(shifts))) if shifts else 0
    f = {}
    for i in range(src.n_gens()):
        for j in range(tgt.n_gens()):
            (s1, s2), (t1, t2) = src.gr(i), tgt.gr(j)
            elems = table[(s1 - t1, s2 + shift - t2)][3]
            e = elems[rng.randrange(len(elems))]
            if e:
                f[(i, j)] = e
    return src, tgt, shift, f


def _bits(matrix):
    """Each entry of a matrix as ``((i, j), part bits)``: 1 scalar, 2 U side, 4 V side."""
    return [
        (key, sum(bit for bit, part in ((1, e.scalar), (2, e.u), (4, e.v)) if part))
        for key, e in matrix.items()
    ]


@functools.cache
def _pool_certificates():
    """``(src, tgt, cert)`` for every full and short local map between the pool's specs.

    The pool's specs are over X; four random specs over R join them.  Each
    certificate has an entry and passes ``check_certificate``.
    """
    specs = [parse_spec(text) for text in POOL_TEXTS]
    specs += [random_spec(random.Random(k), RingId.R, n_pairs=1 + k % 2) for k in range(4)]
    out = []
    for a in specs:
        for b in specs:
            if a.ring is b.ring:
                for kind in ("full", "short"):
                    cert = find_local_map(a, realize(b), kind)
                    if cert is not None and cert.matrix:
                        out.append((realize(a), realize(b), cert))
    return out


def _cable_forward():
    """The cable's standard representative, the cable and its forward certificate."""
    X = normalize(reduce(base_change(example_cable())))
    spec, fwd, _back = standardize(X)
    return realize(spec), X, fwd


def _with_fields(cert, **fields):
    """``cert`` with the given fields replaced."""
    return LocalMapCert(**{**{name: getattr(cert, name) for name in cert.__slots__}, **fields})


# scalars: ints of any size, floats, bools and a str
_SCALARS = st.one_of(
    st.integers(),
    st.sampled_from([0, 1, -1, 2, 3, 10**5000, 1.0, 0.0, 0.5, True, False, "1"]),
)
# exponents in and out of the region, and ones that are not a pair of ints:
# floats equal to ints, bools, strs, 3-tuples and ints past the digit limit
_EXPS = st.one_of(
    st.tuples(st.integers(-3, 3), st.integers(-2, 3)),
    st.tuples(st.integers(-3, 3).map(float), st.integers(-2, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-2, 3).map(float)),
    st.tuples(st.booleans(), st.booleans()),
    st.sampled_from([(1.5, 1), (1, 0, 0), (1,), "ab", "a", 5, ("1", 0)]),
    st.tuples(st.just(5000).map(lambda k: 10**k), st.integers(-1, 1)),
)
# several exponents per side, and side parts that are not frozensets
_SIDES = st.one_of(
    st.frozensets(_EXPS, max_size=3),
    st.sampled_from([5, None, "ab", set(), {(1, 0)}, [(1, 0)], ((1, 0),), frozenset]),
)


def _entries(ring, want):
    """Values for a matrix entry of grading ``want``: valid ones, arbitrary ones and non-elements.

    A valid element also comes with float exponents, which equal its ints,
    and with bools for its exponents' 0s and 1s.
    """
    basis = reference_grading_basis(ring, want)
    valid = st.lists(st.sampled_from(basis), min_size=1, unique=True) if basis else st.nothing()
    valid = valid.map(lambda ms: functools.reduce(operator.add, map(elem_from_mono, ms)))
    return st.one_of(
        valid,
        st.tuples(valid, st.sampled_from([float, bool])).map(lambda t: retyped(*t)),
        st.builds(RingElem, _SCALARS, _SIDES, _SIDES),
        st.sampled_from(["U[1,0]", 1, None, (0, 0)]),
    )


# keys: non-pairs, floats, strs and ints out of range
_KEYS = st.one_of(
    st.integers(-2, 12),
    st.tuples(st.integers(-2, 12), st.integers(-2, 12)),
    st.tuples(st.integers(0, 6), st.floats()),
    st.tuples(st.floats(), st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.booleans(), st.booleans()),
    st.tuples(st.integers(0, 6)),
    st.tuples(st.text(max_size=2), st.integers(0, 6)),
    st.sampled_from([(), "ab", (10**5000, 0)]),
    # not tuples, though each unpacks into two ints
    st.integers(0, 6).map(lambda i: range(i, i + 2)),
    st.integers(0, 6).map(lambda i: frozenset({i, i + 1})),
)


def _pair_of_ints_in(key, n_rows, n_cols):
    """The key rule, written out for the tests: a pair of ints (a bool is one), both in range."""
    return (
        isinstance(key, tuple)
        and len(key) == 2
        and all(isinstance(x, int) for x in key)
        and 0 <= key[0] < n_rows
        and 0 <= key[1] < n_cols
    )


def _recorded_checks(monkeypatch, workload, seed):
    """The ``check_certificate`` calls of standardizing a workload's library inputs.

    Each is (arguments, keyword arguments), as ``_standardize`` made it.
    """
    import gridring.localeq

    calls = []
    original = gridring.localeq.check_certificate

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(gridring.localeq, "check_certificate", recording)
    for case in inputs(workload, seed):
        if case.complex is not None:
            standard_representative(case.complex)
    monkeypatch.undo()
    return calls


class TestCertificateCheck:
    @settings(max_examples=150, deadline=None)
    @given(case=_chain_map_inputs())
    def test_part_products_match_reference_product(self, case):
        # on valid entries the part-bit product is exact: the nonzero
        # parities of f∘d_tgt + d_src∘f are the part bits of the RingElem sum
        src, tgt, shift, f = case
        want = reference_compose(f, tgt.diff)
        for key, e in reference_compose(src.diff, f).items():
            want[key] = want.get(key, ZERO) + e
        want = dict(_bits({key: e for key, e in want.items() if e}))
        tail = _part_products(_bits(f), _bits(tgt.diff), {})
        got = _part_products(_bits(src.diff), _bits(f), tail)
        assert {key: b for key, b in got.items() if b} == want
        # d∘d of a valid complex leaves nothing
        assert not any(_part_products(_bits(src.diff), _bits(src.diff), {}).values())
        # the checker reads the chain defect off the same product
        lines = [
            line
            for line in check_certificate(src, tgt, LocalMapCert("src", "tgt", shift, f, "full"))
            if line.startswith("chain")
        ]
        expected = []
        for (i, k), b in sorted(want.items()):
            if b & 1:
                expected.append("chain defect has a unit part at (%d, %d)" % (i, k))
            expected += [
                "chain condition fails at generator %d on side %s" % (i, side)
                for side, bit in (("U", 2), ("V", 4))
                if b & bit
            ]
        assert lines == expected

    @pytest.mark.parametrize("workload", ["search-long", "wide-trivial"])
    def test_given_tower_matches_fresh_basis(self, workload, monkeypatch):
        # the forward check passes the search's tower; on every certificate,
        # and on each with an entry dropped, the checker's verdict is the one
        # a fresh paired basis of the target gives
        for seed in (1, 2, 3):
            calls = _recorded_checks(monkeypatch, workload, seed)
            forward = [kwargs for _args, kwargs in calls if "tgt_w" in kwargs]
            assert len(forward) == len(calls) // 2 > 0
            for (src, tgt, cert, *_rest), kwargs in calls:
                w = tower_functional(paired_basis(tgt, Side.V))[0]
                assert kwargs.get("tgt_w", w) == w
                src_mask = kwargs.get("src_mask", 1)
                assert check_certificate(src, tgt, cert, **kwargs) == []
                assert check_certificate(src, tgt, cert, src_mask, tgt_w=w) == []
                for key in sorted(cert.matrix)[:3]:
                    matrix = {k: e for k, e in cert.matrix.items() if k != key}
                    bad = LocalMapCert(cert.source, cert.target, cert.gr2shift, matrix, cert.kind)
                    got = check_certificate(src, tgt, bad, src_mask, tgt_w=w)
                    assert got == check_certificate(src, tgt, bad, src_mask) != []

    @pytest.mark.parametrize("workload", ["search-long", "wide-trivial"])
    def test_checker_reads_no_grading_table(self, workload, monkeypatch):
        # the solver builds its entries from the grading table; the checker
        # and validate verify them without reading it
        import sys

        class Unreadable:
            # no other method: iteration and ``in`` fall back on __getitem__
            def __getitem__(self, key):
                raise AssertionError("the grading table was read")

        calls = _recorded_checks(monkeypatch, workload, 1)
        modules = [m for name, m in sys.modules.items() if name.startswith("gridring")]
        for module in modules:
            if hasattr(module, "_TABLES"):
                monkeypatch.setattr(module, "_TABLES", Unreadable())
        assert validate(calls[0][0][0]) == []
        with pytest.raises(AssertionError, match="grading table was read"):
            standard_representative(calls[0][0][0])
        for args, kwargs in calls:
            assert check_certificate(*args, **kwargs) == []

    def test_checker_rejects_what_validate_rejects(self):
        # a scalar other than the int 0 or 1, an entry that is not a
        # RingElem, and a key that is not a tuple of two ints in range are
        # each one violation, never an exception
        S, X, fwd = _cable_forward()
        dropped = {k: e for k, e in fwd.matrix.items() if k != (2, 2)}
        for e, message in [
            (RingElem(scalar=3), "entry (2, 2) has scalar 3, not 0 or 1"),
            (RingElem(scalar=1.0), "entry (2, 2) has scalar 1.0, not 0 or 1"),
            (RingElem(scalar=-1), "entry (2, 2) has scalar -1, not 0 or 1"),
            # a malformed exponent or side part, shown as given
            (RingElem(0, frozenset({(1, 0, 0)})), "entry (2, 2) = U[(1, 0, 0)] is not in ring X"),
            (RingElem(0, 5), "entry (2, 2) has side part 5, not a frozenset of exponents"),
            (RingElem(0, frozenset({"ab"})), "entry (2, 2) = U['ab'] is not in ring X"),
            (RingElem(0, frozenset({(1.0, 0)})), "entry (2, 2) = U[(1.0, 0)] is not in ring X"),
            ("U[1,0]", "entry (2, 2) = 'U[1,0]' is not a RingElem"),
        ]:
            for matrix in ({**fwd.matrix, (2, 2): e}, {**dropped, (2, 2): e}):
                assert check_certificate(S, X, _with_fields(fwd, matrix=matrix)) == [message]
        free = next(j for j in range(X.n_gens()) if (0, j) not in fwd.matrix)
        for key in [0, (0, float(free)), (0,), (0, 1, 2), ("0", 0), range(0, 2), frozenset({0, 1})]:
            matrix = {**fwd.matrix, key: fwd.matrix[(2, 2)]}
            assert check_certificate(S, X, _with_fields(fwd, matrix=matrix)) == [
                "entry %s out of range" % _brief(key)
            ]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_checker_applies_validates_entry_rule(self, data):
        # one entry of a valid certificate replaced by an arbitrary value: the
        # checker returns strings, and lists an entry violation exactly when
        # validate rejects the value as a differential entry of that grading
        src, tgt, cert = data.draw(st.sampled_from(_pool_certificates()))
        i = data.draw(st.integers(0, src.n_gens() - 1))
        j = data.draw(st.integers(0, tgt.n_gens() - 1))
        want = (src.gr(i)[0] - tgt.gr(j)[0], src.gr(i)[1] + cert.gr2shift - tgt.gr(j)[1])
        assert (want[0] - want[1]) % 2 == 0
        e = data.draw(_entries(tgt.ring, want))
        got = check_certificate(src, tgt, _with_fields(cert, matrix={**cert.matrix, (i, j): e}))
        assert isinstance(got, list) and all(isinstance(line, str) for line in got)
        # an entry A -> B of a complex has grading gr(A) - gr(B) - (1, 1)
        gens = (("A", (0, 0)), ("B", (-want[0] - 1, -want[1] - 1)))
        rejected = validate(FreeComplex(tgt.ring, gens, {(0, 1): e}))
        if rejected:
            # entry violations are reported alone
            assert got == [line.replace("(A, B)", "(%d, %d)" % (i, j)) for line in rejected]
        else:
            assert not [line for line in got if "entry" in line]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_checker_and_validate_share_the_key_rule(self, data):
        # a key that is not a pair of ints in range is reported alone by the
        # checker, and as out of range by validate
        src, tgt, cert = data.draw(st.sampled_from(_pool_certificates()))
        key = data.draw(_KEYS)
        matrix = {**cert.matrix, key: ONE_ELEM}
        got = check_certificate(src, tgt, _with_fields(cert, matrix=matrix))
        bad = [k for k in matrix if not _pair_of_ints_in(k, src.n_gens(), tgt.n_gens())]
        if bad:
            assert got == ["entry %s out of range" % _brief(k) for k in bad]
        else:
            assert isinstance(got, list) and not [line for line in got if "range" in line]
        n = tgt.n_gens()
        diff = {**tgt.diff, key: ONE_ELEM}
        lines = [line for line in validate(FreeComplex(tgt.ring, tgt.generators, diff)) if "range" in line]
        bad = [k for k in diff if not _pair_of_ints_in(k, n, n)]
        assert lines == ["differential entry %s out of range" % _brief(k) for k in bad]

    def test_unit_defect_and_missing_tower(self):
        # C(0) mapped by the unit onto an unreduced acyclic pair: the chain
        # defect has a unit part, and the pair has no paired basis to give
        # a tower
        src = realize(parse_spec("C(0)"))
        tgt = FreeComplex(RingId.X, (("a", (0, 0)), ("b", (-1, -1))), {(0, 1): ONE_ELEM})
        cert = LocalMapCert("C(0)", "pair", 0, {(0, 0): ONE_ELEM}, "full")
        assert check_certificate(src, tgt, cert) == [
            "chain defect has a unit part at (0, 1)",
            "target tower not available: paired_basis needs a reduced complex",
        ]

    def test_zero_tower_misses(self):
        # a functional of 0 is a given tower, not a missing one
        S, X, fwd = _cable_forward()
        assert check_certificate(S, X, fwd, tgt_w=0) == [
            "image of the source tower misses the target tower"
        ]

    def test_not_a_certificate(self):
        # anything but a LocalMapCert is one violation, never an exception
        S, X, fwd = _cable_forward()
        fields = tuple(getattr(fwd, name) for name in fwd.__slots__)
        for cert in (None, 5, fwd.matrix, fwd.to_json(), fields):
            assert check_certificate(S, X, cert) == [
                "certificate is %s, not a LocalMapCert" % _brief(cert)
            ]

    def test_kind_not_full_or_short(self):
        # a kind other than "full" or "short" is one violation, not a full map
        S, X, fwd = _cable_forward()
        assert check_certificate(S, X, fwd) == []
        for kind in ("bogus", None, "Full", ["full"], 1):
            assert check_certificate(S, X, _with_fields(fwd, kind=kind)) == [
                "certificate kind is %s, not 'full' or 'short'" % _brief(kind)
            ]

    def test_matrix_not_a_dict(self):
        # the keys are never read from a matrix that is not a dict
        S, X, fwd = _cable_forward()
        for matrix in (None, [], 5, sorted(fwd.matrix.items())):
            assert check_certificate(S, X, _with_fields(fwd, matrix=matrix)) == [
                "certificate matrix is %s, not a dict" % _brief(matrix)
            ]

    def test_gr2shift_not_an_int(self):
        # a float equal to an int is not one; a bool is the int it subclasses
        S, X, fwd = _cable_forward()
        for shift in ("0", None, float(fwd.gr2shift), str(fwd.gr2shift)):
            assert check_certificate(S, X, _with_fields(fwd, gr2shift=shift)) == [
                "certificate gr2shift is %s, not an int" % _brief(shift)
            ]
        for shift in (False, True):
            got = check_certificate(S, X, _with_fields(fwd, gr2shift=shift))
            assert got == check_certificate(S, X, _with_fields(fwd, gr2shift=int(shift)))
        # each bad field is one violation: kind, then matrix, then gr2shift
        bad = _with_fields(fwd, gr2shift=None, matrix=None, kind=None)
        assert check_certificate(S, X, bad) == [
            "certificate kind is None, not 'full' or 'short'",
            "certificate matrix is None, not a dict",
            "certificate gr2shift is None, not an int",
        ]

    def test_checker_code_calls_no_gf2(self, monkeypatch):
        # given the tower functional, the checker solves nothing: with every
        # _gf2 function raising, the seed-1 search-long certificates pass.
        # Without it, tower_functional solves through _gf2.solve_unit
        import inspect

        calls = _recorded_checks(monkeypatch, "search-long", 1)
        towers = [tower_functional(paired_basis(args[1], Side.V))[0] for args, _kw in calls]

        def unreachable(*args, **kwargs):
            raise AssertionError("_gf2 was called")

        names = {name for name, f in vars(_gf2).items() if inspect.isfunction(f)}
        assert names == {"eliminate", "solve", "back_substitute", "solve_unit"}
        for name in names:
            monkeypatch.setattr(_gf2, name, unreachable)
        for (args, kwargs), w in zip(calls, towers):
            assert check_certificate(*args, **{**kwargs, "tgt_w": w}) == []
        args, kwargs = calls[-1]
        assert "tgt_w" not in kwargs  # the backward check
        with pytest.raises(AssertionError, match="_gf2 was called"):
            check_certificate(*args, **kwargs)


def _all_feasible(monkeypatch):
    # every probe succeeds, and accepting a parameter only records it
    monkeypatch.setattr(_Search, "probe", lambda self, p: {})
    monkeypatch.setattr(_Search, "accept", lambda self, p, pivots: self.params.append(p))


def _none_feasible(monkeypatch):
    monkeypatch.setattr(_Search, "probe", lambda self, p: None)


def _no_map_back(monkeypatch):
    import gridring.localeq

    monkeypatch.setattr(gridring.localeq, "_solve_map", lambda *args, **kwargs: None)


def _backward_check_fails(monkeypatch):
    # the forward check (each odd call) runs; the backward one reports a violation
    import gridring.localeq

    real, calls = gridring.localeq.check_certificate, []

    def second_fails(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs) if len(calls) % 2 else ["forced violation"]

    monkeypatch.setattr(gridring.localeq, "check_certificate", second_fails)


# a breakage of one step of the search and the VerificationError it must raise
GUARDS = [
    pytest.param(_all_feasible, "standardization exceeded the splitting bound", id="bound"),
    pytest.param(_none_feasible, "no feasible parameter at step 1", id="infeasible"),
    pytest.param(_no_map_back, "no local map back to the standard representative", id="no-map-back"),
    pytest.param(_backward_check_fails, "backward certificate failed: forced violation", id="backward"),
]


class TestStandardize:
    @pytest.mark.parametrize("breakage, message", GUARDS)
    def test_guards_raise_and_cli_exits_3(self, breakage, message, monkeypatch, capsys, tmp_path):
        from gridring.cli import run
        from gridring.io_json import complex_to_document, dump_json

        path = tmp_path / "cable.json"
        path.write_text(dump_json(complex_to_document(example_cable())), encoding="utf-8")
        breakage(monkeypatch)
        with pytest.raises(VerificationError) as info:
            standardize(normalize(reduce(base_change(example_cable()))))
        assert str(info.value) == message
        assert run(["standardize", str(path)]) == 3
        out = capsys.readouterr()
        assert not out.out
        assert out.err == "internal verification failure: %s\n" % message

    def test_round_trip(self, pool):
        for spec in pool:
            got, fwd, back = standardize(realize(spec))
            assert got == spec
            assert fwd.kind == "full" and back.kind == "full"

    def test_idempotent(self):
        rng = random.Random(43)
        for _ in range(6):
            spec = random_spec(rng, max_pairs=2)
            C = realize(spec)
            s1 = standardize(C)[0]
            s2 = standardize(realize(s1))[0]
            assert s1 == s2

    def test_dual_compat(self, pool):
        for spec in pool[:8]:
            C = realize(spec)
            assert standardize(dual(C))[0] == dual_spec(spec)

    def test_tensor_with_dual_is_trivial(self, pool):
        for spec in pool[:6]:
            C = realize(spec)
            T = tensor(C, dual(C))
            assert standardize(T)[0] == parse_spec("C(0)")

    def test_builtin_examples_cancel_their_duals(self):
        for C in (
            base_change(example_zhou(2)),
            base_change(example_zhou(3)),
            reduce(base_change(example_cable())),
        ):
            N = standard_representative(tensor(C, dual(C)))[0]
            assert N == parse_spec("C(0)")

    @pytest.mark.parametrize("which", ["cable", "zhou3"])
    def test_bisection_accepts_greatest_feasible(self, which):
        C = _search_input(which)
        trace = []
        spec = standardize(C, trace=trace)[0]
        want, steps = _linear_scan(C)
        assert spec == want
        by_step = {}
        for k, p, ok in trace:
            by_step.setdefault(k, []).append((p, ok))
        assert sorted(by_step) == [k for k, _cands, _pattern in steps]
        for k, cands, pattern in steps:
            accepted = spec.params[k - 1] if k <= len(spec.params) else None
            # the accepted parameter (or the neutral 1) is the <!-greatest
            # feasible candidate of the exhaustive pattern
            assert accepted == cands[pattern.index(True)]
            trials = by_step[k]
            assert len(trials) <= math.ceil(math.log2(len(cands))) + 1
            assert None not in [p for p, _ok in trials] or k % 2 == 1
            for p, ok in trials:
                assert ok == pattern[cands.index(p)]

    def test_descending_is_the_param_key_sort(self, pool):
        # one lattice_key sort of the exponents orders both signs: the
        # negatives mirror the positives below the stop
        def by_param_key(side, exps, stop):
            cands = [SignedParam(side, sgn, exp) for exp in exps for sgn in (1, -1)]
            return sorted(cands + [None] * stop, key=param_key, reverse=True)

        sets = []
        for spec in pool:
            ext = extant_coefficients(realize(spec))
            sets += [ext.u_coeffs, ext.v_coeffs]
        rng = random.Random(71)
        grid = [(i, j) for i in range(-6, 13) for j in range(5) if in_region((i, j))]
        for ring in RingId:
            window = [x for x in grid if x != (0, 0) and (ring is RingId.X or x[1] == 0)]
            for _ in range(200):
                sets.append(rng.sample(window, rng.randint(0, min(len(window), 40))))
        assert sum(1 for exps in sets if len(exps) > 5) > 250
        for exps in sets:
            for side in (Side.U, Side.V):
                for stop in (False, True):
                    assert _descending_params(side, exps, stop) == by_param_key(side, exps, stop)

    def test_feasibility_is_monotone(self, pool):
        # the bisection relies on feasibility along each step's descending
        # list reading 0*1*; check it exhaustively on a fixed corpus
        corpus = [_search_input("cable"), _search_input("zhou3")] + _scrambled_products(pool)
        n_steps = 0
        for C in corpus:
            want, steps = _linear_scan(C)
            for _k, _cands, pattern in steps:
                assert pattern == sorted(pattern)
            assert standardize(C)[0] == want
            n_steps += len(steps)
        assert n_steps > 3 * len(corpus)

    def test_step_probes_match_scratch_solve(self, pool):
        # every candidate of every step, not only the bisection's probes:
        # the step's prefix block gives the map a from-scratch solve gives
        corpus = [_search_input("cable"), _search_input("zhou3")] + _scrambled_products(pool)
        n_probes = sum(_check_steps_against_scratch(C) for C in corpus)
        assert n_probes > 20 * len(corpus)

    def test_probe_pivots_not_extended_by_later_probes(self, pool):
        # every probe eliminates against a copy of the block, and an accept
        # adopts its probe's pivots as the next block; in shuffled order,
        # every feasible probe's pivots must still give its map when the
        # step ends and when the search does
        rng = random.Random(61)
        corpus = [_search_input("cable"), _search_input("zhou3")] + _scrambled_products(pool)[:4]
        n_probes = sum(_check_steps_against_scratch(C, rng) for C in corpus)
        assert n_probes > 20 * len(corpus)

    def test_backward_map_matches_reference(self, pool):
        # the backward map's source is the input, with arrows on both sides
        # into one generator and several source generators per grading
        corpus = [_search_input("cable"), _search_input("zhou3")] + _scrambled_products(pool)
        for C in corpus:
            spec, fwd, back = standardize(C)
            std = realize(spec)
            w, mask = tower_functional(paired_basis(C, Side.V))
            assert fwd.matrix == reference_solve_map(std, C, fwd.gr2shift, 1, w)
            want = reference_solve_map(C, std, back.gr2shift, mask, 1)
            assert _solve_map(C, _Target(std), back.gr2shift, mask, 1) == want == back.matrix

    def test_any_skipped_condition_matches_reference(self, pool):
        # a short map out of a standard complex skips a condition that no
        # source arrow touches; skipping each condition of the input in turn
        # also drops the terms of arrows out of a generator
        corpus = [_search_input("cable"), _search_input("zhou3")] + _scrambled_products(pool)[:2]
        changed = 0
        for C in corpus:
            spec, _fwd, back = standardize(C)
            std = realize(spec)
            _w, mask = tower_functional(paired_basis(C, Side.V))
            target = _Target(std)
            for skip in itertools.product(range(C.n_gens()), (Side.U, Side.V)):
                got = _solve_map(C, target, back.gr2shift, mask, 1, skip)
                assert got == reference_solve_map(C, std, back.gr2shift, mask, 1, skip)
                changed += got != back.matrix
        assert changed > 0

    def test_solve_map_into_small_standard_complexes(self, pool):
        # the backward solve's shape on a wide input with a short answer:
        # many source generators have no unknowns in a one-generator or short
        # target.  Sources are reduced scrambled products and their padded,
        # rescrambled (unreduced) presentations.
        rng = random.Random(59)
        targets = [realize(parse_spec("C(0)"))] + [realize(spec) for spec in pool[1:5]]
        n_maps = n_feasible = 0
        for C in _scrambled_products(pool)[:6]:
            pb_v = paired_basis(C, Side.V)
            w, mask = tower_functional(pb_v)
            tgr = C.gr(pb_v.unpaired[0])
            padded = scramble(pad(C, rng, 3), rng, n_ops=2 * C.n_gens())
            for src in (C, padded):
                for std in targets:
                    base = std.gr(0)[1] - tgr[1]
                    target = _Target(std)
                    for shift in (base - 2, base, base + 2):
                        got = _solve_map(src, target, shift, mask, 1)
                        assert got == reference_solve_map(src, std, shift, mask, 1)
                        n_maps += 1
                        n_feasible += got is not None
        assert n_maps == 6 * 2 * len(targets) * 3
        assert n_feasible > 0

    def test_arrows_into_generators_without_unknowns_skipped(self, monkeypatch):
        # an arrow a -> b adds b's unknowns to a's equations; when b has none
        # it adds nothing, and _solve_map does not call _add_arrow for it
        import gridring.localeq

        calls = []
        original = gridring.localeq._add_arrow

        def recording(a, side, slot, rows):
            calls.append((a, side, slot[1].n))
            return original(a, side, slot, rows)

        monkeypatch.setattr(gridring.localeq, "_add_arrow", recording)
        cable = reduce(base_change(example_cable()))
        C = normalize(reduce(tensor(cable, dual(cable))))
        spec, _fwd, back = standardize(C)
        assert all(n for _a, _side, n in calls)
        # the backward map's source has arrows into generators without
        # unknowns in the standard representative
        target = _Target(realize(spec))
        empty = {
            b
            for b in range(C.n_gens())
            if not target.layout((C.gr(b)[0], C.gr(b)[1] + back.gr2shift)).n
        }
        assert any(b in empty for _a, b in C.diff)

    def test_layout_built_once_per_grading(self, monkeypatch):
        # every system into one target reads one layout per source grading:
        # the probes and the accepted generators share them, and the
        # backward map builds its own target's
        import gridring.localeq

        built = []
        sides = []
        original = gridring.localeq._Layout

        class Recording(original):
            __slots__ = ()

            def __init__(self, target, G):
                built.append((target, G))
                super().__init__(target, G)

            def eqs(self, t):
                if self._eqs[t] is None:
                    sides.append((id(self), t))
                return super().eqs(t)

        looked = []
        layout = gridring.localeq._Target.layout

        def lookup(target, G):
            looked.append((id(target), G))
            return layout(target, G)

        monkeypatch.setattr(gridring.localeq, "_Layout", Recording)
        monkeypatch.setattr(gridring.localeq._Target, "layout", lookup)
        cable = reduce(base_change(example_cable()))
        standard_representative(tensor(cable, cable))
        keys = [(id(target), G) for target, G in built]
        assert len(keys) == len(set(keys)) == len(set(looked))
        assert len({id(target) for target, _G in built}) == 2
        # later lookups find the layout built before
        assert len(looked) > len(keys)
        # each side of a layout is built at most once, and only when read: a
        # probe's x_k skips one side
        assert len(sides) == len(set(sides)) < 2 * len(keys)

    @pytest.mark.parametrize("which", ["cable", "zhou3"])
    def test_one_eliminate_per_trial_plus_one_back_substitution(self, which, monkeypatch):
        # every probe, the stopping one included, eliminates the tail and the
        # candidate's rows against a copy of the block, once.  Only the last
        # stopping probe is back-substituted, into the forward certificate,
        # and the backward map is the one solve.
        C = _search_input(which)
        calls, events = _record_search(monkeypatch)
        trace = []
        spec, fwd, _back = standardize(C, trace=trace)
        probes = [e for e in events if e["name"] == "probe"]
        assert [(e["step"], e["p"], e["got"] is not None) for e in probes] == trace
        assert {e["p"] is None for e in probes} == {True, False}
        assert {e["p"].sign for e in probes if e["p"] is not None} == {1, -1}
        assert any(e["tail"] for e in probes)
        for e in probes:
            ((rows, rhs, pivots, before, got),) = e["eliminates"]
            assert rows == list(e["rows"].values()) and not any(rhs) and got is e["got"]
            assert before == e["block"] and pivots is not e["block"]
            # the tail is x_{k-1}'s equations on p_k's side; a candidate adds
            # x_k's on that side alone
            k, t = e["step"], _T[_expected_side(e["step"])]
            assert {key[:2] for key in e["tail"]} <= {(k - 1, t)}
            assert {key[:2] for key in e["rows"]} <= {(k - 1, t), (k, t)}
        assert len(calls["solve"]) == 1
        ((args, _sol),) = calls["back_substitute"]
        stops = [e["got"] for e in probes if e["p"] is None and e["got"] is not None]
        assert len(args) == 1 and args[0] is stops[-1]
        w = tower_functional(paired_basis(C, Side.V))[0]
        assert fwd.matrix == reference_solve_map(realize(spec), C, fwd.gr2shift, 1, w)

    @pytest.mark.parametrize("which", ["cable", "zhou3"])
    def test_prefix_block_once_per_step(self, which, monkeypatch):
        # the block is eliminated once, from the locality row and x_0's
        # V-side equations; each accepted parameter then adopts its probe's
        # pivots as the block, eliminating nothing, and makes x_k's equations
        # on the next side the tail.  Every probe works on a copy, and no
        # block is changed once built.
        calls, events = _record_search(monkeypatch)
        trace = []
        standardize(_search_input(which), trace=trace)
        (_rows, rhs, *_rest), block = calls["eliminate"][0]
        assert rhs[0] == 1 and not any(rhs[1:])
        assert {key[:2] for key in events[0]["tail"]} <= {(0, _T[Side.U])}
        blocks = [(block, dict(block))]
        accepts = [e for e in events if e["name"] == "accept"]
        assert 1 + len(accepts) == len({k for k, _p, _ok in trace}) > 1
        assert {e["p"].sign for e in accepts} == {1, -1}
        for e in accepts:
            k = e["step"]
            (chosen,) = [
                x["got"] for x in events if x["name"] == "probe" and (x["step"], x["p"]) == (k, e["p"])
            ]
            assert e["block"] is blocks[-1][0]
            assert e["eliminates"] == [] and e["after"] is e["pivots"] is chosen
            assert {key[:2] for key in e["tail_after"]} <= {(k, _T[_expected_side(k + 1)])}
            blocks.append((e["after"], dict(e["after"])))
        assert any(e["tail_after"] for e in accepts)
        for e in events:
            assert all(pivots is not e["block"] for _r, _b, pivots, _bf, _g in e["eliminates"])
        assert all(b == copy for b, copy in blocks)

    @pytest.mark.parametrize("which", ["cable", "zhou3"])
    def test_realize_at_most_twice(self, which, monkeypatch):
        # probes derive each candidate's generator from the parameter, so a
        # standardization realizes only the stop certificate's spec and the
        # backward target, whatever its trial count
        import gridring.localeq

        realized = []
        original = gridring.localeq.realize

        def recording(spec):
            realized.append(spec)
            return original(spec)

        monkeypatch.setattr(gridring.localeq, "realize", recording)
        trace = []
        spec = standardize(_search_input(which), trace=trace)[0]
        assert len(trace) > 3
        assert 1 <= len(realized) <= 2
        assert set(realized) == {spec}

    @pytest.mark.parametrize("which", ["cable", "zhou3"])
    def test_target_edges_built_once(self, which, monkeypatch):
        # a target's arrows are read where they are used: one _Target, which
        # reads both sides in one pass over C.diff, serves the input's every
        # trial, and one the backward map into the standard representative.
        # Both sides' pairings and the backward check's paired basis are
        # column reductions, which read C.diff, and the forward check reuses
        # the search's tower.  The backward solve reads the input's arrows
        # from C.diff.
        import gridring.localeq

        built = []
        original = gridring.localeq._Target

        class Recording(original):
            def __init__(self, C):
                built.append(C)
                super().__init__(C)

        C = _search_input(which)
        monkeypatch.setattr(gridring.localeq, "_Target", Recording)
        trace = []
        standardize(C, trace=trace)
        assert len(trace) > 3
        assert sum(1 for D in built if D is C) == 1
        others = [D for D in built if D is not C]
        assert len(others) == 1  # the standard representative

    def test_paired_bases_computed_once(self, monkeypatch):
        # per call: one fresh target basis for the backward check goes
        # through paired_basis: the forward check reuses the search's tower,
        # and the standard representative's tower is x_0 in closed form.
        # The validated input's sides are paired once each, U then V, by the
        # column reduction without paired_basis's checks, the V side handed
        # shifted to the tower; the paired basis runs that same reduction
        # after its checks, so it eliminates U, V, V.  Every reduction is
        # called from complexes, by _knotlike_bases or paired_basis
        import gridring.complexes
        import gridring.localeq

        calls, pairings = [], []
        original = gridring.complexes.paired_basis
        column = gridring.complexes._column_pairing

        def counting(C, side):
            calls.append(side)
            return original(C, side)

        def counting_columns(C, side):
            pairings.append(side)
            return column(C, side)

        # every paired basis goes through the public paired_basis
        for module in (gridring.complexes, gridring.localeq):
            monkeypatch.setattr(module, "paired_basis", counting)
        monkeypatch.setattr(gridring.complexes, "_column_pairing", counting_columns)
        cable = reduce(base_change(example_cable()))
        standard_representative(tensor(cable, cable))
        assert calls == [Side.V]
        assert pairings == [Side.U, Side.V, Side.V]

    def test_validated_once(self, monkeypatch):
        # reduce is a homotopy equivalence, so its output needs no second
        # check: the input is validated once, and the only other validation
        # is paired_basis's of the realized answer, for the backward check
        import gridring.complexes

        calls = []
        original = gridring.complexes.validate

        def counting(C):
            calls.append(C)
            return original(C)

        monkeypatch.setattr(gridring.complexes, "validate", counting)
        cable = reduce(base_change(example_cable()))
        C = tensor(cable, cable)
        spec = standard_representative(C)[0]
        assert calls == [C, realize(spec)]

    def test_termination_guard_via_certificates(self):
        # certificates returned by standardize always verify; a complex with
        # no candidates but two towers raises before the guard
        from gridring import FreeComplex

        C = FreeComplex(RingId.X, (("a", (0, 0)), ("b", (2, 2))), {})
        with pytest.raises(ValueError):
            standardize(C)

    def test_backward_certificate_checks(self):
        X = base_change(example_zhou(3))
        spec, fwd, back = standardize(X)
        assert check_certificate(realize(spec), X, fwd) == []
        _w, mask = tower_functional(paired_basis(X, Side.V))
        assert check_certificate(X, realize(spec), back, src_mask=mask) == []

    def test_left_locality_flag(self):
        # a right-local equivalence is automatically left local: both
        # certificates also map the U-side tower onto the U-side tower
        X = base_change(example_zhou(2))
        spec, fwd, back = standardize(X)
        S = realize(spec)
        assert check_certificate(S, X, fwd) == []
        assert _u_tower_coefficient(S, X, fwd) == 1
        _w, mask = tower_functional(paired_basis(X, Side.V))
        assert check_certificate(X, S, back, src_mask=mask) == []
        assert _u_tower_coefficient(X, S, back) == 1


def _u_tower_coefficient(src, tgt, cert):
    """Coefficient of the target's U-side tower in the image of the source's."""
    w_u, _em = tower_functional(paired_basis(tgt, Side.U))
    _w, src_u_mask = tower_functional(paired_basis(src, Side.U))
    return _tower_coefficient(cert.matrix, src_u_mask, w_u)


@pytest.mark.slow
class TestKnownAnswersAtScale:
    # products with a known standard representative, at sizes where the
    # search runs dozens of steps over systems of thousands of unknowns
    CABLE = parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])")

    def test_cable_cubed(self):
        cable = reduce(base_change(example_cable()))
        C = tensor(tensor(cable, cable), cable)
        assert C.n_gens() == 125
        spec = standard_representative(C)[0]
        assert spec == make_spec(RingId.X, list(self.CABLE.params) * 3)

    def test_wide_padded_product(self):
        # s ⊗ t ⊗ t∨ is locally equivalent to s, whatever the padding and
        # scrambling did
        s, C = wide_product(random.Random(59))
        assert C.n_gens() >= 250
        assert standard_representative(C)[0] == s

    def test_product_of_1655_generators(self):
        # large enough that a term quadratic in the generator count shows
        rng = random.Random(5)
        s = random_spec(rng, n_pairs=3)
        T = realize(random_spec(rng, n_pairs=7))
        C = pad(tensor(tensor(realize(s), T), dual(T)), rng, 40)
        C = scramble(C, rng, n_ops=C.n_gens())
        assert C.n_gens() == 1655
        assert standard_representative(C)[0] == s

    def test_wide_step_probes_match_scratch_solve(self):
        _s, C = wide_product(random.Random(59))
        assert _check_steps_against_scratch(normalize(reduce(C))) > 0

    def test_zhou_cancels_around_cable_squared(self):
        cable = reduce(base_change(example_cable()))
        z3 = base_change(example_zhou(3))
        C = tensor(tensor(tensor(z3, cable), cable), dual(z3))
        assert C.n_gens() == 225
        spec = standard_representative(C)[0]
        assert spec == make_spec(RingId.X, list(self.CABLE.params) * 2)


class TestOrderPredicates:
    def test_self_equivalence(self, pool):
        for spec in pool[:6]:
            C = realize(spec)
            rep = standard_representative(C)[0]
            assert is_locally_equivalent(C, realize(rep))

    def test_dual_tensor_trivial_equivalence(self):
        spec = parse_spec("C(-U[1,1], +V[1,1])")
        C = realize(spec)
        assert is_locally_equivalent(tensor(C, dual(C)), realize(parse_spec("C(0)")))

    def test_zhou_family_distinct(self):
        z2 = base_change(example_zhou(2))
        z3 = base_change(example_zhou(3))
        assert not is_locally_equivalent(z2, z3)
        assert order_compare_complexes(z2, z3) == LESS

    def test_compare_self(self):
        C = base_change(example_zhou(2))
        assert order_compare_complexes(C, C) == EQUAL

    def test_trivial_above_negative_first(self):
        a = realize(parse_spec("C(0)"))
        b = realize(parse_spec("C(-U[1,0], +V[1,0])"))
        assert order_compare_complexes(a, b) == GREATER

    def test_order_agrees_with_direct_solve(self):
        rng = random.Random(47)
        specs = [random_spec(rng, max_pairs=1) for _ in range(8)]
        for a, b in itertools.product(specs, specs):
            lex = lex_compare(a, b)
            cert = find_local_map(a, realize(b), "full")
            assert (cert is not None) == (lex in (LESS, EQUAL))


class TestPromotionConsistency:
    def test_r_specs_standardize_identically_over_x(self):
        r_specs = [
            make_spec(RingId.R, []),
            make_spec(RingId.R, [SignedParam(Side.U, -1, (1, 0)), SignedParam(Side.V, 1, (1, 0))]),
            make_spec(RingId.R, [SignedParam(Side.U, 1, (2, 0)), SignedParam(Side.V, -1, (1, 0))]),
            make_spec(
                RingId.R,
                [
                    SignedParam(Side.U, -1, (1, 0)),
                    SignedParam(Side.V, 1, (2, 0)),
                    SignedParam(Side.U, -1, (2, 0)),
                    SignedParam(Side.V, 1, (1, 0)),
                ],
            ),
        ]
        for spec in r_specs:
            assert standardize(realize(spec))[0] == spec
            up = promote_spec(spec)
            assert standardize(realize(up))[0] == up


class TestCertJson:
    def test_serializes(self):
        spec = parse_spec("C(-U[2,1], +V[2,1])")
        cert = find_local_map(spec, realize(spec), "full")
        doc = cert.to_json()
        assert doc["kind"] == "full" and doc["gr2shift"] == 0
        assert doc["target"] == "target"
        assert any(e["coeff"] == ["1"] for e in doc["entries"])
