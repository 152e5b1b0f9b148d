import itertools
import math
import random

import pytest

from gridring import (
    EQUAL,
    GREATER,
    LESS,
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
)
from gridring.complexes import normalize
from gridring.localeq import VerificationError, _descending, _map_into, _tower_data
from gridring.standard import make_spec

from conftest import acyclic_pair, direct_sum, random_spec, scramble


def _search_input(which):
    """A reduced, normalized complex whose standardization takes several steps."""
    if which == "cable":
        return normalize(reduce(base_change(example_cable())))
    return base_change(example_zhou(3))


def _linear_scan(C):
    """The greedy extraction by exhaustive trial, as the reference for the bisection.

    Returns the extracted spec and, per step, (k, descending candidates,
    feasibility of each); a step accepts its first feasible candidate.
    """
    ext = extant_coefficients(C)
    w, _mask, tgr = _tower_data(C)
    params = []
    steps = []
    for k in range(1, 2 * C.n_gens() + 2):
        side = Side.U if k % 2 else Side.V
        cands = _descending(side, ext.for_side(side), stop=k % 2 == 1)
        pattern = []
        for p in cands:
            if p is None:
                spec, kind = make_spec(C.ring, params), "full"
            else:
                spec, kind = make_spec(C.ring, params + [p]), "short"
            pattern.append(_map_into(spec, C, w, tgr, kind, "complex") is not None)
        steps.append((k, cands, pattern))
        p = cands[pattern.index(True)]
        if p is None:
            return make_spec(C.ring, params), steps
        params.append(p)
    raise AssertionError("no stop within the splitting bound")


class TestExtant:
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
        from dataclasses import replace
        from gridring.ring import ZERO, elem_from_mono, u_mono

        broken = dict(cert.matrix)
        broken[(0, 0)] = ZERO  # drop the tower hit
        bad = replace(cert, matrix={k: v for k, v in broken.items() if v})
        assert check_certificate(realize(spec), tgt, bad) != []

    def test_short_certificates_check(self):
        # the checker drops the same chain condition as the solver: (n, U)
        # after an even prefix of n parameters, (n, V) after an odd one
        from dataclasses import replace

        target = normalize(reduce(base_change(example_cable())))
        cable = parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])")
        for n in range(len(cable.params) + 1):
            prefix = make_spec(RingId.X, cable.params[:n])
            cert = find_local_map(prefix, target, "short")
            assert cert is not None
            assert check_certificate(realize(prefix), target, cert) == []
            if n % 2 == 0:
                full = check_certificate(realize(prefix), target, replace(cert, kind="full"))
                assert set(full) == {"chain condition fails at generator %d on side U" % n}

    def test_short_weaker_than_full(self):
        # the length-1 prefix of the zhou spec admits a short map but no
        # standard extension by a positive parameter
        X = base_change(example_zhou(2))
        prefix = make_spec(RingId.X, [SignedParam(Side.U, -1, (2, 1))])
        cert = find_local_map(prefix, X, "short")
        assert cert is not None

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


class TestStandardize:
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

    def test_feasibility_is_monotone(self, pool):
        # the bisection relies on feasibility along each step's descending
        # list reading 0*1*; check it exhaustively on a fixed corpus
        rng = random.Random(53)
        corpus = [_search_input("cable"), _search_input("zhou3")]
        for _ in range(10):
            C = tensor(realize(rng.choice(pool)), realize(rng.choice(pool)))
            C = direct_sum(C, acyclic_pair(RingId.X, (2 * rng.randint(-1, 1), 0)))
            corpus.append(normalize(reduce(scramble(C, rng, n_ops=12))))
        n_steps = 0
        for C in corpus:
            want, steps = _linear_scan(C)
            for _k, _cands, pattern in steps:
                assert pattern == sorted(pattern)
            assert standardize(C)[0] == want
            n_steps += len(steps)
        assert n_steps > 3 * len(corpus)

    @pytest.mark.parametrize("which", ["cable", "zhou3"])
    def test_one_solve_per_trial_plus_backward(self, which, monkeypatch):
        # each trial is one system; the stopping trial's map is the forward
        # certificate, so only the backward map adds a solve
        import gridring.localeq

        calls = []
        original = gridring.localeq._solve_map

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gridring.localeq, "_solve_map", counting)
        trace = []
        standardize(_search_input(which), trace=trace)
        assert len(calls) == len(trace) + 1

    def test_paired_bases_computed_once(self, monkeypatch):
        # per call: is_knotlike on the input (2), the input's bases shared by
        # the normalization check, extant pool and tower (2), and one fresh
        # target basis for each certificate check (2); the standard
        # representative's tower is x_0 in closed form
        import gridring.complexes
        import gridring.localeq

        calls = []
        original = gridring.complexes.paired_basis

        def counting(C, side):
            calls.append(side)
            return original(C, side)

        monkeypatch.setattr(gridring.complexes, "paired_basis", counting)
        monkeypatch.setattr(gridring.localeq, "paired_basis", counting)
        cable = reduce(base_change(example_cable()))
        standard_representative(tensor(cable, cable))
        assert len(calls) <= 6

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
        _w, mask, _g = _tower_data(X)
        assert check_certificate(X, realize(spec), back, src_mask=mask) == []

    def test_left_locality_flag(self):
        # a right-local equivalence is automatically left local; the optional
        # flag re-verifies the U-side tower image
        X = base_change(example_zhou(2))
        spec, fwd, back = standardize(X)
        assert check_certificate(realize(spec), X, fwd, check_left=True) == []
        _w, mask, _g = _tower_data(X)
        assert (
            check_certificate(X, realize(spec), back, src_mask=mask, check_left=True)
            == []
        )


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
