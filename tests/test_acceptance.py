"""Acceptance suite: one test per criterion, each printing a pass line."""

import itertools
import random
import time
from fractions import Fraction

from gridring import (
    EQUAL,
    LESS,
    RingId,
    Side,
    base_change,
    check_certificate,
    dual,
    example_cable,
    example_zhou,
    find_local_map,
    is_reduced,
    lex_compare,
    parse_spec,
    phi,
    p_invariants,
    promote_spec,
    quotient_homology,
    realize,
    reduce,
    report,
    standard_representative,
    standardize,
    tensor,
    validate,
    validate_fuv,
)
from gridring.complexes import fuv_image
from gridring.ring import elem_mul, in_region, lattice_key
from gridring.standard import make_spec

from conftest import POOL_TEXTS, gradings_tau, random_spec, scramble
from corpus import acyclic_pair, direct_sum


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print("%s: %s (%.2fs)" % (self.label, status, dt))
        if exc_type is None:
            assert dt < self.budget, "%s exceeded its %.0fs budget (%.2fs)" % (
                self.label,
                self.budget,
                dt,
            )
        return False


def test_criterion_1_zhou_family():
    with _Timer("criterion 1 (surgery family reproduction)", 4 * 5.0):
        for n in (2, 3, 4, 5):
            t0 = time.perf_counter()
            C = reduce(base_change(example_zhou(n)))
            spec = standardize(C)[0]
            want = parse_spec("C(-U[%d,%d], +V[%d,%d])" % (n, n - 1, n, n - 1))
            assert spec == want
            table = phi(spec)
            assert table.side_items(Side.U) == [((n, n - 1), -1)]
            assert time.perf_counter() - t0 < 5.0


def test_criterion_2_cable():
    with _Timer("criterion 2 (cable reproduction)", 5.0):
        X = base_change(example_cable())
        assert validate(X) == []
        R = reduce(X)
        assert R.n_gens() == 5 and is_reduced(R)
        spec = standard_representative(X)[0]
        assert spec == parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])")


def test_criterion_3_gradings():
    with _Timer("criterion 3 (realized gradings)", 5.0):
        C = realize(parse_spec("C(-U[2,1], +V[2,1])"))
        assert [gr for _nm, gr in C.generators] == [(0, 2), (3, 3), (2, 0)]


def test_criterion_4_group_structure():
    with _Timer("criterion 4 (group structure)", 120.0):
        rng = random.Random(2024)
        trivial = parse_spec("C(0)")
        for _ in range(50):
            a = random_spec(rng, max_pairs=1)
            b = random_spec(rng, max_pairs=1)
            A, B = realize(a), realize(b)
            ab = standardize(tensor(A, B))[0]
            # phi is additive entrywise
            ta, tb, tab = phi(a), phi(b), phi(ab)
            keys = {k for k, _c in ta.entries} | {k for k, _c in tb.entries}
            keys |= {k for k, _c in tab.entries}
            for side, exp in keys:
                assert tab.count(side, exp) == ta.count(side, exp) + tb.count(side, exp)
            # tower gradings are additive
            pu_a, pv_a = p_invariants(a)
            pu_b, pv_b = p_invariants(b)
            pu_ab, pv_ab = p_invariants(ab)
            assert pu_ab == pu_a + pu_b and pv_ab == pv_a + pv_b
            # inverses: the dual cancels the complex
            assert standardize(tensor(A, dual(A)))[0] == trivial


def test_criterion_5_order_oracle_equivalence():
    with _Timer("criterion 5 (order/oracle equivalence)", 60.0):
        specs = [parse_spec(t) for t in POOL_TEXTS]
        assert len(specs) >= 12
        for a, b in itertools.product(specs, specs):
            lex = lex_compare(a, b)
            cert = find_local_map(a, realize(b), "full")
            assert (cert is not None) == (lex in (LESS, EQUAL))
            if cert is not None:
                assert check_certificate(realize(a), realize(b), cert) == []


def test_criterion_6_tau_consistency():
    with _Timer("criterion 6 (tau consistency)", 60.0):
        specs = [parse_spec(t) for t in POOL_TEXTS]
        zhou_specs = [
            standardize(reduce(base_change(example_zhou(n))))[0] for n in (2, 3)
        ]
        cable_spec = standard_representative(base_change(example_cable()))[0]
        for spec in specs + zhou_specs + [cable_spec]:
            table = phi(spec)
            total = sum((e[0] - e[1]) * c for e, c in table.side_items(Side.U))
            assert total == gradings_tau(spec)
        for spec in zhou_specs + [cable_spec]:
            table = phi(spec)
            assert sum((e[0] - e[1]) * c for e, c in table.side_items(Side.U)) == -1


def test_criterion_7_invariant_suite():
    with _Timer("criterion 7 (invariant suite)", 60.0):
        # total-order axioms on the exhaustive window
        window = [
            (i, j)
            for i in range(-4, 5)
            for j in range(-4, 5)
            if (i, j) != (0, 0)
        ]
        ordered = sorted(window, key=lattice_key)
        pos = {p: k for k, p in enumerate(ordered)}
        for a in window:
            for b in window:
                want = (pos[a] > pos[b]) - (pos[a] < pos[b])
                ka, kb = lattice_key(a), lattice_key(b)
                assert (ka > kb) - (ka < kb) == want

        # reduce preserves the quotient homology of mixed complexes
        rng = random.Random(777)
        for _ in range(8):
            spec = random_spec(rng, max_pairs=2)
            base = realize(spec)
            C = direct_sum(base, acyclic_pair(RingId.X, (4, 2)))
            mixed = scramble(C, rng)
            R = reduce(mixed)
            for side in (Side.U, Side.V):
                got = quotient_homology(R, side)
                want = quotient_homology(base, side)
                assert got.tower_count == want.tower_count
                assert sorted(got.tower_gradings) == sorted(want.tower_gradings)
                assert sorted((o.exp, s) for o, s in got.torsion) == sorted(
                    (o.exp, s) for o, s in want.torsion
                )

        # base change is multiplicative on 200 random monomial pairs
        for _ in range(200):
            a1, b1, a2, b2 = (rng.randint(0, 4) for _ in range(4))
            assert fuv_image({(a1 + a2, b1 + b2)}) == elem_mul(
                fuv_image({(a1, b1)}), fuv_image({(a2, b2)})
            )

        # duality is an involution
        for text in POOL_TEXTS:
            C = realize(parse_spec(text))
            D = dual(dual(C))
            assert tuple(gr for _nm, gr in D.generators) == tuple(
                gr for _nm, gr in C.generators
            )
            assert D.diff == C.diff

        # the knot-realizable examples are symmetric
        from gridring import is_symmetric

        for n in (2, 3, 4, 5):
            assert is_symmetric(parse_spec("C(-U[%d,%d], +V[%d,%d])" % (n, n - 1, n, n - 1)))
        assert is_symmetric(parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])"))

        # obstruction flags of the surgery family
        for n in (2, 3, 4, 5):
            spec = parse_spec("C(-U[%d,%d], +V[%d,%d])" % (n, n - 1, n, n - 1))
            rep = report(spec)
            assert (
                rep.lspace_obstruction, rep.seifert_pos_obstruction, rep.seifert_neg_obstruction
            ) == (True, True, False)

        # promotion consistency on j = 0 specs
        for _ in range(6):
            r_spec = random_spec(rng, ring=RingId.R, max_pairs=2)
            assert standardize(realize(r_spec))[0] == r_spec
            up = promote_spec(r_spec)
            assert standardize(realize(up))[0] == up


def test_criterion_8_bounds():
    with _Timer("criterion 8 (genus and unknotting bounds)", 5.0):
        for n in (2, 3, 4, 5):
            spec = parse_spec("C(-U[%d,%d], +V[%d,%d])" % (n, n - 1, n, n - 1))
            rep = report(spec)
            assert rep.big_n == 1
            assert rep.genus_lb == Fraction(1, 2)
            assert rep.unknotting_lb == 1
