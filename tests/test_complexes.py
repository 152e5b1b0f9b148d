import random

import pytest

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
from gridring.complexes import NotKnotlikeError, basis_mod2, fuv_image, shift_gradings
from gridring.ring import (
    Monomial,
    ONE_ELEM,
    RingElem,
    ZERO,
    elem_from_mono,
    elem_mul,
    elem_side_part,
    u_mono,
    v_mono,
)
from gridring import _gf2

from conftest import acyclic_pair, direct_sum, random_spec, same_complex, scramble


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

    def test_d_squared_detected(self):
        gens = (("a", (0, 0)), ("b", (-1, -1)), ("c", (-2, -2)))
        diff = {(0, 1): ONE_ELEM, (1, 2): ONE_ELEM}
        bad = validate(FreeComplex(RingId.X, gens, diff))
        assert any("d^2" in msg for msg in bad)


class TestBaseChange:
    def test_u1v2(self):
        # U V^2 becomes the U-side (1,2) plus the V-side (2,1)
        assert fuv_image(1, 2) == elem_from_mono(u_mono(1, 2)) + elem_from_mono(v_mono(2, 1))

    def test_pure_power(self):
        assert fuv_image(3, 0) == elem_from_mono(u_mono(3, 0)) + elem_from_mono(v_mono(0, 3))

    def test_unital(self):
        assert fuv_image(0, 0) == ONE_ELEM

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(200):
            a1, b1 = rng.randint(0, 4), rng.randint(0, 4)
            a2, b2 = rng.randint(0, 4), rng.randint(0, 4)
            lhs = fuv_image(a1 + a2, b1 + b2)
            rhs = elem_mul(fuv_image(a1, b1), fuv_image(a2, b2))
            assert lhs == rhs

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


class TestPairedBasis:
    def test_standard_complex_already_paired(self):
        C = realize(parse_spec("C(-U[2,1], +V[2,1])"))
        pb = paired_basis(C, Side.U)
        assert pb.pairs == ((0, 1, u_mono(2, 1)),)
        assert pb.unpaired == (2,)
        # the preferred basis needed no changes
        for i, row in enumerate(pb.basis):
            for j, e in enumerate(row):
                assert e == (ONE_ELEM if i == j else ZERO)

    def test_zhou_v_side(self):
        X = base_change(example_zhou(2))
        pb = paired_basis(X, Side.V)
        assert len(pb.pairs) == 1
        y, z, order = pb.pairs[0]
        assert (y, z) == (0, 2) and order == v_mono(2, 1)
        assert pb.unpaired == (1,)

    def test_zero_side_differential(self):
        gens = (("a", (0, 0)), ("b", (3, 1)))
        C = FreeComplex(RingId.X, gens, {})
        pb = paired_basis(C, Side.V)
        assert pb.pairs == () and pb.unpaired == (0, 1)

    def test_matrix_shape(self, pool):
        rng = random.Random(23)
        for spec in pool:
            C = realize(spec)
            T = tensor(C, realize(rng.choice(pool)))
            for side in (Side.U, Side.V):
                pb = paired_basis(T, side)
                rows = [i for (i, _j) in pb.matrix]
                cols = [j for (_i, j) in pb.matrix]
                assert len(rows) == len(set(rows))
                assert len(cols) == len(set(cols))
                # change of basis is invertible over the residue field
                assert _gf2.solve_unit(basis_mod2(pb), 0) is not None

    def test_change_of_basis_identity(self, pool):
        # d(new_i) expanded two ways forces B * D_side == D_paired * B
        rng = random.Random(71)
        picks = [realize(spec) for spec in pool[:5]]
        picks.append(tensor(realize(pool[1]), realize(pool[5])))
        picks.append(scramble(realize(pool[9]), rng))
        for C in picks:
            m = C.n_gens()
            for side in (Side.U, Side.V):
                pb = paired_basis(C, side)
                d_side = {}
                for (i, j), e in C.diff.items():
                    part = elem_side_part(e, side)
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
        from gridring.ring import param_grading

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
        gens = (("x", (0, 0)), ("y", (-1, -1)))
        C = FreeComplex(RingId.X, gens, {(0, 1): ONE_ELEM})
        with pytest.raises(ValueError):
            is_knotlike(C)

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
