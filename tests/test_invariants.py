import random
from fractions import Fraction

import pytest

from gridring import (
    RingId,
    Side,
    SignedParam,
    additivity_check,
    dual_spec,
    p_invariants,
    parse_spec,
    phi,
    realize,
    report,
    tau,
)
from gridring import cli, invariants
from gridring.localeq import VerificationError
from gridring.ring import u_mono, v_mono
from gridring.standard import ShiftMap, make_spec

from conftest import gradings_tau, random_spec

ZHOU = {n: parse_spec("C(-U[%d,%d], +V[%d,%d])" % (n, n - 1, n, n - 1)) for n in (2, 3, 4, 5)}
CABLE = parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])")


class TestPhi:
    def test_zhou_single_entry(self):
        for n, spec in ZHOU.items():
            table = phi(spec)
            assert table.side_items(Side.U) == [((n, n - 1), -1)]

    def test_trivial_empty(self):
        assert phi(parse_spec("C(0)")).entries == ()

    def test_cable(self):
        table = phi(CABLE)
        assert table.count(Side.U, (1, 1)) == -1
        assert table.count(Side.U, (1, 0)) == -1

    def test_dual_negates(self, pool):
        for spec in pool:
            t = phi(spec)
            d = phi(dual_spec(spec))
            keys = {key for key, _c in t.entries} | {key for key, _c in d.entries}
            for side, exp in keys:
                assert d.count(side, exp) == -t.count(side, exp)

    def test_symmetric_tables_mirror(self, pool):
        for spec in pool:
            t = phi(spec)
            assert sorted(t.side_items(Side.U)) == sorted(
                [(e, -c) for e, c in t.side_items(Side.V)]
            )


class TestTau:
    def test_zhou(self):
        for spec in ZHOU.values():
            assert tau(spec) == -1

    def test_trivial(self):
        assert tau(parse_spec("C(0)")) == 0

    def test_cable(self):
        assert tau(CABLE) == -1

    def test_dual_negates(self, pool):
        for spec in pool:
            assert tau(dual_spec(spec)) == -tau(spec)

    def test_matches_gradings_on_symmetric(self, pool):
        for spec in pool:
            assert tau(spec) == gradings_tau(spec)

    def test_asymmetric_formula_differs_from_gradings(self):
        spec = make_spec(
            RingId.X, [SignedParam(Side.U, 1, (2, 1)), SignedParam(Side.V, -1, (1, 2))]
        )
        assert tau(spec) == 1
        assert gradings_tau(spec) == 0


def _epsilon(spec):
    rep = report(spec)
    return rep.epsilon_zero, rep.epsilon_sign


def _bounds(spec):
    rep = report(spec)
    return rep.big_n, rep.genus_lb, rep.unknotting_lb


def _obstructions(spec):
    rep = report(spec)
    return rep.lspace_obstruction, rep.seifert_pos_obstruction, rep.seifert_neg_obstruction


class TestEpsilon:
    def test_trivial(self):
        assert _epsilon(parse_spec("C(0)")) == (True, 0)

    def test_zhou_vanishes(self):
        for spec in ZHOU.values():
            assert _epsilon(spec) == (True, 0)

    def test_axis_first_parameter(self):
        assert _epsilon(parse_spec("C(+U[1,0], -V[1,0])")) == (False, 1)
        assert _epsilon(parse_spec("C(-U[1,0], +V[1,0])")) == (False, -1)


class TestBounds:
    def test_zhou(self):
        for spec in ZHOU.values():
            n, genus, unknot = _bounds(spec)
            assert (n, genus, unknot) == (1, Fraction(1, 2), 1)

    def test_trivial(self):
        assert _bounds(parse_spec("C(0)")) == (0, Fraction(0), 0)

    def test_wide_entry(self):
        assert report(parse_spec("C(-U[3,1], +V[3,1])")).big_n == 2

    def test_dual_invariant(self, pool):
        for spec in pool:
            assert _bounds(spec) == _bounds(dual_spec(spec))


class TestPInvariants:
    def test_trivial(self):
        assert p_invariants(parse_spec("C(0)")) == (0, 0)

    def test_zhou2(self):
        assert p_invariants(ZHOU[2]) == (2, 2)

    def test_closed_form_holds_on_random_specs(self):
        rng = random.Random(53)
        for _ in range(40):
            spec = random_spec(rng, max_pairs=2)
            C = realize(spec)
            pu, pv = p_invariants(spec)  # raises on closed-form mismatch
            assert pu == C.gr(C.n_gens() - 1)[0]
            assert pv == C.gr(0)[1]


class TestObstructions:
    def test_zhou(self):
        for spec in ZHOU.values():
            assert _obstructions(spec) == (True, True, False)

    def test_axis_only(self):
        assert _obstructions(parse_spec("C(+U[2,0], -V[2,0])")) == (False, False, False)

    def test_cable(self):
        lspace, spos, sneg = _obstructions(CABLE)
        assert lspace and spos and not sneg

    def test_j_zero_specs_never_obstruct(self):
        rng = random.Random(59)
        for _ in range(20):
            spec = random_spec(rng, ring=RingId.R, max_pairs=2)
            assert _obstructions(spec) == (False, False, False)


class TestReport:
    def test_zhou2_report(self):
        rep = report(ZHOU[2])
        doc = rep.to_json()
        assert doc["tau"] == -1 and doc["bigN"] == 1
        assert doc["genusLB"] == "1/2" and doc["unknottingLB"] == 1
        assert doc["pU"] == 2 and doc["pV"] == 2
        assert doc["symmetric"] is True and doc["lspaceObstruction"] is True

    def test_cable_report(self):
        rep = report(CABLE)
        assert rep.tau == -1 and rep.epsilon_zero and rep.symmetric

    @pytest.mark.parametrize("text", ["C(+U[2,0])", "C(-U[1,1])", "C(-U[1,0], +V[1,0], -U[1,1])"])
    @pytest.mark.parametrize("read", [report, tau, p_invariants])
    def test_odd_length_rejected(self, read, text):
        # a semistandard search prefix is an input error, not a failed check
        spec = parse_spec(text)
        with pytest.raises(ValueError) as info:
            read(spec)
        assert str(info.value) == (
            "spec has an odd number of parameters (%d): a semistandard search "
            "prefix, not a standard complex" % len(spec.params)
        )
        assert not isinstance(info.value, VerificationError)


def _move_x0(monkeypatch, dg1, dg2):
    """Make ``report`` read gradings with gr(x_0) moved by (dg1, dg2)."""
    real = invariants._gradings

    def moved(spec):
        grades = real(spec)
        return [(grades[0][0] + dg1, grades[0][1] + dg2)] + grades[1:]

    monkeypatch.setattr(invariants, "_gradings", moved)


class TestConsistencyChecks:
    def test_tau_mismatch(self, monkeypatch):
        # gr1(x_0) enters neither P_U nor P_V, only tau's closed form
        _move_x0(monkeypatch, 2, 0)
        with pytest.raises(VerificationError, match="tau mismatch"):
            report(ZHOU[2])

    @pytest.mark.parametrize("text", ["C(0)", "C(-U[2,1], +V[2,1])", "C(-U[2,1], +V[1,0])"])
    def test_tower_grading_closed_form(self, monkeypatch, text):
        _move_x0(monkeypatch, 0, 2)
        with pytest.raises(VerificationError, match="tower-grading closed form"):
            report(parse_spec(text))

    @pytest.mark.parametrize(
        "move, words", [((2, 0), "tau mismatch"), ((0, 2), "tower-grading closed form")]
    )
    def test_cli_exit_code(self, capsys, monkeypatch, move, words):
        _move_x0(monkeypatch, *move)
        assert cli.run(["invariants", "C(-U[2,1], +V[2,1])"]) == 3
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("internal verification failure: " + words)
        assert err.count("\n") == 1


def test_report_computes_each_fact_once(monkeypatch, pool):
    calls = {}

    def spy(name):
        real = getattr(invariants, name)

        def counted(spec):
            calls[name] = calls.get(name, 0) + 1
            return real(spec)

        monkeypatch.setattr(invariants, name, counted)

    for name in ("phi", "_gradings", "is_symmetric"):
        spy(name)
    for spec in pool:
        calls.clear()
        report(spec)
        assert calls == {"phi": 1, "_gradings": 1, "is_symmetric": 1}


class TestAdditivity:
    def test_trivial_pair(self):
        c0 = parse_spec("C(0)")
        assert additivity_check(c0, c0)

    def test_dual_pair_sums_to_zero(self):
        a = parse_spec("C(-U[1,0], +V[1,0])")
        assert additivity_check(a, dual_spec(a))

    def test_random_pairs_with_shift(self):
        rng = random.Random(61)
        m = ShiftMap(Side.U, SignedParam(Side.U, 1, (1, 0)), u_mono(0, 1))
        for _ in range(4):
            a = random_spec(rng, max_pairs=1)
            b = random_spec(rng, max_pairs=1)
            assert additivity_check(a, b, shift_map=m)

    def test_shift_transform_of_phi(self):
        # counts transported along the shift: phi_{m(mu)} after = phi_mu before
        m = ShiftMap(Side.U, SignedParam(Side.U, 1, (1, 0)), u_mono(0, 1))
        spec = parse_spec("C(-U[1,0], +V[1,0])")
        before = phi(spec)
        after = phi(make_spec(RingId.X, [m.apply(p) if k % 2 else p for k, p in enumerate(spec.params, start=1)]))
        for e, c in before.side_items(Side.U):
            shifted = (e[0], e[1] + 1)  # multiplied by the W generator
            assert after.count(Side.U, shifted) == c
