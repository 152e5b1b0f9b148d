import random

import pytest
from hypothesis import given, settings, strategies as st

from gridring import _gf2

from conftest import reference_solve


def _random_system(rng, n_rows, n_vars, density):
    rows = []
    for _ in range(n_rows):
        r = 0
        for c in range(n_vars):
            if rng.random() < density:
                r |= 1 << c
        rows.append(r)
    return rows, [rng.randrange(2) for _ in rows]


def _rank_deficient(rng, n_rows, n_vars, rank):
    """Rows drawn from the span of ``rank`` random rows, right-hand sides consistent."""
    basis = [rng.getrandbits(n_vars) for _ in range(rank)]
    x = rng.getrandbits(n_vars)
    rows = []
    for _ in range(n_rows):
        r = 0
        for v in basis:
            if rng.randrange(2):
                r ^= v
        rows.append(r)
    return rows, [bin(r & x).count("1") & 1 for r in rows]


def _mirror(x, width):
    """``x`` with bit u moved to bit width - 1 - u."""
    return int(format(x, "0%db" % width)[::-1], 2)


@st.composite
def _systems(draw):
    """A random system: its width, rows (some repeated, so some systems are dependent) and rhs."""
    width = draw(st.integers(1, 24))
    basis = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=width + 2))
    rows = draw(st.lists(st.sampled_from(basis), max_size=width + 4))
    rhs = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return width, rows, rhs


def _cases():
    rng = random.Random(61)
    cases = [([], []), ([0], [0]), ([0], [1]), ([0, 0, 0], [0, 0, 0]), ([1, 1], [0, 1])]
    for n_vars in (1, 2, 5, 17, 64, 130, 200):
        for density in (0.02, 0.1, 0.5):
            # overdetermined (mostly inconsistent), square, underdetermined
            for n_rows in (n_vars + 5, n_vars, max(1, n_vars // 2)):
                cases.append(_random_system(rng, n_rows, n_vars, density))
        for rank in (1, n_vars // 3 + 1, n_vars):
            rows, rhs = _rank_deficient(rng, n_vars + 10, n_vars, rank)
            cases.append((rows, rhs))
            # flipping one right-hand side of a dependent row may break consistency
            rhs = list(rhs)
            rhs[-1] ^= 1
            cases.append((rows, rhs))
    return cases


CASES = _cases()


class TestSolve:
    def test_matches_reference(self):
        inconsistent = 0
        for rows, rhs in CASES:
            want = reference_solve(rows, rhs)
            assert _gf2.solve(rows, rhs) == want
            inconsistent += want is None
        # the corpus exercises both outcomes
        assert 0 < inconsistent < len(CASES)

    @settings(max_examples=300, deadline=None)
    @given(system=_systems())
    def test_highest_bit_is_mirrored_lowest_bit(self, system):
        # pivoting on each row's highest bit is pivoting on its lowest bit
        # with the unknowns numbered from the top: same feasibility, and the
        # free-variables-zero solution of the mirrored rows mirrored back
        width, rows, rhs = system
        old = reference_solve([_mirror(r, width) for r in rows], rhs, lowest=True)
        sol = _gf2.solve(rows, rhs)
        assert sol == (None if old is None else _mirror(old, width))

    def test_solution_solves(self):
        for rows, rhs in CASES:
            sol = _gf2.solve(rows, rhs)
            if sol is not None:
                assert [bin(r & sol).count("1") & 1 for r in rows] == rhs

    def test_split_at_eliminated_head(self):
        # rows eliminated beforehand, in two calls that extend one pivot
        # dict, then the rest eliminated into a copy of it and
        # back-substituted give the solution of the whole system, whatever
        # the split points
        rng = random.Random(67)
        splits = inconsistent = 0
        for rows, rhs in CASES:
            want = reference_solve(rows, rhs)
            for cut in sorted({0, len(rows), rng.randint(0, len(rows)), rng.randint(0, len(rows))}):
                splits += 1
                mid = rng.randint(0, cut)
                block = _gf2.eliminate(rows[:mid], rhs[:mid])
                if block is not None:
                    grown = _gf2.eliminate(rows[mid:cut], rhs[mid:cut], block)
                    assert grown is None or grown is block
                    block = grown
                if block is None:
                    inconsistent += 1
                    assert reference_solve(rows[:cut], rhs[:cut]) is None
                    assert want is None
                    continue
                kept = dict(block)
                rest = _gf2.eliminate(rows[cut:], rhs[cut:], dict(block))
                assert (rest is None) == (want is None)
                if rest is not None:
                    assert _gf2.back_substitute(rest) == want
                assert block == kept
        assert 0 < inconsistent < splits

    def test_inconsistent_head(self):
        assert _gf2.eliminate([1, 1], [0, 1]) is None
        assert _gf2.eliminate([0], [1]) is None
        assert _gf2.eliminate([0, 3], [0, 1]) == {1: (3, 1)}

    @pytest.mark.parametrize("n", [1, 3, 16, 90])
    def test_solve_unit_matches_reference(self, n):
        rng = random.Random(n)
        for _ in range(20):
            rows = [rng.getrandbits(n) for _ in range(n)]
            for t in (0, n - 1, rng.randrange(n)):
                rhs = [1 if i == t else 0 for i in range(n)]
                assert _gf2.solve_unit(rows, t) == reference_solve(rows, rhs)
