import random

import pytest

from gridring import _gf2


def reference_solve(rows, rhs):
    """Gauss-Jordan elimination keeping the reduced row echelon form throughout.

    The solver this package shipped before the echelon one; its
    free-variables-zero solution is what the certificates in CLI output
    contain, so the current solver must reproduce it bit for bit.
    """
    sys_rows = []  # (pivot_col, row, b) in reduced row echelon form
    for r, b in zip(rows, rhs):
        for pc, pr, pb in sys_rows:
            if (r >> pc) & 1:
                r ^= pr
                b ^= pb
        if r:
            pc = (r & -r).bit_length() - 1
            sys_rows = [
                (c2, r2 ^ r, b2 ^ b) if (r2 >> pc) & 1 else (c2, r2, b2)
                for (c2, r2, b2) in sys_rows
            ]
            sys_rows.append((pc, r, b))
        elif b:
            return None
    sol = 0
    for pc, _r, b in sys_rows:
        if b:
            sol |= 1 << pc
    return sol


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

    def test_solution_solves(self):
        for rows, rhs in CASES:
            sol = _gf2.solve(rows, rhs)
            if sol is not None:
                assert [bin(r & sol).count("1") & 1 for r in rows] == rhs

    @pytest.mark.parametrize("n", [1, 3, 16, 90])
    def test_solve_unit_matches_reference(self, n):
        rng = random.Random(n)
        for _ in range(20):
            rows = [rng.getrandbits(n) for _ in range(n)]
            for t in (0, n - 1, rng.randrange(n)):
                rhs = [1 if i == t else 0 for i in range(n)]
                assert _gf2.solve_unit(rows, t) == reference_solve(rows, rhs)
