"""Small GF(2) linear algebra on int bitmasks."""

from __future__ import annotations


def solve(rows, rhs):
    """Solve the affine system over GF(2); rows are bitmasks of unknowns.

    Returns one solution as a bitmask (free variables zero), or None when
    the system is inconsistent.  Each row is eliminated down to a new lowest
    set bit, its pivot; the pivot set, and so the solution, is the one of
    the reduced row echelon form.
    """
    pivots = {}  # lowest set bit -> (row, b)
    for r, b in zip(rows, rhs):
        while r:
            pc = (r & -r).bit_length() - 1
            if pc not in pivots:
                pivots[pc] = (r, b)
                break
            pr, pb = pivots[pc]
            r ^= pr
            b ^= pb
        else:
            if b:
                return None
    sol = 0
    for pc in sorted(pivots, reverse=True):
        r, b = pivots[pc]
        if (b ^ (r & sol).bit_count()) & 1:
            sol |= 1 << pc
    return sol


def solve_unit(rows, t):
    """Solve M x = e_t for square M given as row bitmasks."""
    rhs = [1 if i == t else 0 for i in range(len(rows))]
    return solve(rows, rhs)
