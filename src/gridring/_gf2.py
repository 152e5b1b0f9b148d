"""Small GF(2) linear algebra on int bitmasks."""

from __future__ import annotations


def _reduce(rows, rhs, pivots):
    """Eliminate each row into ``pivots``; False once a row reduces to 0 = 1.

    ``pivots`` maps a lowest set bit to its ``(row, b)``.  Each row is
    eliminated down to a new lowest set bit, which becomes its pivot.
    """
    for r, b in zip(rows, rhs):
        while r:
            pc = (r & -r).bit_length() - 1
            pivot = pivots.get(pc)
            if pivot is None:
                pivots[pc] = (r, b)
                break
            r ^= pivot[0]
            b ^= pivot[1]
        else:
            if b:
                return False
    return True


def eliminate(rows, rhs, pivots=None):
    """The echelon pivots of an affine system, or None when it is inconsistent.

    ``pivots``, from an earlier call, is extended in place.  Hand the result
    to ``solve`` to add further rows without eliminating these again, or to
    ``back_substitute`` for the solution.
    """
    pivots = {} if pivots is None else pivots
    return pivots if _reduce(rows, rhs, pivots) else None


def solve(rows, rhs, pivots=None):
    """Solve the affine system over GF(2); rows are bitmasks of unknowns.

    Returns one solution as a bitmask (free variables zero), or None when
    the system is inconsistent.  ``pivots``, from ``eliminate``, stands for
    rows already eliminated; it is copied, not changed.  The pivot set is
    the one of the reduced row echelon form, which depends only on the
    row space, so the solution does not depend on the order of the rows or
    on which of them were eliminated beforehand.
    """
    pivots = {} if pivots is None else dict(pivots)
    if not _reduce(rows, rhs, pivots):
        return None
    return back_substitute(pivots)


def back_substitute(pivots):
    """The free-variables-zero solution of a consistent system's echelon ``pivots``."""
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
