"""Small GF(2) linear algebra on int bitmasks."""


def eliminate(rows, rhs, pivots=None):
    """The echelon pivots of an affine system, or None when it is inconsistent.

    ``pivots`` maps a lowest set bit to its ``(row, b)``; one from an earlier
    call is extended in place.  Each row is eliminated down to a new lowest
    set bit, which becomes its pivot.  Hand the result to ``back_substitute``
    for the solution.
    """
    pivots = {} if pivots is None else pivots
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
                return None
    return pivots


def solve(rows, rhs):
    """Solve the affine system over GF(2); rows are bitmasks of unknowns.

    Returns one solution as a bitmask (free variables zero), or None when
    the system is inconsistent.  The pivot set is the one of the reduced
    row echelon form, which depends only on the row space, so the solution
    does not depend on the order of the rows or on which of them were
    eliminated beforehand.
    """
    pivots = eliminate(rows, rhs)
    return None if pivots is None else back_substitute(pivots)


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
