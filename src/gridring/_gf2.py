"""Small GF(2) linear algebra on int bitmasks.

Each row pivots on its highest set bit, its highest-numbered unknown:
``r.bit_length()`` finds it without building an int, and XORing a pivot
row into a row clears that bit and leaves only lower ones, so the row
shrinks as it is eliminated.
"""


def eliminate(rows, rhs, pivots=None):
    """The echelon pivots of an affine system, or None when it is inconsistent.

    ``pivots`` maps a highest set bit to its ``(row, b)``; one from an
    earlier call is extended in place.  Each row is eliminated down to a new
    highest set bit, which becomes its pivot.  Hand the result to
    ``back_substitute`` for the solution.
    """
    pivots = {} if pivots is None else pivots
    for r, b in zip(rows, rhs):
        while r:
            pc = r.bit_length() - 1
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
    row echelon form with each row led by its highest unknown, which
    depends only on the row space, so the solution does not depend on the
    order of the rows or on which of them were eliminated beforehand.
    """
    pivots = eliminate(rows, rhs)
    return None if pivots is None else back_substitute(pivots)


def back_substitute(pivots):
    """The free-variables-zero solution of a consistent system's echelon ``pivots``.

    A pivot row's other bits are all lower than its pivot, so the pivots
    are solved in ascending order.
    """
    sol = 0
    for pc in sorted(pivots):
        r, b = pivots[pc]
        if (b ^ (r & sol).bit_count()) & 1:
            sol |= 1 << pc
    return sol


def solve_unit(rows, t):
    """Solve M x = e_t for square M given as row bitmasks."""
    rhs = [1 if i == t else 0 for i in range(len(rows))]
    return solve(rows, rhs)
