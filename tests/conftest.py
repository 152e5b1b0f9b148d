"""Fixtures and input builders shared by the tests.

The exponent windows, ``direct_sum``, ``acyclic_pair`` and ``pad`` come from
the benchmark corpus.  ``reference_side_ok`` is the side-exponent
membership rule written out, against ``ring._exps_ok``.  The
``reference_elem_*`` functions are the ``Monomial``-based ring tests and a
set-based product, kept here so that the reference checks share no
arithmetic with ``gridring.ring``'s exponent kernels.
``reference_compose`` is the ``RingElem`` matrix product, against
the part-bit product behind d^2 and the certificate checker's chain defect
(``complexes._part_products``), ``reference_solve`` is Gauss-Jordan
elimination over GF(2), against ``_gf2`` and the map oracle's solver,
``reference_grading_basis``
is the basis of one bigrading monomial by monomial, against ``ring``'s
grading table, and ``reference_extant`` is the extant pool read off the
ring's monomials, against ``localeq._extant``'s integer form.
``paired_gradings`` derives a paired basis's gradings from the complex,
which owns them.  ``retyped`` gives an element's exponents as floats or
bools, which the membership rule rejects or accepts.
``random_spec`` and ``scramble`` stay here: the corpus's ``random_spec``
takes a parameter count and its ``scramble`` also shuffles the
generators, so they would draw other test inputs.
"""

import random
import sys

import pytest

from corpus import WINDOW_R, WINDOW_X, pad
from gridring import (
    FreeComplex,
    RingId,
    Side,
    SignedParam,
    dual,
    grading_basis,
    parse_spec,
    realize,
    tensor,
    validate,
)
from gridring.ring import (
    MONO_ONE,
    Monomial,
    ZERO,
    RingElem,
    elem_from_mono,
    elem_monomials,
    elem_mul,
    mono_grading,
)
from gridring.standard import make_spec

POOL_TEXTS = [
    "C(0)",
    "C(-U[1,0], +V[1,0])",
    "C(+U[1,0], -V[1,0])",
    "C(-U[1,1], +V[1,1])",
    "C(+U[1,1], -V[1,1])",
    "C(-U[2,1], +V[2,1])",
    "C(+U[2,1], -V[2,1])",
    "C(-U[1,2], +V[1,2])",
    "C(-U[2,0], +V[2,0])",
    "C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])",
    "C(+U[1,1], -V[1,0], +U[1,0], -V[1,1])",
    "C(-U[2,1], +V[1,0], -U[1,0], +V[2,1])",
    "C(-U[3,2], +V[3,2])",
]


def _int_digit_limit(limit):
    """Hold the interpreter's integer digit limit at ``limit`` while the caller yields."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def no_int_digit_limit():
    """Lift the interpreter's integer digit limit for one test, where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    yield from _int_digit_limit(0)


@pytest.fixture
def int_digit_limit():
    """Set the interpreter's integer digit limit to its default, 4300, for one test.

    Skips the test where the interpreter has no such limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("int() has no digit limit")
    yield from _int_digit_limit(4300)


@pytest.fixture(scope="session")
def pool():
    return [parse_spec(t) for t in POOL_TEXTS]


def random_spec(rng, ring=RingId.X, max_pairs=1, n_pairs=None):
    """A spec of up to ``max_pairs`` parameter pairs, or exactly ``n_pairs``."""
    window = WINDOW_X if ring is RingId.X else WINDOW_R
    if n_pairs is None:
        n_pairs = rng.randint(0, max_pairs)
    params = []
    for k in range(1, 2 * n_pairs + 1):
        side = Side.U if k % 2 else Side.V
        params.append(SignedParam(side, rng.choice([1, -1]), rng.choice(window)))
    return make_spec(ring, params)


def gradings_tau(spec):
    """Half of gr1(x_0) - gr2(x_0) of the realized spec: tau on a symmetric spec."""
    g = realize(spec).gr(0)
    return (g[0] - g[1]) // 2


def param_grading(p):
    """Bigrading of a signed parameter: its monomial's, negated for an inverse."""
    g1, g2 = mono_grading(Monomial(p.side, p.exp))
    return (p.sign * g1, p.sign * g2)


def reference_side_ok(ring, exp):
    """Whether the int pair ``exp`` is a side exponent of ``ring``, the rule written out.

    The region (Z x Z>=0) - (Z<0 x {0}) without the origin; ring R keeps
    only its x-axis.
    """
    i, j = exp
    if (i, j) == (0, 0) or j < 0 or (j == 0 and i < 0):
        return False
    return ring is RingId.X or j == 0


def reference_elem_ok(ring, e):
    """Ring membership through ``reference_side_ok`` on each side monomial of ``e``."""
    return all(reference_side_ok(ring, m.exp) for m in elem_monomials(e) if m.side is not Side.ONE)


def reference_elem_grading(e):
    """The common ``mono_grading`` of e's monomials; None for zero, ValueError if several."""
    grs = {mono_grading(m) for m in elem_monomials(e)}
    if not grs:
        return None
    if len(grs) > 1:
        raise ValueError("element is not homogeneous: %r" % (e,))
    return grs.pop()


def retyped(e, kind):
    """``e`` with each exponent component turned into ``kind``; a bool replaces only 0 and 1.

    A float exponent equals its int one but is not a side exponent; a bool
    one is its int.
    """
    def part(exps):
        return frozenset(
            tuple(kind(x) if kind is float or x in (0, 1) else x for x in exp) for exp in exps
        )

    return RingElem(e.scalar, part(e.u), part(e.v))


def reference_elem_mul(a, b):
    """The product of a and b term by term, as a set of ``(part, exponent)`` parities.

    The scalar multiplies every term, two terms of one side add their
    exponents and terms of opposite sides vanish.
    """
    def terms(e):
        return [("1", (0, 0))] * e.scalar + [("U", x) for x in e.u] + [("V", x) for x in e.v]

    out = set()
    for pa, xa in terms(a):
        for pb, xb in terms(b):
            if pa == "1" or pb == "1" or pa == pb:
                part = pb if pa == "1" else pa
                out ^= {(part, (xa[0] + xb[0], xa[1] + xb[1]))}
    return RingElem(
        int(("1", (0, 0)) in out),
        frozenset(x for p, x in out if p == "U"),
        frozenset(x for p, x in out if p == "V"),
    )


def reference_compose(da, db):
    """Matrix product of two sparse ``RingElem`` differentials, entry by ``elem_mul``.

    The ``localeq._compose`` the certificate checker used before it formed
    its chain defect on part bits (``complexes._part_products``, which d^2
    shares): the keys come in the order of their first nonzero product, and
    zero sums are dropped.
    """
    from_b = {}
    for (j, k), e in db.items():
        from_b.setdefault(j, []).append((k, e))
    out = {}
    for (i, j), e1 in da.items():
        for k, e2 in from_b.get(j, ()):
            p = elem_mul(e1, e2)
            if p:
                out[(i, k)] = out.get((i, k), ZERO) + p
    return {key: e for key, e in out.items() if e}


def reference_solve(rows, rhs, lowest=False):
    """Gauss-Jordan elimination over GF(2) keeping the reduced row echelon form throughout.

    Rows are bitmasks of unknowns.  Each new row is reduced by the pivot
    rows of the pivot columns it holds, takes its highest set bit as its
    pivot (its lowest with ``lowest``, the rule the package's certificates
    followed before) and clears that bit from the rows already kept.
    Returns the solution with every free variable zero, or None when the
    system is inconsistent.
    """
    kept, cols = {}, 0  # pivot column -> (row, b) in reduced row echelon form, and their mask
    for r, b in zip(rows, rhs):
        while r & cols:
            pr, pb = kept[(r & cols).bit_length() - 1]
            r ^= pr
            b ^= pb
        if r:
            pc = (r & -r if lowest else r).bit_length() - 1
            for c2, (r2, b2) in kept.items():
                if (r2 >> pc) & 1:
                    kept[c2] = (r2 ^ r, b2 ^ b)
            kept[pc] = (r, b)
            cols |= 1 << pc
        elif b:
            return None
    return sum(1 << pc for pc, (_r, b) in kept.items() if b)


def reference_grading_basis(ring, gr):
    """The F2 basis of the ring in one bigrading, monomial by monomial (``reference_side_ok``).

    The scalar alone in (0, 0), nothing in an odd grading, else the U-side
    monomial before the V-side one, each kept if it is valid.
    """
    g1, g2 = gr
    if (g1, g2) == (0, 0):
        return [MONO_ONE]
    if g1 % 2 or g2 % 2:
        return []
    out = []
    ue = (-g1 // 2, -g2 // 2)
    if reference_side_ok(ring, ue):
        out.append(Monomial(Side.U, ue))
    ve = (-g2 // 2, -g1 // 2)
    if reference_side_ok(ring, ve):
        out.append(Monomial(Side.V, ve))
    return out


def reference_extant(C, pb_u, pb_v):
    """The extant pool of a normalized complex, by walking the ring's monomials.

    For each pair of a paired basis, with y of grading g_y and order
    (a, b), and each generator grading g_0, every monomial of
    ``reference_grading_basis(g_0 - g_y)`` that is the unit or on the
    basis's side adds (a, b) plus its exponent.  Returns the U-side and
    V-side sets.
    """
    gen_grades = {C.gr(i) for i in range(C.n_gens())}
    sides = {}
    for pb in (pb_u, pb_v):
        coeffs = set()
        for y, _z, order in pb.pairs:
            (gy1, gy2), (a, b) = C.gr(y), order.exp
            for g1, g2 in gen_grades:
                for m in reference_grading_basis(C.ring, (g1 - gy1, g2 - gy2)):
                    if m.side is Side.ONE or m.side is pb.side:
                        coeffs.add((a + m.exp[0], b + m.exp[1]))
        sides[pb.side] = frozenset(coeffs)
    return sides[Side.U], sides[Side.V]


def paired_gradings(C, pb):
    """The bigrading of each element of a paired basis of C.

    Element i keeps generator i's grading, except a pair's z, read off y
    and the order: d_side(y) = order * z lowers y's grading by (1, 1), so
    z's grading is that minus the order's.  On a valid complex this is
    gr(z) again; the random side matrices of ``test_errors_match`` have
    arbitrary gradings, where it is not.
    """
    grades = [C.gr(i) for i in range(C.n_gens())]
    for y, z, order in pb.pairs:
        (g1, g2), (m1, m2) = C.gr(y), mono_grading(order)
        grades[z] = (g1 - 1 - m1, g2 - 1 - m2)
    return tuple(grades)


def same_complex(C1, C2):
    """Equality up to generator renaming (gradings and differential)."""
    return (
        C1.ring is C2.ring
        and tuple(gr for _nm, gr in C1.generators) == tuple(gr for _nm, gr in C2.generators)
        and C1.diff == C2.diff
    )


def _accumulate(diff, key, term):
    if not term:
        return
    acc = diff.get(key)
    val = term if acc is None else acc + term
    if val:
        diff[key] = val
    else:
        diff.pop(key, None)


def scramble(C, rng, n_ops=8):
    """Random homogeneous elementary basis changes; keeps the complex valid."""
    m = C.n_gens()
    diff = dict(C.diff)
    for _ in range(n_ops):
        i = rng.randrange(m)
        j = rng.randrange(m)
        if i == j:
            continue
        gi, gj = C.gr(i), C.gr(j)
        basis = grading_basis(C.ring, (gi[0] - gj[0], gi[1] - gj[1]))
        if not basis:
            continue
        e = elem_from_mono(rng.choice(basis))
        # g_i += e * g_j: row i picks up e * row j, column j picks up e * column i
        new = dict(diff)
        for k in range(m):
            src = diff.get((j, k))
            if src is not None:
                _accumulate(new, (i, k), elem_mul(e, src))
        for k in range(m):
            src = diff.get((k, i))
            if src is not None:
                _accumulate(new, (k, j), elem_mul(src, e))
        diff = new
    out = FreeComplex(C.ring, tuple(C.generators), diff)
    assert validate(out) == []
    return out


def shuffle_generators(C, rng):
    """The same complex with its generators in a random order."""
    perm = list(range(C.n_gens()))
    rng.shuffle(perm)  # perm[new] = old
    where = {old: new for new, old in enumerate(perm)}
    gens = tuple(C.generators[old] for old in perm)
    return FreeComplex(C.ring, gens, {(where[a], where[b]): e for (a, b), e in C.diff.items()})


def wide_product(rng, s_pairs=2, t_pairs=3, pad_pairs=(20, 40)):
    """``realize(s) ⊗ T ⊗ T∨`` padded with acyclic pairs and scrambled.

    Returns ``(s, complex)``; the complex is locally equivalent to ``s``.
    With the defaults it has 245 generators before padding.
    """
    s = random_spec(rng, n_pairs=s_pairs)
    T = realize(random_spec(rng, n_pairs=t_pairs))
    C = tensor(tensor(realize(s), T), dual(T))
    return s, scramble(pad(C, rng, rng.randint(*pad_pairs)), rng, n_ops=C.n_gens())
