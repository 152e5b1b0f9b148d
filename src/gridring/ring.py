"""Exact arithmetic in the two built-in grid rings.

A grid ring is glued from two halves, a "U side" and a "V side", whose
maximal ideals multiply to zero.  Ring ``R`` is F2[U,V]/(UV): the U side is
F2[U] and the V side is F2[V].  Ring ``X`` has larger halves: the U side is
spanned over F2 by monomials U_B^i W_B^j, the V side by V_T^i W_T^j, with
exponent pairs (i, j) drawn from the lattice region

    (Z x Z>=0) - (Z<0 x {0}),

i.e. j >= 0, and i >= 0 when j = 0.  Negative powers of the first variable
are allowed as soon as j >= 1.  Every element is an F2 combination of a
scalar, U-side monomials and V-side monomials; cross-side products vanish.

Homogeneous elements of one side, and their formal inverses, carry the total
order ``<!`` used everywhere downstream: positives are ordered by reverse
divisibility (the generator U_B, encoded (1, 0), is the greatest element),
negatives sit below the positives and mirror them (the inverse of U_B,
encoded (-1, 0), is the least element).  The order is represented by one
integer sort key, ``lattice_key`` on exponent pairs and ``param_key`` on
signed parameters with the neutral 1 (``None``) in its own band between the
negatives and the positives; consumers sort or take a max by the key.
"""

from enum import Enum
from operator import attrgetter

LESS, EQUAL, GREATER = -1, 0, 1

_set = object.__setattr__  # how a record's ``__init__`` sets its fields


class _Record:
    """Base of the package's immutable records, whose fields are their ``__slots__``.

    The shared ``__init__`` takes the fields positionally or by keyword, in
    ``__slots__`` order, and raises ``TypeError`` naming the class and the
    field on too many arguments, a missing field, a field given twice or an
    unknown keyword.  Four records write their own ``__init__``.
    ``RingElem``, ``Monomial`` and ``SignedParam`` set their fields with
    ``object.__setattr__``: they are built on the hot path, where the
    shared one measured 5-11% slower per small standardization (with
    ``Monomial`` on it, search-long ``latency_p50_s`` was slower in 5 of 6
    paired runs) and about twice as slow per ``SignedParam``, built once
    per probe.  ``StandardSpec``, which checks its ring and its
    parameters, passes its fields on to the shared one.  Every other
    record, ``FreeComplex`` among them, builds through the shared one.

    Records compare equal, and hash, by their fields' values (``_fields``,
    a tuple unless there is one field); a record of another class is never
    equal.  The default repr is ``Name(field=value, ...)``.  Assigning or
    deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__dict__.get("__slots__")
        if names:
            cls._fields = property(attrgetter(*names))

    def __init__(self, *args, **kwargs):
        names, cls = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError("%s takes %d fields %s, not %d" % (cls, len(names), names, len(args)))
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError("%s is missing field %r" % (cls, name))
            _set(self, name, kwargs.pop(name))
        if kwargs:  # an unknown keyword, or a positional field given again
            name = next(iter(kwargs))
            why = "repeats field" if name in names else "has no field"
            raise TypeError("%s %s %r" % (cls, why, name))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable record" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable record" % name)


def _brief(value):
    """``repr(value)`` cut to 80 characters, so an error stays one short line.

    It never raises.  Where ``repr`` fails, with ``ValueError`` on an int
    past Python's digit limit for string conversion or with ``TypeError``
    (a ``RingElem`` whose side part is not a set of exponents), the value
    is taken apart: such an int prints as ``<N digits>``, its digit count,
    a record as ``Name(field, ...)``, a tuple as ``(item, ...)`` and
    another container as ``Name(item, ...)``, each part through ``_brief``,
    and anything else as ``<Name>``.
    """
    try:
        text = repr(value)
    except (TypeError, ValueError):
        if isinstance(value, int):
            k = (abs(value).bit_length() - 1) * 30103 // 100000  # 10**k <= |value|
            while 10**k <= abs(value):
                k += 1
            return "%s<%d digits>" % ("-" if value < 0 else "", k)
        name = "" if isinstance(value, tuple) else value.__class__.__qualname__
        try:
            record = isinstance(value, _Record)
            items = [getattr(value, f) for f in value.__slots__] if record else list(value)
        except TypeError:
            return "<%s>" % name
        text = "%s(%s)" % (name, ", ".join(map(_brief, items)))
    return text if len(text) <= 80 else text[:77] + "..."


class RingId(Enum):
    R = "R"
    X = "X"


class Side(Enum):
    ONE = "1"
    U = "U"
    V = "V"


def _exps_ok(ring, exps):
    """True if every exponent in ``exps`` is a side exponent of ``ring``; never raises.

    A side exponent is a tuple (i, j) of two ints, a bool being the int it
    subclasses, in the region off the origin: j > 0 (ring X only), or
    j == 0 < i.  Anything else, a float, a str, a 3-tuple, a frozenset or
    ``exps`` itself not iterable, gives False.  This is the one membership
    rule: ``in_region``, ``elem_ok``, ``param_ok`` and ``_side_exp``
    (the inverse of ``_grading`` that the grading tables,
    ``complexes._slot`` and ``complexes._square_defects`` call) apply it.
    One copy stays written out where a call per pair measured slower:
    ``localeq._extant``'s region test (380 to 640 us per search-long
    input).  ``complexes.validate`` first tests each exponent against its
    arrow's grading: a tuple of ints equal to that grading's side exponent,
    which it tests for the region written out, so an exponent it passes
    passes this rule.
    """
    over_r = ring is RingId.R
    try:
        for exp in exps:
            i, j = exp
            if not (isinstance(exp, tuple) and isinstance(i, int) and isinstance(j, int)) \
                    or j < 0 or (j == 0 and i <= 0) or (over_r and j):
                return False
    except (TypeError, ValueError):
        return False
    return True


def _grading(side, exp):
    """The bigrading of a side monomial (i, j): (-2i, -2j) on side U, (-2j, -2i) on side V."""
    i, j = exp
    return (-2 * i, -2 * j) if side is Side.U else (-2 * j, -2 * i)


def _side_exp(ring, side, gr):
    """The inverse of ``_grading``: the exponent of ``ring``'s side monomial of grading ``gr``.

    None when ``gr`` has an odd component or its exponent fails
    ``_exps_ok``, as the origin does.  This is the one place the inverse
    is written: the grading tables, ``complexes._slot`` and
    ``complexes._square_defects`` call it.
    """
    g1, g2 = gr
    if g1 % 2 or g2 % 2:
        return None
    exp = (-g1 // 2, -g2 // 2) if side is Side.U else (-g2 // 2, -g1 // 2)
    return exp if _exps_ok(ring, [exp]) else None


def _exp_text(exp):
    """``[i,j]`` for a pair of ints (a bool prints as its int), else the exponent as given.

    So ``(1, 0)`` prints as ``[1,0]``, ``(1.5, 0)`` as ``[(1.5, 0)]`` and
    ``"ab"`` as ``['ab']``.
    """
    if isinstance(exp, tuple) and len(exp) == 2 and isinstance(exp[0], int) \
            and isinstance(exp[1], int):
        return "[%d,%d]" % exp
    return "[%r]" % (exp,)


def in_region(exp):
    """True if exp lies in the valid exponent region, origin included.

    That is, exp equals the origin (0, 0) or is a side exponent of ring X
    (``_exps_ok``).
    """
    return exp == (0, 0) or _exps_ok(RingId.X, [exp])


class Monomial(_Record):
    """A homogeneous monomial of one side of a grid ring, or the scalar 1."""

    __slots__ = ("side", "exp")

    def __init__(self, side, exp):
        _set(self, "side", side)
        _set(self, "exp", exp)

    def __repr__(self):
        return mono_text(self)


MONO_ONE = Monomial(Side.ONE, (0, 0))


def u_mono(i, j=0):
    return Monomial(Side.U, (i, j))


def v_mono(i, j=0):
    return Monomial(Side.V, (i, j))


def mono_grading(m):
    return (0, 0) if m.side is Side.ONE else _grading(m.side, m.exp)


def mono_text(m):
    return "1" if m.side is Side.ONE else m.side.value + _exp_text(m.exp)


class SignedParam(_Record):
    """A nontrivial homogeneous monomial of one side, or its inverse.

    ``sign=+1`` denotes the monomial itself, ``sign=-1`` its formal inverse.
    The neutral value 1 is not a SignedParam; operations that need it accept
    ``None`` as a sentinel.
    """

    __slots__ = ("side", "sign", "exp")

    def __init__(self, side, sign, exp):
        _set(self, "side", side)
        _set(self, "sign", sign)
        _set(self, "exp", exp)

    def __repr__(self):
        return param_text(self)


def param_ok(ring, p):
    """True if p lies on side U or V with a sign of 1 or -1 and a side exponent of ``ring``.

    The sign must be an int, a bool being the int it subclasses, as
    ``_exps_ok`` asks of exponents: ``1.0`` or ``"+"`` is not a sign.
    """
    return p.side in (Side.U, Side.V) and isinstance(p.sign, int) and p.sign in (1, -1) \
        and _exps_ok(ring, [p.exp])


def param_text(p):
    """``+`` or ``-`` for a sign of the int 1 or -1, else the sign as given, then the monomial.

    A bool sign is its int; any other sign prints in parentheses, as
    ``_exp_text`` prints an exponent that is not an int pair, so ``1.0``
    gives ``(1.0)U[1,0]`` and never the text of a valid parameter.
    """
    if isinstance(p.sign, int) and p.sign in (1, -1):
        sign = "+" if p.sign > 0 else "-"
    else:
        sign = "(%r)" % (p.sign,)
    return sign + p.side.value + _exp_text(p.exp)


def param_flip(p):
    return SignedParam(p.side, -p.sign, p.exp)


def lattice_key(exp):
    """Integer sort key of the total order <! on Z x Z - {(0,0)}.

    Bands, least to greatest: the negative x-axis ``(0, -i)``, rows j < 0
    ``(1, -j, -i)``, a free band 2 for the neutral 1, rows j > 0
    ``(3, -j, -i)`` and the positive x-axis ``(4, -i)``.  So rows compare by
    1/j, within a row the order descends as i grows, and on the x-axis points
    compare by 1/i: (1, 0) is the greatest element and (-1, 0) the least.
    Agrees with reverse divisibility on the region and with its mirror image
    on the complement.
    """
    i, j = exp
    if j > 0:
        return (3, -j, -i)
    if j < 0:
        return (1, -j, -i)
    if i > 0:
        return (4, -i)
    if i < 0:
        return (0, -i)
    raise ValueError("the order <! is undefined at the origin")


def param_key(p):
    """Sort key of a signed parameter under <!, or ``(2,)`` for None (= 1).

    Negatives <! 1 <! positives; a parameter's key is the lattice key of its
    signed exponent pair.  Keys of parameters from different sides must not
    be compared.
    """
    if p is None:
        return (2,)
    return lattice_key((p.sign * p.exp[0], p.sign * p.exp[1]))


_EMPTY = frozenset()


class RingElem(_Record):
    """An F2 combination: scalar part plus sets of U- and V-side exponents."""

    __slots__ = ("scalar", "u", "v")

    def __init__(self, scalar=0, u=_EMPTY, v=_EMPTY):
        _set(self, "scalar", scalar)
        _set(self, "u", u)
        _set(self, "v", v)

    def __bool__(self):
        return bool(self.scalar or self.u or self.v)

    def __add__(self, other):
        return RingElem(self.scalar ^ other.scalar, self.u ^ other.u, self.v ^ other.v)

    def __mul__(self, other):
        return elem_mul(self, other)

    def __repr__(self):
        return "+".join(map(mono_text, elem_monomials(self))) or "0"


ZERO = RingElem()
ONE_ELEM = RingElem(scalar=1)


def elem_from_mono(m):
    if m.side is Side.ONE:
        return ONE_ELEM
    if m.side is Side.U:
        return RingElem(u=frozenset([m.exp]))
    return RingElem(v=frozenset([m.exp]))


def elem_mul(a, b):
    """Product of two ring elements; opposite-side products vanish.

    A unit factor (the scalar 1 alone) returns the other factor itself, and
    two single side monomials multiply directly: their exponents add on a
    shared side, and the product vanishes across sides.  Every other
    product XORs, per term of ``a``, the set of its products with the terms
    of ``b`` on the same side into the result.
    """
    if a.scalar and not (a.u or a.v):
        return b
    if b.scalar and not (b.u or b.v):
        return a
    if not (a.scalar or b.scalar) and len(a.u) + len(a.v) == 1 == len(b.u) + len(b.v):
        if a.u and b.u:
            ((i, j),), ((k, l),) = a.u, b.u
            return RingElem(u=frozenset([(i + k, j + l)]))
        if a.v and b.v:
            ((i, j),), ((k, l),) = a.v, b.v
            return RingElem(v=frozenset([(i + k, j + l)]))
        return ZERO
    u = set()
    v = set()
    if a.scalar:
        u ^= b.u
        v ^= b.v
    if b.scalar:
        u ^= a.u
        v ^= a.v
    # a shift is injective, so each term's products are distinct
    for i, j in a.u:
        u ^= {(i + k, j + l) for k, l in b.u}
    for i, j in a.v:
        v ^= {(i + k, j + l) for k, l in b.v}
    return RingElem(a.scalar & b.scalar, frozenset(u), frozenset(v))


def elem_monomials(e):
    mons = []
    if e.scalar:
        mons.append(MONO_ONE)
    mons += [Monomial(Side.U, exp) for exp in sorted(e.u)]
    mons += [Monomial(Side.V, exp) for exp in sorted(e.v)]
    return mons


def elem_ok(ring, e):
    """True if every exponent of both side parts of ``e`` is a side exponent of ``ring``.

    One ``_exps_ok`` call per part, with no generator: a prototype with a
    generator here measured about 1 us slower per call.
    """
    return _exps_ok(ring, e.u) and _exps_ok(ring, e.v)


def elem_grading(e):
    """Common bigrading of a homogeneous element; None for zero.

    Raises ValueError when the constituents live in different bigradings.
    Each exponent is graded by ``_grading``.
    """
    grs = {_grading(Side.U, exp) for exp in e.u}
    grs.update(_grading(Side.V, exp) for exp in e.v)
    if e.scalar:
        grs.add((0, 0))
    if not grs:
        return None
    if len(grs) > 1:
        raise ValueError("element is not homogeneous: %r" % (e,))
    return grs.pop()


class _GradingTable(dict):
    """The homogeneous elements of one ring, memoized per bigrading for the whole process.

    A bigrading holds the scalar 1 alone, or at most one U-side and one
    V-side monomial: the basis, ordered scalar, U side, V side, the
    monomials whose exponents ``_exps_ok`` keeps.  ``table[gr]`` is
    ``(n, u, v, elems)``: ``n`` counts the basis, ``u`` and ``v`` mask the
    basis monomials that a U-side or a V-side factor multiplies (the unit
    is in both), and ``elems[bits]`` is the sum of the basis monomials
    selected by ``bits``, so ``elems[-1]`` is the sum of the whole basis.
    """

    def __init__(self, ring):
        super().__init__()
        self.ring = ring

    def __missing__(self, gr):
        if gr == (0, 0):
            basis = [MONO_ONE]
        else:
            pairs = [(side, _side_exp(self.ring, side, gr)) for side in (Side.U, Side.V)]
            basis = [Monomial(side, x) for side, x in pairs if x is not None]
        elems = [ZERO]
        for m in basis:
            e = elem_from_mono(m)
            elems += [x + e for x in elems]
        u = sum(1 << t for t, m in enumerate(basis) if m.side is not Side.V)
        v = sum(1 << t for t, m in enumerate(basis) if m.side is not Side.U)
        got = self[gr] = (len(basis), u, v, tuple(elems))
        return got


_TABLES = {ring: _GradingTable(ring) for ring in RingId}


def grading_basis(ring, gr):
    """The F2 basis of the ring in one bigrading (zero, one or two monomials), as a new list."""
    return elem_monomials(_TABLES[ring][gr][3][-1])
