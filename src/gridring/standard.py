"""Standard and semistandard complexes.

A standard complex is the zig-zag complex on generators x_0, ..., x_n built
from an even-length sequence of signed parameters, U-side at odd positions
and V-side at even positions (1-based).  A negative parameter decorates an
arrow from x_{k-1} to x_k, a positive one the reverse arrow.  Standard
complexes are the canonical representatives of local equivalence classes.
One spec type holds both lengths: an odd-length sequence (semistandard) is
used as a search prefix and is not knotlike.
"""

import re
from itertools import zip_longest

from .complexes import FreeComplex
from .ring import (
    RingElem,
    RingId,
    Side,
    SignedParam,
    _Record,
    _brief,
    _grading,
    lattice_key,
    param_flip,
    param_key,
    param_ok,
    param_text,
)


class StandardSpec(_Record):
    """A parameter sequence over a ring, checked when it is built.

    ``ring`` is a ``RingId`` and ``params`` a tuple of ``SignedParam``, of
    odd length for a semistandard prefix.  Each parameter must lie on the
    side of its position and be valid in the ring; otherwise construction
    raises one ``ValueError`` naming the ring, the params or the first
    failing parameter.
    """

    __slots__ = ("ring", "params")

    def __init__(self, ring, params):
        if not isinstance(ring, RingId):
            raise ValueError("spec ring is %s, not a RingId" % _brief(ring))
        if not isinstance(params, tuple):
            raise ValueError("spec params are %s, not a tuple" % _brief(params))
        super().__init__(ring, params)
        for k, p in enumerate(params, start=1):
            if not isinstance(p, SignedParam):
                raise ValueError("parameter %d is %s, not a SignedParam" % (k, _brief(p)))
            if p.side is not _expected_side(k):
                raise ValueError(
                    "parameter %d must lie on side %s" % (k, _expected_side(k).value)
                )
            if not param_ok(ring, p):
                raise ValueError(
                    "parameter %d is invalid in ring %s: %s" % (k, ring.value, _brief(p))
                )

    def __repr__(self):
        return format_spec(self)


def _expected_side(k):
    """Side of the parameter at 1-based position k."""
    return Side.U if k % 2 else Side.V


def _next_grading(gr, p):
    """The grading of x_k, from the grading ``gr`` of x_{k-1} and the parameter p_k."""
    g1, g2 = _grading(p.side, p.exp)
    return (gr[0] + p.sign * (1 + g1), gr[1] + p.sign * (1 + g2))


def _require_standard(spec):
    """Raise ``ValueError`` unless the spec has even length, i.e. is a standard complex."""
    if len(spec.params) % 2:
        raise ValueError(
            "spec has an odd number of parameters (%d): a semistandard search "
            "prefix, not a standard complex" % len(spec.params)
        )


def make_spec(ring, params):
    """Build and check the spec of a parameter sequence of any length."""
    return StandardSpec(ring, tuple(params))


def _gradings(spec):
    """The normalized gradings of x_0, ..., x_n of the realized spec.

    Even length (standard): gr1(x_0) = 0 and gr2(x_n) = 0.  Odd length
    (semistandard): gr(x_0) = (0, 0).
    """
    grades = [(0, 0)]
    for p in spec.params:
        grades.append(_next_grading(grades[-1], p))
    if len(spec.params) % 2 == 0:
        drop = grades[-1][1]
        grades = [(g1, g2 - drop) for (g1, g2) in grades]
    return grades


def realize(spec):
    """The free complex of a parameter sequence, with the gradings of ``_gradings``."""
    diff = {}
    for k, p in enumerate(spec.params, start=1):
        arrow = (k - 1, k) if p.sign < 0 else (k, k - 1)
        part = frozenset([p.exp])
        diff[arrow] = RingElem(u=part) if p.side is Side.U else RingElem(v=part)
    gens = tuple(("x%d" % i, g) for i, g in enumerate(_gradings(spec)))
    return FreeComplex(spec.ring, gens, diff)


def read_params(C):
    """Recover the parameter sequence from a realized zig-zag complex."""
    n = C.n_gens() - 1
    if n < 0:
        raise ValueError("complex has no generators")
    params = []
    for k in range(1, n + 1):
        fwd = C.diff.get((k - 1, k))
        bwd = C.diff.get((k, k - 1))
        if (fwd is None) == (bwd is None):
            raise ValueError("complex is not a zig-zag between x%d and x%d" % (k - 1, k))
        e = fwd if fwd is not None else bwd
        side = _expected_side(k)
        part = e.u if side is Side.U else e.v
        if len(part) != 1 or e.scalar or (e.u if side is Side.V else e.v):
            raise ValueError("arrow %d is not a single %s-side monomial" % (k, side.value))
        exp = next(iter(part))
        params.append(SignedParam(side, -1 if fwd is not None else 1, exp))
    if len(C.diff) > n:
        raise ValueError("complex has arrows outside the zig-zag")
    return make_spec(C.ring, params)


def lex_compare(a, b):
    """Lexicographic order on standard specs; short sequences pad with 1s."""
    if a.ring is not b.ring:
        raise ValueError("cannot compare specs over different rings")
    pairs = list(zip_longest(a.params, b.params))  # None is the neutral 1
    ka = [param_key(p) for p, _q in pairs]
    kb = [param_key(q) for _p, q in pairs]
    return (ka > kb) - (ka < kb)


def dual_spec(spec):
    """Parameters of the dual complex: every sign flips."""
    return make_spec(spec.ring, [param_flip(p) for p in spec.params])


def reverse_spec(spec):
    """Traverse the zig-zag backwards: reversed, inverted parameters.

    Side tags are re-derived from the new positions (the two halves trade
    places when the length is even).
    """
    rev = list(reversed(spec.params))
    out = [
        SignedParam(_expected_side(k), -p.sign, p.exp)
        for k, p in enumerate(rev, start=1)
    ]
    return make_spec(spec.ring, out)


def is_symmetric(spec):
    """Whether the sequence equals its side-swapped, sign-flipped reversal (``reverse_spec``).

    A position fixes its parameter's side, so only exponents and signs are
    compared.
    """
    params = spec.params
    return all(p.exp == q.exp and p.sign == -q.sign for p, q in zip(params, reversed(params)))


class ShiftMap(_Record):
    """Threshold-multiplier shift on one side's parameters.

    Positive parameters <=! the threshold are multiplied by ``mult``; the
    rest are fixed.  Inverses shift so that the map commutes with inversion.
    The threshold may be a positive or negative SignedParam or None (= 1),
    and ``mult`` is a Monomial.
    """

    __slots__ = ("side", "threshold", "mult")

    def apply(self, p):
        if p.side is not self.side:
            raise ValueError("shift map applied to the wrong side")
        if self.mult.side is not self.side:
            raise ValueError("shift multiplier lies on the wrong side")
        if self.threshold is not None and self.threshold.side is not self.side:
            raise ValueError("shift threshold lies on the wrong side")
        if lattice_key(p.exp) <= param_key(self.threshold):
            exp = (p.exp[0] + self.mult.exp[0], p.exp[1] + self.mult.exp[1])
            return SignedParam(p.side, p.sign, exp)
        return p


def shift_spec(spec, m_u=None, m_v=None):
    """Apply shift maps to the U-side and/or V-side parameters."""
    out = []
    for p in spec.params:
        m = m_u if p.side is Side.U else m_v
        out.append(m.apply(p) if m is not None else p)
    return make_spec(spec.ring, out)


def promote_spec(spec):
    """Reinterpret a spec over R as a spec over X (all exponents have j = 0)."""
    if spec.ring is not RingId.R:
        raise ValueError("promote_spec expects a spec over ring R")
    return make_spec(RingId.X, spec.params)


def format_spec(spec):
    if not spec.params:
        return "C(0)"
    return "C(%s)" % ", ".join(param_text(p) for p in spec.params)


_PARAM_RE = re.compile(r"^\s*([+-])([UV])\[(-?\d+),(-?\d+)\]\s*$")
# a comma between parameters: every comma but one with an int on each side
# and "]" after the second, the comma inside an exponent's brackets
_SPLIT_RE = re.compile(r"(?<!\d),|,(?!-?\d+\])")


def parse_spec(text, ring=RingId.X):
    """Parse the C(...) text form, e.g. ``C(-U[2,1], +V[2,1])``."""
    text = text.strip()
    if not (text.startswith("C(") and text.endswith(")")):
        raise ValueError("spec must look like C(...): %s" % _brief(text))
    inner = text[2:-1].strip()
    if inner in ("", "0"):
        return StandardSpec(ring, ())
    out = []
    for k, tok in enumerate(_SPLIT_RE.split(inner), start=1):
        m = _PARAM_RE.match(tok)
        if not m:
            raise ValueError("bad spec parameter %d: %s" % (k, _brief(tok)))
        try:
            exp = (int(m.group(3)), int(m.group(4)))
        except ValueError:  # an exponent over the interpreter's integer digit limit
            raise ValueError("bad spec parameter %d: %s" % (k, _brief(tok))) from None
        sign = 1 if m.group(1) == "+" else -1
        side = Side.U if m.group(2) == "U" else Side.V
        out.append(SignedParam(side, sign, exp))
    return make_spec(ring, out)
