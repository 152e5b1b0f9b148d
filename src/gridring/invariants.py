"""Concordance invariants read off a standard representative.

All invariants are functions of the parameter sequence alone, and ``report``
reads them all off one phi table, one pass of tower gradings and one
symmetry check: the signed counts phi of odd-index (U-side) and even-index
(V-side) parameters, the tau invariant as a weighted sum over the U-side
table, the epsilon criterion, the genus/unknotting bound N, the tower
gradings P_U/P_V, and the ambient manifold obstructions derived from the
entries with j > 0.
"""

from .complexes import tensor
from .localeq import VerificationError, standard_representative
from .ring import Side, _Record, _grading
from .standard import _gradings, _require_standard, format_spec, is_symmetric, realize, shift_spec


class PhiTable(_Record):
    """Signed parameter counts, keyed by (side, exponent pair).

    ``entries`` is a sorted tuple of ``((side, exp), count)`` with nonzero count.
    """

    __slots__ = ("entries",)

    def count(self, side, exp):
        for (s, e), c in self.entries:
            if s is side and e == exp:
                return c
        return 0

    def side_items(self, side):
        return [(e, c) for (s, e), c in self.entries if s is side]

    def __repr__(self):
        if not self.entries:
            return "phi{}"
        return "phi{%s}" % ", ".join(
            "%s[%d,%d]: %+d" % (s.value, e[0], e[1], c) for (s, e), c in self.entries
        )


def phi(spec):
    """Signed count of parameters per decoration; U table from odd positions."""
    counts = {}
    for p in spec.params:
        key = (p.side, p.exp)
        counts[key] = counts.get(key, 0) + p.sign
    ordered = sorted(counts.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
    return PhiTable(tuple((key, c) for key, c in ordered if c))


def tau(spec):
    """tau = sum of (i - j) * phi_{i,j} over the U-side table (``report(spec).tau``)."""
    return report(spec).tau


def p_invariants(spec):
    """(P_U, P_V): tower gradings gr1(x_n) and gr2(x_0) (``report(spec)``'s ``p_u``, ``p_v``)."""
    rep = report(spec)
    return rep.p_u, rep.p_v


class InvariantReport(_Record):
    """Every invariant of a standard spec; ``genus_lb`` is a ``fractions.Fraction``."""

    __slots__ = (
        "phi", "tau", "epsilon_zero", "epsilon_sign", "big_n", "genus_lb", "genus_lb_ceil",
        "unknotting_lb", "p_u", "p_v", "symmetric", "lspace_obstruction",
        "seifert_pos_obstruction", "seifert_neg_obstruction",
    )

    def to_json(self):
        return {
            "phi": [
                {"side": s.value, "e": list(e), "count": c}
                for (s, e), c in self.phi.entries
            ],
            "tau": self.tau,
            "epsilonZero": self.epsilon_zero,
            "epsilonSign": self.epsilon_sign,
            "bigN": self.big_n,
            "genusLB": str(self.genus_lb),
            "genusLBCeil": self.genus_lb_ceil,
            "unknottingLB": self.unknotting_lb,
            "pU": self.p_u,
            "pV": self.p_v,
            "symmetric": self.symmetric,
            "lspaceObstruction": self.lspace_obstruction,
            "seifertPosObstruction": self.seifert_pos_obstruction,
            "seifertNegObstruction": self.seifert_neg_obstruction,
        }


def report(spec):
    """Every invariant of a standard spec, read off one phi table and one grading pass.

    tau is the U-table formula; for symmetric specs it must equal half of
    gr1(x_0) - gr2(x_0) of the realized complex.  P_U and P_V must match their
    closed forms in the phi tables plus the total sign count.  Either failure
    raises ``VerificationError``; for asymmetric specs tau is still the
    formula value (callers should treat it as flagged).  epsilon is zero iff
    the spec is trivial or its first parameter b_1 has j > 0, else sgn(b_1).
    N is the largest |i - j| over the U-side table.  Raises ``ValueError`` on
    an odd-length (semistandard) spec.
    """
    from fractions import Fraction  # imported here: only a report needs it

    _require_standard(spec)
    table = phi(spec)
    grades = _gradings(spec)
    symmetric = is_symmetric(spec)
    pu, pv = grades[-1][0], grades[0][1]
    sgn_sum = sum(p.sign for p in spec.params)
    c1 = c2 = 0
    for (s, e), c in table.entries:
        g1, g2 = _grading(s, e)
        c1 += g1 * c
        c2 += g2 * c
    if pu != c1 + sgn_sum or -pv != c2 + sgn_sum:
        raise VerificationError("tower-grading closed form fails on %s" % format_spec(spec))
    u_items = table.side_items(Side.U)
    value = sum((e[0] - e[1]) * c for e, c in u_items)
    if symmetric:
        closed = (grades[0][0] - grades[0][1]) // 2
        if value != closed:
            raise VerificationError(
                "tau mismatch on %s: table %d vs gradings %d" % (format_spec(spec), value, closed)
            )
    n = max((abs(e[0] - e[1]) for e, _c in u_items), default=0)
    obstructing = [c for e, c in u_items if e[1] > 0]  # phi keeps nonzero counts only
    first = spec.params[0] if spec.params else None
    eps_zero = first is None or first.exp[1] > 0
    return InvariantReport(
        phi=table,
        tau=value,
        epsilon_zero=eps_zero,
        epsilon_sign=0 if eps_zero else first.sign,
        big_n=n,
        genus_lb=Fraction(n, 2),
        genus_lb_ceil=-(-n // 2),
        unknotting_lb=n,
        p_u=pu,
        p_v=pv,
        symmetric=symmetric,
        lspace_obstruction=bool(obstructing),
        seifert_pos_obstruction=any(c < 0 for c in obstructing),
        seifert_neg_obstruction=any(c > 0 for c in obstructing),
    )


def additivity_check(a, b, shift_map=None):
    """Group-structure check on a pair of specs.

    Standardizes the tensor of the realizations and verifies that the phi
    tables and the P invariants add; when a shift map is supplied, also
    checks its compatibility with products.
    """
    product = tensor(realize(a), realize(b))
    spec_ab = standard_representative(product)[0]
    ra, rb, rab = report(a), report(b), report(spec_ab)
    total = dict(ra.phi.entries)
    for key, c in rb.phi.entries:
        total[key] = total.get(key, 0) + c
    if dict(rab.phi.entries) != {key: c for key, c in total.items() if c}:
        return False
    if rab.p_u != ra.p_u + rb.p_u or rab.p_v != ra.p_v + rb.p_v:
        return False
    if shift_map is not None:
        m_u = shift_map if shift_map.side is Side.U else None
        m_v = shift_map if shift_map.side is Side.V else None
        shifted_product = tensor(
            realize(shift_spec(a, m_u, m_v)), realize(shift_spec(b, m_u, m_v))
        )
        lhs = standard_representative(shifted_product)[0]
        rhs = shift_spec(spec_ab, m_u, m_v)
        if lhs.params != rhs.params:
            return False
    return True
