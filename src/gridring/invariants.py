"""Concordance invariants read off a standard representative.

All invariants are functions of the parameter sequence alone: the signed
counts phi of odd-index (U-side) and even-index (V-side) parameters, the tau
invariant as a weighted sum over the U-side table, the epsilon criterion,
the genus/unknotting bound N, the tower gradings P_U/P_V, and the ambient
manifold obstructions derived from the entries with j > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import tensor
from .localeq import VerificationError, standard_representative
from .ring import Monomial, Side, mono_grading
from .standard import _gradings, format_spec, is_symmetric, realize, shift_spec


@dataclass(frozen=True)
class PhiTable:
    """Signed parameter counts, keyed by (side, exponent pair)."""

    entries: tuple  # sorted ((side, exp), count) with nonzero count

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
    return PhiTable(_phi_entries(counts))


def _phi_entries(counts):
    """``PhiTable.entries`` of ``{(side, exp): count}``: nonzero counts, by side then exponent."""
    return tuple(
        (key, c)
        for key, c in sorted(counts.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
        if c
    )


def tau(spec):
    """tau = sum of (i - j) * phi_{i,j} over the U-side table.

    For symmetric specs this equals half of gr1(x_0) - gr2(x_0) of the
    realized complex; the identity is checked.  For asymmetric specs the
    formula is still evaluated (callers should treat it as flagged).
    """
    value = sum((e[0] - e[1]) * c for e, c in phi(spec).side_items(Side.U))
    if is_symmetric(spec):
        closed = tau_from_gradings(spec)
        if value != closed:
            raise VerificationError(
                "tau mismatch on %s: table %d vs gradings %d" % (format_spec(spec), value, closed)
            )
    return value


def tau_from_gradings(spec):
    g = _gradings(spec)[0]
    return (g[0] - g[1]) // 2


def epsilon(spec):
    """(is_zero, sign).  Zero iff trivial or the first decoration has j > 0.

    The sign convention for nonzero values is sgn(b_1).
    """
    if not spec.params:
        return True, 0
    b1 = spec.params[0]
    if b1.exp[1] > 0:
        return True, 0
    return False, b1.sign


def big_n(spec):
    """N = max |i - j| over nonzero U-side entries (0 for an empty table)."""
    items = phi(spec).side_items(Side.U)
    if not items:
        return 0
    return max(abs(e[0] - e[1]) for e, _c in items)


def bounds(spec):
    """(N, genus lower bound N/2 as an exact rational, unknotting lower bound N)."""
    n = big_n(spec)
    return n, Fraction(n, 2), n


def p_invariants(spec):
    """(P_U, P_V): tower gradings gr1(x_n) and gr2(x_0) of the realization.

    Checked against the closed forms in terms of the phi tables plus the
    total sign count.
    """
    grades = _gradings(spec)
    pu = grades[-1][0]
    pv = grades[0][1]
    sgn_sum = sum(p.sign for p in spec.params)
    table = phi(spec)
    c1 = sum(mono_grading(Monomial(s, e))[0] * c for (s, e), c in table.entries)
    c2 = sum(mono_grading(Monomial(s, e))[1] * c for (s, e), c in table.entries)
    if pu != c1 + sgn_sum or -pv != c2 + sgn_sum:
        raise VerificationError("tower-grading closed form fails on %s" % format_spec(spec))
    return pu, pv


def obstructions(spec):
    """(lspace, seifert_pos, seifert_neg) flags from the j > 0 entries."""
    items = [(e, c) for e, c in phi(spec).side_items(Side.U) if e[1] > 0]
    lspace = any(c != 0 for _e, c in items)
    seifert_neg = any(c > 0 for _e, c in items)
    seifert_pos = any(c < 0 for _e, c in items)
    return lspace, seifert_pos, seifert_neg


@dataclass(frozen=True)
class InvariantReport:
    phi: PhiTable
    tau: int
    epsilon_zero: bool
    epsilon_sign: int
    big_n: int
    genus_lb: Fraction
    genus_lb_ceil: int
    unknotting_lb: int
    p_u: int
    p_v: int
    symmetric: bool
    lspace_obstruction: bool
    seifert_pos_obstruction: bool
    seifert_neg_obstruction: bool

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
    n, genus, unknot = bounds(spec)
    lspace, spos, sneg = obstructions(spec)
    pu, pv = p_invariants(spec)
    eps_zero, eps_sign = epsilon(spec)
    return InvariantReport(
        phi=phi(spec),
        tau=tau(spec),
        epsilon_zero=eps_zero,
        epsilon_sign=eps_sign,
        big_n=n,
        genus_lb=genus,
        genus_lb_ceil=-(-n // 2),
        unknotting_lb=unknot,
        p_u=pu,
        p_v=pv,
        symmetric=is_symmetric(spec),
        lspace_obstruction=lspace,
        seifert_pos_obstruction=spos,
        seifert_neg_obstruction=sneg,
    )


def _phi_add(a, b):
    counts = {}
    for table in (a, b):
        for key, c in table.entries:
            counts[key] = counts.get(key, 0) + c
    return _phi_entries(counts)


def additivity_check(a, b, shift_map=None):
    """Group-structure check on a pair of specs.

    Standardizes the tensor of the realizations and verifies that the phi
    tables and the P invariants add; when a shift map is supplied, also
    checks its compatibility with products.
    """
    product = tensor(realize(a), realize(b))
    spec_ab = standard_representative(product)[0]
    if phi(spec_ab).entries != _phi_add(phi(a), phi(b)):
        return False
    pu_a, pv_a = p_invariants(a)
    pu_b, pv_b = p_invariants(b)
    pu_ab, pv_ab = p_invariants(spec_ab)
    if pu_ab != pu_a + pu_b or pv_ab != pv_a + pv_b:
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
