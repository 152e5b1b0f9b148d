"""Local maps and the canonical standard representative.

Existence of a (short) local map between two complexes is decided by exact
F2 linear algebra: the unknowns are the monomial coordinates of each matrix
entry in its forced bigrading, the equations match the chain-map identities
coefficient by coefficient, and locality contributes one inhomogeneous
equation (the image of the distinguished generator must hit the target's
tower generator with coefficient 1).  The canonical representative of a
knotlike complex is then extracted greedily, one parameter at a time: each
step lists the candidates drawn from the extant coefficients in descending
order and keeps the greatest that admits a map.  At odd steps the neutral
element 1, which sorts between the positive and the negative candidates,
stands for stopping.

Along each step's descending list feasibility is monotone: infeasible
candidates first, then feasible ones, as the lexicographic order of standard
complexes (Dai-Hom-Stoffregen-Truong, arXiv:1902.03333) suggests, since a
smaller parameter gives a lower prefix.  The search therefore bisects the
list for the first feasible index.  The tests check this monotonicity on a
fixed corpus; correctness does not rest on it: a non-monotone step could
only return a smaller feasible parameter, and the backward map and the two
certificate checks then fail with VerificationError instead of returning a
wrong spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _gf2
from .complexes import (
    NotKnotlikeError,
    _compose,
    _knotlike_bases,
    _scalar_mask,
    _side_exp,
    is_knotlike,
    paired_basis,
    reduce,
    shift_gradings,
    tower_functional,
    validate,
)
from .ring import (
    MONO_ONE,
    Monomial,
    Side,
    SignedParam,
    ZERO,
    elem_from_mono,
    elem_grading,
    elem_ok,
    elem_side_part,
    grading_basis,
    mono_text,
    param_key,
)
from .standard import (
    format_spec,
    lex_compare,
    make_spec,
    realize,
)


class VerificationError(RuntimeError):
    """An internally computed certificate failed its independent check."""


@dataclass(frozen=True, eq=False)
class LocalMapCert:
    """A grading-shifted module map witnessing one local-order inequality."""

    source: str
    target: str
    gr2shift: int
    matrix: dict  # (source index, target index) -> RingElem
    kind: str  # "full" | "short"

    def to_json(self):
        entries = []
        for (i, j), e in sorted(self.matrix.items()):
            coeff = []
            if e.scalar:
                coeff.append("1")
            coeff += [mono_text(Monomial(Side.U, exp)) for exp in sorted(e.u)]
            coeff += [mono_text(Monomial(Side.V, exp)) for exp in sorted(e.v)]
            entries.append({"from": i, "to": j, "coeff": coeff})
        return {
            "source": self.source,
            "target": self.target,
            "gr2shift": self.gr2shift,
            "kind": self.kind,
            "entries": entries,
        }


@dataclass(frozen=True)
class ExtantSet:
    u_coeffs: frozenset  # of exponent pairs
    v_coeffs: frozenset

    def for_side(self, side):
        return self.u_coeffs if side is Side.U else self.v_coeffs


def _require_normalized(C, what):
    """Both paired bases (U side, V side) of a knotlike, normalized complex."""
    pb_u, pb_v, shift = _knotlike_bases(C)
    if shift is None:
        raise NotKnotlikeError("%s must be knotlike" % what)
    if shift != (0, 0):
        raise ValueError("%s must be normalized; apply the knotlike shift %s first" % (what, shift))
    return pb_u, pb_v


def _tower(C, pb):
    """(functional mask, element mask, tower grading) of a paired basis's tower."""
    w, t = tower_functional(C, pb)
    return w, _scalar_mask(pb.basis[t]), pb.gradings[t]


def _tower_data(C, side=Side.V):
    """Tower data of one side, from a freshly computed paired basis."""
    return _tower(C, paired_basis(C, side))


def extant_coefficients(C):
    """Finite candidate pool of side coefficients for the greedy search.

    For each side and each generator bigrading, the pairing orders are
    rescaled by the unique side element moving the paired y-generator into
    that bigrading; the union over bigradings contains every coefficient a
    (short) local map can use.
    """
    return _extant(C, *_require_normalized(C, "complex"))


def _extant(C, pb_u, pb_v):
    gen_grades = {C.gr(i) for i in range(C.n_gens())}
    sides = {}
    for pb in (pb_u, pb_v):
        coeffs = set()
        for (y, _z, order) in pb.pairs:
            gy = pb.gradings[y]
            for g0 in gen_grades:
                for m in grading_basis(C.ring, (g0[0] - gy[0], g0[1] - gy[1])):
                    if m.side is Side.ONE or m.side is pb.side:
                        coeffs.add((order.exp[0] + m.exp[0], order.exp[1] + m.exp[1]))
        sides[pb.side] = frozenset(coeffs)
    return ExtantSet(sides[Side.U], sides[Side.V])


def _solve_map(src, tgt, gr2shift, src_mask, tgt_w, skip=None):
    """Solve for a gr1-preserving chain map; returns a matrix dict or None.

    ``skip`` omits one (generator, side) chain condition (short maps).
    ``src_mask``/``tgt_w`` encode the locality constraint: the image of the
    source tower element must carry the target tower with coefficient 1.
    """
    ring = src.ring
    ns, nt = src.n_gens(), tgt.n_gens()
    slots = {}
    index = {}
    nbits = 0
    for i in range(ns):
        gi = src.gr(i)
        for j in range(nt):
            gj = tgt.gr(j)
            basis = grading_basis(ring, (gi[0] - gj[0], gi[1] + gr2shift - gj[1]))
            if basis:
                slots[(i, j)] = basis
                for m in basis:
                    index[(i, j, m)] = nbits
                    nbits += 1
    tgt_from = {}
    for (j, k), e in tgt.diff.items():
        tgt_from.setdefault(j, []).append((k, e))
    src_from = {}
    for (i, i2), e in src.diff.items():
        src_from.setdefault(i, []).append((i2, e))
    rows = {}

    def touch(key, bit):
        rows[key] = rows.get(key, 0) ^ (1 << bit)

    for i in range(ns):
        for side in (Side.U, Side.V):
            if skip == (i, side):
                continue
            for j in range(nt):
                for m in slots.get((i, j), ()):
                    if m.side is not Side.ONE and m.side is not side:
                        continue
                    bit = index[(i, j, m)]
                    for (k, e) in tgt_from.get(j, ()):
                        dm = _side_exp(e, side)
                        if dm is None:
                            continue
                        pexp = dm if m.side is Side.ONE else (m.exp[0] + dm[0], m.exp[1] + dm[1])
                        touch((i, side.value, k, pexp), bit)
            for (i2, e) in src_from.get(i, ()):
                mu = _side_exp(e, side)
                if mu is None:
                    continue
                for j in range(nt):
                    for m in slots.get((i2, j), ()):
                        if m.side is not Side.ONE and m.side is not side:
                            continue
                        pexp = mu if m.side is Side.ONE else (mu[0] + m.exp[0], mu[1] + m.exp[1])
                        touch((i, side.value, j, pexp), index[(i2, j, m)])
    eqs = [mask for _key, mask in sorted(rows.items())]
    rhs = [0] * len(eqs)
    loc = 0
    for g in range(ns):
        if not (src_mask >> g) & 1:
            continue
        for h in range(nt):
            if not (tgt_w >> h) & 1:
                continue
            key = (g, h, MONO_ONE)
            if key in index:
                loc ^= 1 << index[key]
    eqs.append(loc)
    rhs.append(1)
    sol = _gf2.solve(eqs, rhs)
    if sol is None:
        return None
    matrix = {}
    for (i, j), basis in slots.items():
        e = ZERO
        for m in basis:
            if (sol >> index[(i, j, m)]) & 1:
                e = e + elem_from_mono(m)
        if e:
            matrix[(i, j)] = e
    return matrix


def _short_skip(n):
    """The dropped chain condition of a short map out of an n-parameter spec."""
    return (n, Side.U if n % 2 == 0 else Side.V)


def _map_into(spec, C, w, tgr, kind, label):
    """A (short) local map from a realized spec into C, as a certificate or None.

    ``w`` and ``tgr`` are the functional mask and grading of C's tower; the
    source tower is x_0.
    """
    src = realize(spec)
    shift = tgr[1] - src.gr(0)[1]
    skip = _short_skip(len(spec.params)) if kind == "short" else None
    matrix = _solve_map(src, C, shift, 1, w, skip=skip)
    if matrix is None:
        return None
    return LocalMapCert(format_spec(spec), label, shift, matrix, kind)


def find_local_map(spec, target, kind="full"):
    """A local (or short local) map from a realized spec into a complex.

    Returns a certificate or None.  The target must be reduced, knotlike and
    normalized.
    """
    if kind not in ("full", "short"):
        raise ValueError("kind must be 'full' or 'short'")
    _pb_u, pb_v = _require_normalized(target, "target")
    if spec.ring is not target.ring:
        raise ValueError("spec and target live over different rings")
    w, _elem_mask, tgr = _tower(target, pb_v)
    return _map_into(spec, target, w, tgr, kind, "target")


def check_certificate(src, tgt, cert, src_mask=None, check_left=False):
    """Independent verification of a certificate; returns violation strings.

    Checks gradings, the chain-map identities (minus the dropped condition
    for short certificates) by direct matrix algebra, and locality against a
    freshly computed paired basis of the target.  ``check_left`` additionally
    re-checks the U-side tower image of a full certificate (guaranteed by
    the theory, so off by default).
    """
    out = []
    s = cert.gr2shift
    for (i, j), e in cert.matrix.items():
        if not e:
            out.append("stored zero entry at (%d, %d)" % (i, j))
            continue
        if not elem_ok(tgt.ring, e):
            out.append("entry (%d, %d) not in the ring" % (i, j))
            continue
        gr = elem_grading(e)
        want = (src.gr(i)[0] - tgt.gr(j)[0], src.gr(i)[1] + s - tgt.gr(j)[1])
        if gr != want:
            out.append("entry (%d, %d) has grading %s, expected %s" % (i, j, gr, want))
    lhs = _compose(cert.matrix, tgt.diff)
    rhs = _compose(src.diff, cert.matrix)
    delta = dict(lhs)
    for key, e in rhs.items():
        acc = delta.get(key, ZERO) + e
        if acc:
            delta[key] = acc
        else:
            delta.pop(key, None)
    skip = _short_skip(src.n_gens() - 1) if cert.kind == "short" else None
    for (i, k), e in sorted(delta.items()):
        if e.scalar:
            out.append("chain defect has a unit part at (%d, %d)" % (i, k))
        for side in (Side.U, Side.V):
            part = elem_side_part(e, side)
            if part and skip != (i, side):
                out.append(
                    "chain condition fails at generator %d on side %s" % (i, side.value)
                )
    if src_mask is None:
        src_mask = 1
    try:
        w, _em, _gr = _tower_data(tgt)
    except (NotKnotlikeError, ValueError) as exc:
        out.append("target tower not available: %s" % exc)
        return out
    if _tower_coefficient(cert.matrix, src, tgt, src_mask, w) != 1:
        out.append("image of the source tower misses the target tower")
    if check_left and cert.kind == "full":
        try:
            w_u, _em, _g = _tower_data(tgt, Side.U)
            _wu_src, src_u_mask, _gs = _tower_data(src, Side.U)
        except (NotKnotlikeError, ValueError) as exc:
            out.append("U-side tower not available: %s" % exc)
            return out
        if _tower_coefficient(cert.matrix, src, tgt, src_u_mask, w_u) != 1:
            out.append("image of the source U-tower misses the target U-tower")
    return out


def _tower_coefficient(matrix, src, tgt, src_mask, w):
    img = 0
    for h in range(tgt.n_gens()):
        bit = 0
        for g in range(src.n_gens()):
            if (src_mask >> g) & 1:
                e = matrix.get((g, h))
                if e is not None and e.scalar:
                    bit ^= 1
        if bit:
            img |= 1 << h
    return bin(img & w).count("1") & 1


def _descending(side, exps, stop):
    """Candidates in descending <! order; ``stop`` adds the neutral 1 as None."""
    cands = [SignedParam(side, sgn, exp) for exp in exps for sgn in (1, -1)]
    if stop:
        cands.append(None)
    cands.sort(key=param_key, reverse=True)
    return cands


def standardize(C, trace=None):
    """The unique standard-complex representative, with certificates both ways.

    The input must be reduced, knotlike and normalized.  Each step lists its
    candidates in descending <! order and keeps the greatest that admits a
    map: a parameter p needs a short local map from the prefix extended by
    p; at odd steps the neutral 1, ordered between the positive and the
    negative parameters, stops the search and needs a full local map from
    the prefix.  That full map is the forward certificate.

    Feasibility along the list is monotone (see the module docstring), so
    each step bisects the list for its first feasible index and keeps that
    probe's map.  The backward certificate and both certificate checks
    guard the result: a step that broke monotonicity raises
    VerificationError rather than return a wrong spec.  ``trace``, when
    given, receives one ``(step, parameter or None, feasible)`` tuple per
    probe, in probe order.
    """
    bad = validate(C)
    if bad:
        raise ValueError("invalid complex: " + "; ".join(bad))
    pb_u, pb_v = _require_normalized(C, "complex")
    ext = _extant(C, pb_u, pb_v)
    w_tgt, elem_mask, tgr = _tower(C, pb_v)
    guard = 2 * C.n_gens()
    params = []
    while True:
        k = len(params) + 1
        if k > guard + 1:
            raise VerificationError("standardization exceeded the splitting bound")
        side = Side.U if k % 2 else Side.V
        cands = _descending(side, ext.for_side(side), stop=k % 2 == 1)
        # bisect for the first feasible index; fwd is the certificate there
        lo, hi, fwd = 0, len(cands), None
        while lo < hi:
            mid = (lo + hi) // 2
            p = cands[mid]
            if p is None:
                spec, kind = make_spec(C.ring, params), "full"
            else:
                spec, kind = make_spec(C.ring, params + [p]), "short"
            cert = _map_into(spec, C, w_tgt, tgr, kind, "complex")
            if trace is not None:
                trace.append((k, p, cert is not None))
            if cert is None:
                lo = mid + 1
            else:
                hi, fwd = mid, cert
        if fwd is None:
            raise VerificationError("no feasible parameter at step %d" % k)
        if cands[lo] is None:
            spec = make_spec(C.ring, params)
            break
        params.append(cands[lo])
    std = realize(spec)
    # a realized standard complex has its tower at x_0
    back_shift = std.gr(0)[1] - tgr[1]
    matrix = _solve_map(C, std, back_shift, elem_mask, 1)
    if matrix is None:
        raise VerificationError("no local map back to the standard representative")
    back = LocalMapCert("complex", format_spec(spec), back_shift, matrix, "full")
    bad = check_certificate(std, C, fwd)
    if bad:
        raise VerificationError("forward certificate failed: " + "; ".join(bad))
    bad = check_certificate(C, std, back, src_mask=elem_mask)
    if bad:
        raise VerificationError("backward certificate failed: " + "; ".join(bad))
    return spec, fwd, back


def standard_representative(C, dy=0):
    """Reduce, shift, normalize and standardize an arbitrary valid complex.

    Returns (spec, forward cert, backward cert, total applied shift).  ``dy``
    is subtracted as the external correction-term shift (dy, dy) before the
    residual knotlike normalization is applied.
    """
    bad = validate(C)
    if bad:
        raise ValueError("invalid complex: " + "; ".join(bad))
    C = reduce(C)
    applied = (dy, dy)
    if dy:
        C = shift_gradings(C, applied)
    ok, shift = is_knotlike(C)
    if not ok:
        raise NotKnotlikeError("complex is not knotlike")
    if shift != (0, 0):
        C = shift_gradings(C, shift)
        applied = (applied[0] + shift[0], applied[1] + shift[1])
    spec, fwd, back = standardize(C)
    return spec, fwd, back, applied


def is_locally_equivalent(C1, C2, dy1=0, dy2=0):
    s1 = standard_representative(C1, dy1)[0]
    s2 = standard_representative(C2, dy2)[0]
    return s1.params == s2.params and s1.ring is s2.ring


def order_compare_complexes(C1, C2, dy1=0, dy2=0):
    """Total-order comparison via the standard representatives."""
    s1 = standard_representative(C1, dy1)[0]
    s2 = standard_representative(C2, dy2)[0]
    return lex_compare(s1, s2)
