"""JSON document schema for complexes and parameter sequences.

A complex document carries a schema version, the coefficient ring, the base
("S" for a grid-ring complex, "FUV" for a complex over F2[U,V] awaiting base
change), an optional correction-term shift dY, named graded generators, and
the sparse differential with explicit monomial records.
"""

from __future__ import annotations

import json

from .complexes import FreeComplex, FUVComplex
from .ring import RingElem, RingId, Side, SignedParam
from .standard import make_spec

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    pass


def complex_to_document(C, dy=0):
    if isinstance(C, FUVComplex):
        ring, base = RingId.X, "FUV"
    elif isinstance(C, FreeComplex):
        ring, base = C.ring, "S"
    else:
        raise TypeError("expected a complex")
    gens = [{"name": nm, "gr": list(gr)} for nm, gr in C.generators]
    differential = []
    for (i, j), e in sorted(C.diff.items()):
        if base == "FUV":
            coeff = [{"U": a, "V": b} for (a, b) in sorted(e)]
        else:
            coeff = []
            if e.scalar:
                coeff.append({"part": "K"})
            coeff += [{"part": "U", "e": list(exp)} for exp in sorted(e.u)]
            coeff += [{"part": "V", "e": list(exp)} for exp in sorted(e.v)]
        differential.append({"from": C.name(i), "to": C.name(j), "coeff": coeff})
    return {
        "schemaVersion": SCHEMA_VERSION,
        "ring": ring.value,
        "base": base,
        "dY": dy,
        "generators": gens,
        "differential": differential,
    }


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int_pair(x):
    return isinstance(x, list) and len(x) == 2 and all(_is_int(g) for g in x)


def _records(obj, key):
    """The list of JSON objects under ``key`` (absent means empty)."""
    recs = obj.get(key, [])
    if not isinstance(recs, list) or not all(isinstance(r, dict) for r in recs):
        raise DocumentError("%s must be a list of objects" % key)
    return recs


def _brief(value):
    """``repr(value)`` cut to 80 characters, so an error stays one short line."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _grading(rec, pos):
    gr = rec.get("gr")
    if not _int_pair(gr):
        raise DocumentError(
            "generators[%d] (%s) needs an integer grading pair" % (pos, _brief(rec.get("name")))
        )
    return tuple(gr)


def _endpoint(rec, key, index, pos):
    name = rec.get(key)
    if not isinstance(name, str) or name not in index:
        raise DocumentError(
            "differential[%d] references unknown generator %s" % (pos, _brief(name))
        )
    return index[name]


def document_to_complex(doc):
    """Parse a document; returns (complex, dY)."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        raise DocumentError(
            "unsupported schemaVersion %r (expected %d)"
            % (doc.get("schemaVersion"), SCHEMA_VERSION)
        )
    ring = doc.get("ring")
    if ring not in ("R", "X"):
        raise DocumentError("ring must be 'R' or 'X'")
    base = doc.get("base", "S")
    if base not in ("S", "FUV"):
        raise DocumentError("base must be 'S' or 'FUV'")
    if base == "FUV" and ring != "X":
        raise DocumentError("FUV documents are base-changed into ring X")
    dy = doc.get("dY", 0)
    if not _is_int(dy):
        raise DocumentError("dY must be an integer")
    gens = []
    index = {}
    for pos, rec in enumerate(_records(doc, "generators")):
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            raise DocumentError("every generator needs a name")
        if name in index:
            raise DocumentError("generators[%d] repeats the name %s" % (pos, _brief(name)))
        index[name] = len(gens)
        gens.append((name, _grading(rec, pos)))
    diff = {}
    for pos, rec in enumerate(_records(doc, "differential")):
        i = _endpoint(rec, "from", index, pos)
        j = _endpoint(rec, "to", index, pos)
        coeff = _records(rec, "coeff")
        if base == "FUV":
            exps = set()
            for c, m in enumerate(coeff):
                a, b = m.get("U"), m.get("V")
                if not _is_int(a) or not _is_int(b) or a < 0 or b < 0:
                    raise DocumentError(
                        "bad FUV monomial record differential[%d].coeff[%d]: %s"
                        % (pos, c, _brief(m))
                    )
                exps.symmetric_difference_update([(a, b)])
            if exps:
                diff[(i, j)] = frozenset(exps)
        else:
            scalar = 0
            u = set()
            v = set()
            for c, m in enumerate(coeff):
                part = m.get("part")
                if part == "K":
                    scalar ^= 1
                elif part in ("U", "V") and _int_pair(m.get("e")):
                    (u if part == "U" else v).symmetric_difference_update([tuple(m["e"])])
                else:
                    raise DocumentError(
                        "bad monomial record differential[%d].coeff[%d]: %s" % (pos, c, _brief(m))
                    )
            e = RingElem(scalar, frozenset(u), frozenset(v))
            if e:
                diff[(i, j)] = e
    if base == "FUV":
        return FUVComplex(tuple(gens), diff), dy
    return FreeComplex(RingId(ring), tuple(gens), diff), dy


def spec_to_document(spec):
    return {
        "ring": spec.ring.value,
        "params": [{"sign": p.sign, "e": list(p.exp)} for p in spec.params],
    }


def document_to_spec(doc):
    if not isinstance(doc, dict) or "params" not in doc:
        raise DocumentError("spec document needs a params list")
    ring = doc.get("ring", "X")
    if ring not in ("R", "X"):
        raise DocumentError("ring must be 'R' or 'X'")
    params = []
    for k, rec in enumerate(_records(doc, "params"), start=1):
        sign = rec.get("sign")
        e = rec.get("e")
        if not _is_int(sign) or sign not in (1, -1) or not _int_pair(e):
            raise DocumentError("bad parameter record params[%d]: %s" % (k - 1, _brief(rec)))
        side = Side.U if k % 2 else Side.V
        params.append(SignedParam(side, sign, tuple(e)))
    try:
        return make_spec(RingId(ring), params)
    except ValueError as exc:
        raise DocumentError(str(exc))


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise DocumentError("invalid JSON in %s: %s" % (path, exc))
    except RecursionError:
        raise DocumentError("invalid JSON in %s: nested too deeply" % path)


def dump_json(obj):
    return json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n"
