"""Seeded benchmark corpus with known answers.

Every case carries its expected outcome, so outputs can be checked without
trusting the code under test:

* ``("spec", S)``: the standard representative must equal ``S``.  Products
  ``realize(s) ⊗ T ⊗ T∨ ...`` are locally equivalent to ``s``, scrambling is a
  change of basis and acyclic pairs are homotopically trivial, so the answer
  is ``s`` whatever the padding and scrambling did.
* ``("spec", S, [factor specs])``: as above, and additive as below.
* ``("additive", [factor specs])``: no closed-form answer; ``phi``, the tower
  gradings ``P`` and ``tau`` of the result must be the sums over the factors
  (acceptance criterion 4).
* ``("not_knotlike",)``: must raise ``NotKnotlikeError``.
* ``("invalid",)``: must fail validation (``DocumentError`` on the document
  path).

``inputs`` gives the cases of one workload; see there for what the seed
decides.  This module builds inputs with the library's
public constructors (``realize``, ``tensor``, ``dual``, ``base_change``) and
its own ``scramble``, ``direct_sum`` and ``acyclic_pair``; it never imports
the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gridring import examples, io_json
from gridring.complexes import FreeComplex, base_change, dual, tensor
from gridring.ring import (
    ONE_ELEM,
    Monomial,
    RingId,
    Side,
    SignedParam,
    elem_from_mono,
    elem_mul,
    grading_basis,
    in_region,
)
from gridring.standard import dual_spec, make_spec, parse_spec, realize

# exponent window |i|, |j| <= 2 inside the valid region, origin excluded
WINDOW_X = [
    (i, j) for j in range(3) for i in range(-2, 3) if in_region((i, j)) and (i, j) != (0, 0)
]
WINDOW_R = [(1, 0), (2, 0)]

CABLE_SPEC = parse_spec("C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])")


def zhou_spec(n):
    return parse_spec("C(-U[%d,%d], +V[%d,%d])" % (n, n - 1, n, n - 1))


@dataclass
class Case:
    """One benchmark input.

    ``complex`` is set for library-level inputs, ``doc`` (a JSON-ready dict)
    for document inputs; ``expect`` is one of the outcome tuples above.
    """

    id: str
    shape: str
    expect: tuple
    gens: int
    complex: object = None
    doc: dict = None
    path: str = None  # where the benchmark wrote ``doc``


# -- construction helpers -----------------------------------------------------


def random_spec(rng, ring, n_params, window=None):
    if window is None:
        window = WINDOW_X if ring is RingId.X else WINDOW_R
    params = []
    for k in range(1, n_params + 1):
        side = Side.U if k % 2 else Side.V
        params.append(SignedParam(side, rng.choice((1, -1)), rng.choice(window)))
    return make_spec(ring, params)


def direct_sum(C1, C2):
    off = C1.n_gens()
    taken = {nm for nm, _gr in C1.generators}
    gens = list(C1.generators)
    for nm, gr in C2.generators:
        new = nm
        while new in taken:
            new += "'"
        taken.add(new)
        gens.append((new, gr))
    diff = dict(C1.diff)
    for (i, j), e in C2.diff.items():
        diff[(i + off, j + off)] = e
    return FreeComplex(C1.ring, tuple(gens), diff)


def acyclic_pair(ring, gr):
    gens = (("p", gr), ("q", (gr[0] - 1, gr[1] - 1)))
    return FreeComplex(ring, gens, {(0, 1): ONE_ELEM})


def pad(C, rng, n_pairs):
    """Direct sum with acyclic pairs placed at gradings the complex uses."""
    for _ in range(n_pairs):
        gr = C.gr(rng.randrange(C.n_gens()))
        C = direct_sum(C, acyclic_pair(C.ring, gr))
    return C


def _accumulate(diff, key, term):
    if not term:
        return
    acc = diff.get(key)
    val = term if acc is None else acc + term
    if val:
        diff[key] = val
    else:
        diff.pop(key, None)


def scramble(C, rng, n_ops):
    """Random homogeneous elementary basis changes, then a generator shuffle.

    ``g_i += e g_j`` adds ``e`` times row j to row i and ``e`` times column i
    to column j.  ``d(j, i)`` is always zero here (its grading would be odd),
    so both updates can be read from the old matrix and applied in place.
    """
    m = C.n_gens()
    diff = dict(C.diff)
    rows = {}
    cols = {}
    for (a, b) in diff:
        rows.setdefault(a, set()).add(b)
        cols.setdefault(b, set()).add(a)
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
        row_j = [(k, diff[(j, k)]) for k in sorted(rows.get(j, ()))]
        col_i = [(k, diff[(k, i)]) for k in sorted(cols.get(i, ()))]
        for k, src in row_j:
            _accumulate(diff, (i, k), elem_mul(e, src))
            _touch(diff, rows, cols, i, k)
        for k, src in col_i:
            _accumulate(diff, (k, j), elem_mul(src, e))
            _touch(diff, rows, cols, k, j)
    perm = list(range(m))
    rng.shuffle(perm)  # perm[new] = old
    where = {old: new for new, old in enumerate(perm)}
    gens = tuple(C.generators[old] for old in perm)
    diff = {(where[a], where[b]): e for (a, b), e in diff.items()}
    return FreeComplex(C.ring, gens, diff)


def _touch(diff, rows, cols, a, b):
    if (a, b) in diff:
        rows.setdefault(a, set()).add(b)
        cols.setdefault(b, set()).add(a)
    else:
        rows.get(a, set()).discard(b)
        cols.get(b, set()).discard(a)


def tensor_all(*factors):
    out = factors[0]
    for C in factors[1:]:
        out = tensor(out, C)
    return out


def _z(n):
    return base_change(examples.example_zhou(n))


def _cable():
    return base_change(examples.example_cable())


# -- workloads ------------------------------------------------------------------


def search_long(cat, rng):
    """Products whose answer needs a long greedy search (25-75 generators).

    Six ``s ⊗ t ⊗ t∨`` with ``s`` of 6 parameters and ``t`` of 2, then
    ``cable ⊗ cable`` and ``z ⊗ cable ⊗ z∨``.  ``cable ⊗ cable`` has no
    closed-form answer and is checked by additivity; ``z ⊗ z∨`` is locally
    trivial, so ``z ⊗ cable ⊗ z∨`` must give the cable spec and is checked by
    additivity as well.  Each is padded with 1-3 acyclic pairs and scrambled.
    With 8 parameters in ``s`` one input takes 2-9 s, which leaves too few
    passes in a run for a steady median.
    """
    recipes = []
    for _ in range(6):
        s = random_spec(cat, RingId.X, 6)
        T = realize(random_spec(cat, RingId.X, 2))
        recipes.append(("s(6)*t*t'", ("spec", s), tensor_all(realize(s), T, dual(T))))
    recipes.append(("cable*cable", ("additive", [CABLE_SPEC, CABLE_SPEC]), tensor(_cable(), _cable())))
    k = cat.randint(2, 4)
    z = _z(k)
    recipes.append((
        "z%d*cable*z%d'" % (k, k),
        ("spec", CABLE_SPEC, [zhou_spec(k), CABLE_SPEC, dual_spec(zhou_spec(k))]),
        tensor_all(z, _cable(), dual(z)),
    ))
    return _presentations("search-long", recipes, rng, (1, 3), 2)


def wide_trivial(cat, rng):
    """Large products with a short answer (225 generators before padding).

    ``T ⊗ T∨ ⊗ U ⊗ U∨`` with one factor of 2 parameters and one of 4, whose
    answer is the trivial ``C(0)``; padded with 20-40 acyclic pairs and
    scrambled.  ``T`` and ``U`` take their exponents from the ``R`` window,
    which keeps the extant pool small.  A nontrivial ``s ⊗`` in front would
    make the greedy search, not ``complexes``, the dominant layer: each odd
    step tries every positive candidate of a pool of about a hundred on a
    240-generator target.  That case is covered by ``search-long``.
    """
    trivial = make_spec(RingId.X, [])
    recipes = []
    for n_t, n_u in ((2, 4), (4, 2), (2, 4)):
        T = realize(random_spec(cat, RingId.X, n_t, WINDOW_R))
        U = realize(random_spec(cat, RingId.X, n_u, WINDOW_R))
        recipes.append(("T(%d)*T'*U(%d)*U'" % (n_t, n_u), ("spec", trivial), tensor_all(T, dual(T), U, dual(U))))
    return _presentations("wide-trivial", recipes, rng, (20, 40), 1)


def _presentations(workload, recipes, rng, pairs, ops_per_gen):
    """The catalogue in one seeded presentation: padded, scrambled, shuffled."""
    cases = []
    for slot, (shape, expect, base) in enumerate(recipes):
        C = scramble(pad(base, rng, rng.randint(*pairs)), rng, ops_per_gen * base.n_gens())
        cases.append(Case("%s/%d" % (workload, slot), shape, expect, C.n_gens(), complex=C))
    return cases


def _square_nonzero_doc(rng):
    """Three generators with d(a) = U^e b and d(b) = U^f c, so d^2 != 0."""
    e, f = rng.choice(WINDOW_X), rng.choice(WINDOW_X)
    ga = (0, 0)
    gb = (ga[0] + 2 * e[0] - 1, ga[1] + 2 * e[1] - 1)
    gc = (gb[0] + 2 * f[0] - 1, gb[1] + 2 * f[1] - 1)
    diff = {
        (0, 1): elem_from_mono(Monomial(Side.U, e)),
        (1, 2): elem_from_mono(Monomial(Side.U, f)),
    }
    C = FreeComplex(RingId.X, (("a", ga), ("b", gb), ("c", gc)), diff)
    return io_json.complex_to_document(C)


def _break_grading(doc, rng, parity):
    """Move one generator with an arrow so its entry has the wrong grading."""
    named = sorted({rec["from"] for rec in doc["differential"]})
    victim = rng.choice(named)
    for rec in doc["generators"]:
        if rec["name"] == victim:
            rec["gr"] = [rec["gr"][0] + (1 if parity else 2), rec["gr"][1]]


def batch_small(_cat, rng):
    """Two hundred small documents, ten rounds of ``_batch_round``."""
    cases = []
    for rnd in range(10):
        for shape, expect, doc in _batch_round(rng, rnd):
            cases.append(Case("batch-small/%d" % len(cases), shape, expect, len(doc["generators"]), doc=doc))
    return cases


def _batch_round(rng, rnd):
    """Small documents over both rings (3-30 generators), with some rejects.

    A round of twenty: FUV Zhou (n = 2..6) and cable documents, scrambled
    realized specs over X and R, small products (known answer or additivity),
    one direct sum of two standard complexes (not knotlike) and one invalid
    document (d^2 != 0, a wrong entry grading, or mixed parity, in turn).
    """
    out = []
    for slot in range(20):
        dy = rng.randint(-2, 2)
        if slot in (0, 10):
            k = 2 + (rnd * 2 + slot // 10) % 5
            C = examples.example_zhou(k)
            shape, expect = "fuv-zhou%d" % k, ("spec", zhou_spec(k))
        elif slot == 5:
            C = examples.example_cable()
            shape, expect = "fuv-cable", ("spec", CABLE_SPEC)
        elif slot in (1, 2, 3, 11, 12, 13):
            s = random_spec(rng, RingId.X, 2 * (slot % 10))
            C = _scrambled(realize(s), rng)
            shape, expect = "x-spec(%d)" % len(s.params), ("spec", s)
        elif slot in (4, 14, 15):
            s = random_spec(rng, RingId.R, 2 + 2 * (slot % 2))
            C = _scrambled(realize(s), rng)
            shape, expect = "r-spec(%d)" % len(s.params), ("spec", s)
        elif slot in (6, 16):
            ring = RingId.X if slot == 6 else RingId.R
            a, b = random_spec(rng, ring, 2), random_spec(rng, ring, 2)
            C = _scrambled(tensor(realize(a), realize(b)), rng)
            shape, expect = "%s-a*b" % ring.value.lower(), ("additive", [a, b])
        elif slot in (7, 17):
            a, b = random_spec(rng, RingId.X, 2), random_spec(rng, RingId.X, 2)
            B = realize(b)
            C = _scrambled(tensor_all(realize(a), B, dual(B)), rng, pairs=0)
            shape, expect = "x-a*b*b'", ("spec", a)
        elif slot in (8, 18):
            ring = RingId.X if slot == 8 else RingId.R
            a, b = random_spec(rng, ring, 2), random_spec(rng, ring, 4)
            C = _scrambled(direct_sum(realize(a), realize(b)), rng)
            shape, expect = "%s-a+b" % ring.value.lower(), ("not_knotlike",)
        elif slot == 9:
            s = random_spec(rng, RingId.X, 4)
            C = _scrambled(realize(s), rng, pairs=3)
            shape, expect = "x-spec(4)+3", ("spec", s)
        else:
            kind = rnd % 3
            if kind == 0:
                out.append(("bad-d2", ("invalid",), _square_nonzero_doc(rng)))
            else:
                doc = io_json.complex_to_document(realize(random_spec(rng, RingId.X, 4)))
                _break_grading(doc, rng, parity=kind == 2)
                out.append(("bad-parity" if kind == 2 else "bad-grading", ("invalid",), doc))
            continue
        out.append((shape, expect, io_json.complex_to_document(C, dy)))
    return out


def _scrambled(C, rng, pairs=1):
    C = pad(C, rng, pairs)
    return scramble(C, rng, 2 * C.n_gens())


WORKLOADS = {
    "search-long": search_long,
    "wide-trivial": wide_trivial,
    "batch-small": batch_small,
}


def inputs(workload, seed):
    """The inputs of one workload; the same seed gives the same inputs.

    The seed drives every random choice of ``batch-small``.  The two large
    workloads have few inputs, and their cost is set by the parameter
    sequences, so each uses one fixed catalogue (drawn from ``cat``) and the
    seed drives padding, scrambling and generator order.  Every seed then
    asks for the same searches in a different basis, the spread between
    seeds stays small, and a faster program sees the same mix of inputs.
    """
    cat = random.Random("catalogue:%s" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload](cat, rng)
