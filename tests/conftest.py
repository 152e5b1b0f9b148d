import random

import pytest

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
from gridring.ring import ONE_ELEM, elem_from_mono, elem_mul, in_region
from gridring.standard import make_spec

# exponent window |i|, |j| <= 2 inside the valid region, origin excluded
WINDOW_X = [(i, j) for j in range(0, 3) for i in range(-2, 3) if in_region((i, j)) and (i, j) != (0, 0)]
WINDOW_R = [(1, 0), (2, 0)]

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


def same_complex(C1, C2):
    """Equality up to generator renaming (gradings and differential)."""
    return (
        C1.ring is C2.ring
        and tuple(gr for _nm, gr in C1.generators) == tuple(gr for _nm, gr in C2.generators)
        and C1.diff == C2.diff
    )


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
    """Direct sum with acyclic pairs at gradings the complex already uses."""
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
