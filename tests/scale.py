"""One standardization of ``cable⊗K``, timed: the scale measurement of the solver.

Builds the K-fold tensor power of the base-changed cable example
(``examples.example_cable``, ``base_change``, ``tensor``: 5**K generators)
and runs ``standard_representative`` on it once.  Prints its CPU time, the
time and call count of ``_gf2.eliminate`` within it (the script wraps that
function, so ``_gf2.solve`` and ``solve_unit`` are counted through it),
the rows passed to those calls and the pivots they added, the time and
call count of the side pairings and the pairs they found per side, the
process's peak resident set size and the spec.  Every side pairing is one
column reduction (``complexes._column_pairing``): ``localeq`` calls it
directly for both sides of the validated input, and ``paired_basis`` runs
it after its checks for the backward check's basis of the standard
representative.  So the script wraps both bindings of ``paired_basis``
(``complexes`` and ``localeq``) and ``localeq``'s binding of
``_column_pairing``, and each pairing counts once, checks included: three
per standardization.  The row, pivot and pair counts are read from each
call's arguments and result, so unlike the times they do not vary from
machine to machine or run to run.
``cable⊗5`` (3125 generators) takes a few seconds and about 200 MB.

Run from the repository root: ``python3 tests/scale.py K``.
"""

import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gridring import _gf2, base_change, complexes, example_cable, format_spec, localeq, \
    standard_representative, tensor


def cable_power(k):
    """The tensor product of ``k`` copies of the cable example over X."""
    cable = base_change(example_cable())
    out = cable
    for _ in range(k - 1):
        out = tensor(out, cable)
    return out


def main(argv):
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        sys.exit("usage: python3 tests/scale.py K   (K >= 1; cable^K has 5**K generators)")
    k = int(argv[0])
    C = cable_power(k)
    eliminate, spent = _gf2.eliminate, [0, 0.0, 0, 0]  # calls, seconds, rows, pivots added

    def timed(rows, rhs, pivots=None):
        before = len(pivots) if pivots else 0
        t = time.process_time()
        try:
            got = eliminate(rows, rhs, pivots)
        finally:
            spent[0] += 1
            spent[1] += time.process_time() - t
        spent[2] += len(rows)
        spent[3] += len(got) - before if got is not None else 0
        return got

    originals = {"paired_basis": complexes.paired_basis,
                 "_column_pairing": complexes._column_pairing}
    paired = [0, 0.0, {"U": 0, "V": 0}]  # calls, seconds, pairs

    def timing(pairing):
        def timed_pairing(C, side):
            t = time.process_time()
            try:
                pb = pairing(C, side)
            finally:
                paired[0] += 1
                paired[1] += time.process_time() - t
            paired[2][side.value] += len(pb.pairs)
            return pb
        return timed_pairing

    def bind(fns):
        # paired_basis's own call to the reduction stays unwrapped
        for name, fn in fns.items():
            if name == "paired_basis":
                setattr(complexes, name, fn)
            setattr(localeq, name, fn)

    _gf2.eliminate = timed
    bind({name: timing(fn) for name, fn in originals.items()})
    try:
        t = time.process_time()
        spec = standard_representative(C)[0]
        cpu = time.process_time() - t
    finally:
        _gf2.eliminate = eliminate
        bind(originals)
    print("input cable^%d (%d generators)" % (k, C.n_gens()))
    print("cpu_s %.3f" % cpu)
    print("eliminate_s %.3f over %d calls" % (spent[1], spent[0]))
    print("eliminate_rows %d pivots_added %d" % (spent[2], spent[3]))
    print("pairing_s %.3f over %d calls" % (paired[1], paired[0]))
    print("pairing_pairs U %(U)d V %(V)d" % paired[2])
    print("maxrss_mb %.1f" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    print("spec %s" % format_spec(spec))


if __name__ == "__main__":
    main(sys.argv[1:])
