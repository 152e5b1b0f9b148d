"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that the same seed gives the same corpus, that a corrupted expected
answer (or a wrong expected error) is counted as a failure, that tracing
reaches every namespace binding a traced function and is removed again,
that two traced passes over the same inputs record the same counts, that
BENCHMARK.json matches the metric lists in ``run.py``, and that one short
traced run prints a well-formed result.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from tracing import TRACED, Tracer

sys.path.insert(0, str(run.SRC))
lib, corpus = run.load_library()
DOCS = run.OUT / "selftest"


def fingerprint(cases):
    out = []
    for case in cases:
        doc = case.doc if case.doc is not None else lib.io_json.complex_to_document(case.complex)
        out.append((case.id, case.shape, repr(case.expect), json.dumps(doc, sort_keys=True)))
    return out


def check_same_seed_same_corpus():
    for workload in corpus.WORKLOADS:
        first = fingerprint(corpus.inputs(workload, 7))
        assert first == fingerprint(corpus.inputs(workload, 7)), workload
        assert first != fingerprint(corpus.inputs(workload, 8)), workload


def small_block():
    """Twenty documents and one library input, cheap enough to run twice."""
    docs = corpus.inputs("batch-small", 3)[:20]
    lib_case = next(c for c in corpus.inputs("search-long", 3) if c.shape == "cable*cable")
    block = docs + [lib_case]
    run.materialize(block, DOCS)
    return block


def failures(block, outcomes):
    return sorted(case.id for case, (_t0, _wall, _cpu, problem, _result) in zip(block, outcomes) if problem)


def check_corruption_is_counted(block):
    assert failures(block, run.run_pass(lib, block)) == []
    wrong_spec = next(c for c in block if c.expect[0] == "spec" and c.expect[1].params)
    wrong_error = next(c for c in block if c.expect[0] == "not_knotlike")
    wrong_sum = next(c for c in block if c.expect[0] == "additive")
    saved = [(c, c.expect) for c in (wrong_spec, wrong_error, wrong_sum)]
    try:
        wrong_spec.expect = ("spec", lib.standard.dual_spec(wrong_spec.expect[1]))
        wrong_error.expect = ("invalid",)
        wrong_sum.expect = ("additive", wrong_sum.expect[1][:1])
        outcomes = run.run_pass(lib, block)
    finally:
        for case, expect in saved:
            case.expect = expect
    assert failures(block, outcomes) == sorted(c.id for c, _e in saved)


def check_exact_and_additive_answers():
    """A case with a known answer and factors fails on either being wrong."""
    cable, zhou = corpus.CABLE_SPEC, corpus.zhou_spec(3)
    factors = [zhou, cable, lib.standard.dual_spec(zhou)]
    result = {"spec": cable}

    def problem(expect):
        return run.check(lib, corpus.Case("z3*cable*z3'", "check", expect, 0), result, None)

    assert problem(("spec", cable, factors)) is None
    assert problem(("spec", lib.standard.dual_spec(cable), factors)) is not None
    assert problem(("spec", cable, factors[:2])) is not None


def check_wrappers_reach_every_namespace():
    originals = {
        id(getattr(getattr(lib, mod), attr)): (mod, attr)
        for mod, attrs in TRACED.items() for attr in attrs
    }
    namespaces = [m for k, m in sys.modules.items() if k == "gridring" or k.startswith("gridring.")]

    def bound_originals():
        return sorted(
            "%s.%s" % (ns.__name__, key)
            for ns in namespaces for key, value in vars(ns).items() if id(value) in originals
        )

    before = bound_originals()
    assert "gridring.localeq.paired_basis" in before and "gridring.localeq.realize" in before
    with Tracer(lib).installed():
        assert bound_originals() == []
        assert lib._gf2.solve.__wrapped__ is not None
    assert bound_originals() == before


def counts(tracer):
    """Every recorded count of a traced pass: calls per span and span infos."""
    calls = {}
    infos = {}
    for name, _start, _end, parent, iid, info in tracer.spans:
        calls[(name, iid)] = calls.get((name, iid), 0) + 1
        if info is not None:
            infos.setdefault((name, iid), []).append(json.dumps(info, sort_keys=True))
    return calls, infos, [(s[0], s[3], s[4]) for s in tracer.spans]


def check_trace_counts_repeat(block):
    seen = []
    for _ in range(2):
        tracer = Tracer(lib)
        with tracer.installed():
            outcomes = run.run_pass(lib, block, tracer)
        assert failures(block, outcomes) == []
        seen.append(counts(tracer))
    assert seen[0] == seen[1]
    calls = seen[0][0]
    assert any(name == "_gf2.solve" for name, _iid in calls)
    assert any(name == "complexes.paired_basis" for name, _iid in calls)


def check_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == run.benchmark_json(), "regenerate with --write-benchmark-json"


def check_short_traced_run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "batch-small", "--seed", "2", "--seconds", "0", "--trace", "1"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 400
    assert list(result["metrics"]) == [name for name, _u, _b in run.PER_LAYER]


def main():
    DOCS.mkdir(parents=True, exist_ok=True)
    block = small_block()
    checks = [
        ("same seed, same corpus", check_same_seed_same_corpus),
        ("corrupted answers are failures", lambda: check_corruption_is_counted(block)),
        ("exact answers with factors are checked both ways", check_exact_and_additive_answers),
        ("wrappers reach every namespace", check_wrappers_reach_every_namespace),
        ("traced counts repeat exactly", lambda: check_trace_counts_repeat(block)),
        ("BENCHMARK.json is current", check_benchmark_json),
        ("short traced run", check_short_traced_run),
    ]
    for label, fn in checks:
        fn()
        print("ok  %s" % label, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
