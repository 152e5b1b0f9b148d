"""The output contract: byte-identical results on the benchmark corpus.

One sha256 per input, over what the library and the CLI emit:

* for each library input of search-long and wide-trivial, seeds 1-3, the
  ``dump_json`` of the spec, both certificates and the applied shift;
* for each batch-small document of seeds 1-3, ``[exit code, stdout,
  stderr]`` of ``gridring --json standardize NAME``, the document written
  under its own name in a fresh working directory.

``tests/data/corpus_digests.json`` holds the digests; a change that alters
any output changes one of them.

``tests/data/report_digests.json`` holds one sha256 per spec of the
``dump_json`` of its invariant report: the expected specs of batch-small
seeds 1-3, the conftest pool, and 40 seeded random specs over each ring.

Regenerate both files, only for an intended change of output, with
``PYTHONPATH=src:bench python tests/test_outputs.py``.

The benchmark's tracer (``bench/tracing.py``) looks up the library's entry
points by name, so every name it traces must exist, and ``bench/selftest.py``
needs ``localeq`` to bind ``paired_basis`` and ``realize`` and a traced
standardization to call ``paired_basis``.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import pathlib
import random
import tempfile

import gridring
from conftest import POOL_TEXTS, random_spec
from corpus import inputs
from gridring import RingId, base_change, cli, complexes, example_cable, io_json, localeq, \
    parse_spec, report, standard, standard_representative
from gridring.localeq import LocalMapCert
from tracing import TRACED, Tracer

DIGESTS = pathlib.Path(__file__).parent / "data" / "corpus_digests.json"
REPORTS = pathlib.Path(__file__).parent / "data" / "report_digests.json"
SEEDS = (1, 2, 3)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _library_records():
    for workload in ("search-long", "wide-trivial"):
        for seed in SEEDS:
            for case in inputs(workload, seed):
                spec, fwd, back, shift = standard_representative(case.complex)
                text = io_json.dump_json(
                    [io_json.spec_to_document(spec), fwd.to_json(), back.to_json(), list(shift)]
                )
                yield "%s@%d" % (case.id, seed), _sha(text)


def _document_records():
    with tempfile.TemporaryDirectory() as tmp:
        old = os.getcwd()
        os.chdir(tmp)
        try:
            for seed in SEEDS:
                for case in inputs("batch-small", seed):
                    name = "%s-%d.json" % (case.id.replace("/", "-"), seed)
                    with open(name, "w", encoding="utf-8") as fh:
                        fh.write(io_json.dump_json(case.doc))
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.run(["--json", "standardize", name])
                    text = json.dumps([code, out.getvalue(), err.getvalue()])
                    yield "%s@%d" % (case.id, seed), _sha(text)
        finally:
            os.chdir(old)


def corpus_digests():
    return dict([*_library_records(), *_document_records()])


def _report_specs():
    for seed in SEEDS:
        for case in inputs("batch-small", seed):
            if case.expect[0] == "spec":
                yield "%s@%d" % (case.id, seed), case.expect[1]
    for text in POOL_TEXTS:
        yield "pool/%s" % text, parse_spec(text)
    for ring in (RingId.X, RingId.R):
        rng = random.Random("reports:%s" % ring.value)
        for k in range(40):
            yield "random-%s/%d" % (ring.value, k), random_spec(rng, ring=ring, max_pairs=3)


def report_digests():
    return {key: _sha(io_json.dump_json(report(spec).to_json())) for key, spec in _report_specs()}


def test_corpus_outputs_unchanged():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = corpus_digests()
    assert len(want) == 633
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert changed == []


def test_invariant_reports_unchanged():
    want = json.loads(REPORTS.read_text(encoding="utf-8"))
    got = report_digests()
    assert len(want) == 543
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert changed == []


def test_traced_names_exist():
    # a removed or renamed entry point would break every --trace 1 run
    for module, names in TRACED.items():
        mod = importlib.import_module("gridring." + module)
        missing = [name for name in names if not callable(getattr(mod, name, None))]
        assert missing == [], "gridring.%s lacks %s" % (module, missing)
    assert callable(getattr(LocalMapCert, "to_json", None))


def test_selftest_library_hooks():
    # bench/selftest.py asks two things of the library that no other test
    # here checks; bench/ changes wait for ROADMAP item 10, so a library
    # change that breaks either must fail here first
    why = "bench/selftest.py line %d fails; changing bench/ is ROADMAP item 10"
    for name, fn in (("paired_basis", complexes.paired_basis), ("realize", standard.realize)):
        assert vars(localeq).get(name) is fn, "gridring.localeq binds no %s: %s" % (name, why % 102)
    tracer = Tracer(gridring)
    with tracer.installed():
        localeq.standard_representative(base_change(example_cable()))
    names = [span[0] for span in tracer.spans]
    assert "complexes.paired_basis" in names, "no paired_basis call traced: %s" % (why % 131)


if __name__ == "__main__":
    for path, digests in ((DIGESTS, corpus_digests()), (REPORTS, report_digests())):
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
