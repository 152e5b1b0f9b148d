"""The output contract: byte-identical results on the benchmark corpus.

One sha256 per input, over what the library and the CLI emit:

* for each library input of search-long and wide-trivial, seeds 1-3, the
  ``dump_json`` of the spec, both certificates and the applied shift;
* for each batch-small document of seeds 1-3, ``[exit code, stdout,
  stderr]`` of ``gridring --json standardize NAME``, the document written
  under its own name in a fresh working directory.

``tests/data/corpus_digests.json`` holds the digests; a change that alters
any output changes one of them.  Regenerate it, only for an intended change
of output, with ``PYTHONPATH=src:bench python tests/test_outputs.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

from corpus import inputs
from gridring import cli, io_json, standard_representative

DIGESTS = pathlib.Path(__file__).parent / "data" / "corpus_digests.json"
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


def test_corpus_outputs_unchanged():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = corpus_digests()
    assert len(want) == 633
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert changed == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(corpus_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
