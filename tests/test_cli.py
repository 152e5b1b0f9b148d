import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from gridring import base_change, example_cable, example_zhou, parse_spec, validate, validate_fuv
from gridring.cli import run
from gridring.io_json import (
    DocumentError,
    complex_to_document,
    document_to_complex,
    document_to_spec,
    dump_json,
    spec_to_document,
)

from conftest import same_complex


def _set(path, value):
    def mutate(doc):
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return mutate


def _long_duplicate_name(doc):
    for rec in doc["generators"][:2]:
        rec["name"] = "x" * 200000


# malformed S-base documents (mutations of the base-changed Zhou n = 2 complex)
BAD_DOCUMENTS = [
    _set(("generators",), {"x0": [0, 0]}),
    _set(("generators", 0), "x0"),
    _set(("generators", 0, "gr"), [True, True]),
    _set(("differential", 0, "coeff"), 1),
    _set(("differential", 0), 1),
    _set(("differential", 0, "coeff"), [{"part": "U", "e": ["a", 0]}]),
]


def bad_documents():
    for mutate in BAD_DOCUMENTS:
        doc = complex_to_document(base_change(example_zhou(2)))
        mutate(doc)
        yield doc


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDocuments:
    def test_round_trip_fuv(self):
        C = example_zhou(3)
        doc = complex_to_document(C, dy=0)
        back, dy = document_to_complex(doc)
        assert dy == 0
        assert back == C

    def test_round_trip_x(self):
        C = base_change(example_zhou(2))
        back, _dy = document_to_complex(complex_to_document(C, dy=1))
        assert same_complex(back, C)

    def test_schema_version_mismatch(self):
        doc = complex_to_document(example_zhou(2))
        doc["schemaVersion"] = 2
        with pytest.raises(DocumentError):
            document_to_complex(doc)

    def test_spec_documents(self, pool):
        for spec in pool:
            assert document_to_spec(spec_to_document(spec)) == spec

    def test_bad_records_rejected(self):
        with pytest.raises(DocumentError):
            document_to_spec({"ring": "X", "params": [{"sign": 2, "e": [1, 0]}]})
        with pytest.raises(DocumentError):
            document_to_spec({"ring": "X", "params": 1})
        doc = complex_to_document(example_zhou(2))
        doc["generators"][0]["gr"] = [1]
        with pytest.raises(DocumentError):
            document_to_complex(doc)
        for doc in bad_documents():
            with pytest.raises(DocumentError):
                document_to_complex(doc)


class TestCli:
    def emit_file(self, capsys, tmp_path, name, *argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        path = tmp_path / name
        path.write_text(out, encoding="utf-8")
        return path

    def test_example_zhou_spec(self, capsys):
        code, out, _ = invoke(capsys, "example", "zhou", "--n", "2", "--emit", "spec")
        assert code == 0
        assert out.strip() == "C(-U[2,1], +V[2,1])"

    def test_example_cable_spec(self, capsys):
        code, out, _ = invoke(capsys, "example", "cable", "--emit", "spec")
        assert code == 0
        assert out.strip() == "C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])"

    def test_pipeline_files(self, capsys, tmp_path):
        fuv = self.emit_file(capsys, tmp_path, "z2.json", "example", "zhou", "--n", "2")
        code, out, _ = invoke(capsys, "validate", str(fuv))
        assert code == 0 and out.strip() == "ok"
        xfile = self.emit_file(capsys, tmp_path, "z2x.json", "basechange", str(fuv))
        code, out, _ = invoke(capsys, "reduce", str(xfile))
        assert code == 0
        code, out, _ = invoke(capsys, "standardize", str(xfile))
        assert code == 0 and out.strip() == "C(-U[2,1], +V[2,1])"
        code, out, _ = invoke(capsys, "--json", "standardize", str(xfile))
        assert code == 0
        doc = json.loads(out)
        assert doc["specText"] == "C(-U[2,1], +V[2,1])" and doc["verified"] is True

    def test_standardize_applies_shift(self, capsys, tmp_path):
        cable = self.emit_file(capsys, tmp_path, "cable.json", "example", "cable")
        code, out, _ = invoke(capsys, "--json", "standardize", str(cable))
        assert code == 0
        doc = json.loads(out)
        assert doc["specText"] == "C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])"
        assert doc["appliedShift"] == [-2, -2]

    def test_invariants_on_spec_literal(self, capsys):
        code, out, _ = invoke(capsys, "--json", "invariants", "C(-U[2,1], +V[2,1])")
        assert code == 0
        doc = json.loads(out)
        assert doc["tau"] == -1
        assert {"side": "U", "e": [2, 1], "count": -1} in doc["phi"]

    def test_compare_equal(self, capsys):
        code, out, _ = invoke(capsys, "compare", "C(-U[2,1], +V[2,1])", "C(-U[2,1], +V[2,1])")
        assert code == 0 and out.strip() == "equal"

    def test_compare_files_and_specs(self, capsys, tmp_path):
        fuv = self.emit_file(capsys, tmp_path, "z2.json", "example", "zhou", "--n", "2")
        code, out, _ = invoke(capsys, "compare", str(fuv), "C(-U[3,2], +V[3,2])")
        assert code == 0 and out.strip() == "less"

    def test_tensor_dual_round_trip(self, capsys, tmp_path):
        fuv = self.emit_file(capsys, tmp_path, "z2.json", "example", "zhou", "--n", "2")
        xfile = self.emit_file(capsys, tmp_path, "z2x.json", "basechange", str(fuv))
        tfile = self.emit_file(capsys, tmp_path, "t.json", "tensor", str(xfile), str(xfile))
        code, out, _ = invoke(capsys, "validate", str(tfile))
        assert code == 0
        dfile = self.emit_file(capsys, tmp_path, "d.json", "dual", str(xfile))
        ddfile = self.emit_file(capsys, tmp_path, "dd.json", "dual", str(dfile))
        a, _ = document_to_complex(json.loads(ddfile.read_text()))
        b, _ = document_to_complex(json.loads(xfile.read_text()))
        assert same_complex(a, b)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = invoke(capsys, "validate", str(path))
        assert code == 1 and err

    def test_schema_mismatch_exit_code(self, capsys, tmp_path):
        doc = complex_to_document(example_zhou(2))
        doc["schemaVersion"] = 99
        path = tmp_path / "vers.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = invoke(capsys, "standardize", str(path))
        assert code == 1 and "schemaVersion" in err

    def test_bad_documents_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        for doc in bad_documents():
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = invoke(capsys, "standardize", str(path))
            assert code == 1 and not out
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_verification_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        import gridring.localeq

        fuv = self.emit_file(capsys, tmp_path, "z2.json", "example", "zhou", "--n", "2")
        monkeypatch.setattr(
            gridring.localeq, "check_certificate", lambda *args, **kwargs: ["forced violation"]
        )
        code, out, err = invoke(capsys, "standardize", str(fuv))
        assert code == 3 and not out
        assert err.startswith("internal verification failure: ") and err.count("\n") == 1
        assert "forced violation" in err

    def test_not_knotlike_exit_code(self, capsys, tmp_path):
        doc = {
            "schemaVersion": 1,
            "ring": "X",
            "base": "S",
            "dY": 0,
            "generators": [
                {"name": "a", "gr": [0, 0]},
                {"name": "b", "gr": [0, 0]},
            ],
            "differential": [],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = invoke(capsys, "standardize", str(path))
        assert code == 2

    def test_zhou_needs_n(self, capsys):
        code, _, err = invoke(capsys, "example", "zhou")
        assert code == 1

    def test_zhou_rejects_small_n(self, capsys):
        code, _, err = invoke(capsys, "example", "zhou", "--n", "1")
        assert code == 1

    def test_basechange_output(self, capsys, tmp_path):
        fuv = self.emit_file(capsys, tmp_path, "z2.json", "example", "zhou", "--n", "2")
        code, out, _ = invoke(capsys, "basechange", str(fuv))
        assert code == 0
        assert out == dump_json(complex_to_document(base_change(example_zhou(2))))

    @pytest.mark.parametrize(
        "argv, base",
        [
            (("reduce", "{fuv}"), "S"),
            (("tensor", "{x}", "{fuv}"), "S"),
            (("dual", "{fuv}"), "S"),
            (("basechange", "{x}"), "FUV"),
        ],
    )
    def test_wrong_base_exit_code(self, capsys, tmp_path, argv, base):
        fuv = self.emit_file(capsys, tmp_path, "z2.json", "example", "zhou", "--n", "2")
        x = self.emit_file(capsys, tmp_path, "z2x.json", "basechange", str(fuv))
        code, out, err = invoke(capsys, *[a.format(fuv=fuv, x=x) for a in argv])
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "base-%s" % base in err

    def test_deep_nesting_exit_code(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        for command in ("validate", "standardize"):
            code, out, err = invoke(capsys, command, str(path))
            assert code == 1 and not out
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "base, mutate",
        [
            ("S", _set(("differential", 0, "coeff", 0), {"part": "U", "e": [0] * 200000})),
            ("FUV", _set(("differential", 0, "coeff", 0), {"U": [0] * 200000, "V": 0})),
            ("S", _set(("differential", 0, "to"), "y" * 200000)),
            ("S", _set(("generators", 0), {"name": "x" * 200000, "gr": None})),
            ("S", _long_duplicate_name),
        ],
        ids=["monomial", "fuv-monomial", "endpoint", "grading", "duplicate-name"],
    )
    def test_oversized_record_error(self, capsys, tmp_path, base, mutate):
        # an error names the record by position and truncates its value
        C = example_zhou(3)
        doc = complex_to_document(base_change(C) if base == "S" else C)
        mutate(doc)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke(capsys, "standardize", str(path))
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_oversized_parameter_error(self):
        doc = {"ring": "X", "params": [{"sign": -1, "e": [1, 1]}, {"sign": 1, "e": [0] * 200000}]}
        with pytest.raises(DocumentError, match=r"params\[1\]") as info:
            document_to_spec(doc)
        assert len(str(info.value)) < 300

    def test_invariants_human_table(self, capsys):
        code, out, _ = invoke(capsys, "invariants", "C(0)")
        assert code == 0
        assert "tau" in out and "unknotting" in out


FUZZ_DOCUMENTS = [
    complex_to_document(example_zhou(3)),
    complex_to_document(example_cable()),
    complex_to_document(base_change(example_zhou(3))),
]
FUZZ_VALUES = [None, True, False, -1, 0, 2, "", "x0", [], {}, [0, 0], 10**30, 1.5, {"part": "K"}]


def _slots(obj, path=()):
    """Every (container path, key) pair of a JSON document, depth first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestExitCodeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), original=st.sampled_from(FUZZ_DOCUMENTS))
    def test_mutated_documents(self, data, original):
        # 1-3 key deletions or value swaps: every command either succeeds or
        # fails with its exit code and one line on stderr, never a traceback
        doc = json.loads(json.dumps(original))
        for _ in range(data.draw(st.integers(1, 3))):
            path, key = data.draw(st.sampled_from(list(_slots(doc))))
            obj = doc
            for step in path:
                obj = obj[step]
            if data.draw(st.booleans()):
                del obj[key]
            else:
                obj[key] = data.draw(st.sampled_from(FUZZ_VALUES))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for argv in (["--json", "standardize", path], ["reduce", path]):
                code, out, err = _run_quiet(argv)
                assert code in (0, 1, 2)
                if code:
                    assert not out and err.count("\n") == 1 and err.endswith("\n")
            code, _out, _err = _run_quiet(["validate", path])
            assert code in (0, 1)
