import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from gridring import (
    RingId,
    base_change,
    example_cable,
    example_zhou,
    parse_spec,
    realize,
    reduce,
    tensor,
    validate,
    validate_fuv,
)
from gridring.cli import run
from gridring.complexes import fuv_image
from gridring.io_json import (
    DocumentError,
    complex_to_document,
    document_to_complex,
    document_to_spec,
    dump_json,
    spec_to_document,
)
from gridring.ring import ONE_ELEM

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


# (base, coefficients of an entry's first record, of its second record)
REPEATED_ENTRIES = [
    pytest.param("S", [{"part": "K"}], [{"part": "U", "e": [1, 0]}], id="replaced"),
    pytest.param(
        "S",
        [{"part": "K"}],
        [{"part": "U", "e": [1, 0]}, {"part": "U", "e": [1, 0]}],
        id="cancelled",
    ),
    pytest.param("FUV", [{"U": 1, "V": 0}], [{"U": 0, "V": 1}], id="fuv"),
]


def _repeated_entry_document(base, first, second):
    """A Zhou n = 2 document whose first entry has a second record; and the error."""
    C = example_zhou(2)
    doc = complex_to_document(base_change(C) if base == "S" else C)
    rec = doc["differential"][0]
    rec["coeff"] = first
    doc["differential"].append(dict(rec, coeff=second))
    pos = len(doc["differential"]) - 1
    return doc, "differential[%d] repeats the entry (%r, %r)" % (pos, rec["from"], rec["to"])


class TestDocuments:
    def test_round_trip_fuv(self):
        # an F2[U,V] document is read into its base change
        C = example_zhou(3)
        doc = complex_to_document(C, dy=0)
        back, dy = document_to_complex(doc)
        assert dy == 0
        assert back == base_change(C)

    def test_fuv_records_are_xored(self):
        # an entry's records U^a V^b are XORed into one set before its image
        # is taken: a monomial given twice cancels, and the entry then drops
        doc = complex_to_document(example_zhou(2))
        rec = doc["differential"][0]
        key = (0, 2)  # x0 -> y
        rec["coeff"] = [{"U": 1, "V": 0}, {"U": 1, "V": 0}]
        assert document_to_complex(doc)[0].diff == {(1, 2): fuv_image({(2, 1)})}
        rec["coeff"] = [{"U": 0, "V": 0}]
        assert document_to_complex(doc)[0].diff[key] == ONE_ELEM
        rec["coeff"] = [{"U": 1, "V": 0}, {"U": 0, "V": 0}, {"U": 1, "V": 0}]
        assert document_to_complex(doc)[0].diff[key] == ONE_ELEM
        rec["coeff"] = [{"U": 1, "V": 0}] * 3
        assert document_to_complex(doc)[0].diff[key] == fuv_image({(1, 0)})

    def test_round_trip_x(self):
        C = base_change(example_zhou(2))
        back, _dy = document_to_complex(complex_to_document(C, dy=1))
        assert same_complex(back, C)

    def test_schema_version_mismatch(self):
        doc = complex_to_document(example_zhou(2))
        doc["schemaVersion"] = 2
        with pytest.raises(DocumentError):
            document_to_complex(doc)

    def test_schema_version_past_the_digit_limit(self, int_digit_limit):
        # the version prints as its digit count, so the error is a DocumentError
        with pytest.raises(DocumentError) as info:
            document_to_complex({"schemaVersion": 10**5000})
        assert str(info.value) == "unsupported schemaVersion <5001 digits> (expected 1)"

    @pytest.mark.parametrize("base, first, second", REPEATED_ENTRIES)
    def test_repeated_entry_rejected(self, base, first, second):
        # a second record for one entry neither replaces nor adds to the first
        doc, message = _repeated_entry_document(base, first, second)
        with pytest.raises(DocumentError) as info:
            document_to_complex(doc)
        assert str(info.value) == message

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

    def test_standardize_ignores_dy(self, capsys, tmp_path):
        # the knotlike normalization cancels any dY, so the output is the same
        doc = complex_to_document(example_cable())
        outs = []
        for dy in (0, 3, -5):
            path = tmp_path / ("cable_%d.json" % dy)
            path.write_text(json.dumps(dict(doc, dY=dy)), encoding="utf-8")
            code, out, err = invoke(capsys, "--json", "standardize", str(path))
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["appliedShift"] == [-2, -2]

    def test_invariants_on_spec_literal(self, capsys):
        code, out, _ = invoke(capsys, "--json", "invariants", "C(-U[2,1], +V[2,1])")
        assert code == 0
        doc = json.loads(out)
        assert doc["tau"] == -1
        assert {"side": "U", "e": [2, 1], "count": -1} in doc["phi"]

    def test_compare_equal(self, capsys):
        code, out, _ = invoke(capsys, "compare", "C(-U[2,1], +V[2,1])", "C(-U[2,1], +V[2,1])")
        assert code == 0 and out.strip() == "equal"

    @pytest.mark.parametrize("literal", ["C(+U[2,0])", "C(-U[1,0],+V[1,0],-U[1,0])"])
    @pytest.mark.parametrize(
        "argv",
        [["invariants", "{}"], ["compare", "{}", "C(0)"], ["compare", "C(0)", "{}"]],
        ids=["invariants", "compare-a", "compare-b"],
    )
    def test_odd_length_literal_rejected(self, capsys, argv, literal):
        # an odd-length sequence is a semistandard search prefix, not a
        # standard complex: an input error, not a verification failure
        n = len(parse_spec(literal).params)
        code, out, err = invoke(capsys, *[a.format(literal) for a in argv])
        assert code == 1 and not out
        assert err == (
            "error: spec has an odd number of parameters (%d): a semistandard search "
            "prefix, not a standard complex\n" % n
        )

    @pytest.mark.parametrize("literal", ["C(,)", "C(-U[1,0],,+V[1,0])", "C(-U[1,0], +V[1,0],)"])
    def test_empty_parameter_rejected(self, capsys, literal):
        code, out, err = invoke(capsys, "invariants", literal)
        assert code == 1 and not out
        assert err.startswith("error: bad spec parameter ") and err.count("\n") == 1

    def test_compare_files_and_specs(self, capsys, tmp_path):
        fuv = self.emit_file(capsys, tmp_path, "z2.json", "example", "zhou", "--n", "2")
        code, out, _ = invoke(capsys, "compare", str(fuv), "C(-U[3,2], +V[3,2])")
        assert code == 0 and out.strip() == "less"

    @pytest.mark.parametrize("literal, want", [
        ("C(-U[1,0], +V[1,0])", "equal"),
        ("C(-U[2,0], +V[2,0])", "less"),
        ("C(-U[1,0], +V[2,0])", "greater"),
        ("C(0)", "less"),
    ])
    def test_compare_document_over_r_with_literal(self, capsys, tmp_path, literal, want):
        # a literal is read over the ring of the document it is compared with
        spec = parse_spec("C(-U[1,0], +V[1,0])", RingId.R)
        path = tmp_path / "r.json"
        path.write_text(dump_json(complex_to_document(realize(spec))), encoding="utf-8")
        code, out, err = invoke(capsys, "compare", str(path), literal)
        assert (code, out.strip(), err) == (0, want, "")
        flipped = {"less": "greater", "greater": "less"}.get(want, want)
        code, out, err = invoke(capsys, "compare", literal, str(path))
        assert (code, out.strip(), err) == (0, flipped, "")
        # a parameter of X outside R is an input error
        code, out, err = invoke(capsys, "compare", "C(-U[1,1], +V[1,1])", str(path))
        assert (code, out) == (1, "")
        assert err == "error: parameter 1 is invalid in ring R: -U[1,1]\n"

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

    def test_non_utf8_document_error(self, capsys, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe")
        for command in ("validate", "standardize"):
            code, out, err = invoke(capsys, command, str(path))
            assert code == 1 and not out
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(path) in err

    def test_integer_over_digit_limit_document_error(self, capsys, tmp_path):
        # an odd first grading: where int() has no digit limit, the document
        # still fails, on mixed parity
        doc = complex_to_document(base_change(example_zhou(2)))
        doc["generators"][0]["gr"] = ["BIG", 0]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "1" * 5000), encoding="utf-8")
        for command in ("validate", "standardize"):
            code, out, err = invoke(capsys, command, str(path))
            assert code == 1 and not out
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(path) in err

    def test_long_values_error_stays_short(self, capsys, tmp_path, no_int_digit_limit):
        # with no digit limit the 5000-digit odd grading reads, and every
        # violation cuts it to 80 characters; so is an entry's exponent
        doc = complex_to_document(base_change(example_zhou(2)))
        doc["generators"][0]["gr"] = ["BIG", 0]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "1" * 5000), encoding="utf-8")
        cut = "mixed parity (%s..." % ("1" * 76)
        code, out, err = invoke(capsys, "standardize", str(path))
        assert code == 1 and not out
        assert err.startswith("error: %s: " % path) and err.count("\n") == 1
        assert cut in err and len(err) < 1000
        code, out, err = invoke(capsys, "validate", str(path))
        assert code == 1 and not err
        assert cut in out and max(map(len, out.splitlines())) < 200
        doc = complex_to_document(base_change(example_zhou(2)))
        doc["differential"][0]["coeff"] = [{"part": "U", "e": ["BIG", 0]}]
        path.write_text(json.dumps(doc).replace('"BIG"', "-" + "1" * 4000), encoding="utf-8")
        code, out, err = invoke(capsys, "standardize", str(path))
        assert code == 1 and not out
        assert err.count("\n") == 1 and "is not in ring X" in err and len(err) < 1000

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit"
    )
    def test_tensor_over_digit_limit_names_result(self, capsys, tmp_path):
        # each grading has 4300 digits, within the limit; their sum has 4301
        nines = "9" * 4300
        doc = {"schemaVersion": 1, "ring": "X", "generators": [{"name": "x", "gr": [0, 0]}]}
        text = json.dumps(doc).replace("[0, 0]", "[%s, %s]" % (nines, nines))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(text, encoding="utf-8")
        b.write_text(text, encoding="utf-8")
        assert invoke(capsys, "dual", str(a))[0] == 0
        code, out, err = invoke(capsys, "tensor", str(a), str(b))
        assert code == 1 and not out
        assert err.startswith("error: cannot write the tensor product of %s and %s: " % (a, b))
        assert err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit"
    )
    def test_integer_over_digit_limit_spec_error(self, capsys):
        code, out, err = invoke(capsys, "invariants", "C(-U[%s,0], +V[1,0])" % ("1" * 5000))
        assert code == 1 and not out
        assert err.startswith("error: bad spec parameter 1: ") and err.count("\n") == 1

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

    def test_standardize_validates_once(self, capsys, tmp_path, monkeypatch):
        # the library's validation is the document check, not a second pass;
        # the only other check is the certificate checker's of its own
        # target, the realized answer.  Both run in complexes, whose
        # _require_valid is the library's one gate
        import gridring.cli
        import gridring.complexes

        calls = []
        original = gridring.complexes.validate

        def counting(C):
            calls.append(C)
            return original(C)

        for module in (gridring.cli, gridring.complexes):
            monkeypatch.setattr(module, "validate", counting)
        cable = self.emit_file(capsys, tmp_path, "cable.json", "example", "cable")
        code, out, err = invoke(capsys, "--json", "standardize", str(cable))
        assert code == 0, err
        answer = realize(parse_spec(json.loads(out)["specText"]))
        assert calls == [document_to_complex(json.loads(cable.read_text()))[0], answer]

    @pytest.mark.parametrize(
        "argv",
        [["standardize", "{}"], ["compare", "{}", "C(0)"], ["invariants", "{}"]],
        ids=["standardize", "compare", "invariants"],
    )
    def test_invalid_document_error(self, capsys, tmp_path, argv):
        doc = complex_to_document(example_cable())
        doc["generators"][0]["gr"] = [3, -1]
        path = tmp_path / "cable_bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        bad = validate(document_to_complex(doc)[0])
        assert len(bad) == 2
        code, out, err = invoke(capsys, *[a.format(path) for a in argv])
        assert code == 1 and not out
        assert err == "error: %s: %s\n" % (path, "; ".join(bad))

    @pytest.mark.parametrize("command, base", [("reduce", "S"), ("basechange", "FUV")])
    def test_invalid_document_error_of_a_loaded_complex(self, capsys, tmp_path, command, base):
        # the commands that emit a complex validate it on loading
        C = example_cable()
        doc = complex_to_document(base_change(C) if base == "S" else C)
        doc["generators"][0]["gr"] = [3, -1]
        path = tmp_path / "cable_bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        bad = validate(document_to_complex(doc)[0])
        assert len(bad) == 2
        code, out, err = invoke(capsys, command, str(path))
        assert code == 1 and not out
        assert err == "error: %s: %s\n" % (path, "; ".join(bad))

    @pytest.mark.parametrize("command", ["validate", "standardize"])
    @pytest.mark.parametrize("base, first, second", REPEATED_ENTRIES)
    def test_repeated_entry_error(self, capsys, tmp_path, command, base, first, second):
        doc, message = _repeated_entry_document(base, first, second)
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke(capsys, command, str(path))
        assert code == 1 and not out
        assert err == "error: %s\n" % message

    def test_validate_json_golden(self, capsys, tmp_path):
        # the cable document with "gr": [1, -1] rewritten to [3, -1], as the
        # install smoke test does with sed
        doc = complex_to_document(example_cable())
        for rec in doc["generators"]:
            if rec["gr"] == [1, -1]:
                rec["gr"] = [3, -1]
        path = tmp_path / "cable_bad.json"
        path.write_text(dump_json(doc), encoding="utf-8")
        code, out, _err = invoke(capsys, "--json", "validate", str(path))
        assert code == 1
        assert out == (DATA / "validate_cable_bad.json").read_text(encoding="utf-8")

    def test_validate_d_squared_golden(self, capsys):
        # x -> y -> z by units and a -> b -> c by U[1,0]+V[0,1]: d^2 has a
        # unit entry and one with both side parts, in the order of their
        # first products
        code, out, _err = invoke(capsys, "--json", "validate", str(DATA / "d2_nonzero.json"))
        assert code == 1
        assert out == (DATA / "validate_d2_nonzero.json").read_text(encoding="utf-8")

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
        code, out, err = invoke(capsys, "standardize", str(path))
        assert code == 2 and not out
        # one line naming both sides' tower counts
        assert err == "error: complex is not knotlike: 2 towers on side U, 2 on side V\n"

    @pytest.mark.parametrize(
        "exc, code, line",
        [(KeyboardInterrupt, 130, "interrupted\n"), (MemoryError, 1, "error: out of memory\n")],
        ids=["KeyboardInterrupt", "MemoryError"],
    )
    def test_interrupt_and_out_of_memory(self, capsys, tmp_path, monkeypatch, exc, code, line):
        # a raise from inside the command, never a real exhaustion of memory
        import gridring.cli

        def boom(*args):
            raise exc

        fuv = self.emit_file(capsys, tmp_path, "z2.json", "example", "zhou", "--n", "2")
        monkeypatch.setattr(gridring.cli, "standard_representative", boom)
        assert invoke(capsys, "standardize", str(fuv)) == (code, "", line)

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

    @pytest.mark.parametrize(
        "literal",
        [
            "C(-U[1,1], +V[1,1%s])" % (",1" * 50000),
            "C(-U[1,1%s, +V[1,1])" % (",1" * 50000),
            "C(%s)" % ("x" * 100000),
            "C(%s" % ("x" * 100000),
            "C(-U[1,-%s], +V[1,1])" % ("9" * 4000),
        ],
        ids=["parameter", "brackets", "token", "shape", "invalid"],
    )
    def test_oversized_spec_literal_error(self, capsys, literal):
        code, out, err = invoke(capsys, "invariants", literal)
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_invariants_human_table(self, capsys):
        code, out, _ = invoke(capsys, "invariants", "C(0)")
        assert code == 0
        assert "tau" in out and "unknotting" in out


DATA = pathlib.Path(__file__).parent / "data"

# the full --json standardize output, certificate matrices included, is part
# of the output contract; tests/data holds it for three inputs
GOLDEN_DOCUMENTS = {
    "zhou3": complex_to_document(example_zhou(3)),
    "cable": complex_to_document(example_cable()),
    "cable_zhou3": complex_to_document(
        tensor(reduce(base_change(example_cable())), base_change(example_zhou(3)))
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
def test_standardize_json_known_answer(capsys, tmp_path, name):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(GOLDEN_DOCUMENTS[name]), encoding="utf-8")
    code, out, err = invoke(capsys, "--json", "standardize", str(path))
    assert code == 0, err
    assert out == (DATA / ("standardize_%s.json" % name)).read_text(encoding="utf-8")


# the full --json invariants output of five spec literals: the cable's
# standard representative, symmetric specs with j > 0 and with j = 0, an
# asymmetric one and the trivial spec
GOLDEN_SPECS = {
    "cable": "C(-U[1,1], +V[1,0], -U[1,0], +V[1,1])",
    "u32_v32": "C(-U[3,2], +V[3,2])",
    "u21_v10": "C(-U[2,1], +V[1,0])",
    "u20_v20": "C(+U[2,0], -V[2,0])",
    "trivial": "C(0)",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_invariants_json_known_answer(capsys, name):
    code, out, err = invoke(capsys, "--json", "invariants", GOLDEN_SPECS[name])
    assert code == 0, err
    assert out == (DATA / ("invariants_%s.json" % name)).read_text(encoding="utf-8")


# modules the command line needs on no path: records are plain classes, and
# only an invariant report imports fractions
COLD_IMPORT_ABSENT = ("dataclasses", "inspect", "fractions", "typing")


def test_cold_import_leaves_out_heavy_modules():
    # -S: no site hooks, so only gridring's own imports load modules
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = "import sys; sys.path.insert(0, %r); import gridring.cli; print(%s)" % (
        str(src),
        "sorted(m for m in %r if m in sys.modules)" % (COLD_IMPORT_ABSENT,),
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
                # a copy: a shared value mutated later would change FUZZ_VALUES
                # or nest a list inside itself
                obj[key] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
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
