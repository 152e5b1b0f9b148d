"""Command-line surface.

Subcommands operate on complex documents (JSON files) and on parameter
sequences in the text form ``C(-U[2,1], +V[2,1])``.  Exit codes: 0 success,
1 parse or validation error or out of memory, 2 not knotlike, 3 internal
verification failure, 130 interrupted (Ctrl-C).  Each of these prints one
line to stderr and no traceback.
"""

import argparse
import sys

from . import examples, io_json
from .complexes import (
    InvalidComplexError,
    NotKnotlikeError,
    base_change,
    dual,
    reduce,
    tensor,
    validate,
)
from .invariants import report
from .localeq import VerificationError, standard_representative
from .ring import EQUAL, LESS, RingId
from .standard import _require_standard, format_spec, lex_compare, parse_spec
from .io_json import DocumentError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_KNOTLIKE = 2
EXIT_VERIFICATION = 3


def _read_complex(path, base=None):
    """Parse a document, an FUV one into ring X; returns (complex, dY).

    With ``base`` ("S" or "FUV") a document of the other base is rejected.
    """
    doc = io_json.load_document(path)
    C, dy = io_json.document_to_complex(doc)
    if base is not None and doc.get("base", "S") != base:
        raise DocumentError("%s: expected a base-%s document" % (path, base))
    return C, dy


def _load_complex(path, base):
    """A validated complex from a document, base-changed into X once."""
    C, dy = _read_complex(path, base)
    bad = validate(C)
    if bad:
        raise DocumentError("%s: %s" % (path, "; ".join(bad)))
    return C, dy


def _standard_document(path):
    """``standard_representative`` of a document, which it validates once."""
    try:
        return standard_representative(_read_complex(path)[0])
    except InvalidComplexError as exc:
        bad = exc.violations
    # raised outside the handler, so it keeps no library frames as its context
    raise DocumentError("%s: %s" % (path, "; ".join(bad)))


def _is_literal(arg):
    return arg.strip().startswith("C(")


def _load_spec_arg(arg, ring=RingId.X):
    """A standard spec from either the C(...) literal form, over ``ring``, or a document path."""
    if _is_literal(arg):
        spec = parse_spec(arg, ring)
        _require_standard(spec)
        return spec
    return _standard_document(arg)[0]


def _emit(args, payload, text):
    if args.json:
        sys.stdout.write(io_json.dump_json(payload))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_spec(args, spec, text=None, **fields):
    """Print a spec: its document and text form plus ``fields`` as JSON, else ``text``.

    ``text`` defaults to the spec's text form.
    """
    payload = {"spec": io_json.spec_to_document(spec), "specText": format_spec(spec), **fields}
    _emit(args, payload, payload["specText"] if text is None else text)
    return EXIT_OK


def _emit_document(what, C, dy=0):
    """Print the document of C, which is JSON with or without --json.

    ``what`` names the document in the ``DocumentError`` raised when it
    cannot be written, e.g. a grading over the interpreter's integer digit
    limit; nothing is printed then.
    """
    try:
        text = io_json.dump_json(io_json.complex_to_document(C, dy))
    except ValueError as exc:
        raise DocumentError("cannot write %s: %s" % (what, exc)) from None
    sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args):
    C, _dy = _read_complex(args.file)
    bad = validate(C)
    if bad:
        _emit(args, {"ok": False, "violations": bad}, "\n".join(bad))
        return EXIT_INVALID
    _emit(args, {"ok": True, "violations": []}, "ok")
    return EXIT_OK


def cmd_reduce(args):
    C, dy = _load_complex(args.file, base="S")
    return _emit_document("the reduction of %s" % args.file, reduce(C), dy)


def cmd_basechange(args):
    C, dy = _load_complex(args.file, base="FUV")
    return _emit_document("the base change of %s" % args.file, C, dy)


def cmd_standardize(args):
    spec, fwd, back, applied = _standard_document(args.file)
    return _emit_spec(
        args, spec, appliedShift=list(applied), verified=True,
        forward=fwd.to_json(), backward=back.to_json(),
    )


def cmd_tensor(args):
    A, dya = _load_complex(args.a, base="S")
    B, dyb = _load_complex(args.b, base="S")
    what = "the tensor product of %s and %s" % (args.a, args.b)
    return _emit_document(what, tensor(A, B), dya + dyb)


def cmd_dual(args):
    C, dy = _load_complex(args.file, base="S")
    return _emit_document("the dual of %s" % args.file, dual(C), -dy)


def cmd_compare(args):
    # a literal is read over the ring of the document it is compared with,
    # and two literals over X
    if _is_literal(args.a) and not _is_literal(args.b):
        sb = _load_spec_arg(args.b)
        sa = _load_spec_arg(args.a, sb.ring)
    else:
        sa = _load_spec_arg(args.a)
        sb = _load_spec_arg(args.b, sa.ring)
    c = lex_compare(sa, sb)
    word = "equal" if c == EQUAL else ("less" if c == LESS else "greater")
    _emit(args, {"order": word, "a": format_spec(sa), "b": format_spec(sb)}, word)
    return EXIT_OK


def _report_text(spec, rep):
    lines = ["spec           %s" % format_spec(spec)]
    if rep.phi.entries:
        for (s, e), c in rep.phi.entries:
            lines.append("phi[%s,(%d,%d)]   %+d" % (s.value, e[0], e[1], c))
    else:
        lines.append("phi            0 everywhere")
    lines.append("tau            %d%s" % (rep.tau, "" if rep.symmetric else "  (asymmetric spec; formula value)"))
    eps = "0" if rep.epsilon_zero else "%+d (sign convention: sgn b_1)" % rep.epsilon_sign
    lines.append("epsilon        %s" % eps)
    lines.append("N              %d" % rep.big_n)
    lines.append("genus bound    >= %s" % rep.genus_lb)
    lines.append("unknotting     >= %d" % rep.unknotting_lb)
    lines.append("P_U, P_V       %d, %d" % (rep.p_u, rep.p_v))
    lines.append("symmetric      %s" % ("yes" if rep.symmetric else "no"))
    lines.append("obstructions   lspace=%s seifert+=%s seifert-=%s" % (
        rep.lspace_obstruction, rep.seifert_pos_obstruction, rep.seifert_neg_obstruction,
    ))
    return "\n".join(lines)


def cmd_invariants(args):
    spec = _load_spec_arg(args.target)
    rep = report(spec)
    return _emit_spec(args, spec, _report_text(spec, rep), **rep.to_json())


def cmd_example(args):
    if args.which == "zhou":
        if args.n is None:
            raise DocumentError("example zhou needs --n")
        C = examples.example_zhou(args.n)
    else:
        C = examples.example_cable()
    what = "example %s" % args.which
    if args.emit == "fuv":
        return _emit_document(what, C)
    if args.emit == "x":
        return _emit_document(what, base_change(C))
    spec = standard_representative(base_change(C))[0]
    return _emit_spec(args, spec)


# one row per subcommand: name, help, positionals (``dest`` or
# ``dest:METAVAR``) and handler; example's options are added in build_parser
_COMMANDS = (
    ("validate", "check a complex document", ("file",), cmd_validate),
    ("reduce", "cancel unit entries of a base-S document", ("file",), cmd_reduce),
    ("basechange", "extend scalars of a base-FUV document into X", ("file",), cmd_basechange),
    ("standardize", "compute the standard representative", ("file",), cmd_standardize),
    ("tensor", "tensor product of two base-S documents", ("a", "b"), cmd_tensor),
    ("dual", "dual of a base-S document", ("file",), cmd_dual),
    ("compare", "order two complexes or specs", ("a", "b"), cmd_compare),
    ("invariants", "invariant report for a file or C(...) literal", ("target:FILE|SPEC",),
     cmd_invariants),
    ("example", "built-in example complexes", (), cmd_example),
)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gridring",
        description="Exact computations with chain complexes over grid rings.",
    )
    ap.add_argument("--json", action="store_true", help="emit a single JSON object")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text, positionals, func in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for arg in positionals:
            dest, _, metavar = arg.partition(":")
            p.add_argument(dest, metavar=metavar or None)
        p.set_defaults(func=func)
    p = sub.choices["example"]
    p.add_argument("which", choices=["zhou", "cable"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--emit", choices=["fuv", "x", "spec"], default="fuv")
    return ap


def run(argv):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (DocumentError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_NOT_KNOTLIKE if isinstance(exc, NotKnotlikeError) else EXIT_INVALID
    except VerificationError as exc:
        sys.stderr.write("internal verification failure: %s\n" % exc)
        return EXIT_VERIFICATION
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_INVALID
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return 130  # 128 + SIGINT, as a shell reports an interrupted command


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
