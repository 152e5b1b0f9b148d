"""Code lines and unused imports of ``src/gridring``.

Prints the code lines of each module and their total, without blank lines,
comments or docstrings, then every name a module imports and never reads;
the imports of ``__init__.py`` are the public re-exports.  Exits 1 if a
module has an unused import, else 0 (the line count is reported only).

Run from the repository root: ``python3 tests/code_lines.py``.
"""

import ast
import pathlib
import sys


def code_lines(text):
    """Lines of ``text`` that are not blank, a comment or part of a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for k, line in enumerate(text.splitlines(), 1)
               if k not in docstrings and line.strip() and not line.strip().startswith("#"))


def unused_imports(path, text):
    """One message per name the module at ``path`` imports and never reads."""
    tree = ast.parse(text)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    bad.append("%s:%d imports %s, never read" % (path, node.lineno, name))
    return bad


def main():
    total = 0
    bad = []
    for path in sorted(pathlib.Path("src/gridring").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        n = code_lines(text)
        total += n
        print("%6d  %s" % (n, path.name))
        if path.name != "__init__.py":
            bad += unused_imports(path, text)
    print("%6d  total" % total)
    print("\n".join(bad) or "no unused imports")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
