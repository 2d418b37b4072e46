"""Count the code lines of the package: no blank, comment or docstring lines.

    python3 tests/code_lines.py [PACKAGE_DIR]

prints one ``<lines>  <module>`` row per module of PACKAGE_DIR (by default
``src/acausal_mbqc`` of this checkout), then the total.  A line counts when
a token other than a comment or a line break starts on it or a multi-line
token spans it, and no module, class or function docstring spans it
(tokenize for the tokens, the AST for the docstrings' line spans).
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "acausal_mbqc"

# tokens that make no line code by themselves
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the module's, classes' and functions' docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
