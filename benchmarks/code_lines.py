"""Count the code lines of each module of ``src/partialpi``, and their total.

A code line holds some code: blank lines, comment-only lines and the lines
of docstrings (the leading string of a module, class or function) are left
out. Run from the repository root, or pass another source directory:

    python benchmarks/code_lines.py [src/partialpi]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/partialpi")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
