"""Count the code lines of Python sources.

A code line is a physical line that holds a token other than a comment,
NL, NEWLINE, INDENT, DEDENT or ENDMARKER, not counting docstrings (the
string that opens a module, class or function body).  A token that spans
several lines, such as a multi-line string that is not a docstring, counts
every line it spans.  Stdlib only (``tokenize`` and ``ast``).

Usage::

    python tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively (default
``src``).  Prints the count of each file and, last, the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _SKIP or tok.type == tokenize.ENCODING:
                continue
            if tok.type == tokenize.STRING and tok.start in docstrings:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _files(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for name in paths:
        p = Path(name)
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv: list[str] | None = None) -> int:
    total = 0
    for path in _files(list(argv if argv is not None else sys.argv[1:]) or ["src"]):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
