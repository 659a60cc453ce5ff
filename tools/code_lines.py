"""Count the code lines of Python files: no docstrings, comments or blank lines.

Usage: python tools/code_lines.py [PATH ...]   (default: src/stablekern)

A path may be a file or a directory (its ``*.py`` files, recursively).
Prints one line per file and a total.  A docstring is the string
expression that opens a module, class or function body (found with
``ast``); a line counts if any token on it other than a comment, a line
break or an indent belongs to no docstring (found with ``tokenize``).  A
token that spans lines, such as a multi-line string, counts on each of
them.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source, str(path)))
    counted: Set[int] = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _LAYOUT:
                counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted - skip)


def python_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: List[str]) -> int:
    files = python_files(argv or ["src/stablekern"])
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
