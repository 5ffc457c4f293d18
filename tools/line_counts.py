"""Count the code, docstring, comment and blank lines of Python files.

Usage: ``python tools/line_counts.py FILE...``; prints one row per file and
a total.  Docstring lines are the lines of module, class and function
docstrings; code lines are every other line that carries a token; comment
lines hold a comment and nothing else; blank lines are the empty lines
outside docstrings and other tokens (an empty line inside a string is code).
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int, int, int]:
    """``(code, docstrings, comments, blank)`` lines of ``source``."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= code | docs
    blank = len(source.splitlines()) - len(code | docs | comments)
    return len(code), len(docs), len(comments), blank


def main(paths: list[str]) -> None:
    total = [0, 0, 0, 0]
    print(f"{'code':>6} {'doc':>6} {'comment':>7} {'blank':>6}  file")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            row = counts(f.read())
        total = [t + r for t, r in zip(total, row)]
        print(f"{row[0]:6d} {row[1]:6d} {row[2]:7d} {row[3]:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d} {total[2]:7d} {total[3]:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
