"""Split the lines of each module of src/stratgrad into docstring, comment,
blank and code lines, and print the counts per file and in total.

A docstring line is any line of a module, class or function docstring,
blank lines inside it included. A comment line holds a comment and no code.
A blank line is empty or whitespace outside a docstring. Every other line
is code. Standard library only:

    python scripts/count_src_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("total", "docstring", "comment", "blank", "code")


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code_lines: set[int] = set()
    comment_lines: set[int] = set()
    skip = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment_lines.add(tok.start[0])
        elif tok.type not in skip:
            code_lines.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, text in enumerate(lines, start=1):
        counts["total"] += 1
        if number in docs:
            counts["docstring"] += 1
        elif number in code_lines:
            counts["code"] += 1
        elif number in comment_lines:
            counts["comment"] += 1
        elif not text.strip():
            counts["blank"] += 1
        else:  # a line inside a multi-line token that is not a docstring
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "stratgrad"
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 1
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'file':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for path in files:
        counts = count(path.read_text())
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{total[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
