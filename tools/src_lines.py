"""Print the line count and the code-line count of each module of src/ddesim, and their totals.

Usage: python3 tools/src_lines.py [--root CHECKOUT]

A code line is a line that is neither blank, nor only a comment, nor part
of a docstring: the string that opens a module, class or function body.
Prints `module lines code_lines` per module of CHECKOUT/src/ddesim (default:
the checkout this script lives in), then `total lines code_lines`.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="checkout whose src/ddesim is counted (default: this one)")
    package = os.path.join(parser.parse_args(argv).root, "src", "ddesim")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"no ddesim sources under {package}", file=sys.stderr)
        return 1
    totals = [0, 0]
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                counts = count(fh.read())
            print(name, *counts)
            totals = [t + c for t, c in zip(totals, counts)]
    print("total", *totals)
    return 0


if __name__ == "__main__":
    sys.exit(main())
