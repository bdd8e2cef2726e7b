"""Count the code lines of lglab's source files.

Usage: python tools/loc.py [TREE ...]

Each TREE is a checkout of this repository (a directory holding
``src/lglab``); the default is the checkout this script sits in. For each
tree the script prints the code lines of every ``src/lglab`` file and
their total. A code line holds a token other than a comment or a line
break; the lines of a module's, class's or function's docstring do not
count. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

#: Token types that make no line a code line.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The number of code lines in one Python file."""
    with open(path, "rb") as handle:
        source = handle.read()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, path)))


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", default=[here], metavar="TREE",
                        help="checkouts to count (default: this one)")
    args = parser.parse_args(argv)
    for tree in args.trees:
        package = os.path.join(tree, "src", "lglab")
        if not os.path.isdir(package):
            parser.error(f"{tree} holds no src/lglab")
        names = sorted(n for n in os.listdir(package) if n.endswith(".py"))
        counts = [(name, code_lines(os.path.join(package, name))) for name in names]
        print(tree)
        for name, count in counts:
            print(f"  {name:<16}{count:>6}")
        print(f"  {'total':<16}{sum(c for _, c in counts):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
