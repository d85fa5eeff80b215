"""Count the code lines of each module in a package directory.

    python3 tools/census.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/trigiter.  A code line holds at least one
token that is not a comment, a line break or indentation, outside the
docstrings: the string that opens a module, class or function body.
Blank lines, comments and those docstrings are not counted; a string
statement anywhere else (an attribute's docstring) is.  Prints one line
per module, then the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[0]) if argv else ROOT / "src" / "trigiter"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no modules in {package}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total ({package})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
