"""Count the code lines and public names of each module in a package directory.

    python3 tools/census.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/trigiter.  A code line holds at least one
token that is not a comment, a line break or indentation, outside the
docstrings: the string that opens a module, class or function body.
Blank lines, comments and those docstrings are not counted; a string
statement anywhere else (an attribute's docstring) is.  Public names
are the entries of the module's `__all__`, read with `ast`: a list or
tuple of strings, or a sum of such lists, names the module binds to such
lists before `__all__`, and `module.__all__` of sibling modules; a
module without `__all__` shows `-`.  Prints one line per
module, then the totals (the package's public names are those of its
`__init__.py`).
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


def public_names(path: pathlib.Path) -> list[str] | None:
    """The strings of the module's `__all__`, None if it assigns none."""
    lists = {}  # the module's names bound to a list or tuple so far
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [getattr(t, "id", None) for t in node.targets]
        if "__all__" in targets:
            return _names(node.value, path.parent, lists)
        if isinstance(node.value, (ast.List, ast.Tuple)):
            lists.update(dict.fromkeys(targets, node.value))
    return None


def _names(node: ast.expr, package: pathlib.Path, lists: dict) -> list[str]:
    if isinstance(node, ast.Name) and node.id in lists:
        node = lists[node.id]
    if isinstance(node, (ast.List, ast.Tuple)):
        return [element.value for element in node.elts]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _names(node.left, package, lists) + _names(node.right, package, lists)
    if isinstance(node, ast.Attribute) and node.attr == "__all__" and isinstance(node.value, ast.Name):
        return public_names(package / f"{node.value.id}.py") or []
    raise ValueError(f"an __all__ in {package} is not a sum of string lists: {ast.unparse(node)}")


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[0]) if argv else ROOT / "src" / "trigiter"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no modules in {package}", file=sys.stderr)
        return 1
    total = 0
    exported = "-"
    print("  code  public  module")
    for path in modules:
        count = code_lines(path)
        total += count
        names = public_names(path)
        shown = "-" if names is None else len(names)
        if path.name == "__init__.py":
            exported = shown
        print(f"{count:6d}  {shown:>6}  {path.name}")
    print(f"{total:6d}  {exported:>6}  total ({package})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
