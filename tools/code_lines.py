"""Count the code lines of the ccalc modules.

A code line is a non-blank line that is neither a whole-line comment nor part
of a module, class or function docstring.  Lines inside other string
literals count.  Stdlib only.

    python3 tools/code_lines.py

prints one count per module of src/ccalc next to this script, then the total.
"""

import ast
from pathlib import Path


def docstring_lines(tree):
    """The line numbers taken by the docstrings of tree and its defs."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in skip
    )


def main():
    root = Path(__file__).resolve().parents[1] / "src" / "ccalc"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%-16s %5d" % (path.name, count))
    print("%-16s %5d" % ("total", total))


if __name__ == "__main__":
    main()
