"""Count the physical and code lines of each module of a Python package directory.

Run from the repository root:

    python3 bench/lines.py [--src DIR] [--parent DIR]

``--src`` names the directory whose ``*.py`` files are counted (default: ``src/holoseq``
of this checkout).  A code line is one that is not blank, not a comment alone and not part
of a module, class or function docstring; a line of code that ends in a comment is code.
The script prints one line per module and one for the total: its physical and code lines.
With ``--parent``, a second directory such as ``src/holoseq`` of another checkout, each
line also holds the parent's counts and the deltas; a module that only one of the two has
counts as 0 lines in the other.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, its classes' and its functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source text."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def counts(directory: Path) -> dict[str, tuple[int, int]]:
    """Module file name -> (physical lines, code lines), for every ``*.py`` in ``directory``."""
    return {path.name: count(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def report(src: dict[str, tuple[int, int]], parent: Optional[dict[str, tuple[int, int]]] = None) -> str:
    """The table that ``main`` prints: one row per module, then the total."""
    names = sorted(set(src) | set(parent or {}))
    rows = [(name, src.get(name, (0, 0)), (parent or {}).get(name, (0, 0))) for name in names]
    total = tuple(sum(column) for column in zip(*(now for _, now, _ in rows))) or (0, 0)
    before = tuple(sum(column) for column in zip(*(then for _, _, then in rows))) or (0, 0)
    rows.append(("total", total, before))
    lines = []
    for name, (physical, code), (physical_then, code_then) in rows:
        line = f"{name:<16} {physical:>6} physical {code:>6} code"
        if parent is not None:
            line += (f"   parent {physical_then:>6} physical {code_then:>6} code"
                     f"   delta {physical - physical_then:+6} physical {code - code_then:+6} code")
        lines.append(line)
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src" / "holoseq")
    parser.add_argument("--parent", type=Path)
    args = parser.parse_args(argv)
    print(report(counts(args.src), None if args.parent is None else counts(args.parent)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
