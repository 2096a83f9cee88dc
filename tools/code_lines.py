"""Count the code-only lines of Python source files.

A line counts when it carries a token other than a comment or a docstring;
blank lines and lines inside a docstring do not count. A docstring is a
string literal that stands alone as the first statement of a module, class
or function. Usage, from the root of a checkout:

    python3 tools/code_lines.py [PATH ...]

Each PATH is a file or a directory, searched for *.py files; the default is
src. The script prints each file's count and, last, the total.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of one file that carry a code token."""
    lines = set()
    # a docstring is a STRING that opens the module or the body after a def or
    # class header, and ends its logical line
    expect_doc, header, previous, pending = True, False, None, None
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in IGNORED:
                continue
            if pending is not None:
                if tok.type != tokenize.NEWLINE:  # the string goes on: code, not docstring
                    lines.update(range(pending.start[0], pending.end[0] + 1))
                pending = None
            if tok.type == tokenize.STRING and expect_doc:
                pending = tok
            elif tok.type not in LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
            if tok.type == tokenize.NAME and tok.string in ("def", "class"):
                header = True
            elif tok.type == tokenize.NEWLINE:  # a one-line body ends the header
                header = header and previous.string == ":"
            expect_doc = tok.type == tokenize.INDENT and header
            if tok.type == tokenize.INDENT:
                header = False
            previous = tok
    return len(lines)


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv) -> int:
    total = 0
    for path in python_files(argv or ["src"]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
