"""Count the code lines of the taildep package.

A code line holds at least one token that is not a comment, a blank line or
a docstring (a statement that is one string literal and nothing else); a
statement over several lines counts each line it spans.  Prints the count
per module and the total.

Usage: python ci/code_lines.py [package directory, default src/taildep]
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> None:
    here = Path(__file__).resolve().parent
    package = Path(argv[0]) if argv else here.parent / "src" / "taildep"
    counts = {p.name: code_lines(p.read_text(encoding="utf-8"))
              for p in sorted(package.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5,}")


if __name__ == "__main__":
    main(sys.argv[1:])
