#!/usr/bin/env python3
"""Count the code lines of src/, the net size a simplifying change reports.

Usage:
  src_lines.py [ROOT]                 total for the working tree at ROOT
  src_lines.py [ROOT] --base REV      also the tree at git revision REV:
                                      both totals, the difference and the
                                      per-file changes
  src_lines.py --self-test

A code line is a line of a `src/**/*.{cpp,hpp}` file that is not blank,
not only a `//` comment and not part of a `/* */` block comment. The rule
reads each line's first characters only: a line that starts with `/*` is
comment even when code follows the close (`/*order=*/1);`), and a line
with code before a comment counts. The net sizes in CHANGES.md use this
rule, so keep it as it is: a new rule would make old and new totals
incomparable.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SUFFIXES = (".cpp", ".hpp")


def count_code_lines(text: str) -> int:
    """Lines of `text` that count as code (see the module docstring)."""
    count = 0
    in_block = False
    for line in text.splitlines():
        stripped = line.strip()
        if in_block:
            in_block = "*/" not in stripped
            continue
        if not stripped or stripped.startswith("//"):
            continue
        if stripped.startswith("/*"):
            in_block = "*/" not in stripped[2:]
            continue
        count += 1
    return count


def is_counted(path: str) -> bool:
    return path.startswith("src/") and path.endswith(SUFFIXES)


def tree_counts(root: Path) -> dict[str, int]:
    """Code lines per counted file of the working tree at `root`."""
    counts = {}
    for path in sorted((root / "src").rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_file() and is_counted(rel):
            counts[rel] = count_code_lines(path.read_text(encoding="utf-8"))
    return counts


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout


def rev_counts(root: Path, rev: str) -> dict[str, int]:
    """Code lines per counted file of the tree at git revision `rev`."""
    counts = {}
    for rel in git(root, "ls-tree", "-r", "--name-only", rev, "--",
                   "src").splitlines():
        if is_counted(rel):
            counts[rel] = count_code_lines(git(root, "show", f"{rev}:{rel}"))
    return counts


def report(base: dict[str, int], head: dict[str, int], rev: str) -> None:
    old, new = sum(base.values()), sum(head.values())
    print(f"src/ code lines: {rev} {old} -> working tree {new} "
          f"({new - old:+d})")
    for rel in sorted(base.keys() | head.keys()):
        a, b = base.get(rel, 0), head.get(rel, 0)
        if a != b:
            tag = " (new)" if rel not in base else (
                " (deleted)" if rel not in head else "")
            print(f"  {rel}: {a} -> {b} ({b - a:+d}){tag}")


# --- self test ---------------------------------------------------------------

_FIXTURE = """\
// A header comment.
#include <string>

/* A block comment
   over three lines
   that ends here. */
int f(int a, /*b=*/int b) {  // trailing comment
  /* one-line block */
  return a + b;
}
  /*order=*/1);
"""
# Code: #include, int f, return, }. The last line opens with `/*`.
_FIXTURE_CODE_LINES = 4


def self_test() -> int:
    got = count_code_lines(_FIXTURE)
    if got != _FIXTURE_CODE_LINES:
        print(f"self-test FAILED: counted {got} code lines, "
              f"want {_FIXTURE_CODE_LINES}", file=sys.stderr)
        return 1
    print("src_lines self-test: ok")
    return 0


def main(argv: list[str]) -> int:
    args = argv[1:]
    if args == ["--self-test"]:
        return self_test()
    rev = None
    if "--base" in args:
        at = args.index("--base")
        if at + 1 >= len(args):
            print("src_lines: --base needs a revision", file=sys.stderr)
            return 2
        rev = args[at + 1]
        del args[at:at + 2]
    if len(args) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    head = tree_counts(root)
    if rev is None:
        print(f"src/ code lines: {sum(head.values())}")
        return 0
    report(rev_counts(root, rev), head, rev)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
