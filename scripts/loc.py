#!/usr/bin/env python3
"""Prints non-test lines of code per crate.

Usage:

    python3 scripts/loc.py [REPO_ROOT]

REPO_ROOT defaults to the checkout this script lives in.

Counts the non-blank lines of every `.rs` file under `crates/*/src`,
leaving out each item marked `#[cfg(test)]`: the item's lines run from the
attribute to the brace that closes its body (matched past comments,
strings and char literals) or to its terminating `;`. An out-of-line
`#[cfg(test)] mod name;` also leaves out the file it names. Informational
only: the exit status is always 0.
"""

import os
import re
import sys

CFG_TEST = "#[cfg(test)]"


def mask(text):
    """`text` with comments, strings and char literals blanked to spaces
    (newlines kept), so braces and attributes inside them are invisible."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c == "r" and re.match(r'r#*"', text[i:i + 20]) and _raw_start(text, i):
            hashes = len(re.match(r"r(#*)", text[i:]).group(1))
            close = '"' + "#" * hashes
            j = text.find(close, i + 2 + hashes)
            j = n if j < 0 else j + len(close)
            blank(i, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{7f}'), not a lifetime ('a).
            m = re.match(r"'(\\u\{[0-9a-fA-F]*\}|\\.|[^\\'])'", text[i:i + 12])
            if m:
                blank(i, i + m.end())
                i += m.end()
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def _ident(text, k):
    return k >= 0 and (text[k].isalnum() or text[k] == "_")


def _raw_start(text, i):
    """Whether the `r` at `i` opens a raw (byte) string literal."""
    if text[i - 1:i] == "b":
        i -= 1
    return not _ident(text, i - 1)


def test_spans(code):
    """(start, end) offsets of every `#[cfg(test)]` item in masked `code`,
    plus the names of out-of-line test modules."""
    spans, modules = [], []
    start = code.find(CFG_TEST)
    while start >= 0:
        i, depth = start + len(CFG_TEST), 0
        while i < len(code):
            c = code[i]
            if c in "([":
                depth += 1
            elif c in ")]":
                depth -= 1
            elif depth == 0 and c == ";":
                m = re.search(r"\bmod\s+(\w+)\s*$", code[start + len(CFG_TEST):i])
                if m:
                    modules.append(m.group(1))
                break
            elif depth == 0 and c == "{":
                braces = 0
                while i < len(code):
                    if code[i] == "{":
                        braces += 1
                    elif code[i] == "}":
                        braces -= 1
                        if braces == 0:
                            break
                    i += 1
                break
            i += 1
        spans.append((start, i))
        start = code.find(CFG_TEST, i)
    return spans, modules


def count_file(path, skip):
    """Non-test, non-blank lines of `path`; adds the paths of out-of-line
    test modules it declares to `skip`."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    code = mask(text)
    spans, modules = test_spans(code)
    excluded = set()
    for a, b in spans:
        excluded.update(range(code.count("\n", 0, a), code.count("\n", 0, b) + 1))
    base = os.path.dirname(path)
    if os.path.basename(path) not in ("lib.rs", "main.rs", "mod.rs"):
        base = os.path.splitext(path)[0]
    for m in modules:
        skip.add(os.path.join(base, m + ".rs"))
        skip.add(os.path.join(base, m, "mod.rs"))
    return sum(
        1
        for k, line in enumerate(text.split("\n"))
        if line.strip() and k not in excluded
    )


def count_crate(src):
    files = sorted(
        os.path.join(d, f)
        for d, _, fs in os.walk(src)
        for f in fs
        if f.endswith(".rs")
    )
    skip, counts = set(), {}
    for path in files:
        counts[path] = count_file(path, skip)
    return sum(c for p, c in counts.items() if p not in skip)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    crates = os.path.join(root, "crates")
    rows = []
    for name in sorted(os.listdir(crates)):
        src = os.path.join(crates, name, "src")
        if os.path.isdir(src):
            rows.append((name, count_crate(src)))
    width = max(len(name) for name, _ in rows)
    for name, lines in rows:
        print(f"{name:<{width}}  {lines:>7}")
    print(f"{'total':<{width}}  {sum(lines for _, lines in rows):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
