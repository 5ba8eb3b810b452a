#!/usr/bin/env python3
"""Panic gate: forbid panicking constructs in non-test library code.

Scans `crates/*/src/**/*.rs` for `panic!`, `unreachable!`, `todo!`,
`.unwrap()` and `.expect(`. Lines inside test modules (everything from
the first `#[cfg(test)]` to end of file — the repo convention puts the
test module last) are exempt, as is `ppdt-bench` (the experiment
driver operates on trusted synthetic data).

Known trusted-invariant sites are allowlisted in
`scripts/panic_allowlist.txt`: one `path pattern` pair per line, where
`pattern` is a literal substring of the offending line. Every entry
should carry a trailing `# reason`. An entry that excuses no construct
on a non-test line of its file is stale — the code it covered is gone
— and fails the gate too, so the allowlist shrinks with the code.

Exit code 0 when clean, 1 when a non-allowlisted construct appears or
an allowlist entry is stale.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONSTRUCTS = re.compile(r"panic!|unreachable!|todo!|\.unwrap\(\)|\.expect\(")
EXEMPT_CRATES = {"bench"}


def allowlist():
    entries = []
    path = ROOT / "scripts" / "panic_allowlist.txt"
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        file_part, _, pattern = line.partition(" ")
        entries.append((file_part, pattern.strip()))
    return entries


def matching(rel, text, entries):
    return [i for i, (f, p) in enumerate(entries) if rel == f and (not p or p in text)]


def main():
    entries = allowlist()
    used = set()
    violations = []
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")):
        crate = path.relative_to(ROOT / "crates").parts[0]
        if crate in EXEMPT_CRATES:
            continue
        rel = str(path.relative_to(ROOT))
        in_tests = False
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "#[cfg(test)]" in line:
                in_tests = True
            if in_tests:
                continue
            stripped = line.split("//", 1)[0]
            if CONSTRUCTS.search(stripped):
                hits = matching(rel, line, entries)
                used.update(hits)
                if not hits:
                    violations.append(f"{rel}:{lineno}: {line.strip()}")
    stale = [f"{f} {p}".strip() for i, (f, p) in enumerate(entries) if i not in used]
    if violations:
        print("new panicking construct(s) in library code:")
        for v in violations:
            print(f"  {v}")
        print(
            "either return a typed PpdtError or add 'path pattern  # reason' "
            "to scripts/panic_allowlist.txt"
        )
    if stale:
        print("stale allowlist entr(ies) excusing no construct in their file:")
        for s in stale:
            print(f"  {s}")
        print("delete them from scripts/panic_allowlist.txt")
    if violations or stale:
        return 1
    print(f"panic gate clean ({len(entries)} allowlisted site(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
