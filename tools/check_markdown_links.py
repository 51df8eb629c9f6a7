#!/usr/bin/env python3
"""Check that relative links in markdown files resolve.

Usage:
  check_markdown_links.py FILE_OR_DIR [FILE_OR_DIR ...]

Walks the given markdown files (directories are searched for *.md),
extracts inline links and images — `[text](target)` — and verifies every
relative target exists on disk, resolved against the containing file's
directory. Absolute URLs (http/https/mailto) are skipped; `#fragment`
suffixes are checked against the target file's headings using
GitHub-style slugs. Exits non-zero listing every broken link.

Stdlib only; run by the `smoke.docs.links` ctest case.
"""

import pathlib
import re
import sys

# Inline links/images. [1] is the target; stops at the first unescaped ')'.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def slugify(heading):
    """GitHub-style anchor slug: lowercase, drop punctuation, dash spaces."""
    text = re.sub(r"[`*_\[\]()]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return re.sub(r"\s+", "-", text).strip("-")


def markdown_lines(path):
    """Lines with fenced code blocks blanked (links in code aren't links)."""
    lines = []
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            lines.append("")
            continue
        lines.append("" if in_fence else line)
    return lines


def anchors_of(path):
    return {slugify(m.group(1))
            for line in markdown_lines(path)
            if (m := HEADING_RE.match(line))}


def check_file(path, errors):
    lines = markdown_lines(path)
    for lineno, line in enumerate(lines, 1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                continue
            base, _, fragment = target.partition("#")
            dest = path if not base else (path.parent / base).resolve()
            if not dest.exists():
                errors.append(f"{path}:{lineno}: broken link '{target}'"
                              f" ({dest} does not exist)")
                continue
            if fragment and dest.suffix == ".md":
                if slugify(fragment) not in anchors_of(dest):
                    errors.append(f"{path}:{lineno}: '{target}' — no heading"
                                  f" '#{fragment}' in {dest.name}")


def main(argv):
    if not argv:
        sys.exit(__doc__.strip())
    files = []
    for arg in argv:
        p = pathlib.Path(arg)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.md")))
        elif p.exists():
            files.append(p)
        else:
            sys.exit(f"{arg}: no such file or directory")
    errors = []
    for f in files:
        check_file(f, errors)
    if errors:
        print("\n".join(errors))
        sys.exit(f"{len(errors)} broken link(s) in {len(files)} file(s)")
    print(f"OK: all relative links resolve across {len(files)} file(s)")


if __name__ == "__main__":
    main(sys.argv[1:])
