#!/usr/bin/env python3
"""Markdown link check for the repo docs.

Validates every markdown link in the given files (or the default doc set):

  - relative links must point at an existing file or directory, and a
    ``#fragment`` on a markdown target must match a heading anchor in that
    file (GitHub-style slugs);
  - bare intra-file ``#fragment`` links must match a local heading;
  - absolute http(s) URLs are NOT fetched (CI must not flake on the
    network) — they are only syntax-checked.

README.md and docs/ARCHITECTURE.md describe the tree as it is, so they
get one more check: every backticked path with a directory part and a
.hpp/.cpp/.py/.md/.json/.csv suffix (``sweep/plan.hpp``,
``tests/test_sim.cpp``) must name a file at the repo root or under src/.
The history files (CHANGES.md, ROADMAP.md) name deleted files on purpose
and are exempt. Files named on the command line get both checks.

Exit status 0 = all links and paths resolve; 1 = at least one broken one
(each is printed with file:line).
"""

from __future__ import annotations

import re
import sys
import unicodedata
from pathlib import Path

DEFAULT_FILES = [
    "README.md",
    "ROADMAP.md",
    "PAPER.md",
    "PAPERS.md",
    "CHANGES.md",
    "docs/ARCHITECTURE.md",
]

# Docs that must name only files that exist (see the module docstring).
PATH_CHECKED_FILES = ["README.md", "docs/ARCHITECTURE.md"]

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
IMAGE_RE = re.compile(r"\!\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
SOURCE_PATH_RE = re.compile(
    r"`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+\.(?:hpp|cpp|py|md|json|csv))"
    r"(?:#[^`]*)?`")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, strip punctuation, spaces → dashes."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # unlink
    text = re.sub(r"[`*_]", "", text)
    text = unicodedata.normalize("NFKD", text)
    out = []
    for ch in text.lower():
        if ch.isalnum():
            out.append(ch)
        elif ch in (" ", "-"):
            out.append("-" if ch == " " else ch)
        # other punctuation is dropped
    return "".join(out)


def heading_anchors(path: Path) -> set[str]:
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(2))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def iter_links(path: Path):
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for regex in (LINK_RE, IMAGE_RE):
            for m in regex.finditer(line):
                yield lineno, m.group(1)


def shown(path: Path, root: Path) -> Path:
    return path.relative_to(root) if path.is_relative_to(root) else path


def listed(files: list[Path], root: Path) -> str:
    return ", ".join(str(shown(f.resolve(), root)) for f in files)


def check_source_paths(path: Path, root: Path) -> list[str]:
    """Backticked repo paths that name no file at the root or under src/."""
    errors: list[str] = []
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        for m in SOURCE_PATH_RE.finditer(line):
            rel = m.group(1)
            if not ((root / rel).is_file() or (root / "src" / rel).is_file()):
                errors.append(f"{shown(path, root)}:{lineno}: no file "
                              f"'{rel}' at the repo root or under src/")
    return errors


def check_file(path: Path, root: Path) -> list[str]:
    errors: list[str] = []
    for lineno, target in iter_links(path):
        where = f"{shown(path, root)}:{lineno}"
        if target.startswith(("http://", "https://")):
            if " " in target:
                errors.append(f"{where}: malformed URL '{target}'")
            continue
        if target.startswith("mailto:"):
            continue
        if target.startswith("#"):
            if github_slug(target[1:]) not in heading_anchors(path):
                errors.append(f"{where}: no heading for anchor '{target}'")
            continue
        rel, _, fragment = target.partition("#")
        dest = (path.parent / rel).resolve()
        if not dest.is_relative_to(root):
            # GitHub-web-relative path (e.g. the ../../actions CI badge):
            # outside the working tree, nothing to validate locally.
            continue
        if not dest.exists():
            errors.append(f"{where}: missing file '{rel}'")
            continue
        if fragment and dest.suffix.lower() == ".md":
            if github_slug(fragment) not in heading_anchors(dest):
                errors.append(
                    f"{where}: no heading for anchor '#{fragment}' in '{rel}'")
    return errors


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    named = [Path(a) for a in argv[1:]]
    files = named or [root / f for f in DEFAULT_FILES if (root / f).exists()]
    path_checked = named or [root / f for f in PATH_CHECKED_FILES]
    errors: list[str] = []
    for f in files:
        if not f.exists():
            errors.append(f"{f}: file not found")
            continue
        errors.extend(check_file(f.resolve(), root))
    for e in errors:
        print(f"BROKEN LINK: {e}", file=sys.stderr)
    stale = [e for f in path_checked if f.exists()
             for e in check_source_paths(f.resolve(), root)]
    for e in stale:
        print(f"STALE PATH: {e}", file=sys.stderr)
    errors.extend(stale)
    if not errors:
        print(f"link check OK ({listed(files, root)}); "
              f"path check OK ({listed(path_checked, root)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
