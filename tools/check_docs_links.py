#!/usr/bin/env python
"""Check that relative links in the repo's markdown docs resolve.

Scans ``README.md``, ``EXPERIMENTS.md`` and ``docs/*.md`` for
``[text](target)`` links (``SNIPPETS.md`` etc. are excluded — they
quote third-party material whose links point outside this repo), skips
external targets (``http(s)://``, ``mailto:``) and pure in-page anchors
(``#...``), and verifies every remaining target exists relative to
the file that links it.  Also checks that every ``*.md`` name cited in
``src/**/*.py`` or ``tests/**/*.py`` exists, relative to the repo root
or to ``docs/``. Exits non-zero listing each broken link or citation.

Run from the repo root (CI's docs job does)::

    python tools/check_docs_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:")
MD_CITE_RE = re.compile(r"[\w./-]*\w\.md\b")


def markdown_files(root: Path) -> List[Path]:
    files = [root / "README.md", root / "EXPERIMENTS.md"]
    docs = root / "docs"
    if docs.is_dir():
        files += sorted(docs.glob("*.md"))
    return [f for f in files if f.exists()]


def broken_links(files: Iterable[Path]) -> List[Tuple[Path, str]]:
    broken: List[Tuple[Path, str]] = []
    for source in files:
        text = source.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            if not (source.parent / path_part).exists():
                broken.append((source, target))
    return broken


def missing_md_citations(root: Path) -> List[Tuple[Path, str]]:
    """``(file, name)`` for each ``*.md`` name a source or test file
    cites that exists neither under ``root`` nor under ``root/docs``."""
    bases = (root, root / "docs")
    missing: List[Tuple[Path, str]] = []
    for pattern in ("src/**/*.py", "tests/**/*.py"):
        for source in sorted(root.glob(pattern)):
            text = source.read_text(encoding="utf-8")
            for name in sorted(set(MD_CITE_RE.findall(text))):
                if not any((base / name).exists() for base in bases):
                    missing.append((source, name))
    return missing


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    files = markdown_files(root)
    broken = broken_links(files)
    for source, target in broken:
        print(f"{source.relative_to(root)}: broken link -> {target}")
    missing = missing_md_citations(root)
    for source, name in missing:
        print(f"{source.relative_to(root)}: cites missing {name}")
    if broken or missing:
        return 1
    print(
        f"checked {len(files)} markdown file(s) and the .md names cited"
        " in src/ and tests/: all resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
