#!/usr/bin/env python
"""Check that relative links in the repo's markdown docs resolve.

Scans ``README.md``, ``EXPERIMENTS.md`` and ``docs/*.md`` for
``[text](target)`` links (``SNIPPETS.md`` etc. are excluded — they
quote third-party material whose links point outside this repo), skips
external targets (``http(s)://``, ``mailto:``) and pure in-page anchors
(``#...``), and verifies every remaining target exists relative to
the file that links it. Exits non-zero listing each broken link.

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


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    files = markdown_files(root)
    broken = broken_links(files)
    for source, target in broken:
        print(f"{source.relative_to(root)}: broken link -> {target}")
    if broken:
        return 1
    print(f"checked {len(files)} markdown file(s): all relative links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
