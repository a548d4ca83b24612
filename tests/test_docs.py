"""Documentation sanity: internal links resolve, docs exist and are
linked from the README (the same check CI's docs job runs)."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs_links import (  # noqa: E402
    broken_links,
    markdown_files,
    missing_md_citations,
)


def test_docs_exist_and_are_linked():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for doc in ("docs/architecture.md", "docs/campaigns.md"):
        assert (REPO_ROOT / doc).exists(), doc
        assert doc in readme, f"README does not link {doc}"


def test_internal_links_resolve():
    files = markdown_files(REPO_ROOT)
    assert len(files) >= 3  # README + the two docs
    assert broken_links(files) == []


def test_md_names_cited_in_code_exist():
    assert missing_md_citations(REPO_ROOT) == []


def test_md_citation_check_finds_a_missing_document(tmp_path):
    ext = "md"  # spelled apart, so this file cites no missing document
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / f"guide.{ext}").write_text("# guide\n")
    (tmp_path / "src").mkdir()
    cited = tmp_path / "src" / "mod.py"
    cited.write_text(
        f'"""See guide.{ext}, docs/guide.{ext} and NOTES.{ext}."""\n'
    )
    assert missing_md_citations(tmp_path) == [(cited, f"NOTES.{ext}")]


def test_docs_cover_the_campaign_surface():
    campaigns = (REPO_ROOT / "docs" / "campaigns.md").read_text(
        encoding="utf-8"
    )
    for topic in (
        "jsonl",
        "sqlite",
        "shared",
        "try_claim",
        "order_units",
        "--store-backend",
        "lease",
        "cache",
    ):
        assert topic in campaigns, f"docs/campaigns.md misses {topic!r}"
