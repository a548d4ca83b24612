"""Documentation sanity: internal links resolve, docs exist and are
linked from the README (the same check CI's docs job runs)."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs_links import broken_links, markdown_files  # noqa: E402


def test_docs_exist_and_are_linked():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for doc in ("docs/architecture.md", "docs/campaigns.md"):
        assert (REPO_ROOT / doc).exists(), doc
        assert doc in readme, f"README does not link {doc}"


def test_internal_links_resolve():
    files = markdown_files(REPO_ROOT)
    assert len(files) >= 3  # README + the two docs
    assert broken_links(files) == []


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
