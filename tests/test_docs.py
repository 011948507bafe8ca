"""The docs are part of the contract: links resolve, examples execute.

Wraps ``tools/check_docs.py`` as tier-1 tests (CI's ``docs-check`` step
runs the same module), plus negative cases proving the checker actually
catches rot — a green lane from a checker that cannot fail is worse
than no lane.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import check_docs  # noqa: E402


def test_repo_docs_links_and_anchors():
    assert check_docs.check_links() == []


def test_protocol_doctests_execute():
    assert check_docs.run_doctests() == []


def test_github_slugification():
    assert check_docs.github_slug("Framing and envelopes") == \
        "framing-and-envelopes"
    assert check_docs.github_slug("Fleet runner (`run_fleet`)") == \
        "fleet-runner-run_fleet"


def test_checker_catches_broken_link(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("[gone](docs/MISSING.md)\n")
    (tmp_path / "docs" / "A.md").write_text("# A\n")
    findings = check_docs.check_links(
        str(tmp_path), ("README.md", "docs/A.md")
    )
    assert any("broken link" in f for f in findings)


def test_checker_catches_broken_anchor(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("# Top\n[x](docs/A.md#nope)\n")
    (tmp_path / "docs" / "A.md").write_text("# Real heading\n")
    findings = check_docs.check_links(
        str(tmp_path), ("README.md", "docs/A.md")
    )
    assert any("broken anchor" in f for f in findings)
    ok = check_docs.check_links(str(tmp_path), ("README.md",))
    # the same link with a real anchor passes
    (tmp_path / "README.md").write_text("[x](docs/A.md#real-heading)\n")
    ok = check_docs.check_links(str(tmp_path), ("README.md", "docs/A.md"))
    assert ok == []


def test_checker_catches_failing_doctest(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "P.md").write_text(
        "# P\n\n```python\n>>> 1 + 1\n3\n\n```\n"
    )
    findings = check_docs.run_doctests(str(tmp_path), ("docs/P.md",))
    assert any("failed" in f for f in findings)


def test_checker_ignores_links_inside_code_fences(tmp_path):
    (tmp_path / "README.md").write_text(
        "# Top\n\n```bash\ncat [not](a-link.md)\n```\n"
    )
    assert check_docs.check_links(str(tmp_path), ("README.md",)) == []


@pytest.mark.parametrize("rel", ["docs/ARCHITECTURE.md", "docs/PROTOCOL.md"])
def test_docs_exist_and_are_nontrivial(rel):
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), rel)
    with open(path) as fh:
        assert len(fh.read()) > 2000
