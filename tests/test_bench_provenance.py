"""The benchmark reports' provenance stamp names the code that ran.

``benchmarks/bench_scales.py`` writes ``git describe --always --dirty`` into
every report's host block.  A tree with uncommitted changes to tracked files
must read ``-dirty`` instead of passing for its parent commit.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")
sys.path.insert(0, BENCH_DIR)

from bench_scales import git_describe  # noqa: E402

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="git is not installed")


def _git(repo: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         *args], cwd=repo, check=True, capture_output=True,
        text=True).stdout.strip()


def test_describe_marks_a_modified_tree_dirty(tmp_path):
    repo = str(tmp_path)
    _git(repo, "init", "-q")
    tracked = tmp_path / "tracked.txt"
    tracked.write_text("one\n")
    _git(repo, "add", "tracked.txt")
    _git(repo, "commit", "-q", "-m", "first")
    sha = _git(repo, "rev-parse", "--short", "HEAD")

    assert git_describe(repo) == sha
    tracked.write_text("two\n")
    assert git_describe(repo) == f"{sha}-dirty"
    _git(repo, "commit", "-q", "-am", "second")
    assert git_describe(repo) == _git(repo, "rev-parse", "--short", "HEAD")


def test_describe_outside_a_checkout_is_none(tmp_path, monkeypatch):
    # GIT_CEILING_DIRECTORIES stops git from finding an enclosing checkout.
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert git_describe(str(tmp_path)) is None
