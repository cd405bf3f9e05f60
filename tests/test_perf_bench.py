"""Tests for the benchmark provenance helpers (repro.perf.bench).

``perfbench/run.py`` stamps every result with the host fingerprint and
the git SHA, so both must stay importable and well-formed.
"""

from __future__ import annotations

import platform

from repro.perf.bench import git_sha, host_fingerprint


def test_host_fingerprint_and_git_sha(tmp_path):
    host = host_fingerprint()
    assert set(host) == {"platform", "machine", "python", "cpu_count"}
    assert host["python"] == platform.python_version()
    assert host["cpu_count"] >= 1
    # Outside a git checkout there is no SHA, and no exception.
    assert git_sha(str(tmp_path)) is None
    sha = git_sha()
    assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)
