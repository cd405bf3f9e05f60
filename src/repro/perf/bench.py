"""Provenance for benchmark results: which host, which commit.

``perfbench/run.py`` stamps every result file with both, so two runs
can be judged comparable (same host, same Python) before their numbers
are compared.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any

__all__ = ["git_sha", "host_fingerprint"]


def host_fingerprint() -> dict[str, Any]:
    """Where a benchmark ran: enough to spot cross-host comparisons."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 0,
    }


def git_sha(repo_dir: str | None = None) -> str | None:
    """Current commit SHA, or ``None`` outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None
