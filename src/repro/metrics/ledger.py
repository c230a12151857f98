"""Provenance stamp for benchmark results: the commit and the host.

``current_git_sha`` names the code a measurement ran on and
``host_fingerprint`` the machine and interpreter; perfbench stamps
every result file with both.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import subprocess
from typing import Dict


def repo_root() -> pathlib.Path:
    # src/repro/metrics/ledger.py -> repo root is four parents up.
    return pathlib.Path(__file__).resolve().parents[3]


def current_git_sha() -> str:
    """HEAD's SHA, or ``unknown`` when git cannot tell."""
    try:
        out = subprocess.run(
            ["git", "-C", str(repo_root()), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def host_fingerprint() -> Dict:
    """What makes two runs comparable: the machine and interpreter."""
    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
    }
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode()).hexdigest()
    info["digest"] = digest[:16]
    return info
