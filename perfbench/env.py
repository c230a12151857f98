"""Process set-up shared by the benchmark's entry points.

Imported before anything from ``repro``: it refuses environments that
would silently change the program being measured, puts the checkout's
``src/`` on the import path, and keeps the run ledger off.
"""

from __future__ import annotations

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Each of these selects another engine, executor path or cache policy.
FORBIDDEN_ENV = ("REPRO_ENGINE", "REPRO_NO_COMPILE", "REPRO_NO_FAST_PATH",
                 "REPRO_JOBS", "REPRO_FABRIC", "REPRO_NO_CACHE")


def prepare() -> None:
    """Validate the environment and make ``repro`` importable; exits
    with status 2 when a forbidden variable is set."""
    bad = [name for name in FORBIDDEN_ENV if name in os.environ]
    if bad:
        sys.stderr.write(
            f"perfbench: refusing to run with {', '.join(bad)} set; each "
            f"changes the program being measured\n")
        raise SystemExit(2)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        # Never fall back to some other installed copy of the program.
        raise SystemExit(f"perfbench: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    os.environ["REPRO_NO_LEDGER"] = "1"
    os.environ["REPRO_PROGRESS"] = "0"
