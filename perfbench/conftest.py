"""Make the benchmark's modules and ``repro`` importable in its tests."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import env  # noqa: E402

env.prepare()
