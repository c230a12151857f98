"""Shared fixtures: keep one test's telemetry out of the next.

Every test runs inside its own ``attach()`` block, so it starts with
no registry or span recorder attached and whatever it attaches is
gone on teardown.
"""

import pytest

from repro.metrics import attach


@pytest.fixture(autouse=True)
def _detach_telemetry():
    with attach():
        yield
