"""Shared fixtures: keep one test's telemetry out of the next.

Any metrics registry or span recorder a test attaches process-wide is
detached again on teardown, so every test starts with both detached.
"""

import pytest

from repro.metrics import set_recorder, set_registry


@pytest.fixture(autouse=True)
def _detach_telemetry():
    yield
    set_registry(None)
    set_recorder(None)
