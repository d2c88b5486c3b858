"""Shared fixtures for the test-suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make `tests.helpers` importable as plain `helpers` regardless of how
# pytest resolves test-package roots.
sys.path.insert(0, str(Path(__file__).parent))

from helpers import counter_core_code  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_intern_table():
    """Each test starts with an empty compile intern table.

    ``compile_source`` shares compiled programs process-wide; without
    this, whether a test's compile runs the pipeline (and records its
    spans and core checks) would depend on which tests ran before it.
    """
    from repro.surface.compile import _INTERNED

    _INTERNED.clear()
    yield


@pytest.fixture
def counter_code():
    """The counter app as core code (one global, one page, one handler)."""
    return counter_core_code()


@pytest.fixture
def counter_runtime():
    from repro.system.runtime import Runtime

    return Runtime(counter_core_code()).start()


@pytest.fixture
def mortgage_session():
    """A LiveSession on the paper's running example, on the start page."""
    from repro.apps.mortgage import BASE_SOURCE, host_impls
    from repro.live.session import LiveSession
    from repro.stdlib.web import make_services

    return LiveSession(
        BASE_SOURCE, host_impls=host_impls(), services=make_services()
    )


@pytest.fixture
def mortgage_detail_session(mortgage_session):
    """The same session, navigated to the first listing's detail page."""
    runtime = mortgage_session.runtime
    first = runtime.global_value("listings").items[0]
    label = "{}, {}".format(first.items[0].value, first.items[1].value)
    runtime.tap_text(label)
    return mortgage_session
