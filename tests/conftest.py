"""Shared test fixtures.

The backend/instrumentation switches are process-global by design
(components capture them at construction), which makes them exactly the
kind of state a test can leak: a test that flips ``ROLP_BACKEND`` or
calls ``set_backend`` and then fails mid-way would silently change what
every later test executes.  The autouse guard below snapshots both the
environment variables and the in-process switch state before each test
and restores them after, so backend selection can never bleed between
tests regardless of outcome or execution order.
"""

import os

import pytest

from repro import fastpath

#: the process-ambient switches tests are allowed to mutate
_GUARDED_ENV = ("ROLP_BACKEND",)


@pytest.fixture(autouse=True)
def _rolp_switch_guard():
    """Snapshot/restore the backend-selection env vars *and* the
    module-global switches they seed, around every test."""
    saved_env = {name: os.environ.get(name) for name in _GUARDED_ENV}
    saved_backend = fastpath.backend()
    try:
        yield
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        fastpath.set_backend(saved_backend)
