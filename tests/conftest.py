"""Shared test setup: every test starts from the default qubit cap."""

import pytest

from acausal_mbqc import config


@pytest.fixture(autouse=True)
def _default_cap(monkeypatch):
    """Tier-1 pins the default cap, whatever ACAUSAL_MBQC_CAP the shell
    exports; a test that needs the variable sets it itself."""
    monkeypatch.delenv(config.CAP_ENV_VAR, raising=False)
