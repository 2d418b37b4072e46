"""Shared test setup: every test starts from the default qubit cap, and the
CLI byte corpus is rebuilt once per session."""

import os

import pytest

import cli_corpus
from acausal_mbqc import config


@pytest.fixture(autouse=True)
def _default_cap(monkeypatch):
    """Tier-1 pins the default cap, whatever ACAUSAL_MBQC_CAP the shell
    exports; a test that needs the variable sets it itself."""
    monkeypatch.delenv(config.CAP_ENV_VAR, raising=False)


@pytest.fixture(scope="session")
def corpus_build():
    """The rebuilt corpus, with the working directory and the cap variable
    before and after the build; the variable is set to a cap that would move
    most records, had the build read it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(config.CAP_ENV_VAR, "3")
        before = (os.getcwd(), os.environ.get(config.CAP_ENV_VAR))
        records = cli_corpus.corpus()
        after = (os.getcwd(), os.environ.get(config.CAP_ENV_VAR))
    return records, before, after
