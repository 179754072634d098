"""Fixtures shared by the oracle test modules."""

import pytest

from biregular.audit import default_config, generate_corpus


@pytest.fixture(scope="session")
def default_corpus():
    """The graphs of the default audit, in corpus order."""
    return [g for _, _, g, _ in generate_corpus(default_config())]
