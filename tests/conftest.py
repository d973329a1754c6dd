import pytest

from freeprob import models, verify


@pytest.fixture(scope="session")
def circular_model():
    return models.circular_model()


@pytest.fixture(scope="session")
def two_atom_model():
    return models.two_atom_model()


@pytest.fixture(scope="session")
def haar_model():
    return models.haar_model()


@pytest.fixture(scope="session")
def verify_report():
    """One run of every registered check, shared by the tests that read records."""
    return verify.run_suite("all")
