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


@pytest.fixture
def registry_record(verify_report):
    """Assert that the named check passed in the shared report.

    The registry in ``freeprob.verify`` is where each of its invariants is
    derived; a test that reads a record states the invariant by name only.
    """

    def assert_passed(name):
        record = next(c for c in verify_report["checks"] if c["name"] == name)
        assert record["passed"], record

    return assert_passed
