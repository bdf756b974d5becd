import pytest

from eaqldpc.tables import ConstructionCache


@pytest.fixture(scope="session")
def cache():
    """Shared construction cache: each geometry/parameter set is built once
    per test session."""
    return ConstructionCache()


@pytest.fixture(scope="session")
def fano(cache):
    return cache.geometry("PG", 2, 2)


@pytest.fixture(scope="session")
def pg32(cache):
    return cache.geometry("PG", 3, 2)
