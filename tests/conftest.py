import pytest
from hypothesis import settings

from maxentos import MarginalVector, build_model, multidiagonal_from_marginals
from maxentos.cdfs import BetaOneKCdf, ExponentialCdf, UniformCdf

# every run draws the same examples, and none are replayed from a database;
# each test keeps its own max_examples and deadline
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def beta2():
    return MarginalVector((BetaOneKCdf(2), BetaOneKCdf(1)))


@pytest.fixture(scope="session")
def beta3():
    return MarginalVector((BetaOneKCdf(3), BetaOneKCdf(2), BetaOneKCdf(1)))


@pytest.fixture(scope="session")
def exp3():
    return MarginalVector((ExponentialCdf(3.0), ExponentialCdf(2.0),
                           ExponentialCdf(1.0)))


@pytest.fixture(scope="session")
def uu():
    # two identical uniforms: ordered but with full residual separation set
    return MarginalVector((UniformCdf(0.0, 1.0), UniformCdf(0.0, 1.0)))


@pytest.fixture(scope="session")
def beta2_model(beta2):
    return build_model(beta2)


@pytest.fixture(scope="session")
def exp3_model(exp3):
    return build_model(exp3)


@pytest.fixture(scope="session")
def beta2_delta(beta2):
    return multidiagonal_from_marginals(beta2)


@pytest.fixture(scope="session")
def exp3_delta(exp3):
    return multidiagonal_from_marginals(exp3)
