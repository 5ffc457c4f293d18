"""Shared fixtures: reference physics parameters, a small working box with
its kernel and ground state, and the verification context reused by the
acceptance tests."""

import pytest
from hypothesis import settings

from fhnlse import Grid, HartreeKernel, PhysicsParams, SolveOptions, minimize
from fhnlse.verify import VerifyContext

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")

REF_ALPHA = 0.6
REF_GAMMA = 0.5


@pytest.fixture(scope="session")
def ref_params() -> PhysicsParams:
    return PhysicsParams(alpha=REF_ALPHA, gamma=REF_GAMMA, d=2)


@pytest.fixture(scope="session")
def box32() -> Grid:
    return Grid(d=2, n=32, L=25.0)


@pytest.fixture(scope="session")
def kernel32(box32) -> HartreeKernel:
    return HartreeKernel(box32, REF_GAMMA)


@pytest.fixture(scope="session")
def ground32(ref_params, kernel32):
    """Converged q = 3 minimizer on the small box (fast to solve); localized,
    where q = 1 fills this box with the flat state."""
    gs = minimize(ref_params, kernel32, SolveOptions(q=3.0))
    assert gs.converged
    return gs


@pytest.fixture(scope="session")
def verify_ctx() -> VerifyContext:
    """One context for the whole acceptance run, so the reference solve and
    the scaling experiment are computed once."""
    return VerifyContext(seed=1)
