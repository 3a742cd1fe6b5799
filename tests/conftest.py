import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("det")

from multiwitt import CoeffRing

RINGS = {
    "F2": CoeffRing.make(2),
    "F3": CoeffRing.make(3),
    "F4": CoeffRing.make(4),
    "F5": CoeffRing.make(5),
    "F9": CoeffRing.make(9),
    "F2e2": CoeffRing.make(2, nil=2),
    "F2e3": CoeffRing.make(2, nil=3),
    "F3e2": CoeffRing.make(3, nil=2),
    "F3e3": CoeffRing.make(3, nil=3),
    "F4e2": CoeffRing.make(4, nil=2),
    "F5e2": CoeffRing.make(5, nil=2),
}


@pytest.fixture
def rng():
    return random.Random(20240901)


@pytest.fixture(params=sorted(RINGS))
def any_ring(request):
    return RINGS[request.param]


# the tables each ring was made with
BUILT_TABLES = {name: (r._add, r._neg, r._mul, r._inv) for name, r in RINGS.items()}


@pytest.fixture(autouse=True)
def rings_keep_their_tables():
    """RINGS are the objects every ``CoeffRing.make`` of their descriptor
    returns, so a test that patches a ring's tables must put the built
    ones back before it ends."""
    yield
    for name, ring in RINGS.items():
        tables = (ring._add, ring._neg, ring._mul, ring._inv)
        assert all(t is b for t, b in zip(tables, BUILT_TABLES[name])), f"{name}'s tables left patched"
