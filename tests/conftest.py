"""Shared fixtures: scaled-down ground truths, platforms, and censuses.

Session-scoped fixtures cache the expensive objects (a census study takes
seconds); tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.geo.cities import CityDB, default_city_db
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.platform import planetlab_platform
from repro.workflow import CensusStudy, StudyConfig

# Tier-1 runs one fixed set of examples: ``derandomize`` derives every
# example from the test itself (and implies no example database), so a run
# never depends on the host or on what an earlier run found.  The property
# modules are searched for new counterexamples on purpose instead, with
# ``pytest --hypothesis-profile=search``: fresh random examples, each test
# given SEARCH_FACTOR times its own tier-1 budget.  A failure found there
# is pinned with ``@example`` next to its fix.
settings.register_profile("default", derandomize=True)
settings.register_profile("search", derandomize=False)
SEARCH_FACTOR = 10


def pytest_collection_modifyitems(config, items):
    if config.getoption("hypothesis_profile", None) != "search":
        return
    for item in items:
        test = getattr(item, "function", None)
        if getattr(test, "is_hypothesis_test", False):
            # ``@settings(max_examples=...)`` pins a test's tier-1 budget,
            # which a profile cannot override; scale it here.
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * SEARCH_FACTOR
            )


@pytest.fixture(scope="session")
def city_db() -> CityDB:
    return default_city_db()


@pytest.fixture(scope="session")
def tiny_internet() -> SyntheticInternet:
    """A small but complete ground truth (top-100 + 20 tail ASes)."""
    return SyntheticInternet(
        InternetConfig(seed=7, n_unicast_slash24=600, tail_deployments=20)
    )


@pytest.fixture(scope="session")
def tiny_platform(city_db):
    return planetlab_platform(count=60, seed=11, city_db=city_db)


@pytest.fixture(scope="session")
def tiny_campaign(tiny_internet, tiny_platform) -> CensusCampaign:
    return CensusCampaign(tiny_internet, tiny_platform, seed=99)


@pytest.fixture(scope="session")
def tiny_census(tiny_campaign):
    """One census over the tiny internet (no pre-census blacklist)."""
    return tiny_campaign.run_census(availability=1.0)


@pytest.fixture(scope="session")
def small_study() -> CensusStudy:
    """An end-to-end study, evaluated lazily by the tests that need it."""
    return CensusStudy(
        StudyConfig(
            internet=InternetConfig(seed=5, n_unicast_slash24=1200, tail_deployments=40),
            n_vantage_points=100,
            n_censuses=2,
        )
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
