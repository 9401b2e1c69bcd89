"""Clean small rosters convict nobody.

A roster of 12-20 vantage points over a dense-anycast world leaves many
honest nodes as the only roster member in their region.  Such a node
solos on every anycast target whose far catchment only it sees, so its
solo-violation rate stands far out of the roster's background — yet it
is where it says it is.  The trust engine must leave it alone on both
routing planes: clean-run neutrality does not stop at 24 VPs.
"""

from __future__ import annotations

import functools

import pytest

from repro.census.combine import combine_censuses
from repro.geo.cities import default_city_db
from repro.internet.catalog import full_catalog
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.platform import planetlab_platform
from repro.resilience.vptrust import score_vps

SEEDS = range(2015, 2021)
ROSTERS = (12, 16, 20)


@functools.lru_cache(maxsize=None)
def world(plane: str, seed: int) -> SyntheticInternet:
    """A few targets, a third of them anycast: 2,000 unicast /24s and
    every eighth deployment of the full catalog."""
    return SyntheticInternet(
        InternetConfig(
            seed=seed, n_unicast_slash24=2000, tail_deployments=260, routing=plane
        ),
        catalog=full_catalog(tail_count=260, seed=seed)[::8],
        city_db=default_city_db(),
    )


@pytest.mark.parametrize("n_vps", ROSTERS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("plane", ["geo", "bgp"])
def test_clean_small_roster_convicts_nobody(plane, seed, n_vps):
    platform = planetlab_platform(count=n_vps, seed=seed + 101, city_db=default_city_db())
    campaign = CensusCampaign(
        world(plane, seed), platform, rate_pps=1000, seed=seed + 202, noise="keyed"
    )
    report = score_vps(combine_censuses(campaign.run(1, 1.0)))
    assert report.untrusted_names == [], report.summary_lines()
    assert not report.sol_check_aborted
