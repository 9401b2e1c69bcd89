#!/usr/bin/env python3
"""Tracking anycast evolution across census epochs (paper Sec. 5).

The paper: "with later censuses, we observed small but interesting changes
in the anycast landscape" and proposes periodic censuses to track them.
This example runs censuses over two epochs of a drifting anycast landscape
— deployments expand their PoPs, new adopters appear — and diffs the two
census views per AS.

Run time: ~25 s.

    python examples/longitudinal_tracking.py
"""

from repro.census.analysis import analyze_matrix
from repro.census.characterize import Characterization
from repro.census.combine import matrix_from_census
from repro.census.longitudinal import EvolutionConfig, compare_epochs, evolve_catalog
from repro.internet.catalog import full_catalog
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.platform import planetlab_platform


def census_epoch(catalog, platform, city_db=None):
    internet = SyntheticInternet(
        InternetConfig(seed=5, n_unicast_slash24=400, tail_deployments=0),
        catalog=catalog,
    )
    campaign = CensusCampaign(internet, platform, seed=77)
    matrix = matrix_from_census(campaign.run_census(availability=0.9))
    analysis = analyze_matrix(matrix)
    return Characterization(analysis, internet)


def main() -> None:
    platform = planetlab_platform(count=120, seed=41)
    catalog_t0 = full_catalog(tail_count=40, seed=7)
    catalog_t1 = evolve_catalog(
        catalog_t0, seed=3,
        config=EvolutionConfig(growth_prob=0.3, new_adopters=8),
    )

    print("Epoch 0 census...")
    epoch0 = census_epoch(catalog_t0, platform)
    print("Epoch 1 census (three months later)...\n")
    epoch1 = census_epoch(catalog_t1, platform)

    report = compare_epochs(epoch0.as_rows(), epoch1.as_rows())
    print(f"ASes tracked: {report.n_tracked}")
    print(f"  grown:       {len(report.grown)}")
    print(f"  shrunk:      {len(report.shrunk)}")
    print(f"  stable:      {len(report.stable)}")
    print(f"  new anycasters: {len(report.appeared)}")
    print(f"  gone:        {len(report.disappeared)}\n")

    print("Largest expansions observed:")
    for change in sorted(report.grown, key=lambda c: -c.replica_delta)[:8]:
        print(f"  {change.name[:20]:20s} {change.replicas_before:5.1f} -> "
              f"{change.replicas_after:5.1f} replicas/IP24")

    if report.appeared:
        print("\nNew anycast adopters detected:")
        for change in report.appeared[:5]:
            print(f"  {change.name[:30]:30s} ({change.ip24_after} /24s, "
                  f"{change.replicas_after:.0f} replicas)")


if __name__ == "__main__":
    main()
