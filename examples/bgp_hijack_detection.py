#!/usr/bin/env python3
"""BGP-hijack detection via anycast censuses (the paper's Sec. 5 outlook).

"Detecting geo-inconsistencies for knowingly unicast prefixes is
symptomatic of BGP hijacking attacks."  This example runs a baseline
census, injects a hijack of a unicast prefix (an attacker in Moscow
captures part of the Internet's routes), re-analyzes, and classifies
the census-to-census routing changes: the victim comes back with a typed
``hijack`` verdict that geolocates the rogue origin.

Run time: ~15 s.

    python examples/bgp_hijack_detection.py
"""

from repro.census.analysis import analyze_matrix
from repro.census.combine import matrix_from_census
from repro.census.hijack import classify_routing_changes, inject_hijack
from repro.geo.coords import GeoPoint
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.platform import planetlab_platform
from repro.net.addresses import format_slash24

ATTACKER = GeoPoint(55.76, 37.62)  # Moscow


def main() -> None:
    internet = SyntheticInternet(
        InternetConfig(seed=12, n_unicast_slash24=1200, tail_deployments=30)
    )
    platform = planetlab_platform(count=100, seed=41)
    campaign = CensusCampaign(internet, platform, seed=5)

    print("Baseline census...")
    matrix = matrix_from_census(campaign.run_census(availability=1.0))
    baseline = analyze_matrix(matrix)
    print(f"  {baseline.n_anycast} anycast /24s "
          f"(legitimate deployments)\n")

    # Choose a well-monitored unicast victim in the US.
    detected = set(baseline.anycast_prefixes)
    replying = set(int(p) for p in baseline.prefixes)
    victim = next(
        host for host in internet.unicast_hosts
        if host.prefix in replying
        and host.prefix not in detected
        and host.city is not None
        and host.city.country == "US"
    )
    print(f"Victim: {format_slash24(victim.prefix)}, "
          f"a unicast network in {victim.city}")
    print(f"Attacker: bogus announcement from "
          f"{ATTACKER.lat:.1f}N,{ATTACKER.lon:.1f}E capturing ~40% of routes\n")

    hijacked_matrix = inject_hijack(
        matrix, victim.prefix, ATTACKER, captured_fraction=0.4, seed=99
    )
    print("Next census (under attack)...")
    current = analyze_matrix(hijacked_matrix)

    verdicts = classify_routing_changes(
        baseline, current, baseline_matrix=matrix, current_matrix=hijacked_matrix
    )
    alarms = [v for v in verdicts if v.is_alarm]
    print(f"  {len(alarms)} alarm(s)\n")
    for alarm in alarms:
        print(f"ALARM [{alarm.verdict.value}, confidence {alarm.confidence:.2f}]: "
              f"{format_slash24(alarm.prefix)} was unicast, now shows "
              f"{alarm.replica_count} origins ({alarm.detail}):")
        for city in current.results[alarm.prefix].cities:
            distance = city.location.distance_km(ATTACKER)
            tag = "<- near the attacker" if distance < 1500 else ""
            print(f"    {city}  {tag}")
    if not alarms:
        print("(no alarm: the attack was invisible from this platform — "
              "try more vantage points)")


if __name__ == "__main__":
    main()
