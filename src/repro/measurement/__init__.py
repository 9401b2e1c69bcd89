"""Measurement platform simulator: platforms, prober, censuses, portscan."""

from .ark import ArkDataset, ark_round
from .atlas import AtlasBudget, CampaignCost, campaign_cost, census_feasible
from .campaign import (
    CampaignHealthReport,
    Census,
    CensusAborted,
    CensusCampaign,
    CensusInterrupted,
)
from .faults import (
    FaultKind,
    FaultPlan,
    PoisonKind,
    PoisonPlan,
    RetryPolicy,
    StrikeCounter,
)
from .greylist import Blacklist, Greylist
from .httpprobe import (
    HttpResponse,
    SiteCodeBook,
    http_probe,
    measure_http_ground_truth,
    publicly_advertised_cities,
    replica_city_from_headers,
)
from .lfsr import lfsr_permutation, width_for
from .platform import Platform, VantagePoint, planetlab_platform, ripe_platform
from .portscan import (
    HostScan,
    PortObservation,
    PortscanReport,
    nmap_is_ssl,
    nmap_service_name,
    run_portscan,
    scan_deployment,
)
from .prober import (
    ERROR_EMISSION_PROB,
    FULL_RATE_PPS,
    SAFE_RATE_PPS,
    ScanTargets,
    VpScanResult,
    base_rtt_row,
    simulate_vp_scan,
)
from .recordio import (
    FLAG_OTHER_ERROR,
    FLAG_REPLY,
    CensusRecords,
    CorruptBatchError,
    concatenate,
    flag_for,
    outcome_for,
)

__all__ = [
    "CampaignHealthReport",
    "CensusAborted",
    "CensusInterrupted",
    "FaultKind",
    "FaultPlan",
    "PoisonKind",
    "PoisonPlan",
    "RetryPolicy",
    "StrikeCounter",
    "CorruptBatchError",
    "ArkDataset",
    "ark_round",
    "AtlasBudget",
    "CampaignCost",
    "campaign_cost",
    "census_feasible",
    "Census",
    "CensusCampaign",
    "Blacklist",
    "Greylist",
    "HttpResponse",
    "SiteCodeBook",
    "http_probe",
    "measure_http_ground_truth",
    "publicly_advertised_cities",
    "replica_city_from_headers",
    "lfsr_permutation",
    "width_for",
    "Platform",
    "VantagePoint",
    "planetlab_platform",
    "ripe_platform",
    "HostScan",
    "PortObservation",
    "PortscanReport",
    "nmap_is_ssl",
    "nmap_service_name",
    "run_portscan",
    "scan_deployment",
    "ERROR_EMISSION_PROB",
    "FULL_RATE_PPS",
    "SAFE_RATE_PPS",
    "ScanTargets",
    "VpScanResult",
    "base_rtt_row",
    "simulate_vp_scan",
    "FLAG_OTHER_ERROR",
    "FLAG_REPLY",
    "CensusRecords",
    "concatenate",
    "flag_for",
    "outcome_for",
]
