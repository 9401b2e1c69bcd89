"""Network substrate: addressing, ASes, latency, ICMP, and TCP services."""

from .addresses import (
    Prefix,
    format_ipv4,
    format_slash24,
    host_in_slash24,
    is_reserved,
    parse_ipv4,
    parse_slash24,
    slash24_base_address,
    slash24_of,
    split_to_slash24,
)
from .asn import ASRegistry, AutonomousSystem, BusinessCategory
from .icmp import (
    GREYLIST_COMPOSITION,
    NO_RATE_LIMIT,
    IcmpOutcome,
    RateLimitPolicy,
    outcome_from_code,
)
from .latency import CLEAN_MODEL, DEFAULT_MODEL, NOISY_MODEL, LatencyModel
from .services import (
    SOFTWARE_CATALOG,
    SSL_PORTS,
    WELL_KNOWN_SERVICES,
    Software,
    SoftwareCategory,
    is_ssl,
    is_well_known,
    service_name,
    software,
)

__all__ = [
    "Prefix",
    "format_ipv4",
    "format_slash24",
    "host_in_slash24",
    "is_reserved",
    "parse_ipv4",
    "parse_slash24",
    "slash24_base_address",
    "slash24_of",
    "split_to_slash24",
    "ASRegistry",
    "AutonomousSystem",
    "BusinessCategory",
    "GREYLIST_COMPOSITION",
    "NO_RATE_LIMIT",
    "IcmpOutcome",
    "RateLimitPolicy",
    "outcome_from_code",
    "CLEAN_MODEL",
    "DEFAULT_MODEL",
    "NOISY_MODEL",
    "LatencyModel",
    "SOFTWARE_CATALOG",
    "SSL_PORTS",
    "WELL_KNOWN_SERVICES",
    "Software",
    "SoftwareCategory",
    "is_ssl",
    "is_well_known",
    "service_name",
    "software",
]
