"""Multi-protocol recall model (paper Fig. 6, Sec. 3.4).

Before settling on ICMP, the paper measured a reduced target set with five
probe types — ICMP echo, TCP SYN to ports 53 and 80, and DNS queries over
UDP and TCP — and found that "protocols other than ICMP have a binary
recall: they work well only if the service is known a priori", while ICMP
replies across all deployments.

The model: a probe succeeds when the target actually runs the matching
service (from its catalog port/software profile), degraded by a small loss
rate; ICMP succeeds everywhere anycast infrastructure is deployed.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..internet.deployments import AnycastDeployment
from ..net.services import SOFTWARE_CATALOG, SoftwareCategory


class ProbeProtocol(enum.Enum):
    """The five probe types of the paper's Fig. 6."""

    ICMP = "ICMP"
    TCP_53 = "TCP-53"
    TCP_80 = "TCP-80"
    DNS_UDP = "DNS/UDP"
    DNS_TCP = "DNS/TCP"


#: Residual loss even when the service exists (network noise, filtering).
BASE_LOSS = 0.04


def _runs_dns(dep: AnycastDeployment) -> bool:
    """Whether the deployment actually answers DNS queries.

    An open TCP port 53 is necessary but not sufficient (some CDNs keep it
    open for zone transfers without serving recursive queries); we require
    DNS software in the fingerprint profile as well.
    """
    if 53 not in dep.entry.ports:
        return False
    return any(
        SOFTWARE_CATALOG[name].category is SoftwareCategory.DNS
        for name in dep.entry.software
    )


def response_rate(
    dep: AnycastDeployment,
    protocol: ProbeProtocol,
    probes: int = 100,
    seed: int = 6,
) -> float:
    """Fraction of ``probes`` answered by the deployment for a protocol."""
    if probes < 1:
        raise ValueError("probes must be positive")
    if protocol is ProbeProtocol.ICMP:
        capable = True
    elif protocol is ProbeProtocol.TCP_53:
        capable = 53 in dep.entry.ports
    elif protocol is ProbeProtocol.TCP_80:
        capable = 80 in dep.entry.ports
    else:  # DNS over UDP or TCP
        capable = _runs_dns(dep)
    rng = np.random.default_rng(
        seed * 100_003 + dep.entry.asn + zlib.crc32(protocol.value.encode()) % 1000
    )
    if not capable:
        # Binary recall: essentially nothing answers.
        return float((rng.random(probes) < 0.01).mean())
    return float((rng.random(probes) > BASE_LOSS).mean())


def protocol_recall_table(
    deployments: Sequence[AnycastDeployment],
    protocols: Sequence[ProbeProtocol] = tuple(ProbeProtocol),
    probes: int = 100,
) -> Dict[str, Dict[str, float]]:
    """Deployment-name -> protocol -> response rate (the Fig. 6 matrix)."""
    table: Dict[str, Dict[str, float]] = {}
    for dep in deployments:
        table[dep.entry.name] = {
            proto.value: response_rate(dep, proto, probes=probes) for proto in protocols
        }
    return table
