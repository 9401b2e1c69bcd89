"""Census analysis & characterization: combine, analyze, characterize."""

from .analysis import AnalysisResult, CensusFunnel, analyze_matrix, census_funnel
from .characterize import ASFootprint, Characterization, GlanceRow
from .combine import RttMatrix, combine_censuses, matrix_from_census, merge_matrices
from .coverage import CoverageReport, coverage_report
from .fastpath import FastAnalysisEngine, SharedGeometry
from .geomap import GeoGrid, deployment_map, replica_density_map
from .hijack import inject_hijack
from .longitudinal import (
    ASChange,
    EvolutionConfig,
    LongitudinalReport,
    compare_epochs,
    evolve_catalog,
)
from .refine import PrefixRefinement, RefinementReport, refine_detected
from .performance import (
    AffinityReport,
    ProximityReport,
    affinity,
    availability,
    proximity,
)
from .protocols import ProbeProtocol, protocol_recall_table, response_rate
from .ranks import AlexaSite, alexa_anycast_sites, alexa_hosted_prefixes, caida_top_asns
from .report import (
    comparison_rows,
    empirical_ccdf,
    empirical_cdf,
    format_table,
    quantile_at,
)
from .validation import PrefixValidation, ValidationReport, validate_deployment
from .webhosting import (
    FrontpageResolver,
    Resolution,
)

__all__ = [
    "AnalysisResult",
    "CensusFunnel",
    "analyze_matrix",
    "census_funnel",
    "ASFootprint",
    "Characterization",
    "GlanceRow",
    "RttMatrix",
    "combine_censuses",
    "matrix_from_census",
    "merge_matrices",
    "CoverageReport",
    "coverage_report",
    "FastAnalysisEngine",
    "SharedGeometry",
    "GeoGrid",
    "deployment_map",
    "replica_density_map",
    "inject_hijack",
    "PrefixRefinement",
    "RefinementReport",
    "refine_detected",
    "ASChange",
    "EvolutionConfig",
    "LongitudinalReport",
    "compare_epochs",
    "evolve_catalog",
    "AffinityReport",
    "ProximityReport",
    "affinity",
    "availability",
    "proximity",
    "ProbeProtocol",
    "protocol_recall_table",
    "response_rate",
    "AlexaSite",
    "alexa_anycast_sites",
    "alexa_hosted_prefixes",
    "caida_top_asns",
    "comparison_rows",
    "empirical_ccdf",
    "empirical_cdf",
    "format_table",
    "quantile_at",
    "PrefixValidation",
    "ValidationReport",
    "validate_deployment",
    "FrontpageResolver",
    "Resolution",
]
