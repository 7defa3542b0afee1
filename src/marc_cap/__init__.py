"""Sum-capacity bounds, rate regions, and achievability classification for
K-user degraded Gaussian multiaccess relay channels."""

from .bounds import (
    CorrelationVector,
    DfPowerSplit,
    DomainError,
    beta_star,
    bound_functions,
    df_to_correlation,
    subset_label,
)
from .channel import ChannelConfig, ValidationError, awgn_capacity, symmetric, validate
from .polymatroid import (
    ACTIVE,
    INACTIVE,
    CertifyResult,
    IntersectionOutcome,
    SubsetFunction,
    certify,
    intersection_max_sum,
    vertex_enumeration,
)
from .region import (
    RegionPolytope,
    TimeSharingMixture,
    build_df_region,
    build_intersection,
    build_outer_region,
    hausdorff_distance,
)
from .sumcap import (
    MaxMinSolution,
    RuleSetScan,
    bottleneck_check,
    gamma_rule_outer,
    maxmin_rule_inner,
    scan_active_rules,
    solve_equalizer,
    sum_capacity,
)
from .verify import (
    ChordReport,
    DominanceReport,
    GridMaxMin,
    McReport,
    chord_check,
    dominance_check,
    grid_maxmin,
    mc_relay_conditional_variance,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVE",
    "INACTIVE",
    "CertifyResult",
    "ChannelConfig",
    "ChordReport",
    "CorrelationVector",
    "DfPowerSplit",
    "DominanceReport",
    "DomainError",
    "GridMaxMin",
    "IntersectionOutcome",
    "MaxMinSolution",
    "McReport",
    "RegionPolytope",
    "RuleSetScan",
    "SubsetFunction",
    "TimeSharingMixture",
    "ValidationError",
    "awgn_capacity",
    "beta_star",
    "bottleneck_check",
    "bound_functions",
    "build_df_region",
    "build_intersection",
    "build_outer_region",
    "certify",
    "chord_check",
    "df_to_correlation",
    "dominance_check",
    "gamma_rule_outer",
    "grid_maxmin",
    "hausdorff_distance",
    "intersection_max_sum",
    "maxmin_rule_inner",
    "mc_relay_conditional_variance",
    "scan_active_rules",
    "solve_equalizer",
    "subset_label",
    "sum_capacity",
    "symmetric",
    "validate",
    "vertex_enumeration",
]
