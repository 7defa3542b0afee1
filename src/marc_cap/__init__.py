"""Sum-capacity bounds, rate regions, and achievability classification for
K-user degraded Gaussian multiaccess relay channels."""

import ctypes as _ctypes

# glibc's default malloc maps arrays above a dynamic threshold with mmap and
# returns freed heap above 128 KiB to the OS, so every repeated call faults
# its (2^K, n) bound tables in again. A 32 MiB mmap threshold (the top of
# glibc's own dynamic range on 64-bit) serves every table, at most 2.5 MiB,
# from the heap; a 64 MiB trim threshold keeps a region operation's ~18 MB
# working set resident between calls. Setting either one stops glibc from
# moving the other, so set both.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


def _keep_freed_memory():
    """Set the two malloc tunables for this process, on glibc only."""
    try:
        libc = _ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    if hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (_ctypes.c_int, _ctypes.c_int)
        libc.mallopt.restype = _ctypes.c_int
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_memory()

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
)
from .region import (
    RegionPolytope,
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
]
